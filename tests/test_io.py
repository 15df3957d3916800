import math
import sys

import pytest

from graphconvex import (
    FormatError,
    cycle,
    format_graph,
    format_vertex,
    format_vertex_function,
    grid,
    king_grid,
    parse_graph,
    parse_vertex_function,
    parse_vertex_set,
)
from graphconvex.io import parse_vertex_token


# ----------------------------------------------------------------------
# vertex tokens
# ----------------------------------------------------------------------


def test_format_vertex():
    assert format_vertex(3) == "3"
    assert format_vertex(-2) == "-2"
    assert format_vertex("abc") == "abc"
    assert format_vertex((1, -2)) == "(1,-2)"
    assert format_vertex((5,)) == "(5)"


def test_parse_vertex_token_inverts_format():
    for v in [0, -7, 42, (1, 2), (-3,), (0, 0, 0), "name", "x1"]:
        assert parse_vertex_token(format_vertex(v)) == v
    assert parse_vertex_token("(a,b)") == "(a,b)"  # non-int tuple stays a string
    assert parse_vertex_token("1.5") == "1.5"


# ----------------------------------------------------------------------
# graph files
# ----------------------------------------------------------------------


def test_parse_graph_basic():
    g = parse_graph("v a\nv b\ne a b\n")
    assert g.vertices == ("a", "b")
    assert g.distance("a", "b") == 1


def test_parse_graph_comments_blanks_and_weights():
    text = """
    # a weighted path
    v a

    e a b 2   # trailing comment
    e b c 0.5
    """
    g = parse_graph(text)
    assert set(g.vertices) == {"a", "b", "c"}
    assert g.distance("a", "c") == 2.5


def test_graph_round_trip_id_preserving():
    for g in [cycle(5), grid(2, 3), king_grid(3, 2)]:
        g2 = parse_graph(format_graph(g))
        assert g2.vertices == g.vertices
        assert g2.adjacency() == g.adjacency()


def test_weighted_round_trip():
    from graphconvex import Graph

    g = Graph([("a", "b", 2), ("b", "c", 0.75)])
    g2 = parse_graph(format_graph(g))
    assert g2.adjacency() == g.adjacency()
    assert "e a b 2" in format_graph(g)


def test_parse_graph_error_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_graph("v a\nq b\n")
    assert err.value.line == 2 and "unknown directive" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("v a\nv b\ne a a\n")
    assert err.value.line == 3 and "self-loop" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("e a b\ne b a\n")
    assert err.value.line == 2 and "duplicate edge" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("v a\nv a\n")
    assert err.value.line == 2 and "duplicate vertex" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("e a b zero\n")
    assert err.value.line == 1 and "weight" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("e a b -2\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_graph("v\n")
    assert err.value.line == 1


def test_parse_graph_keeps_int_weights_beyond_float_range():
    w = 10**400
    assert parse_graph(f"e a b {w}\ne b c {w}\n").distance("a", "c") == 2 * w
    for token in ("inf", "nan", "1e400", f"-{w}"):
        with pytest.raises(FormatError, match="weight must be finite and positive"):
            parse_graph(f"e a b {token}\n")


@pytest.mark.parametrize("text, line, message", [
    # several faults: the first in line order wins, whichever check finds it
    ("e a a\nv b\ne b c zero\n", 1, "self-loop at a"),
    ("e a b\ne b c -1\ne b a\n", 2, "weight must be finite and positive, got '-1'"),
    ("e a b\ne b a\ne c d zero\n", 2, "duplicate edge b a"),
    ("e a b\ne a b\ne c\n", 2, "duplicate edge a b"),
    ("v a\ne a b\nq\ne b b\n", 3, "unknown directive 'q'"),
    ("e x y\ne y y\nv x\nv x\n", 2, "self-loop at y"),
    ("v a\nv a\ne b b\n", 2, "duplicate vertex a"),
    # duplicates by value, not by token
    ("v 1\nv 01\n", 2, "duplicate vertex 01"),
    ("e 1 01\n", 1, "self-loop at 1"),
    ("e 1 2\ne 02 1\n", 2, "duplicate edge 02 1"),
    ("e (0,1) (1,1)\ne (1,1) (0,01)\n", 2, "duplicate edge (1,1) (0,01)"),
])
def test_parse_graph_reports_the_first_fault_in_line_order(text, line, message):
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_format_graph_rejects_unserializable_ids():
    from graphconvex import Graph

    with pytest.raises(FormatError):
        format_graph(Graph([("a b", "c")]))
    with pytest.raises(FormatError):
        format_graph(Graph([("a#1", "c")]))


# ----------------------------------------------------------------------
# set and function files
# ----------------------------------------------------------------------


def test_parse_vertex_set():
    universe = cycle(4).vertices
    assert parse_vertex_set("0\n2\n", universe) == {0, 2}
    assert parse_vertex_set("# nothing\n", universe) == set()


def test_parse_vertex_set_unknown_vertex_line_number():
    with pytest.raises(FormatError) as err:
        parse_vertex_set("0\n9\n", cycle(4).vertices)
    assert err.value.line == 2 and "unknown vertex" in str(err.value)
    with pytest.raises(FormatError):
        parse_vertex_set("0 1\n", cycle(4).vertices)


def test_parse_vertex_function():
    universe = cycle(3).vertices
    f = parse_vertex_function("0 1\n1 2.5\n2 inf\n", universe)
    assert f == {0: 1, 1: 2.5, 2: math.inf}
    assert isinstance(f[0], int)


def test_parse_vertex_function_tuple_ids():
    universe = grid(2, 2).vertices
    f = parse_vertex_function("(0,0) 3\n(1,1) 0\n", universe)
    assert f == {(0, 0): 3, (1, 1): 0}


def test_parse_vertex_function_errors():
    universe = cycle(3).vertices
    with pytest.raises(FormatError) as err:
        parse_vertex_function("0 1\nbogus 2\n", universe)
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_vertex_function("0 -inf\n", universe)
    with pytest.raises(FormatError):
        parse_vertex_function("0 nan\n", universe)
    with pytest.raises(FormatError) as err:
        parse_vertex_function("0 1\n0 2\n", universe)
    assert err.value.line == 2 and "duplicate" in str(err.value)
    with pytest.raises(FormatError):
        parse_vertex_function("0\n", universe)
    with pytest.raises(FormatError):
        parse_vertex_function("0 abc\n", universe)
    # inf is spelled "inf" only: no other token float() reads as infinite
    for token in ("1e400", "Infinity", "+inf", "INF", "infinity", "-1e400"):
        with pytest.raises(FormatError) as err:
            parse_vertex_function(f"0 1\n1 {token}\n", universe)
        assert str(err.value) == f"line 2: bad value {token!r}"
    f = parse_vertex_function(f"0 inf\n1 {10**400}\n2 1e308\n", universe)
    assert f == {0: math.inf, 1: 10**400, 2: 1e308}
    assert type(f[1]) is int


def test_int_values_past_the_conversion_limit_are_bad_values():
    # int() refuses them, and float() reads them as infinite
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")
    universe = cycle(3).vertices
    assert parse_vertex_function(f"0 {'1' * limit}\n", universe) == {0: int("1" * limit)}
    token = "1" * (limit + 1)
    with pytest.raises(FormatError) as err:
        parse_vertex_function(f"0 1\n1 {token}\n", universe)
    assert str(err.value) == f"line 2: bad value {token!r}"


def test_function_round_trip():
    universe = cycle(4).vertices
    f = {0: 0, 1: 1, 2: math.inf, 3: 2.5}
    text = format_vertex_function(f, universe)
    assert parse_vertex_function(text, universe) == f
    # partial functions serialize only their domain, in sorted order
    assert format_vertex_function({2: 5, 0: 1}) == "0 1\n2 5\n"
