import argparse
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import validate

import graphconvex
from graphconvex import cli, lattice, theorems
from graphconvex.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    validate(payload, SCHEMA)
    return code, payload


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "c4.g"
    assert main(["gen", "cycle", "4", "-o", str(p)]) == 0
    return str(p)


@pytest.fixture()
def dist_fn_file(tmp_path):
    p = tmp_path / "d0.fn"
    p.write_text("0 0\n1 1\n2 2\n3 1\n")
    return str(p)


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------


def test_gen_cycle_text(capsys):
    code, out = run(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out == "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"


def test_gen_path_two(capsys):
    code, out = run(capsys, "gen", "path", "2")
    assert code == 0
    assert out == "v 0\nv 1\ne 0 1\n"


def test_gen_tiling_reports_interior(capsys):
    code, out = run(capsys, "gen", "tri-tiling", "3", "3")
    assert code == 0
    assert out.splitlines()[0] == "# interior (1,1)"


def test_gen_lattice_window_forms(capsys):
    code, out = run(capsys, "gen", "lattice", "--window", "-2:2,-2:2")
    assert code == 0
    assert sum(line.startswith("v ") for line in out.splitlines()) == 25
    assert sum(line.startswith("e ") for line in out.splitlines()) == 40
    # size form: a centred box, dimension from --dim (default 1)
    code, boxed = run(capsys, "gen", "lattice", "--window", "5", "--dim", "2")
    assert sum(line.startswith("v ") for line in boxed.splitlines()) == 25
    code, line1d = run(capsys, "gen", "lattice", "--window", "5")
    assert sum(line.startswith("v ") for line in line1d.splitlines()) == 5


def test_gen_random_connected_deterministic(capsys):
    _, a = run(capsys, "gen", "random", "7", "0.4", "--seed", "3", "--connected")
    _, b = run(capsys, "gen", "random", "7", "0.4", "--seed", "3", "--connected")
    assert a == b and a.count("v ") == 7


def test_gen_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.g"
    code, out = run(capsys, "gen", "cycle", "3", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("v 0\n")


# ----------------------------------------------------------------------
# hull
# ----------------------------------------------------------------------


def test_hull_text(square_file, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n2\n")
    code, out = run(capsys, "hull", "--graph", square_file, "--set", str(s))
    assert code == 0
    assert out == "input: 0 2\nhull: 0 1 2 3\ngrew: yes\n"


def test_hull_on_int_weights_beyond_float_range(tmp_path, capsys):
    w = 10**400  # 401 digits, no float
    (tmp_path / "g.txt").write_text(f"e 0 1 {w}\ne 1 2 {w}\n")
    (tmp_path / "s.txt").write_text("0\n2\n")
    files = ["--graph", str(tmp_path / "g.txt"), "--set", str(tmp_path / "s.txt")]
    code, out = run(capsys, "hull", *files)
    assert (code, out) == (0, "input: 0 2\nhull: 0 1 2\ngrew: yes\n")


def test_hull_on_a_float_weight_beside_an_int_beyond_float_range_exits_two(tmp_path, capsys):
    # the sums of such weights overflowed in Dijkstra: a traceback and exit 1
    (tmp_path / "g.txt").write_text(f"e 0 1 {10**400}\ne 1 2 0.5\n")
    (tmp_path / "s.txt").write_text("0\n2\n")
    files = ["--graph", str(tmp_path / "g.txt"), "--set", str(tmp_path / "s.txt")]
    assert main(["hull", *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: edge 0-1: an int weight beyond float range cannot meet a float weight\n"
    )


def test_hull_on_float_weights_whose_sum_overflows_exits_two(tmp_path, capsys):
    # the path 0-1-2 read as unreachable: "hull: 0 2" and exit 0
    (tmp_path / "g.txt").write_text("e 0 1 1e308\ne 1 2 1e308\n")
    (tmp_path / "s.txt").write_text("0\n2\n")
    files = ["--graph", str(tmp_path / "g.txt"), "--set", str(tmp_path / "s.txt")]
    for argv in (["hull", *files], ["check", "set-convex", *files]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: the edge weights sum beyond float range, "
                                           "so float path lengths would overflow\n")


def test_hull_json_and_one_step(square_file, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n2\n")
    code, payload = run_json(
        capsys, "hull", "--graph", square_file, "--set", str(s), "--one-step"
    )
    assert code == 0
    assert payload["report"] == "hull"
    assert payload["one_step"] is True
    assert payload["hull"] == ["0", "1", "2", "3"]
    assert payload["grew"] is True


def test_hull_reads_stdin_graph(tmp_path, capsys, monkeypatch):
    s = tmp_path / "s.txt"
    s.write_text("0\n1\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("v 0\nv 1\nv 2\ne 0 1\ne 1 2\n"))
    code, out = run(capsys, "hull", "--graph", "-", "--set", str(s))
    assert code == 0
    assert "hull: 0 1\n" in out


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def test_check_fn_convex_fails_on_square(square_file, dist_fn_file, capsys):
    code, out = run(capsys, "check", "fn-convex", "--graph", square_file, "--fn", dist_fn_file)
    assert code == 1
    assert "2: violated pair=[1, 3] lhs=2 rhs=1" in out
    assert "result: fail (1/4 violated, 0 skipped)" in out


def test_check_fn_convex_json_rows(square_file, dist_fn_file, capsys):
    code, payload = run_json(
        capsys, "check", "fn-convex", "--graph", square_file, "--fn", dist_fn_file
    )
    assert code == 1
    assert payload["ok"] is False
    bad = [r for r in payload["rows"] if r["verdict"] == "violated"]
    assert bad == [{"vertex": "2", "verdict": "violated", "pair": ["1", "3"], "lhs": 2, "rhs": 1}]


def test_check_subharmonic(square_file, dist_fn_file, tmp_path, capsys):
    code, out = run(capsys, "check", "subharmonic", "--graph", square_file, "--fn", dist_fn_file)
    assert code == 1  # f(2) = 2 > mean 1
    const = tmp_path / "const.fn"
    const.write_text("0 5\n1 5\n2 5\n3 5\n")
    code, out = run(capsys, "check", "subharmonic", "--graph", square_file, "--fn", str(const))
    assert code == 0
    assert "result: pass (0/4 violated, 0 skipped)" in out
    code, _ = run(capsys, "check", "harmonic", "--graph", square_file, "--fn", str(const))
    assert code == 0
    code, _ = run(capsys, "check", "harmonic", "--graph", square_file, "--fn", dist_fn_file)
    assert code == 1


def test_check_skips_unset_vertices(square_file, tmp_path, capsys):
    part = tmp_path / "part.fn"
    part.write_text("0 0\n1 1\n3 1\n")
    code, payload = run_json(
        capsys, "check", "subharmonic", "--graph", square_file, "--fn", str(part)
    )
    assert code == 0  # skipped rows are not violations
    rows = {r["vertex"]: r["verdict"] for r in payload["rows"]}
    assert rows == {"0": "ok", "1": "skipped", "2": "skipped", "3": "skipped"}


def test_check_set_convex(square_file, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n1\n2\n")
    code, payload = run_json(
        capsys, "check", "set-convex", "--graph", square_file, "--set", str(s)
    )
    assert code == 1
    assert payload["rows"][0]["missing"] == ["3"]
    s.write_text("0\n1\n")
    code, _ = run(capsys, "check", "set-convex", "--graph", square_file, "--set", str(s))
    assert code == 0


def test_check_midpoint_and_nn_on_lattice(tmp_path, capsys):
    fn = tmp_path / "abs.fn"
    fn.write_text("".join(f"({v}) {abs(v)}\n" for v in range(-2, 3)))
    code, _ = run(
        capsys, "check", "midpoint", "--lattice", "l1", "--window", "-2:2", "--fn", str(fn)
    )
    assert code == 0
    gap = tmp_path / "gap.txt"
    gap.write_text("(-1)\n(1)\n")
    code, payload = run_json(
        capsys, "check", "nn-property", "--lattice", "l1", "--window", "-2:2",
        "--set", str(gap),
    )
    assert code == 1
    assert payload["rows"][0]["pair"] == ["(-1)", "(1)"]
    assert payload["rows"][0]["z"] == "(0)"
    interval = tmp_path / "interval.txt"
    interval.write_text("(-1)\n(0)\n(1)\n")
    code, _ = run(
        capsys, "check", "nn-property", "--lattice", "l1", "--window", "-2:2",
        "--set", str(interval),
    )
    assert code == 0


# on the window 0:8: (1) and (2) meet 10**400 + 0.5, (3) exceeds its
# translates by a float within the tolerance, (4) and (6) have the missing
# (5) as a translate, (6) fails at z = (2) after it and (7) fails at z = (1)
MIDPOINT_ROWS = {0: 10**400, 1: 3, 2: 0.5, 3: 0.5000000000001, 4: 0.5, 6: 1, 7: 5, 8: 0}


@pytest.mark.parametrize("interior_only", [False, True])
def test_check_midpoint_rows_match_the_per_vertex_check(interior_only, monkeypatch,
                                                         tmp_path, capsys):
    """The plain pass settles rows (0) and (8), whose boxes are empty;
    every other row with a value goes to is_midpoint_convex_at, and the
    rows are those of that check at every vertex."""
    from graphconvex import format_vertex, is_midpoint_convex_at
    from graphconvex.lattice import _plain_passes

    unsettled = [(1,), (2,), (3,), (4,), (6,), (7,)]
    fn = tmp_path / "f.fn"
    fn.write_text("".join(f"({v}) {y!r}\n" for v, y in MIDPOINT_ROWS.items()))
    lat = graphconvex.build_lattice(graphconvex.LatticeSpec(1, "l1", 1, ((0, 8),)))
    f = {(v,): y for v, y in MIDPOINT_ROWS.items()}
    domain = sorted(lat.interior) if interior_only else lat.window
    settled = _plain_passes(lat, f)[0]
    assert [x for x in domain if x in f and not settled(x)] == unsettled
    expected = []
    for x in domain:
        name = format_vertex(x)
        if x not in f:
            expected.append({"vertex": name, "verdict": "skipped", "reason": "no value"})
            continue
        verdict = is_midpoint_convex_at(lat, f, x)
        row = {"vertex": name, "verdict": "ok" if verdict else "violated"}
        if not verdict:
            w = verdict.witness
            row.update(z=format_vertex(w.z), lhs=w.lhs, rhs=w.rhs)
        expected.append(row)
    called = []
    real = lattice.is_midpoint_convex_at
    monkeypatch.setattr(lattice, "is_midpoint_convex_at",
                        lambda lat, f, x, tol: called.append(x) or real(lat, f, x, tol=tol))
    argv = ["check", "midpoint", "--lattice", "l1", "--window", "0:8", "--fn", str(fn)]
    code, payload = run_json(capsys, *argv, *(["--interior-only"] if interior_only else []))
    assert (code, payload["ok"]) == (1, False)
    assert payload["rows"] == expected
    assert called == unsettled
    by_vertex = {r["vertex"]: r for r in payload["rows"]}
    assert by_vertex["(5)"]["verdict"] == "skipped"
    for v, z, lhs, rhs in (("(6)", "(2)", 2, 0.5), ("(7)", "(1)", 10, 1)):
        assert by_vertex[v] == {"vertex": v, "verdict": "violated", "z": z, "lhs": lhs, "rhs": rhs}
    assert [by_vertex[v]["verdict"] for v in ("(1)", "(2)", "(3)", "(4)")] == ["ok"] * 4


@pytest.mark.parametrize("values", ["", "0 1\n"])
def test_check_midpoint_on_a_graph_exits_two(values, square_file, tmp_path, capsys):
    # an empty function skips every row, which must not turn the misuse into a pass
    fn = tmp_path / "f.fn"
    fn.write_text(values)
    with pytest.raises(SystemExit) as exc:
        main(["check", "midpoint", "--graph", square_file, "--fn", str(fn)])
    assert exc.value.code == 2
    assert "midpoint needs a lattice instance" in capsys.readouterr().err


def test_check_interior_only_restricts_rows(tmp_path, capsys):
    fn = tmp_path / "sq.fn"
    fn.write_text("".join(f"({v}) {v * v}\n" for v in range(-2, 3)))
    code, payload = run_json(
        capsys, "check", "subharmonic", "--lattice", "l1", "--window", "-2:2",
        "--fn", str(fn), "--weighted", "--interior-only",
    )
    assert code == 0
    assert [r["vertex"] for r in payload["rows"]] == ["(-1)", "(0)", "(1)"]


# the check kinds that read a set, and those that compare means
SET_KINDS = ("set-convex", "nn-property")
MEAN_KINDS = ("subharmonic", "harmonic")


@pytest.mark.parametrize("kind", [k for k in cli.CHECK_KINDS if k not in MEAN_KINDS])
def test_check_rejects_weighted_where_no_mean_is_taken(kind, capsys):
    file = "--set" if kind in SET_KINDS else "--fn"
    with pytest.raises(SystemExit) as exc:
        main(["check", kind, *ON_LINE, file, "unread", "--weighted"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {kind} does not take --weighted\n")


@pytest.mark.parametrize("kind", cli.CHECK_KINDS)
def test_check_rejects_interior_only_on_a_graph(kind, square_file, capsys):
    file = "--set" if kind in SET_KINDS else "--fn"
    with pytest.raises(SystemExit) as exc:
        main(["check", kind, "--graph", square_file, file, "unread", "--interior-only"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # midpoint and nn-property need a lattice whatever the flags
    needs = kind if kind in ("midpoint", "nn-property") else "--interior-only"
    assert captured.err.endswith(f"error: {needs} needs a lattice instance\n")


@pytest.mark.parametrize("kind", SET_KINDS)
def test_check_rejects_interior_only_for_a_set_kind(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", kind, *ON_LINE, "--set", "unread", "--interior-only"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {kind} does not take --interior-only\n")


BIG = 10**400  # far beyond float range


@pytest.fixture()
def huge_path(tmp_path):
    """Path 0-1-2 and a function file whose int values overflow a float."""
    g = tmp_path / "p3.g"
    g.write_text("e 0 1\ne 1 2\n")
    fn = tmp_path / "huge.fn"
    fn.write_text(f"0 {BIG}\n1 {10 * BIG}\n2 {BIG + 1}\n")
    return str(g), str(fn)


def test_check_fn_convex_with_huge_ints(huge_path, capsys):
    g, fn = huge_path
    code, payload = run_json(capsys, "check", "fn-convex", "--graph", g, "--fn", fn)
    assert code == 1
    assert payload["rows"] == [
        {"vertex": "0", "verdict": "ok"},
        {"vertex": "1", "verdict": "violated", "pair": ["0", "2"], "lhs": 10 * BIG,
         "rhs": f"{2 * BIG + 1}/2"},
        {"vertex": "2", "verdict": "ok"},
    ]
    code, out = run(capsys, "check", "fn-convex", "--graph", g, "--fn", fn)
    assert code == 1
    assert f"1: violated pair=[0, 2] lhs={10 * BIG} rhs={2 * BIG + 1}/2\n" in out


def test_check_subharmonic_with_huge_ints(huge_path, capsys):
    g, fn = huge_path
    code, payload = run_json(capsys, "check", "subharmonic", "--graph", g, "--fn", fn)
    assert code == 1
    assert payload["rows"] == [
        {"vertex": "0", "verdict": "ok", "f_value": BIG, "mean": 10 * BIG},
        {"vertex": "1", "verdict": "violated", "f_value": 10 * BIG, "mean": f"{2 * BIG + 1}/2"},
        {"vertex": "2", "verdict": "ok", "f_value": BIG + 1, "mean": 10 * BIG},
    ]


@pytest.mark.parametrize("middle", ["0.5", "inf"])
def test_check_subharmonic_with_huge_ints_beside_floats(huge_path, middle, capsys):
    g, fn = huge_path
    Path(fn).write_text(f"0 {BIG}\n1 {middle}\n2 1\n")
    code, payload = run_json(capsys, "check", "subharmonic", "--graph", g, "--fn", fn)
    assert code == 1
    if middle == "0.5":
        assert payload["rows"] == [
            {"vertex": "0", "verdict": "violated", "f_value": BIG, "mean": 0.5},
            {"vertex": "1", "verdict": "ok", "f_value": 0.5, "mean": f"{BIG + 1}/2"},
            {"vertex": "2", "verdict": "violated", "f_value": 1, "mean": 0.5},
        ]
    else:
        assert payload["rows"] == [
            {"vertex": "0", "verdict": "ok", "f_value": BIG, "mean": "inf"},
            {"vertex": "1", "verdict": "violated", "f_value": "inf", "mean": f"{BIG + 1}/2"},
            {"vertex": "2", "verdict": "ok", "f_value": 1, "mean": "inf"},
        ]


def test_verify_thm1_with_huge_ints(huge_path, capsys):
    g, fn = huge_path
    code, out = run(capsys, "verify", "thm1", "--graph", g, "--fn", fn)
    assert code == 1  # not convex at the middle vertex, so nothing fires
    assert out == (
        f"claim: thm1\ninstance: {g}\nchecked: 1\nhypothesis_fired: 0\nverdict: vacuous\n"
    )


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_thm1_with_function(square_file, dist_fn_file, capsys):
    code, out = run(capsys, "verify", "thm1", "--graph", square_file, "--fn", dist_fn_file)
    assert code == 0
    assert "verdict: verified" in out
    assert "hypothesis_fired: 3" in out


def test_verify_thm1_flagless_sweeps_values(square_file, capsys):
    code, payload = run_json(capsys, "verify", "thm1", "--graph", square_file)
    assert code == 0
    assert payload["verdict"] == "verified"
    assert payload["hypothesis_fired"] == 192
    code, payload = run_json(
        capsys, "verify", "thm2", "--graph", square_file, "--values", "0,1"
    )
    assert code == 0
    assert payload["checked"] == 4 * 16


@pytest.mark.parametrize("claim", ["thm1", "thm2"])
def test_verify_flagless_sweeps_a_disconnected_graph(claim, tmp_path, capsys):
    # two paths and an isolated vertex: the sites are the two middles, and
    # no between-pair crosses components
    g = tmp_path / "two-paths.g"
    g.write_text("v 6\ne 0 1\ne 1 2\ne 3 4\ne 4 5\n")
    code, payload = run_json(capsys, "verify", claim, "--graph", str(g))
    assert code == 0
    assert (payload["verdict"], payload["checked"], payload["hypothesis_fired"]) == (
        "verified", 4374, 2592)
    # weights 1.0: the same unit metric, with float rows
    g.write_text("v 6\ne 0 1 1.0\ne 1 2 1.0\ne 3 4 1.0\ne 4 5 1.0\n")
    code, payload = run_json(capsys, "verify", claim, "--graph", str(g))
    assert (code, payload["checked"], payload["hypothesis_fired"]) == (0, 4374, 2592)


def test_verify_lem_deg2(square_file, capsys):
    code, out = run(capsys, "verify", "lem-deg2", "--graph", square_file)
    assert code == 0
    assert "checked: 324" in out and "hypothesis_fired: 195" in out


def test_verify_lattice_claims(tmp_path, capsys):
    code, payload = run_json(
        capsys, "verify", "thm4-cvx-sub", "--lattice", "l1", "--window", "-2:2",
        "--count", "5",
    )
    assert code == 0 and payload["verdict"] == "verified"
    code, payload = run_json(
        capsys, "verify", "lem-dist-pt", "--lattice", "linf", "--window", "-2:2,-2:2",
        "--count", "3",
    )
    assert code == 0 and payload["claim"] == "lem-dist-pt"
    gap = tmp_path / "gap.txt"
    gap.write_text("(-1)\n(1)\n")
    code, payload = run_json(
        capsys, "verify", "prop-nn", "--lattice", "l1", "--window", "-2:2",
        "--set", str(gap),
    )
    assert code == 1  # the hypothesis never fires, so nothing was verified
    assert payload["verdict"] == "vacuous"
    code, payload = run_json(
        capsys, "verify", "prop-dist-cvx", "--lattice", "l1", "--window", "-2:2"
    )
    assert code == 0 and payload["verdict"] == "verified"


def test_verify_vacuous_function_exits_one(square_file, tmp_path, capsys):
    fn = tmp_path / "peak.fn"
    fn.write_text("0 0\n1 5\n2 0\n3 0\n")  # convex nowhere the hypothesis fires
    code, payload = run_json(
        capsys, "verify", "thm1", "--graph", square_file, "--fn", str(fn)
    )
    assert payload["verdict"] in ("vacuous", "verified")
    assert (code == 0) == (payload["verdict"] == "verified")


VERIFY_INPUTS = {
    "c4.g": "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n",
    "d0.fn": "0 0\n1 1\n2 2\n3 1\n",
    "all4.txt": "0\n1\n2\n3\n",
    "s012.txt": "0\n1\n2\n",
    "abs.fn": "(-2) 2\n(-1) 1\n(0) 0\n(1) 1\n(2) 2\n",
    "mid.txt": "(-1)\n(0)\n(1)\n",
    "gap.txt": "(-1)\n(1)\n",
}
ON_C4 = ["--graph", "c4.g"]
ON_LINE = ["--lattice", "l1", "--window", "-2:2"]
NEEDS_GRAPH = "this claim needs --graph FILE"
NEEDS_LATTICE = "this operation needs --lattice NORM --window SPEC"

# Each claim with its single input file (where it reads one), its suite and
# the wrong instance kind: (argv, exit code, verdict, [checked, fired]); a
# usage error carries its message in place of the verdict and counts.
VERIFY_BRANCHES = [
    (["thm1", *ON_C4, "--fn", "d0.fn"], 0, "verified", [4, 3]),
    (["thm1", *ON_C4], 0, "verified", [324, 192]),
    (["thm1", *ON_LINE], 2, NEEDS_GRAPH, None),
    (["thm2", *ON_C4, "--fn", "d0.fn"], 0, "verified", [4, 3]),
    (["thm2", *ON_C4, "--values", "0,1"], 0, "verified", [64, 40]),
    (["thm2", *ON_LINE], 2, NEEDS_GRAPH, None),
    (["thm3", *ON_C4, "--set", "all4.txt"], 0, "verified", [4, 1]),
    (["thm3", *ON_C4, "--set", "s012.txt"], 1, "vacuous", [4, 0]),
    (["thm3", *ON_C4], 0, "verified", [60, 1]),
    (["thm3", *ON_LINE], 2, NEEDS_GRAPH, None),
    (["thm4-cvx-sub", *ON_LINE, "--fn", "abs.fn"], 0, "verified", [3, 3]),
    (["thm4-cvx-sub", *ON_LINE, "--count", "5"], 0, "verified", [15, 15]),
    (["thm4-cvx-sub", *ON_C4], 2, NEEDS_LATTICE, None),
    (["lem-deg2", *ON_C4], 0, "verified", [324, 195]),
    (["lem-deg2", *ON_LINE], 2, NEEDS_GRAPH, None),
    (["lem-dist-pt", *ON_LINE, "--count", "3"], 0, "verified", [15, 15]),
    (["lem-dist-pt", *ON_C4], 2, NEEDS_LATTICE, None),
    (["prop-dist-cvx", *ON_LINE, "--set", "mid.txt"], 0, "verified", [5, 1]),
    (["prop-dist-cvx", *ON_LINE, "--set", "gap.txt"], 1, "vacuous", [5, 0]),
    (["prop-dist-cvx", *ON_LINE], 0, "verified", [155, 15]),
    (["prop-dist-cvx", *ON_C4], 2, NEEDS_LATTICE, None),
    (["prop-nn", *ON_LINE, "--set", "mid.txt"], 0, "verified", [3, 3]),
    (["prop-nn", *ON_LINE, "--set", "gap.txt"], 1, "vacuous", [3, 0]),
    (["prop-nn", *ON_LINE], 0, "verified", [93, 45]),
    (["prop-nn", *ON_C4], 2, NEEDS_LATTICE, None),
    # the instance kind is checked before the input files
    (["thm3", *ON_LINE, "--fn", "abs.fn"], 2, NEEDS_GRAPH, None),
    (["prop-nn", *ON_C4, "--fn", "d0.fn"], 2, NEEDS_LATTICE, None),
]


def _write_verify_inputs(tmp_path, argv):
    for name, text in VERIFY_INPUTS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / tok) if tok in VERIFY_INPUTS else tok for tok in argv]


@pytest.mark.parametrize(
    "argv, code, verdict, counts", VERIFY_BRANCHES,
    ids=[" ".join(case[0]) for case in VERIFY_BRANCHES],
)
def test_verify_branch(argv, code, verdict, counts, tmp_path, capsys):
    argv = ["verify", *_write_verify_inputs(tmp_path, argv)]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {verdict}\n")
        return
    got, payload = run_json(capsys, *argv)
    assert (got, payload["claim"], payload["verdict"]) == (code, argv[1], verdict)
    assert [payload["checked"], payload["hypothesis_fired"]] == counts


# (argv, the verifier that runs, arguments it must receive); the verifier is
# replaced on the theorems module, so the claim table must look it up there
VERIFIER_CALLS = [
    (["thm1", *ON_C4, "--values", "0,1"], "exhaustive_small_graph_sweep",
     {"hypothesis": "triangle_free", "values": (0, 1)}),
    (["thm3", *ON_C4, "--set", "all4.txt", "--tolerance", "0.5"],
     "verify_dist_convex_implies_set_convex", {"members": {0, 1, 2, 3}, "tol": 0.5}),
    (["thm4-cvx-sub", *ON_LINE, "--count", "2", "--seed", "7", "--tolerance", "0.5"],
     "sweep_max_affine", {"count": 2, "seed": 7, "tol": 0.5}),
    (["lem-deg2", *ON_C4, "--values", "0,1"], "verify_degree2_equivalence", {"values": (0, 1)}),
    (["lem-dist-pt", *ON_LINE, "--count", "2", "--seed", "7", "--tolerance", "0.5"],
     "verify_dist_to_point_midpoint_convex", {"points": None, "count": 2, "seed": 7, "tol": 0.5}),
    (["prop-nn", *ON_LINE, "--tolerance", "0.5"], "sweep_subsets_nn", {"tol": 0.5}),
]


@pytest.mark.parametrize(
    "argv, name, expected", VERIFIER_CALLS, ids=[" ".join(c[0]) for c in VERIFIER_CALLS]
)
def test_verify_calls_the_verifier_by_name(argv, name, expected, tmp_path, capsys, monkeypatch):
    real, seen = getattr(theorems, name), []

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(theorems, name, spy)
    assert main(["verify", *_write_verify_inputs(tmp_path, argv)]) == 0
    assert len(seen) == 1
    assert {key: seen[0][key] for key in expected} == expected


UNREAD_FILES = [
    (claim, flag)
    for claim, (_, reads, _, _) in theorems.CLAIMS.items()
    for flag in ("fn", "set")
    if flag != reads
]


@pytest.mark.parametrize("claim, flag", UNREAD_FILES, ids=[" --".join(c) for c in UNREAD_FILES])
def test_verify_rejects_a_file_the_claim_does_not_read(claim, flag, tmp_path, capsys):
    on, data = ON_C4, {"fn": "d0.fn", "set": "s012.txt"}
    if theorems.CLAIMS[claim][0] == "lattice":
        on, data = ON_LINE, {"fn": "abs.fn", "set": "mid.txt"}
    argv = _write_verify_inputs(tmp_path, [claim, *on, f"--{flag}", data[flag]])
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: claim {claim} does not read --{flag}\n")


# the value options each claim's suite reads; with an input file, none is read
SUITE_OPTIONS = {
    "thm1": ("values",), "thm2": ("values",), "thm3": (), "thm4-cvx-sub": ("count", "seed"),
    "lem-deg2": ("values",), "lem-dist-pt": ("count", "seed"), "prop-dist-cvx": (),
    "prop-nn": (),
}
OPTION_VALUES = {"values": "a,b", "count": "5", "seed": "0"}
UNREAD_OPTIONS = [
    (claim, reads, option)
    for claim, (_, input_file, _, _) in theorems.CLAIMS.items()
    for reads in ([None, input_file] if input_file else [None])
    for option in OPTION_VALUES
    if reads or option not in SUITE_OPTIONS[claim]
]


def test_claim_table_lists_the_options_each_suite_reads():
    assert {claim: row[3][0] for claim, row in theorems.CLAIMS.items()} == SUITE_OPTIONS


@pytest.mark.parametrize("claim, reads, option", UNREAD_OPTIONS,
                         ids=[f"{c} {r or 'suite'} --{o}" for c, r, o in UNREAD_OPTIONS])
def test_verify_rejects_a_value_option_the_claim_does_not_read(
        claim, reads, option, tmp_path, capsys):
    on, data = ON_C4, {"fn": "d0.fn", "set": "all4.txt"}
    if theorems.CLAIMS[claim][0] == "lattice":
        on, data = ON_LINE, {"fn": "abs.fn", "set": "mid.txt"}
    files = [f"--{reads}", data[reads]] if reads else []
    argv = _write_verify_inputs(
        tmp_path, [claim, *on, *files, f"--{option}", OPTION_VALUES[option]])
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    with_file = f" with --{reads}" if reads else ""
    assert captured.err.endswith(f"error: claim {claim} does not read --{option}{with_file}\n")


def test_verify_suite_defaults_apply_when_the_options_are_not_given(monkeypatch, capsys):
    seen = []

    def spy(lat, *args):
        seen.append(args)
        return theorems.ClaimReport("spy", repr(lat), 1, 1, "verified")

    for name in ("sweep_max_affine", "verify_dist_to_point_midpoint_convex"):
        monkeypatch.setattr(theorems, name, spy)
    assert main(["verify", "thm4-cvx-sub", *ON_LINE]) == 0
    assert main(["verify", "lem-dist-pt", *ON_LINE]) == 0
    assert seen == [(20, 0, 1e-9), (None, 20, 0, 1e-9)]


@pytest.mark.parametrize("claim", theorems.CLAIM_IDS)
def test_verify_rejects_a_graph_and_a_lattice_together(claim, tmp_path, capsys):
    argv = _write_verify_inputs(tmp_path, [claim, *ON_C4, *ON_LINE])
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: give either --graph or --lattice, not both\n")


def test_verify_rejects_interior_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm4-cvx-sub", *ON_LINE, "--interior-only"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --interior-only\n")


def test_hull_rejects_interior_only(square_file, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n")
    with pytest.raises(SystemExit) as exc:
        main(["hull", "--graph", square_file, "--set", str(s), "--interior-only"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --interior-only\n")


LATTICE_ONLY = "--window, --dim and --radius describe a lattice; --graph takes none of them"


@pytest.mark.parametrize("command", [
    ["verify", "thm1", "--fn", "d0.fn"],
    ["verify", "thm1"],
    ["verify", "thm4-cvx-sub", "--fn", "d0.fn"],
    ["check", "fn-convex", "--fn", "d0.fn"],
    ["hull", "--set", "all4.txt"],
])
@pytest.mark.parametrize("flags", [
    ["--window", "3"], ["--dim", "2"], ["--radius", "1"],
    ["--window", "3", "--dim", "2", "--radius", "2"],
])
def test_graph_rejects_lattice_flags(command, flags, tmp_path, capsys):
    argv = _write_verify_inputs(tmp_path, [*command, *ON_C4, *flags])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {LATTICE_ONLY}\n")


def test_lattice_radius_defaults_to_one(capsys):
    code, payload = run_json(capsys, "verify", "thm4-cvx-sub", *ON_LINE, "--count", "1")
    assert code == 0
    assert payload["instance"].startswith("GroupLattice(l1 lattice r=1.0 window [-2,2])")


@pytest.mark.parametrize("argv, diameter", [
    (["verify", "lem-dist-pt", "--lattice", "l1", "--window", "0:3"], 3),
    (["check", "subharmonic", "--lattice", "l1", "--window", "0:3,0:3"], 6),
])
@pytest.mark.parametrize("radius", ["1e6", "1e300"])
def test_a_radius_past_the_window_acts_as_diameter_plus_one(
    tmp_path, capsys, argv, diameter, radius
):
    # Only offsets up to one past each axis's extent can matter: the box of
    # the whole ball overflowed at 1e300 and ran for minutes at 1e6.
    fn = tmp_path / "f.fn"
    fn.write_text("".join(f"({x},{y}) {x * y % 3}\n" for x in range(4) for y in range(4)))
    if argv[0] == "check":
        argv = [*argv, "--fn", str(fn)]
    reports = {}
    for r in (radius, str(diameter + 1)):
        start = time.perf_counter()
        code = main([*argv, "--radius", r, "--format", "json"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"warning: [^\n]*: window has no interior vertex; [^\n]*\n", captured.err)
        payload = json.loads(captured.out)
        validate(payload, SCHEMA)
        assert f"r={float(r)} window" in payload.pop("instance")
        reports[r] = code, payload
    assert reports[radius] == reports[str(diameter + 1)]


def test_docs_list_the_claim_table():
    enum = SCHEMA["$defs"]["claimReport"]["properties"]["claim"]["enum"]
    readme = (ROOT / "README.md").read_text().splitlines()
    header = next(i for i, line in enumerate(readme) if line.startswith("| claim id |"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), readme[header + 2:])
    cells = [[cell.strip() for cell in row.split("|")[1:3]] for row in rows]
    in_readme = [claim.strip("`") for claim, _ in cells]
    in_docstring = re.findall(r"^``([\w-]+)`` ", theorems.__doc__, flags=re.MULTILINE)
    assert theorems.CLAIM_IDS == tuple(theorems.CLAIMS)
    assert enum == in_readme == in_docstring == list(theorems.CLAIM_IDS)
    reads = [f"`--{row[1]}`" if row[1] else "none" for row in theorems.CLAIMS.values()]
    assert [read for _, read in cells] == reads


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------


def test_search_triangle_hit(capsys):
    code, payload = run_json(capsys, "search", "cycle", "--sampler", "distance", "--budget", "1")
    assert code == 1
    assert payload["found"] is True
    assert payload["witness"]["instance"] == "cycle(3)"
    assert payload["witness"]["vertex"] == "1"


def test_search_exhausted_budget(capsys):
    code, payload = run_json(
        capsys, "search", "grid", "--sampler", "constant", "--budget", "2"
    )
    assert code == 0
    assert payload["found"] is False


def test_search_classic_square_text(capsys):
    code, out = run(
        capsys, "search", "cycle", "--sampler", "distance",
        "--predicate", "distance-fn-not-convex", "--budget", "2",
    )
    assert code == 1
    assert "instance: cycle(4)" in out
    assert "function: d(.,0)" in out
    assert "vertex: 2" in out
    assert "detail.pair: [1, 3]" in out


# ----------------------------------------------------------------------
# golden text output: each text report, byte for byte
# ----------------------------------------------------------------------

GOLDEN_INPUTS = {
    "c4.g": "v 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n",
    # one betweenness step from {0, 5} reaches 1 and 4; the hull is everything
    "g6.g": "".join(f"e {u} {v}\n" for u, v in (
        (0, 1), (0, 2), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5))),
    "iso.g": "v 0\nv 1\nv 2\nv 9\ne 0 1\ne 1 2\n",
    "s05.txt": "0\n5\n",
    "s012.txt": "0\n1\n2\n",
    "gap.txt": "(-1)\n(1)\n",
    "mixed.fn": "0 0\n1 inf\n2 1.5\n",
    "fl.fn": "0 0.5\n1 2.0\n2 inf\n",
    "iso.fn": "0 1\n1 0\n2 1\n9 4\n",
    "c13.g": "".join(f"e {i} {(i + 1) % 13}\n" for i in range(13)),
    "c14.g": "".join(f"e {i} {(i + 1) % 14}\n" for i in range(14)),
}

GOLDEN = [
    (["hull", "--graph", "g6.g", "--set", "s05.txt"], 0,
     "input: 0 5\nhull: 0 1 2 3 4 5\ngrew: yes\n"),
    (["hull", "--graph", "g6.g", "--set", "s05.txt", "--one-step"], 0,
     "input: 0 5\nclosure: 0 1 4 5\ngrew: yes\n"),
    (["check", "set-convex", "--graph", "c4.g", "--set", "s012.txt"], 1,
     "set: violated missing=[3]\nresult: fail (1/1 violated, 0 skipped)\n"),
    (["check", "nn-property", "--lattice", "l1", "--window", "-2:2", "--set", "gap.txt"], 1,
     "set: violated pair=[(-1), (1)] z=(0)\nresult: fail (1/1 violated, 0 skipped)\n"),
    (["check", "fn-convex", "--graph", "c4.g", "--fn", "mixed.fn"], 1,
     "0: ok\n1: violated pair=[0, 2] lhs=inf rhs=0.75\n2: ok\n3: skipped reason=no value\n"
     "result: fail (1/4 violated, 1 skipped)\n"),
    (["check", "subharmonic", "--graph", "c4.g", "--fn", "fl.fn"], 0,
     "0: skipped reason=no value\n1: ok f_value=2 mean=inf\n2: skipped reason=no value\n"
     "3: skipped reason=no value\nresult: pass (0/4 violated, 3 skipped)\n"),
    (["check", "subharmonic", "--graph", "iso.g", "--fn", "iso.fn"], 1,
     "0: violated f_value=1 mean=0\n1: ok f_value=0 mean=1\n2: violated f_value=1 mean=0\n"
     "9: skipped reason=degree zero\nresult: fail (2/4 violated, 1 skipped)\n"),
    (["verify", "prop-dist-cvx", "--lattice", "l1", "--window", "0:2,0:2"], 1,
     "claim: prop-dist-cvx\n"
     "instance: GroupLattice(l1 lattice r=1.0 window [0,2]x[0,2]), all nonempty F\n"
     "checked: 4599\nhypothesis_fired: 117\nverdict: refuted\n"
     "witness.vertex: (0,0)\nwitness.outside_set: True\n"),
    (["verify", "lem-deg2", "--graph", "c13.g"], 0,
     "claim: lem-deg2\ninstance: Graph(vertices=13, edges=13), f in (0, 1, 2)^X\n"
     "checked: 20726199\nhypothesis_fired: 7204863\nverdict: verified\n"),
    (["search", "cycle", "--sampler", "distance", "--budget", "1"], 1,
     "found: yes\ninstance: cycle(3)\nfunction: d(.,0)\nvertex: 1\n"
     "detail.f_value: 1\ndetail.neighborhood_mean: 0.5\nvalues: 0=0 1=1 2=1\n"
     "graph:\n  v 0\n  v 1\n  v 2\n  e 0 1\n  e 0 2\n  e 1 2\n"),
    (["search", "path", "--sampler", "indicator", "--budget", "3",
      "--predicate", "distance-fn-not-convex"], 1,
     "found: yes\ninstance: path(3)\nfunction: indicator#11\nvertex: 1\n"
     "detail.pair: [0, 2]\ndetail.lhs: inf\ndetail.rhs: 0\ndetail.subharmonic: False\n"
     "values: 0=0 1=inf 2=0\ngraph:\n  v 0\n  v 1\n  v 2\n  e 0 1\n  e 1 2\n"),
    (["search", "grid", "--sampler", "constant", "--budget", "2"], 0,
     "found: no (budget 2)\n"),
]


@pytest.mark.parametrize(
    "argv, code, expected", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_golden_text_output(argv, code, expected, tmp_path, capsys):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / tok) if tok in GOLDEN_INPUTS else tok for tok in argv]
    assert run(capsys, *argv) == (code, expected)


def test_verify_lem_deg2_past_the_sweep_cap_exits_two(tmp_path, capsys):
    (tmp_path / "c14.g").write_text(GOLDEN_INPUTS["c14.g"])
    code = main(["verify", "lem-deg2", "--graph", str(tmp_path / "c14.g")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "too large" in captured.err


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_build_parser_gives_every_subcommand_its_arguments():
    sub = _subparsers(build_parser())
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, (_, add_arguments, _) in cli._COMMANDS.items():
        reference = argparse.ArgumentParser()
        add_arguments(reference)
        built = sub.choices[name]
        assert [a.option_strings or a.dest for a in built._actions] == \
            [a.option_strings or a.dest for a in reference._actions]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_build_outcome(argv, capsys, monkeypatch):
    """:func:`_outcome` with every parser, the command-line parse and the
    usage errors alike, the full build (:func:`build_parser`)."""
    built = []

    def full():
        built.append(build_parser())
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", full)
        patch.setattr(cli, "_parse", lambda argv: full().parse_args(argv))
        reference = _outcome(argv, capsys)
    assert built, "the reference run built no parser"
    for parser in built:
        assert list(_subparsers(parser).choices) == list(cli._COMMANDS)
    return reference


@pytest.fixture()
def cli_files(tmp_path, monkeypatch):
    """Run in a directory holding a graph ``g`` (the 4-cycle), a set ``s``
    and a function ``f`` on it, constant so that it passes every check,
    and ``w4``, the 4-cycle with one edge of weight 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g").write_text("e 0 1\ne 1 2\ne 2 3\ne 3 0\n")
    (tmp_path / "w4").write_text("e 0 1 2\ne 1 2\ne 2 3\ne 3 0\n")
    (tmp_path / "s").write_text("0\n2\n")
    (tmp_path / "f").write_text("0 0\n1 0\n2 0\n3 0\n")


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--help"], ["-h", "hull"], ["hull", "-h"], ["verify", "--help"],
     ["bogus"], ["bogus", "hull"], ["-x"], ["-x", "hull"], ["--format", "json", "hull"],
     ["hull", "--bogus"], ["hull", "--set"], ["hull", "--set", "s", "extra"],
     ["check", "fn-convex", "--graph", "g", "--fn", "f", "trailing", "args"],
     ["check", "bogus-kind"], ["check", "--tolerance", "abc", "fn-convex"],
     ["verify", "no-such-claim"], ["search", "cycle"], ["search", "cycle", "--sampler", "x"],
     ["gen"], ["gen", "bogus"], ["gen", "cycle"], ["gen", "cycle", "x"],
     ["gen", "cycle", "-h"], ["gen", "lattice", "--help"], ["gen", "lattice"],
     ["gen", "cycle", "4", "hull"], ["hull", "gen"], ["gen", "-h", "cycle"],
     ["gen", "cycle", "4"], ["gen", "lattice", "--window", "3", "--tolerance", "-1"],
     # usage errors a command reports after argparse
     ["verify", "thm1", "--graph", "g", "--lattice", "l1"],
     ["verify", "thm1", "--graph", "g", "--window", "3"],
     ["hull", "--graph", "-", "--set", "-"],
     ["hull", "--lattice", "l1", "--set", "s"],
     ["verify", "thm3", "--graph", "g", "--fn", "f"],
     ["verify", "prop-nn", "--lattice", "l1", "--window", "3", "--fn", "f"],
     ["verify", "lem-dist-pt", "--lattice", "l1", "--window", "3", "--values", "1"],
     ["check", "midpoint", "--graph", "g", "--fn", "f"],
     # trailing extras after a valid command, and valid commands
     ["gen", "cycle", "4", "extra"], ["hull", "--graph", "g", "--set", "s", "extra"],
     ["verify", "thm1", "--graph", "g", "--fn", "f", "--", "extra"],
     ["hull", "--graph", "g", "--set", "s"], ["verify", "thm1", "--graph", "g", "--fn", "f"],
     ["check", "fn-convex", "--graph", "g", "--fn", "f", "--format", "json"]],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_one_subparser_reads_like_the_full_build(argv, cli_files, capsys, monkeypatch):
    # exit code, stdout and stderr byte for byte against the full build
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(argv, capsys)
    assert got == _full_build_outcome(argv, capsys, monkeypatch)
    assert got[0] in (0, 2)


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["hull", "-h"], ["gen", "lattice", "--help"], ["hull", "--set"],
     ["verify", "thm1", "--graph", "g", "--lattice", "l1"], ["gen", "cycle", "4", "extra"]],
    ids=" ".join,
)
def test_one_subparser_reads_like_the_full_build_at_40_columns(argv, cli_files, capsys,
                                                               monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    got = _outcome(argv, capsys)
    assert got == _full_build_outcome(argv, capsys, monkeypatch)
    assert got[1] or got[2]


USAGE_80 = "usage: graphconvex [-h] {gen,hull,check,verify,search} ...\n"
LATE_USAGE_ERRORS = [
    (["hull", "--set", "s"], "give --graph FILE or --lattice NORM --window SPEC"),
    (["gen", "lattice", "--window", "1:x"], "bad window spec '1:x'"),
    (["hull", "--lattice", "l1", "--window", "0", "--set", "s"], "bad window spec '0'"),
    (["verify", "thm1", "--graph", "g", "--values", "1,a"], "bad value list '1,a'"),
    (["check", "fn-convex", "--graph", "g"], "this operation needs --fn FILE"),
    (["check", "set-convex", "--graph", "g"], "this operation needs --set FILE"),
]


@pytest.mark.parametrize("argv, message", LATE_USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in LATE_USAGE_ERRORS])
def test_a_usage_error_after_argparse_prints_the_usage_line(argv, message, cli_files, capsys,
                                                             monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(argv, capsys) == (2, "", f"{USAGE_80}graphconvex: error: {message}\n")


SEARCH_UNREAD = [
    (["grid", "--sampler", "distance", "--budget", "1", "--n", "5", "--p", "0.9", "--count", "3"],
     "family grid does not read --n"),
    (["cycle", "--sampler", "constant", "--p", "0.9"], "family cycle does not read --p"),
    (["path", "--sampler", "indicator", "--n", "5"], "family path does not read --n"),
    (["random", "--sampler", "distance", "--count", "3"], "sampler distance does not read --count"),
    (["random", "--sampler", "constant", "--count", "3"], "sampler constant does not read --count"),
]


@pytest.mark.parametrize("argv, message", SEARCH_UNREAD,
                         ids=[" ".join(argv) for argv, _ in SEARCH_UNREAD])
def test_search_rejects_an_option_it_does_not_read(argv, message, capsys, monkeypatch):
    # they were ignored, with exit 0
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(["search", *argv], capsys) == (
        2, "", f"{USAGE_80}graphconvex: error: {message}\n")


SEARCH_READ = [
    (["random", "--sampler", "random-int", "--n", "5", "--p", "0.9", "--count", "3"],
     {"n": 5, "p": 0.9, "count": 3}),
    (["random", "--sampler", "indicator"], {"n": None, "p": 0.5, "count": 20}),
    (["cycle", "--sampler", "distance"], {"n": None, "p": 0.5, "count": 20}),
]


@pytest.mark.parametrize("argv, read", SEARCH_READ, ids=[" ".join(argv) for argv, _ in SEARCH_READ])
def test_search_passes_the_options_it_reads(argv, read, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "search_counterexample", lambda *args, **kw: seen.append(kw))
    assert main(["search", *argv]) == 0
    assert [{key: kw[key] for key in read} for kw in seen] == [read]


UNIT_WEIGHT_ERRORS = [
    (["verify", "lem-deg2", "--graph", "w4"], "degree-2 equivalence assumes unit weights"),
    *((["verify", claim, "--graph", "w4", *fn], "structural hypotheses assume unit edge weights")
      for claim in ("thm1", "thm2") for fn in ([], ["--fn", "f"])),
]


@pytest.mark.parametrize("argv, message", UNIT_WEIGHT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in UNIT_WEIGHT_ERRORS])
def test_a_unit_weight_claim_on_a_weighted_graph_exits_two(argv, message, cli_files, capsys):
    # the thm1 and thm2 suites named a sweep preparation that no longer exists
    assert _outcome(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [[], ["gen"], ["hull"], ["check"], ["verify"], ["search"],
     *(["gen", fam] for fam in ("cycle", "path", "grid", "king", "tri-tiling", "random",
                                "lattice"))],
    ids=lambda argv: " ".join(argv) or "top",
)
def test_help_exits_zero(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: graphconvex", *argv]))


# ----------------------------------------------------------------------
# errors and plumbing
# ----------------------------------------------------------------------


def test_unknown_vertex_reports_line(square_file, tmp_path, capsys):
    bad = tmp_path / "bad.fn"
    bad.write_text("0 1\n9 2\n")
    code = main(["check", "subharmonic", "--graph", square_file, "--fn", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "unknown vertex" in err


def test_missing_file_exits_two(capsys):
    code = main(["check", "subharmonic", "--graph", "/nonexistent.g", "--fn", "/nonexistent.fn"])
    assert code == 2


def test_graph_and_lattice_conflict(square_file, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n")
    with pytest.raises(SystemExit) as exc:
        main(["hull", "--graph", square_file, "--lattice", "l1", "--window", "3",
              "--set", str(s)])
    assert exc.value.code == 2


def test_verify_validation_error_exits_two(tmp_path, capsys):
    p = tmp_path / "p.g"
    assert main(["gen", "path", "4", "-o", str(p)]) == 0
    code = main(["verify", "lem-deg2", "--graph", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "2-regular" in err


@pytest.mark.parametrize("argv, message", [
    (["gen", "random", "5", "0", "--connected"], "no connected G(5, 0.0) found"),
    (["gen", "random", "5", "nan"], "edge probability must lie in [0, 1], got nan"),
    (["gen", "random", "5", "-1"], "edge probability must lie in [0, 1], got -1.0"),
    (["search", "random", "--sampler", "constant", "--p", "1.5"], "got 1.5"),
    (["search", "random", "--sampler", "constant", "--n", "0"], "at least one vertex"),
    (["search", "cycle", "--sampler", "distance", "--budget", "-1"],
     "budget must be non-negative, got -1"),
    (["search", "cycle", "--sampler", "random-int", "--count", "-1"],
     "count must be non-negative, got -1"),
    (["verify", "lem-dist-pt", "--lattice", "l1", "--window", "-2:2", "--count", "-1"],
     "count must be non-negative, got -1"),
    (["verify", "thm4-cvx-sub", "--lattice", "l1", "--window", "-2:2", "--count", "-1"],
     "count must be non-negative, got -1"),
])
def test_bad_sampling_parameters_exit_two(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# a 4-cycle with a pendant vertex, every weight the float 1.5
PENDANT_SQUARE = "e 0 1 1.5\ne 1 2 1.5\ne 2 3 1.5\ne 3 0 1.5\ne 0 4 1.5\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-12"])
@pytest.mark.parametrize("argv", [
    ["hull", "--graph", "g.txt", "--set", "s.txt"],
    ["check", "fn-convex", "--graph", "g.txt", "--fn", "f.txt"],
    ["verify", "thm3", "--graph", "g.txt", "--set", "s.txt"],
    ["search", "cycle", "--sampler", "distance", "--budget", "0"],
    ["gen", "lattice", "--window", "3"],
], ids=lambda argv: argv[0])
def test_bad_tolerance_exits_two(argv, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(PENDANT_SQUARE)
    (tmp_path / "s.txt").write_text("0\n1\n")
    (tmp_path / "f.txt").write_text("0 0\n1 1\n2 0\n3 1\n4 1.5\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tolerance={value}"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"argument --tolerance: tolerance must be a finite number >= 0, got {float(value)!r}" \
        in captured.err


def test_hull_with_a_zero_tolerance_keeps_the_hull(tmp_path, capsys):
    # an infinite tolerance made every vertex lie between 0 and 1
    (tmp_path / "g.txt").write_text(PENDANT_SQUARE)
    (tmp_path / "s.txt").write_text("0\n1\n")
    files = ["--graph", str(tmp_path / "g.txt"), "--set", str(tmp_path / "s.txt")]
    for tol in ("0", "1e-9"):
        code, out = run(capsys, "hull", *files, "--tolerance", tol)
        assert (code, out) == (0, "input: 0 1\nhull: 0 1\ngrew: no\n")


@pytest.mark.parametrize("argv", [
    ["hull", "--graph", "-", "--set", "-"],
    ["check", "fn-convex", "--graph", "-", "--fn", "-"],
    ["check", "set-convex", "--graph", "-", "--set", "-"],
    ["check", "fn-convex", "--graph", "-", "--fn", "-", "--set", "-"],
    ["check", "midpoint", "--lattice", "l1", "--window", "3", "--fn", "-", "--set", "-"],
    ["verify", "thm1", "--graph", "-", "--fn", "-"],
    ["verify", "thm3", "--graph", "-", "--set", "-"],
], ids=" ".join)
def test_two_stdin_inputs_exit_two(argv, capsys, monkeypatch):
    stdin = io.StringIO("e 0 1\ne 1 2\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "only one input may be read from stdin ('-')" in captured.err
    assert stdin.tell() == 0  # rejected before anything was read


def test_bad_window_spec_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "lattice", "--window", "1:2,3:4", "--dim", "3"])
    assert exc.value.code == 2


NO_INTERIOR = ["verify", "lem-dist-pt", "--lattice", "l1", "--window", "0:3", "--radius", "5"]
NO_INTERIOR_WARNING = ("warning: l1 lattice r=5.0 window [0,3]: window has no interior vertex; "
                       "pointwise mean claims are vacuous here\n")


def test_a_lattice_without_interior_warns_in_one_line(capsys):
    # the library's UserWarning printed a source location and a source line
    code = main(NO_INTERIOR)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, NO_INTERIOR_WARNING)
    assert captured.out.endswith("verdict: verified\n")
    src = str(Path(graphconvex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "graphconvex", *NO_INTERIOR],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, captured.out, NO_INTERIOR_WARNING)


def test_module_entry_point(capsys, monkeypatch):
    # the child imports the same graphconvex as this process
    src = str(Path(graphconvex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "graphconvex", "gen", "cycle", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("v 0\n")
    # help and a usage error in a fresh process, whose parser reads the
    # terminal width itself, byte for byte against the full build in this one
    monkeypatch.setenv("COLUMNS", "60")
    for argv in (["hull", "--help"],
                 ["hull", "--graph", "g", "--lattice", "l1", "--set", "s"]):
        proc = subprocess.run([sys.executable, "-m", "graphconvex", *argv],
                              capture_output=True, env={**env, "COLUMNS": "60"})
        code, out, err = _full_build_outcome(argv, capsys, monkeypatch)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
        assert code == (0 if "--help" in argv else 2)
