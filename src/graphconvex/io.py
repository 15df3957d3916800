"""Line-oriented text formats for graphs, vertex sets and vertex functions.

Graph files::

    # comment
    v a
    e a b
    e b c 2.5

``v <id>`` declares a vertex, ``e <id1> <id2> [weight]`` an edge (weight
defaults to 1).  Ids are whitespace-free tokens; lattice vertices print as
``(c1,...,cn)``.  Set files hold one vertex id per line; function files hold
``<id> <value>`` with ``inf`` as the only non-numeric value: any other
token float() reads as infinite (``Infinity``, ``+inf``, ``1e400``) is
rejected.  Int tokens stay exact up to the interpreter's int
string-conversion limit (``sys.get_int_max_str_digits()``, 4300 digits by
default); a longer one reads as an infinite float and is rejected too.

Graph checks live in two places.  :func:`parse_graph` checks each line's
directive, token count and weight and each ``v`` id's repeat, and leaves
self-loops and duplicate edges (by value, either way round) to
:class:`~graphconvex.graph.Graph`.  Only when either fails is the text
read again, with every check made at its line, to report the first fault
in line order.
"""

from __future__ import annotations

import math

from .graph import Graph


class FormatError(ValueError):
    """Parse or serialization failure, carrying a 1-based line number."""

    def __init__(self, line: int | None, message: str):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def format_vertex(v) -> str:
    """Token form of a vertex id: tuples as (c1,...,cn), everything else str()."""
    if isinstance(v, tuple):
        return "(" + ",".join(str(c) for c in v) + ")"
    return str(v)


def parse_vertex_token(token: str):
    """Invert :func:`format_vertex` for int and int-tuple ids.

    Tokens that do not look like ints or int tuples stay plain strings, so
    graphs with named vertices round-trip too (as strings).
    """
    if token.startswith("(") and token.endswith(")"):
        inner = token[1:-1]
        try:
            return tuple(int(p) for p in inner.split(",")) if inner else ()
        except ValueError:
            return token
    try:
        return int(token)
    except ValueError:
        return token


def vertex_lookup(vertices) -> dict:
    """Token -> vertex map used to resolve ids from set/function files."""
    return {format_vertex(v): v for v in vertices}


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield lineno, tokens


def _parse_weight(token: str, lineno: int):
    try:
        value: int | float = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise FormatError(lineno, f"bad weight {token!r}") from None
    if not 0 < value < math.inf:  # exact on ints beyond float range
        raise FormatError(lineno, f"weight must be finite and positive, got {token!r}")
    return value


def parse_graph(text: str) -> Graph:
    """Graph file -> :class:`Graph`; a :class:`FormatError` names the
    first faulty line (where graph checks live: see the module docstring)."""
    try:
        return _read_graph(text, checked=False)
    except ValueError:
        pass
    return _read_graph(text, checked=True)


class _Ids(dict):
    """Token -> vertex id, each distinct token parsed once."""

    def __missing__(self, token: str):
        self[token] = vid = parse_vertex_token(token)
        return vid


def _read_graph(text: str, checked: bool) -> Graph:
    """The one parse loop of :func:`parse_graph`.  ``checked`` adds, at
    their lines, the edge checks ``Graph`` makes."""
    ids = _Ids()
    vertices: list = []
    seen_vertices: set = set()
    edges: list = []
    seen_edges: set = set()
    for lineno, tokens in _content_lines(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "v":
            if len(args) != 1:
                raise FormatError(lineno, "v takes exactly one id")
            vid = ids[args[0]]
            if vid in seen_vertices:
                raise FormatError(lineno, f"duplicate vertex {args[0]}")
            seen_vertices.add(vid)
            vertices.append(vid)
        elif kind == "e":
            if len(args) not in (2, 3):
                raise FormatError(lineno, "e takes two ids and an optional weight")
            u, v = ids[args[0]], ids[args[1]]
            if checked:
                if u == v:
                    raise FormatError(lineno, f"self-loop at {args[0]}")
                key = frozenset((u, v))
                if key in seen_edges:
                    raise FormatError(lineno, f"duplicate edge {args[0]} {args[1]}")
                seen_edges.add(key)
            edges.append((u, v, _parse_weight(args[2], lineno)) if len(args) == 3 else (u, v))
        else:
            raise FormatError(lineno, f"unknown directive {kind!r}")
    return Graph(edges, vertices=vertices)


def format_graph(g: Graph) -> str:
    lines = []
    for v in g.vertices:
        token = format_vertex(v)
        _check_token(token)
        lines.append(f"v {token}")
    for u, v, w in g.edges():
        if w == 1 and isinstance(w, int):
            lines.append(f"e {format_vertex(u)} {format_vertex(v)}")
        else:
            lines.append(f"e {format_vertex(u)} {format_vertex(v)} {_format_number(w)}")
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str, vertices) -> set:
    """Set file -> set of vertex ids, resolved against the given universe."""
    lookup = vertex_lookup(vertices)
    out: set = set()
    for lineno, tokens in _content_lines(text):
        if len(tokens) != 1:
            raise FormatError(lineno, "expected one vertex id per line")
        token = tokens[0]
        if token not in lookup:
            raise FormatError(lineno, f"unknown vertex {token!r}")
        out.add(lookup[token])
    return out


def parse_vertex_function(text: str, vertices) -> dict:
    """Function file -> dict vertex -> value (+inf allowed, -inf rejected)."""
    lookup = vertex_lookup(vertices)
    out: dict = {}
    for lineno, tokens in _content_lines(text):
        if len(tokens) != 2:
            raise FormatError(lineno, "expected '<id> <value>' per line")
        token, vtoken = tokens
        if token not in lookup:
            raise FormatError(lineno, f"unknown vertex {token!r}")
        vertex = lookup[token]
        if vertex in out:
            raise FormatError(lineno, f"duplicate value for vertex {token!r}")
        out[vertex] = _parse_value(vtoken, lineno)
    return out


def format_vertex_function(f: dict, vertices=None) -> str:
    order = vertices if vertices is not None else sorted(f, key=format_vertex)
    lines = []
    for v in order:
        if v in f:
            lines.append(f"{format_vertex(v)} {_format_number(f[v])}")
    return "\n".join(lines) + "\n"


def _parse_value(token: str, lineno: int):
    if token == "inf":
        return math.inf
    try:
        return int(token)  # exact, up to the int string-conversion limit
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    # inf is spelled "inf" only: 1e400, Infinity and +inf are bad values, as are nan and -inf
    if not math.isfinite(value):
        raise FormatError(lineno, f"bad value {token!r}")
    return value


def _format_number(x) -> str:
    if x == math.inf:
        return "inf"
    return repr(x) if isinstance(x, float) else str(x)


def _check_token(token: str) -> None:
    if not token or any(c.isspace() for c in token) or "#" in token:
        raise FormatError(None, f"vertex id not serializable as a token: {token!r}")
