"""Command line front end.

Subcommands
-----------

``gen``     write a generated graph (cycle, path, grid, king, tri-tiling,
            random, lattice) in the plain ``v``/``e`` text format
``hull``    convex hull (or one-step betweenness closure) of a vertex set
``check``   evaluate a single predicate on an instance, row per vertex
``verify``  run one named claim checker and report verified/vacuous/refuted
``search``  scan a graph family for a counterexample to a predicate

Exit codes: 0 = pass (check ok, claim verified, no counterexample found),
1 = fail (violated rows, refuted or vacuous claim, counterexample found),
2 = usage or input errors (bad flags, malformed files, unknown vertices).

Instances are either a graph file (``--graph FILE``, ``-`` for stdin) or a
norm lattice (``--lattice {l1,l2,linf} --window SPEC [--dim D] [--radius R]``).
A window is ``N`` (a centred box, needs ``--dim``) or comma-separated
``lo:hi`` ranges, one per axis.

Output has one path.  Each command returns a payload and an exit code:
``gen`` its graph text, the others the report dict that
``docs/report-schema.json`` describes.  :func:`main` renders the payload
once, as JSON or as text chosen by the report kind, and writes it to
stdout or ``-o FILE``.

Parsing has one parser per command line.  A command line that starts
with its command is parsed by that command's parser alone, which asks for
the terminal width once, not once per argument.  :func:`build_parser` is
the full build, every subcommand with its arguments; it is built only for
top-level help, for leftover arguments or a command line that does not
start with a command, and for usage errors.  A command raises a usage
error it finds after argparse, and :func:`main` reports it through the
full build, so usage lines and messages stay those of argparse.  No parser
or parsed input outlives a call of :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import shutil
import sys
import warnings

from . import generators
from .convexity import betweenness_closure, convex_hull, is_convex_at
from .extreal import DEFAULT_TOL, check_tolerance, report_value
from .graph import sort_vertices
from .io import (
    format_graph,
    format_vertex,
    parse_graph,
    parse_vertex_function,
    parse_vertex_set,
)
from .lattice import NORMS, GroupLattice, LatticeSpec, _tests, build_lattice
from .lattice import has_nearest_neighbor_property
from .lattice import is_midpoint_convex_at  # noqa: F401  uncalled; perfbench/selfcheck.py reads it
from .subharmonic import compare_to_neighborhood_mean
from . import theorems
from .theorems import (
    CLAIM_IDS,
    FAMILIES,
    PREDICATES,
    SAMPLERS,
    _convexity_witness,
    _midpoint_witness,
    search_counterexample,
)

CHECK_KINDS = (
    "set-convex",
    "fn-convex",
    "subharmonic",
    "harmonic",
    "midpoint",
    "nn-property",
)


def main(argv: list[str] | None = None) -> int:
    argv = _glue_window(sys.argv[1:] if argv is None else list(argv))
    args = _parse(argv)
    try:
        payload, code = _COMMANDS[args.command][2](args)
        text = _render(payload, getattr(args, "format", "text"))
        if args.output in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except _UsageError as exc:
        build_parser().error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


class _UsageError(Exception):
    """A usage error a command finds after argparse; :func:`main` reports
    it as argparse does.  Not a ValueError, which is an input error."""


def _glue_window(argv: list[str]) -> list[str]:
    """Join ``--window`` with its value so specs like ``-2:2`` are not
    mistaken for option flags by argparse."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            nxt = next(it, None)
            out.append(tok if nxt is None else f"--window={nxt}")
        else:
            out.append(tok)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its command's parser alone, under the prog
    :func:`build_parser` gives that subparser, when it starts with the
    command and leaves nothing over; else by the full build, which
    reports leftover arguments."""
    if argv and argv[0] in _COMMANDS:
        add_arguments = _COMMANDS[argv[0]][1]
        # one terminal query for every formatter argparse makes (one per argument)
        width = shutil.get_terminal_size().columns - 2  # what HelpFormatter computes
        parser = argparse.ArgumentParser(
            prog=f"graphconvex {argv[0]}",
            formatter_class=functools.partial(argparse.HelpFormatter, width=width),
        )
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    """The full build: the top-level parser, every subcommand with its
    arguments.  It is built only for top-level help, leftover arguments
    and usage errors: a command line that starts with its command is
    parsed by that command's parser alone (:func:`_parse`)."""
    parser = argparse.ArgumentParser(
        prog="graphconvex",
        description="Convexity and subharmonicity checks on graphs and norm lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


# -- arguments --------------------------------------------------------------------


def _add_output(p) -> None:
    p.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")


def _add_report(p) -> None:
    """-o, --format and --tolerance, which every report command takes."""
    _add_output(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--tolerance",
        type=_tolerance,
        default=DEFAULT_TOL,
        metavar="EPS",
        help="relative tolerance for float comparisons (default %(default)g)",
    )


def _add_instance(p, interior_only: bool = True) -> None:
    p.add_argument("--graph", metavar="FILE", help="graph file ('-' for stdin)")
    p.add_argument(
        "--lattice", choices=NORMS, metavar="NORM", help="use a norm lattice instance"
    )
    p.add_argument("--window", metavar="SPEC", help="N or lo:hi[,lo:hi...]")
    p.add_argument("--dim", type=int, metavar="D", help="lattice dimension")
    # None when not given, so --graph can reject it; a lattice reads 1.0 then
    p.add_argument("--radius", type=float, metavar="R", help="edge radius (default 1)")
    if interior_only:
        p.add_argument(
            "--interior-only", action="store_true",
            help="restrict rows to interior lattice vertices",
        )


def _add_files(p) -> None:
    p.add_argument("--fn", metavar="FILE", help="vertex-function file")
    p.add_argument("--set", metavar="FILE", help="vertex-set file")


# family -> (size positionals, generator)
_GEN_SIZED = {
    "cycle": (("n",), generators.cycle),
    "path": (("n",), generators.path),
    "grid": (("w", "h"), generators.grid),
    "king": (("w", "h"), generators.king_grid),
    "tri-tiling": (("w", "h"), generators.triangular_tiling),
}


def _gen_arguments(p_gen) -> None:
    fam = p_gen.add_subparsers(dest="family", required=True)
    # the families format as the gen parser does; add_parser would not pass it on
    add_parser = functools.partial(fam.add_parser, formatter_class=p_gen.formatter_class)
    for name, (sizes, _) in _GEN_SIZED.items():
        p = add_parser(name)
        _add_output(p)
        for size in sizes:
            p.add_argument(size, type=int)
    p = add_parser("random")
    _add_output(p)
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true")
    p = add_parser("lattice")
    _add_output(p)
    p.add_argument("--norm", choices=NORMS, default="l1", dest="lattice")
    p.set_defaults(graph=None)  # the instance loader reads --graph beside --norm
    p.add_argument("--dim", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--window", required=True, metavar="SPEC")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)


def _tolerance(text: str) -> float:
    """``--tolerance``: a float, finite and >= 0 (:func:`check_tolerance`)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return check_tolerance(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _hull_arguments(p) -> None:
    _add_report(p)
    _add_instance(p, interior_only=False)
    p.add_argument("--set", metavar="FILE", required=True)
    p.add_argument("--one-step", action="store_true", help="one betweenness-closure step only")


def _check_arguments(p) -> None:
    _add_report(p)
    _add_instance(p)
    _add_files(p)
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("--weighted", action="store_true", help="edge-weighted neighborhood means")


def _verify_arguments(p) -> None:
    _add_report(p)
    _add_instance(p, interior_only=False)
    _add_files(p)
    p.add_argument("claim", choices=CLAIM_IDS)
    p.add_argument(
        "--values", metavar="A,B,...", help="values swept (thm1, thm2, lem-deg2; default 0,1,2)"
    )
    # None when not given, so a claim that does not read them can reject them
    p.add_argument("--count", type=int, help="sample count (lem-dist-pt, thm4-cvx-sub; default 20)")
    p.add_argument("--seed", type=int, help="sample seed (lem-dist-pt, thm4-cvx-sub; default 0)")


def _search_arguments(p) -> None:
    _add_report(p)
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--sampler", choices=SAMPLERS, required=True)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--predicate", choices=PREDICATES, default=PREDICATES[0])
    p.add_argument("--seed", type=int, default=0)
    # None when not given, so a family or sampler that does not read them can reject them
    p.add_argument("--count", type=int, help="functions per instance")
    p.add_argument("--n", type=int, help="size for the random family")
    p.add_argument("--p", type=float, help="edge probability")


# -- commands: each returns (payload, exit code) ----------------------------------


def _cmd_gen(args) -> tuple[str, int]:
    fam = args.family
    interior = None
    if fam in _GEN_SIZED:
        sizes, make = _GEN_SIZED[fam]
        g = make(*(getattr(args, size) for size in sizes))
        if fam == "tri-tiling":
            interior = generators.tiling_interior(args.w, args.h)
    elif fam == "random":
        rng = random.Random(f"gen:{args.seed}")
        make = generators.random_connected_graph if args.connected else generators.random_graph
        g = make(args.n, args.p, rng)
    else:  # lattice
        lat = _load_instance(args, "lattice").lattice
        g = lat.graph
        interior = lat.interior
    text = format_graph(g)
    if interior is not None:
        pts = " ".join(format_vertex(v) for v in sorted(interior))
        text = f"# interior {pts}\n{text}" if pts else f"# interior (empty)\n{text}"
    return text, 0


def _cmd_hull(args) -> tuple[dict, int]:
    inst = _load_instance(args)
    members = parse_vertex_set(_read_text(args.set), inst.universe)
    close = betweenness_closure if args.one_step else convex_hull
    hull = close(inst.metric, members)
    payload = {
        "report": "hull",
        "instance": inst.label,
        "one_step": bool(args.one_step),
        "input": [format_vertex(v) for v in sort_vertices(members)],
        "hull": [format_vertex(v) for v in sort_vertices(hull)],
        "grew": hull != frozenset(members),
    }
    return payload, 0


def _cmd_check(args) -> tuple[dict, int]:
    kind = args.kind
    tol = args.tolerance
    inst = _load_instance(args)
    rows: list[dict] = []
    weighted = bool(args.weighted)
    if kind in ("midpoint", "nn-property") and inst.lattice is None:
        raise _UsageError(f"{kind} needs a lattice instance")
    if weighted and kind not in ("subharmonic", "harmonic"):
        raise _UsageError(f"{kind} does not take --weighted")
    if args.interior_only and inst.lattice is None:
        raise _UsageError("--interior-only needs a lattice instance")
    if args.interior_only and kind in ("set-convex", "nn-property"):
        raise _UsageError(f"{kind} does not take --interior-only")
    if kind == "set-convex":
        members = parse_vertex_set(_read_text(_need(args, "set")), inst.universe)
        missing = betweenness_closure(inst.metric, members) - frozenset(members)
        row = {"vertex": None, "verdict": "violated" if missing else "ok"}
        if missing:
            row["missing"] = [format_vertex(v) for v in sort_vertices(missing)]
        rows.append(row)
    elif kind == "nn-property":
        members = parse_vertex_set(_read_text(_need(args, "set")), inst.universe)
        verdict = has_nearest_neighbor_property(inst.lattice, members, tol=tol)
        row = {"vertex": None, "verdict": "ok" if verdict else "violated"}
        if not verdict:
            w = verdict.witness
            row["pair"] = [format_vertex(w.y1), format_vertex(w.y2)]
            row["z"] = format_vertex(w.z)
        rows.append(row)
    else:
        fun = parse_vertex_function(_read_text(_need(args, "fn")), inst.universe)
        convex_at = None  # subharmonic and harmonic rows compare means instead
        if kind == "fn-convex":
            convex_at = functools.partial(is_convex_at, inst.metric, fun)
        elif kind == "midpoint":
            convex_at = _tests(inst.lattice, fun, tol)[0]
        for z in inst.domain:
            rows.append(_check_row(kind, inst, fun, z, weighted, tol, convex_at))
    ok_all = all(r["verdict"] != "violated" for r in rows)
    payload = {
        "report": "check",
        "kind": kind,
        "instance": inst.label,
        "rows": rows,
        "ok": ok_all,
    }
    if kind in ("subharmonic", "harmonic"):
        payload["weighted"] = weighted
    return payload, 0 if ok_all else 1


def _check_row(kind, inst, fun, z, weighted, tol, convex_at) -> dict:
    name = format_vertex(z)
    if z not in fun:
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    if convex_at is not None:
        verdict = convex_at(z)
        if verdict:
            return {"vertex": name, "verdict": "ok"}
        witness = _convexity_witness if kind == "fn-convex" else _midpoint_witness
        return witness(verdict.witness, vertex=name, verdict="violated")
    # subharmonic / harmonic
    if not inst.means_on.neighbors(z):
        return {"vertex": name, "verdict": "skipped", "reason": "degree zero"}
    try:
        cmp = compare_to_neighborhood_mean(inst.means_on, fun, z, weighted=weighted, tol=tol)
    except ValueError:
        # a neighbor has no value, so the mean is undefined at this row
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    ok = cmp.is_harmonic if kind == "harmonic" else bool(cmp)
    return {
        "vertex": name,
        "verdict": "ok" if ok else "violated",
        "f_value": report_value(cmp.f_value),
        "mean": report_value(cmp.neighborhood_mean),
    }


def _cmd_verify(args) -> tuple[dict, int]:
    kind, reads, check, (options, suite) = theorems.CLAIMS[args.claim]
    inst = _load_instance(args, kind)
    for flag in ("fn", "set"):
        if getattr(args, flag) and flag != reads:
            raise _UsageError(f"claim {args.claim} does not read --{flag}")
    path = getattr(args, reads) if reads else None
    for flag in ("values", "count", "seed"):
        if getattr(args, flag) is not None and (path or flag not in options):
            with_file = f" with --{reads}" if path else ""
            raise _UsageError(f"claim {args.claim} does not read --{flag}{with_file}")
    opts = argparse.Namespace(  # a lattice report names the lattice by its repr
        tol=args.tolerance, label=None if inst.lattice else inst.label,
        values=lambda: _parse_values(args.values),
        count=20 if args.count is None else args.count, seed=args.seed or 0)
    if path:
        parse = parse_vertex_function if reads == "fn" else parse_vertex_set
        report = check(inst.means_on, parse(_read_text(path), inst.universe), opts)
    else:
        report = suite(inst.means_on, opts)
    return {"report": "claim", **report.as_dict()}, 0 if report.verdict == "verified" else 1


def _cmd_search(args) -> tuple[dict, int]:
    for flag in ("n", "p"):  # read by the random family alone
        if getattr(args, flag) is not None and args.family != "random":
            raise _UsageError(f"family {args.family} does not read --{flag}")
    if args.count is not None and args.sampler not in ("random-int", "indicator"):
        raise _UsageError(f"sampler {args.sampler} does not read --count")
    witness = search_counterexample(
        args.family,
        args.sampler,
        args.budget,
        predicate=args.predicate,
        seed=args.seed,
        tol=args.tolerance,
        count=20 if args.count is None else args.count,
        p=0.5 if args.p is None else args.p,
        n=args.n,
    )
    payload = {
        "report": "search",
        "family": args.family,
        "sampler": args.sampler,
        "predicate": args.predicate,
        "budget": args.budget,
        "seed": args.seed,
        "found": witness is not None,
    }
    if witness is not None:
        payload["witness"] = witness.as_dict()
    return payload, 1 if witness is not None else 0


# name -> (help, argument builder, command)
_COMMANDS = {
    "gen": ("generate an instance graph", _gen_arguments, _cmd_gen),
    "hull": ("convex hull of a vertex set", _hull_arguments, _cmd_hull),
    "check": ("evaluate a predicate per vertex", _check_arguments, _cmd_check),
    "verify": ("check one named claim", _verify_arguments, _cmd_verify),
    "search": ("hunt for a counterexample", _search_arguments, _cmd_search),
}


# -- instance plumbing ------------------------------------------------------------


class _Instance:
    """A graph or lattice target plus the handles each command needs;
    ``means_on`` is that graph or lattice, whose neighbours give the means,
    and ``metric`` its metric, built the first time it is read."""

    def __init__(self, label, means_on, universe, domain, tol):
        self.label = label
        self.means_on = means_on
        self.universe = universe
        self.domain = domain
        self.tol = tol
        self.lattice = means_on if isinstance(means_on, GroupLattice) else None

    @functools.cached_property
    def metric(self):
        return self.means_on.metric(self.tol)


def _load_instance(args, kind: str | None = None) -> _Instance:
    """The one instance of ``hull``, ``check``, ``verify`` (``kind``: the
    "graph" or "lattice" its claim needs) and ``gen lattice``, given once,
    with stdin read by at most one input.  A lattice's warning is printed
    as one ``warning:`` line on stderr."""
    stdin = [f"--{flag}" for flag in ("graph", "fn", "set") if getattr(args, flag, None) == "-"]
    if len(stdin) > 1:
        raise _UsageError(f"only one input may be read from stdin ('-'), got {' and '.join(stdin)}")
    if args.graph and args.lattice:
        raise _UsageError("give either --graph or --lattice, not both")
    if args.graph and (args.window, args.dim, args.radius) != (None, None, None):
        raise _UsageError(
            "--window, --dim and --radius describe a lattice; --graph takes none of them")
    if kind == "graph" and not args.graph:
        raise _UsageError("this claim needs --graph FILE")
    if kind == "lattice" and not args.lattice:
        raise _UsageError("this operation needs --lattice NORM --window SPEC")
    if args.graph:
        g = parse_graph(_read_text(args.graph))
        label = "<stdin>" if args.graph == "-" else args.graph
        return _Instance(label, g, g.vertices, g.vertices, args.tolerance)
    if not args.lattice:
        raise _UsageError("give --graph FILE or --lattice NORM --window SPEC")
    if args.window is None:  # an empty spec is a bad spec
        raise _UsageError("--lattice needs --window SPEC")
    window = _parse_window(args.window, args.dim)
    radius = 1.0 if args.radius is None else args.radius
    # a size window with --dim below 1 has no axes; the spec names the --dim given
    dim = len(window) if args.dim is None else args.dim
    spec = LatticeSpec(dim, args.lattice, radius, window)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lat = build_lattice(spec, args.tolerance)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    # hull, verify and gen take no --interior-only
    domain = sorted(lat.interior) if getattr(args, "interior_only", False) else lat.window
    return _Instance(spec.describe(), lat, lat.window, domain, args.tolerance)


def _parse_window(text: str, dim: int | None) -> tuple:
    try:
        if ":" not in text:
            n = int(text)
            if n <= 0:
                raise ValueError
            if dim is None:
                dim = 1
            lo = -(n // 2)
            return ((lo, lo + n - 1),) * dim
        ranges = []
        for part in text.split(","):
            a, b = part.split(":")
            ranges.append((int(a), int(b)))
    except ValueError:
        raise _UsageError(f"bad window spec {text!r}")
    if dim is not None and dim != len(ranges):
        raise _UsageError(f"window has {len(ranges)} axes but --dim is {dim}")
    return tuple(ranges)


def _parse_values(text: str | None) -> tuple:
    if text is None:
        return (0, 1, 2)
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"bad value list {text!r}")


def _need(args, name: str) -> str:
    value = getattr(args, name)
    if not value:
        raise _UsageError(f"this operation needs --{name} FILE")
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -- rendering ----------------------------------------------------------------------


def _render(payload, fmt: str) -> str:
    """``gen``'s graph text as is; a report as JSON, or as text by its kind."""
    if isinstance(payload, str):
        return payload
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "".join(f"{line}\n" for line in _TEXT[payload["report"]](payload))


def _hull_lines(p: dict) -> list[str]:
    return [
        f"input: {' '.join(p['input'])}",
        f"{'closure' if p['one_step'] else 'hull'}: {' '.join(p['hull'])}",
        f"grew: {'yes' if p['grew'] else 'no'}",
    ]


def _check_lines(p: dict) -> list[str]:
    lines = []
    for r in p["rows"]:
        name = r["vertex"] if r["vertex"] is not None else "set"
        extra = " ".join(f"{k}={_fmt(v)}" for k, v in r.items() if k not in ("vertex", "verdict"))
        lines.append(f"{name}: {r['verdict']}{' ' + extra if extra else ''}")
    bad = sum(r["verdict"] == "violated" for r in p["rows"])
    skipped = sum(r["verdict"] == "skipped" for r in p["rows"])
    lines.append(
        f"result: {'pass' if p['ok'] else 'fail'} "
        f"({bad}/{len(p['rows'])} violated, {skipped} skipped)"
    )
    return lines


def _claim_lines(p: dict) -> list[str]:
    keys = ("claim", "instance", "checked", "hypothesis_fired", "verdict")
    lines = [f"{key}: {p[key]}" for key in keys]
    lines += [f"witness.{k}: {_fmt(v)}" for k, v in (p.get("witness") or {}).items()]
    return lines


def _search_lines(p: dict) -> list[str]:
    if not p["found"]:
        return [f"found: no (budget {p['budget']})"]
    w = p["witness"]
    lines = ["found: yes", f"instance: {w['instance']}", f"function: {w['function']}",
             f"vertex: {w['vertex']}"]
    lines += [f"detail.{k}: {_fmt(v)}" for k, v in w["detail"].items()]
    lines.append("values: " + " ".join(f"{k}={_fmt(v)}" for k, v in w["values"].items()))
    lines.append("graph:")
    lines += [f"  {line}" for line in w["graph"].splitlines()]
    return lines


_TEXT = {"hull": _hull_lines, "check": _check_lines, "claim": _claim_lines, "search": _search_lines}


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)
