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
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys

from . import generators
from .convexity import betweenness_closure, convex_hull, is_convex_at
from .extreal import DEFAULT_TOL
from .graph import Graph, UnknownVertexError, sort_vertices
from .io import (
    FormatError,
    format_graph,
    format_vertex,
    parse_graph,
    parse_vertex_function,
    parse_vertex_set,
)
from .lattice import NORMS, GroupLattice, LatticeSpec, build_lattice, is_midpoint_convex_at
from .lattice import has_nearest_neighbor_property
from .subharmonic import compare_to_neighborhood_mean
from . import theorems
from .theorems import (
    CLAIM_IDS,
    FAMILIES,
    PREDICATES,
    SAMPLERS,
    search_counterexample,
    verify_degree2_equivalence,
    verify_dist_convex_implies_set_convex,
    verify_dist_to_point_midpoint_convex,
    verify_nn_implies_dist_midpoint_convex,
    verify_pointwise_implication,
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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_glue_window(argv))
    try:
        return args.func(args, parser)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownVertexError as exc:
        print(f"error: unknown vertex {format_vertex(exc.vertex)}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphconvex",
        description="Convexity and subharmonicity checks on graphs and norm lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    fmt.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOL,
        metavar="EPS",
        help="relative tolerance for float comparisons (default %(default)g)",
    )

    inst = argparse.ArgumentParser(add_help=False)
    inst.add_argument("--graph", metavar="FILE", help="graph file ('-' for stdin)")
    inst.add_argument(
        "--lattice", choices=NORMS, metavar="NORM", help="use a norm lattice instance"
    )
    inst.add_argument("--window", metavar="SPEC", help="N or lo:hi[,lo:hi...]")
    inst.add_argument("--dim", type=int, metavar="D", help="lattice dimension")
    inst.add_argument(
        "--radius", type=float, default=1.0, metavar="R", help="edge radius (default 1)"
    )
    inst.add_argument("--interior-only", action="store_true", help="restrict rows to interior lattice vertices")

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--fn", metavar="FILE", help="vertex-function file")
    files.add_argument("--set", metavar="FILE", help="vertex-set file")

    p_gen = sub.add_parser("gen", help="generate an instance graph")
    fam = p_gen.add_subparsers(dest="family", required=True)
    p = fam.add_parser("cycle", parents=[out])
    p.add_argument("n", type=int)
    p = fam.add_parser("path", parents=[out])
    p.add_argument("n", type=int)
    for name in ("grid", "king", "tri-tiling"):
        p = fam.add_parser(name, parents=[out])
        p.add_argument("w", type=int)
        p.add_argument("h", type=int)
    p = fam.add_parser("random", parents=[out])
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true")
    p = fam.add_parser("lattice", parents=[out])
    p.add_argument("--norm", choices=NORMS, default="l1")
    p.add_argument("--dim", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--window", required=True, metavar="SPEC")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p_gen.set_defaults(func=_cmd_gen)
    for sp in fam.choices.values():
        sp.set_defaults(func=_cmd_gen)

    p_hull = sub.add_parser(
        "hull", parents=[out, fmt, inst], help="convex hull of a vertex set"
    )
    p_hull.add_argument("--set", metavar="FILE", required=True)
    p_hull.add_argument(
        "--one-step", action="store_true", help="one betweenness-closure step only"
    )
    p_hull.set_defaults(func=_cmd_hull)

    p_check = sub.add_parser(
        "check", parents=[out, fmt, inst, files], help="evaluate a predicate per vertex"
    )
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument(
        "--weighted", action="store_true", help="edge-weighted neighborhood means"
    )
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser(
        "verify", parents=[out, fmt, inst, files], help="check one named claim"
    )
    p_verify.add_argument("claim", choices=CLAIM_IDS)
    p_verify.add_argument(
        "--values", metavar="A,B,...", help="value alphabet for lem-deg2 (default 0,1,2)"
    )
    p_verify.add_argument(
        "--count", type=int, default=20, help="sample count for lem-dist-pt"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser(
        "search", parents=[out, fmt], help="hunt for a counterexample"
    )
    p_search.add_argument("family", choices=FAMILIES)
    p_search.add_argument("--sampler", choices=SAMPLERS, required=True)
    p_search.add_argument("--budget", type=int, default=100)
    p_search.add_argument("--predicate", choices=PREDICATES, default=PREDICATES[0])
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--count", type=int, default=20, help="functions per instance")
    p_search.add_argument("--n", type=int, help="size for the random family")
    p_search.add_argument("--p", type=float, default=0.5, help="edge probability")
    p_search.set_defaults(func=_cmd_search)

    return parser


# -- commands -------------------------------------------------------------------


def _cmd_gen(args, parser) -> int:
    fam = args.family
    interior = None
    if fam == "cycle":
        g = generators.cycle(args.n)
    elif fam == "path":
        g = generators.path(args.n)
    elif fam == "grid":
        g = generators.grid(args.w, args.h)
    elif fam == "king":
        g = generators.king_grid(args.w, args.h)
    elif fam == "tri-tiling":
        g = generators.triangular_tiling(args.w, args.h)
        interior = generators.tiling_interior(args.w, args.h)
    elif fam == "random":
        rng = random.Random(f"gen:{args.seed}")
        make = generators.random_connected_graph if args.connected else generators.random_graph
        g = make(args.n, args.p, rng)
    elif fam == "lattice":
        window = _parse_window(args.window, args.dim, parser)
        spec = LatticeSpec(len(window), args.norm, args.radius, window)
        lat = build_lattice(spec, args.tolerance)
        g = lat.graph
        interior = lat.interior
    else:  # pragma: no cover - argparse rejects unknown families
        parser.error(f"unknown family {fam!r}")
    text = format_graph(g)
    if interior is not None:
        pts = " ".join(format_vertex(v) for v in sorted(interior))
        text = f"# interior {pts}\n{text}" if pts else f"# interior (empty)\n{text}"
    with _open_out(args) as out:
        out.write(text)
    return 0


def _cmd_hull(args, parser) -> int:
    inst = _load_instance(args, parser)
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
    with _open_out(args) as out:
        if args.format == "json":
            _emit_json(payload, out)
        else:
            out.write(f"input: {' '.join(payload['input'])}\n")
            out.write(f"{'closure' if args.one_step else 'hull'}: {' '.join(payload['hull'])}\n")
            out.write(f"grew: {'yes' if payload['grew'] else 'no'}\n")
    return 0


def _cmd_check(args, parser) -> int:
    kind = args.kind
    tol = args.tolerance
    inst = _load_instance(args, parser)
    rows: list[dict] = []
    weighted = bool(args.weighted)
    if kind == "set-convex":
        members = parse_vertex_set(_read_text(_need(args, parser, "set")), inst.universe)
        missing = betweenness_closure(inst.metric, members) - frozenset(members)
        row = {"vertex": None, "verdict": "violated" if missing else "ok"}
        if missing:
            row["missing"] = [format_vertex(v) for v in sort_vertices(missing)]
        rows.append(row)
    elif kind == "nn-property":
        if inst.lattice is None:
            parser.error("nn-property needs a lattice instance")
        members = parse_vertex_set(_read_text(_need(args, parser, "set")), inst.universe)
        verdict = has_nearest_neighbor_property(inst.lattice, members, tol=tol)
        row = {"vertex": None, "verdict": "ok" if verdict else "violated"}
        if not verdict:
            w = verdict.witness
            row["pair"] = [format_vertex(w.y1), format_vertex(w.y2)]
            row["z"] = format_vertex(w.z)
        rows.append(row)
    else:
        fun = parse_vertex_function(_read_text(_need(args, parser, "fn")), inst.universe)
        for z in inst.domain:
            rows.append(_check_row(kind, inst, fun, z, weighted, tol, parser))
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
    with _open_out(args) as out:
        if args.format == "json":
            _emit_json(payload, out)
        else:
            for r in rows:
                name = r["vertex"] if r["vertex"] is not None else "set"
                extra = " ".join(
                    f"{k}={_fmt(v)}" for k, v in r.items() if k not in ("vertex", "verdict")
                )
                out.write(f"{name}: {r['verdict']}{' ' + extra if extra else ''}\n")
            bad = sum(r["verdict"] == "violated" for r in rows)
            skipped = sum(r["verdict"] == "skipped" for r in rows)
            out.write(
                f"result: {'pass' if ok_all else 'fail'} "
                f"({bad}/{len(rows)} violated, {skipped} skipped)\n"
            )
    return 0 if ok_all else 1


def _check_row(kind, inst, fun, z, weighted, tol, parser) -> dict:
    name = format_vertex(z)
    if z not in fun:
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    if kind == "fn-convex":
        verdict = is_convex_at(inst.metric, fun, z)
        if verdict:
            return {"vertex": name, "verdict": "ok"}
        w = verdict.witness
        return {
            "vertex": name,
            "verdict": "violated",
            "pair": [format_vertex(w.x), format_vertex(w.y)],
            "lhs": w.lhs,
            "rhs": w.rhs,
        }
    if kind == "midpoint":
        if inst.lattice is None:
            parser.error("midpoint needs a lattice instance")
        verdict = is_midpoint_convex_at(inst.lattice, fun, z, tol=tol)
        if verdict:
            return {"vertex": name, "verdict": "ok"}
        w = verdict.witness
        return {
            "vertex": name,
            "verdict": "violated",
            "z": format_vertex(w.z),
            "lhs": w.lhs,
            "rhs": w.rhs,
        }
    # subharmonic / harmonic
    g = inst.mean_graph
    if g.degree(z) == 0:
        return {"vertex": name, "verdict": "skipped", "reason": "degree zero"}
    try:
        cmp = compare_to_neighborhood_mean(g, fun, z, weighted=weighted, tol=tol)
    except ValueError:
        # a neighbor has no value, so the mean is undefined at this row
        return {"vertex": name, "verdict": "skipped", "reason": "no value"}
    ok = cmp.is_harmonic if kind == "harmonic" else bool(cmp)
    return {
        "vertex": name,
        "verdict": "ok" if ok else "violated",
        "f_value": cmp.f_value,
        "mean": cmp.neighborhood_mean,
    }


def _cmd_verify(args, parser) -> int:
    claim = args.claim
    tol = args.tolerance
    if claim in ("thm1", "thm2", "thm3", "lem-deg2"):
        g = _graph_instance(args, parser)
        label = _graph_label(args)
        if claim in ("thm1", "thm2"):
            hyp = "triangle_free" if claim == "thm1" else "pairing"
            if args.fn:
                fun = parse_vertex_function(_read_text(args.fn), g.vertices)
                report = verify_pointwise_implication(g, fun, hyp, tol=tol, label=label)
            else:
                values = _parse_values(args.values, parser)
                report = theorems.exhaustive_small_graph_sweep(
                    hyp, graphs=[g], values=values
                )
        elif claim == "thm3":
            if args.set:
                members = parse_vertex_set(_read_text(args.set), g.vertices)
                report = verify_dist_convex_implies_set_convex(
                    g, members, tol=tol, label=label
                )
            else:
                report = theorems.sweep_subsets_dist_convex(g, tol=tol)
        else:
            values = _parse_values(args.values, parser)
            report = verify_degree2_equivalence(g, values=values)
    else:
        lat = _lattice_instance(args, parser)
        if claim == "thm4-cvx-sub":
            if args.fn:
                fun = parse_vertex_function(_read_text(args.fn), lat.window)
                report = verify_pointwise_implication(lat, fun, "midpoint", tol=tol)
            else:
                report = theorems.sweep_max_affine(
                    lat, count=args.count, seed=args.seed, tol=tol
                )
        elif claim == "lem-dist-pt":
            report = verify_dist_to_point_midpoint_convex(
                lat, count=args.count, seed=args.seed, tol=tol
            )
        elif claim == "prop-dist-cvx":
            if args.set:
                members = parse_vertex_set(_read_text(args.set), lat.window)
                report = verify_dist_convex_implies_set_convex(lat, members, tol=tol)
            else:
                report = theorems.sweep_subsets_dist_convex(lat, tol=tol)
        else:  # prop-nn
            if args.set:
                members = parse_vertex_set(_read_text(args.set), lat.window)
                report = verify_nn_implies_dist_midpoint_convex(lat, members, tol=tol)
            else:
                report = theorems.sweep_subsets_nn(lat, tol=tol)
    payload = {"report": "claim", **report.as_dict()}
    with _open_out(args) as out:
        if args.format == "json":
            _emit_json(payload, out)
        else:
            for key in ("claim", "instance", "checked", "hypothesis_fired", "verdict"):
                out.write(f"{key}: {payload[key]}\n")
            if report.witness:
                for k, v in report.witness.items():
                    out.write(f"witness.{k}: {_fmt(v)}\n")
    return 0 if report.verdict == "verified" else 1


def _cmd_search(args, parser) -> int:
    params = {"count": args.count, "p": args.p}
    if args.n:
        params["n"] = args.n
    witness = search_counterexample(
        args.family,
        args.sampler,
        args.budget,
        predicate=args.predicate,
        seed=args.seed,
        tol=args.tolerance,
        **params,
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
    with _open_out(args) as out:
        if args.format == "json":
            _emit_json(payload, out)
        else:
            if witness is None:
                out.write(f"found: no (budget {args.budget})\n")
            else:
                w = payload["witness"]
                out.write("found: yes\n")
                out.write(f"instance: {w['instance']}\n")
                out.write(f"function: {w['function']}\n")
                out.write(f"vertex: {w['vertex']}\n")
                for k, v in w["detail"].items():
                    out.write(f"detail.{k}: {_fmt(v)}\n")
                vals = " ".join(f"{k}={_fmt(v)}" for k, v in w["values"].items())
                out.write(f"values: {vals}\n")
                out.write("graph:\n")
                for line in w["graph"].splitlines():
                    out.write(f"  {line}\n")
    return 1 if witness is not None else 0


# -- instance plumbing ------------------------------------------------------------


class _Instance:
    """A graph or lattice target plus the handles each command needs."""

    def __init__(self, label, metric, universe, domain, lattice=None, mean_graph=None):
        self.label = label
        self.metric = metric
        self.universe = universe
        self.domain = domain
        self.lattice = lattice
        self.mean_graph = mean_graph


def _load_instance(args, parser) -> _Instance:
    if args.graph and args.lattice:
        parser.error("give either --graph or --lattice, not both")
    if args.graph:
        g = parse_graph(_read_text(args.graph))
        return _Instance(
            _graph_label(args), g.metric(args.tolerance), g.vertices, g.vertices,
            mean_graph=g,
        )
    if args.lattice:
        lat = _lattice_instance(args, parser)
        domain = sorted(lat.interior) if args.interior_only else lat.window
        return _Instance(
            lat.spec.describe(), lat.metric(args.tolerance), lat.window, domain,
            lattice=lat, mean_graph=lat.graph,
        )
    parser.error("give --graph FILE or --lattice NORM --window SPEC")


def _graph_instance(args, parser) -> Graph:
    if not args.graph:
        parser.error("this claim needs --graph FILE")
    return parse_graph(_read_text(args.graph))


def _graph_label(args) -> str:
    return "<stdin>" if args.graph == "-" else args.graph


def _lattice_instance(args, parser) -> GroupLattice:
    if not args.lattice:
        parser.error("this operation needs --lattice NORM --window SPEC")
    if not args.window:
        parser.error("--lattice needs --window SPEC")
    window = _parse_window(args.window, args.dim, parser)
    spec = LatticeSpec(len(window), args.lattice, args.radius, window)
    return build_lattice(spec, args.tolerance)


def _parse_window(text: str, dim: int | None, parser) -> tuple:
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
        parser.error(f"bad window spec {text!r}")
    if dim is not None and dim != len(ranges):
        parser.error(f"window has {len(ranges)} axes but --dim is {dim}")
    return tuple(ranges)


def _parse_values(text: str | None, parser) -> tuple:
    if not text:
        return (0, 1, 2)
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        parser.error(f"bad value list {text!r}")


def _need(args, parser, name: str) -> str:
    value = getattr(args, name)
    if not value:
        parser.error(f"this operation needs --{name} FILE")
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@contextlib.contextmanager
def _open_out(args):
    target = getattr(args, "output", None)
    if target in (None, "-"):
        yield sys.stdout
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yield fh


# -- output helpers ----------------------------------------------------------------


def _emit_json(payload, out) -> None:
    json.dump(_sanitize(payload), out, indent=2, sort_keys=False)
    out.write("\n")


def _sanitize(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _fmt(value) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)
