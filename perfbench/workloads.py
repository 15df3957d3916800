"""Seeded inputs and op lists for the benchmark's workloads.

Inputs are made here, not by ``graphconvex.generators``, and written as
graph, function and set files, so a change to the library cannot change a
workload.  Every op carries the outcome its claim implies under
``expect``; :mod:`checks` compares that with what the op returned.

``expect["counts"]`` is a claim report's ``[checked, hypothesis_fired]``.
These depend on the op's kind and size, never on the seed, so they are
written here by hand; edit them when a claim's semantics change.

An op is one CLI command (``kind: cli``, run through
``graphconvex.cli.main``) or one claim call (``kind: call``, a public
function of ``graphconvex.theorems``).
"""

from __future__ import annotations

import random
from pathlib import Path

import oracles

DEFAULT_SEED = 0

WORKLOADS = ("sweep-small", "graph-scan", "lattice-scan")


def token(v) -> str:
    """Vertex token as the library's text formats spell it."""
    if isinstance(v, tuple):
        return "(" + ",".join(str(c) for c in v) + ")"
    return str(v)


def write_graph(path: Path, vertices, edges) -> None:
    lines = [f"v {token(v)}" for v in vertices]
    lines += [f"e {token(u)} {token(v)}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_lines(path: Path, rows) -> None:
    path.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")


def sparse_connected(n: int, extra: int, rng: random.Random):
    """Random recursive tree on shuffled labels 0..n-1 plus ``extra`` chords."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {frozenset((labels[i], labels[rng.randrange(i)])) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(labels, 2)
        edges.add(frozenset((u, v)))
    return list(range(n)), sorted(tuple(sorted(e)) for e in edges)


def grid(w: int, h: int):
    vertices = [(i, j) for i in range(w) for j in range(h)]
    edges = [((i, j), (i + 1, j)) for i in range(w - 1) for j in range(h)]
    edges += [((i, j), (i, j + 1)) for i in range(w) for j in range(h - 1)]
    return vertices, edges


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload under ``work`` and return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    make = {"sweep-small": _sweep_small, "graph-scan": _graph_scan,
            "lattice-scan": _lattice_scan}[workload]
    return {"workload": workload, "seed": seed, "ops": make(rng, work)}


def _sweep_small(rng: random.Random, work: Path) -> list[dict]:
    # The acceptance-gate path: enumeration plus the exact-int sweep kernel.
    # The cycles get seeded labels in cycle order, so the vertex order, the
    # swept counts and the work do not depend on the seed.
    ops = [
        {"id": f"{claim}-sweep-n6", "kind": "call", "fn": "exhaustive_small_graph_sweep",
         "args": [hyp, 6], "values": [0, 1, 2, 3],
         "expect": {"verdict": "verified", "counts": counts}}
        for claim, hyp, counts in (("thm1", "triangle_free", [567104, 267904]),
                                   ("thm2", "pairing", [645696, 300421]))
    ]
    deg2_counts = {6: [4374, 1929], 7: [15309, 6744], 8: [52488, 20643],
                   9: [177147, 69663], 10: [590490, 212733]}
    for n in range(6, 11):
        labels = sorted(rng.sample(range(100, 1000), n))
        path = work / f"cycle{n}.txt"
        write_graph(path, sorted(labels), [(labels[i], labels[(i + 1) % n]) for i in range(n)])
        ops.append({"id": f"deg2-C{n}", "kind": "call", "fn": "verify_degree2_equivalence",
                    "graph": str(path), "args": [], "values": [0, 1, 2],
                    "expect": {"verdict": "verified", "counts": deg2_counts[n]}})
    return ops


def _graph_scan(rng: random.Random, work: Path) -> list[dict]:
    graphs = {}

    def add_graph(name, vertices, edges):
        path = work / f"{name}.txt"
        write_graph(path, vertices, edges)
        graphs[name] = (str(path), vertices, edges)
        return name

    # Several graphs of each kind, so one seed's graph shapes do not set
    # the workload's cost.
    big = [add_graph(f"g120-{k}", *sparse_connected(120, 20, rng)) for k in range(5)]
    mid = [add_graph(f"g60-{k}", *sparse_connected(60, 80, rng)) for k in range(10)]
    small = [add_graph(f"g{n}-{k}", *sparse_connected(n, 5, rng))
             for k in range(2) for n in (12, 13, 14)]
    add_graph("grid10", *grid(10, 10))
    for n in (10, 11):
        add_graph(f"path{n}", list(range(n)), [(i, i + 1) for i in range(n - 1)])
    ops: list[dict] = []

    def cli_op(op_id, argv, expect):
        ops.append({"id": op_id, "kind": "cli", "argv": argv + ["--format", "json"],
                    "expect": expect})

    # Ops are sized so that, sorted by latency, ranks 30-69 are G(120) hulls
    # and ranks 86-97 thm1 scans: op_p50_ms falls among hulls (Dijkstra rows
    # plus closure) and op_p90_ms among full pair scans.
    #
    # Hull of a random 3-set, on a cold metric each time.  On G(120) the set
    # lies within a radius-3 ball, which keeps hulls (and their cost) of one
    # size; graphs of at most 14 vertices are also checked by brute force.
    for k in range(70):
        name = big[k % len(big)] if k < 40 else small[k % len(small)]
        gpath, vertices, edges = graphs[name]
        if name in big:
            ball = oracles.ball(vertices, edges, rng.choice(vertices), 3)
            members = [ball[0]] + rng.sample(ball[1:], 2)
        else:
            members = rng.sample(vertices, 3)
        spath = work / f"hull{k}.txt"
        write_lines(spath, [token(v) for v in members])
        hull = oracles.hull(vertices, edges, members)
        cli_op(f"hull-{k:02d}", ["hull", "--graph", gpath, "--set", str(spath)],
               {"exit": 0, "hull": [token(v) for v in hull],
                "brute_force": len(vertices) <= 14})
    # one random function per fresh metric: the per-vertex scan exits early
    for k in range(15):
        gpath, vertices, edges = graphs[mid[k % len(mid)]]
        f = {v: rng.randint(-3, 3) for v in vertices}
        fpath = work / f"fn{k}.txt"
        write_lines(fpath, [f"{token(v)} {f[v]}" for v in vertices])
        rows = oracles.fn_convex_rows(vertices, edges, f)
        ok = all(r[1] == "ok" for r in rows)
        cli_op(f"fn-convex-{k:02d}",
               ["check", "fn-convex", "--graph", gpath, "--fn", str(fpath)],
               {"exit": 0 if ok else 1,
                "rows": [[token(v), verdict, pair and [token(p) for p in pair]]
                         for v, verdict, pair in rows]})
    # d(., a) on the grid: full pair scans wherever it is convex
    gpath, vertices, _ = graphs["grid10"]
    for k in range(12):
        a = rng.choice(vertices)
        fpath = work / f"dist{k}.txt"
        write_lines(fpath, [f"{token(v)} {abs(v[0] - a[0]) + abs(v[1] - a[1])}"
                            for v in vertices])
        cli_op(f"thm1-grid-{k:02d}", ["verify", "thm1", "--graph", gpath, "--fn", str(fpath)],
               {"exit": 0, "verdict": "verified", "counts": [100, 19]})
    # one metric serving many functions
    for n, counts in ((10, [10230, 55]), (11, [22517, 66])):
        cli_op(f"thm3-path{n}", ["verify", "thm3", "--graph", graphs[f"path{n}"][0]],
               {"exit": 0, "verdict": "verified", "counts": counts})
    cli_op("search-grid-b11", ["search", "grid", "--sampler", "distance", "--budget", "11"],
           {"exit": 0, "found": False})
    rng.shuffle(ops)
    return ops


def _lattice_scan(rng: random.Random, work: Path) -> list[dict]:
    ops: list[dict] = []

    def cli_op(op_id, argv, counts):
        ops.append({"id": op_id, "kind": "cli", "argv": argv + ["--format", "json"],
                    "expect": {"exit": 0, "verdict": "verified", "counts": counts}})

    # Sorted by latency, ranks 0-83 are thm4 and ranks 84-95 lem-dist-pt, so
    # op_p50_ms falls among thm4 ops and op_p90_ms among lem-dist-pt ops.
    # thm4: 3 functions x 49 interior points; lem-dist-pt: 2 points x 121
    norms = (("l1", "1"), ("linf", "1"), ("l2", "1.5"))
    for k in range(84):
        norm, radius = norms[k % 3]
        cli_op(f"thm4-{norm}-{k:02d}",
               ["verify", "thm4-cvx-sub", "--lattice", norm, "--window", "9", "--dim", "2",
                "--radius", radius, "--count", "3", "--seed", str(rng.randrange(10**6))],
               [147, 147])
    for k in range(12):
        cli_op(f"lem-dist-pt-{k:02d}",
               ["verify", "lem-dist-pt", "--lattice", "l2", "--window", "11", "--dim", "2",
                "--radius", "1.5", "--count", "2", "--seed", str(rng.randrange(10**6))],
               [242, 242])
    for claim, line_counts, square_counts in (("prop-nn", [18423, 594], [511, 36]),
                                              ("prop-dist-cvx", [22517, 66], [4599, 67])):
        cli_op(f"{claim}-line11", ["verify", claim, "--lattice", "l1", "--window", "11"],
               line_counts)
        cli_op(f"{claim}-l2-3x3",
               ["verify", claim, "--lattice", "l2", "--window", "3", "--dim", "2",
                "--radius", "1.5"], square_counts)
    rng.shuffle(ops)
    return ops
