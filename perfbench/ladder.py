"""Size ladder: single layers timed over growing inputs, so growth shows.

    python3 perfbench/ladder.py RESULT

Writes ``{"metrics": {"ladder.<layer>.<size>_s": seconds}, "problems": [...]}``.
Inputs are fixed (not seeded by the run) so every run times the same
instances.  Each layer runs in this fresh process with tracing off:

* ``is_convex_at`` at every vertex for a constant function (a full pair
  scan at every vertex), on cycles 40/80/160 and grids 10x10/14x14, with
  shortest-path rows filled beforehand;
* ``is_midpoint_convex_at`` at every point of l2 r=1.5 windows of
  121/289/625 points, for the convex f = ||x||;
* ``connected_unit_graphs`` for n = 4, 5, 6 (n = 7 takes minutes);
* ``convex_hull`` of 3 points of G(n, 0.08), n = 50/100/200, on a cold
  metric;
* the all-subsets ``prop-dist-cvx`` and ``prop-nn`` sweeps on the 1-D
  window of 11.
"""

import json
import math
import random
import statistics
import sys
import time

from worker import load_library

# connected graphs on n unlabeled vertices (OEIS A001349)
CONNECTED_CLASSES = {4: 6, 5: 21, 6: 112}


def timed(fn, min_total=0.2, max_reps=5):
    """Median duration of ``fn()``, repeated while the runs are short."""
    times, result = [], None
    while len(times) < max_reps and (not times or sum(times) < min_total):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main(result_path: str) -> int:
    gc = load_library()
    metrics: dict = {}
    problems: list = []

    def graph_convexity(name, vertices, edges):
        g = gc.Graph(edges, vertices=vertices)
        for v in g.vertices:
            g.distances_from(v)
        m = g.metric()
        f = {v: 0 for v in g.vertices}
        t, verdicts = timed(lambda: [gc.is_convex_at(m, f, z) for z in g.vertices])
        metrics[f"ladder.is_convex_at.{name}_s"] = t
        if not all(verdicts):
            problems.append(f"is_convex_at {name}: constant function reported not convex")

    for n in (40, 80, 160):
        graph_convexity(f"cycle{n}", range(n), [(i, (i + 1) % n) for i in range(n)])
    for w in (10, 14):
        cells = [(i, j) for i in range(w) for j in range(w)]
        edges = [((i, j), (i + 1, j)) for i, j in cells if i + 1 < w]
        edges += [((i, j), (i, j + 1)) for i, j in cells if j + 1 < w]
        graph_convexity(f"grid{w}x{w}", cells, edges)

    for side in (11, 17, 25):
        half = side // 2
        spec = gc.LatticeSpec(2, "l2", 1.5, ((-half, half), (-half, half)))
        lat = gc.build_lattice(spec)
        f = {x: math.hypot(*x) for x in lat.window}
        t, verdicts = timed(lambda: [gc.is_midpoint_convex_at(lat, f, x) for x in lat.window])
        metrics[f"ladder.midpoint.w{side * side}_s"] = t
        if not all(verdicts):
            problems.append(f"midpoint w{side * side}: the norm reported not midpoint convex")

    # each n fills its own cache entry, so every size is timed cold
    for n, classes in CONNECTED_CLASSES.items():
        start = time.perf_counter()
        got = len(gc.connected_unit_graphs(n))
        metrics[f"ladder.enumeration.n{n}_s"] = time.perf_counter() - start
        if got != classes:
            problems.append(f"enumeration n={n}: {got} classes, expected {classes}")

    rng = random.Random("perfbench:ladder")
    for n in (50, 100, 200):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.08]
        members = rng.sample(range(n), 3)
        t, hull = timed(lambda: gc.convex_hull(gc.Graph(edges, vertices=range(n)).metric(),
                                               members))
        metrics[f"ladder.hull.n{n}_s"] = t
        if not set(members) <= hull:
            problems.append(f"hull n={n}: hull does not contain its input")

    line = gc.build_lattice(gc.LatticeSpec(1, "l1", 1, ((-5, 5),)))
    for name, sweep in (("dist_cvx", gc.sweep_subsets_dist_convex),
                        ("nn", gc.sweep_subsets_nn)):
        t, report = timed(lambda: sweep(line))
        metrics[f"ladder.subset_sweep.{name}_w11_s"] = t
        if report.verdict != "verified":
            problems.append(f"subset sweep {name}: {report.verdict}")

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
