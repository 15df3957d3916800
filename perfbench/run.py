"""graphconvex claim-checker benchmark.

    python3 perfbench/run.py --workload {sweep-small,graph-scan,lattice-scan}
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it uses the checkout this file sits in and builds its
inputs under ``.perfbench_work/``.  The load is a closed loop with one
client: fresh single-threaded worker processes (:mod:`worker`) run the
workload's whole op list one pass after another, until ``--seconds`` have
passed and at least three passes ran.  Every op's outcome is checked
(:mod:`checks`).

``--trace 0`` reports the end-to-end metrics.  Op times are normalised to
a nominal host speed (``normalised_latencies``), each op's latency is its
median over the passes, ``op_p50_ms``/``op_p90_ms`` are percentiles over
the workload's ops and ``wall_s`` their sum; ``setup_s`` is a median over
import-only workers and ``peak_rss_mb`` a median over passes.
``--trace 1`` alternates untraced and traced passes, then runs the size
ladder (:mod:`ladder`), and reports the per-layer metrics and the tracing
overhead; each pass's times are scaled by its own host-speed samples, as
each probe's ``setup_s`` is (``speed_factor``; the ladder's are raw).  The
metric names and units printed are those of ``BENCHMARK.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# import-only workers after each pass, so setup_s is a median of set-ups
# spread over the whole run
SETUP_PROBES = 4
# every run must end within 180 s
DEADLINE_S = 170
# The host is shared: its speed for interpreter code drifts by tens of
# percent within seconds.  Each op time is scaled by REFERENCE_S over the
# typical time of the worker's reference kernel within WINDOW_S of the op
# (about 0.4 ms on an unloaded 2-core x86-64 VM with CPython 3.11).
REFERENCE_S = 4e-4
WINDOW_S = 0.05

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RENAMES = {"graph.dijkstra.calls": "graph.dijkstra.rows",
           "graph.Graph.init.self_s": "graph.Graph.init_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts one fresh worker process at a time and waits for it."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.count = 0
        # Byte-code is cached under .perfbench_work and compiled up front, so
        # setup_s measures imports as an installed package pays them.
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench_work" / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                       env=self.env, check=True, timeout=60)

    def run(self, script: str, *args: str) -> dict:
        self.count += 1
        out = self.work / f"result{self.count}.json"
        left = DEADLINE_S - (time.perf_counter() - self.started)
        proc = subprocess.run([sys.executable, str(HERE / script), *args, str(out)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(left, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(out.read_text(encoding="utf-8"))

    def workload_pass(self, manifest: Path, mode: str) -> dict:
        return self.run("worker.py", str(manifest), mode)

    def setup_probe(self) -> dict:
        """A worker that imports the library and runs no op."""
        return self.run("worker.py", "-", "plain")


def normalised_latencies(p: dict) -> list[float]:
    """Per op of pass ``p``: its time minus the host samples taken inside it,
    scaled by REFERENCE_S over the typical sample time within WINDOW_S of it
    (``typical_sample``), i.e. the time the op would take at the nominal host
    speed."""
    ref = p["reference"]
    times = [t for t, _ in ref]
    out = []
    for r in p["ops"]:
        inside = ref[bisect.bisect_right(times, r["start"]):
                     bisect.bisect_right(times, r["end"])]
        near = ref[bisect.bisect_left(times, r["start"] - WINDOW_S):
                   bisect.bisect_right(times, r["end"] + WINDOW_S)]
        busy = r["end"] - r["start"] - sum(d for _, d in inside)
        out.append(busy * REFERENCE_S / typical_sample([d for _, d in near]))
    return out


def typical_sample(durations: list[float]) -> float:
    """Mean of the fastest three quarters of the samples: a sample the
    operating system preempted runs long and says nothing of host speed."""
    fastest = sorted(durations)[:max(1, round(len(durations) * 0.75))]
    return statistics.mean(fastest)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Each op's latency is the median over passes of its normalised time
    (see ``normalised_latencies``); ``wall_s``, first op to last verdict, is
    the sum of those over one pass."""
    runs: dict = {}
    for p in passes:
        for r, d in zip(p["ops"], normalised_latencies(p)):
            runs.setdefault(r["id"], []).append(d)
    latencies = [statistics.median(v) for v in runs.values()]
    return {
        "wall_s": sum(latencies),
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def speed_factor(p: dict) -> float:
    """REFERENCE_S over the median reference kernel run of a ``plain`` or
    ``traced`` pass (sampled between its ops) or of a set-up probe (sampled
    right after its import)."""
    return REFERENCE_S / statistics.median(d for _, d in p["reference"])


def _claim_counts(manifest_ops: dict, result: dict):
    if result.get("report"):
        payload = result["report"]
    elif manifest_ops[result["id"]]["kind"] == "cli" and result["out"]:
        payload = json.loads(result["out"])
    else:
        return 0, 0
    return payload.get("checked", 0), payload.get("hypothesis_fired", 0)


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(manifest: dict, traced: list[dict]) -> dict:
    """Medians over traced passes of each layer's self time, calls and
    counters; each pass's times (``*_s``) are scaled by its speed factor."""
    names = sorted({t[2] for t in spans.TARGETS} | {"bench.op"})
    ops = {op["id"]: op for op in manifest["ops"]}
    per_pass = []
    for p in traced:
        t = p["trace"]
        m = {}
        for name in names:
            for key, value in ((f"{name}.self_s", t["self_s"].get(name, 0.0)),
                               (f"{name}.calls", t["calls"].get(name, 0))):
                m[RENAMES.get(key, key)] = value
        for counter in ("convexity.is_convex_at.violations",
                        "lattice.is_midpoint_convex_at.violations", "enumeration.classes"):
            m[counter] = t["counters"].get(counter, 0)
        counts = [_claim_counts(ops, r) for r in p["ops"]]
        m["theorems.sites_checked"] = sum(c for c, _ in counts)
        m["theorems.hypothesis_fired"] = sum(f for _, f in counts)
        m["theorems.fired_share"] = _share(m["theorems.hypothesis_fired"],
                                           m["theorems.sites_checked"])
        m["convexity.is_convex_at.early_exit_share"] = _share(
            m["convexity.is_convex_at.violations"], m["convexity.is_convex_at.calls"])
        m["convexity.closure_steps_per_hull"] = _share(
            m["convexity.betweenness_closure.calls"], m["convexity.convex_hull.calls"])
        factor = speed_factor(p)
        per_pass.append({k: v * factor if k.endswith("_s") else v for k, v in m.items()})
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "graphconvex" / "__init__.py").is_file():
        print(f"error: no graphconvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = workloads.build(args.workload, args.seed, work / "inputs")
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    brute = checks.brute_force_hulls(manifest)
    runner = Runner(work, started)

    def more(passes):
        return len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds

    t0 = time.perf_counter()
    if args.trace:
        plain, traced = [], []
        while more(traced):
            plain.append(runner.workload_pass(manifest_path, "plain"))
            traced.append(runner.workload_pass(manifest_path, "traced"))
        ladder = runner.run("ladder.py")
        passes = plain + traced
        metrics = per_layer(manifest, traced)
        # passes ran in pairs, so each difference sees one host speed
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] * speed_factor(t) - p["wall_s"] * speed_factor(p)
            for p, t in zip(plain, traced))
        metrics.update(ladder["metrics"])
        problems = ladder["problems"]
        if max(p["trace"]["self_sum_error_s"] for p in traced) > 1e-6:
            problems.append("per-op self times do not sum to the op's traced duration")
    else:
        passes, setups = [], []
        while more(passes):
            passes.append(runner.workload_pass(manifest_path, "sampled"))
            for _ in range(SETUP_PROBES):
                probe = runner.setup_probe()
                setups.append(probe["setup_s"] * speed_factor(probe))
        metrics = end_to_end(passes, setups)
        problems = []

    attempted, failed, reasons = checks.count_failures(manifest, passes, brute)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    ops_per_pass = len(manifest["ops"])
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes x "
          f"{ops_per_pass} ops, closed loop, 1 client, {runner.count} fresh processes")
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {_share(failed, attempted):>14.6g} "
          f"({failed} of {attempted} ops failed)")
    for line in reasons + problems:
        print(f"  FAIL {line}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
