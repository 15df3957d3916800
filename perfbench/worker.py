"""Run every op of a workload manifest once, in this fresh process.

    python3 perfbench/worker.py MANIFEST MODE RESULT

A fresh process is what a user pays per ``graphconvex`` call: import
cost, cold ``lru_cache``s and no shortest-path rows yet.  ``setup_s`` is
the time to import ``graphconvex``: only ``os``, ``sys`` and ``time``,
which the interpreter has loaded before this file runs, are imported
before it, and the harness's own imports and checks come after it.
MANIFEST ``-`` stops after the set-up, samples host speed with
REFERENCE_SAMPLES runs of :func:`reference_kernel` and runs no op.  MODE
``sampled`` samples host speed while the ops run (:class:`HostSampler`);
``plain`` and ``traced`` sample it between ops, outside every op's time,
in bursts of BURST_SAMPLES.  ``traced`` also installs the span wrappers
of :mod:`spans` and makes every op a root span, so per op the self times
of its spans sum to its traced duration; the spans are written next to
RESULT when the pass ends.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
T0 = time.perf_counter()


def import_library():
    """Import graphconvex from this checkout's ``src``: the timed set-up."""
    sys.path.insert(0, SRC)
    import graphconvex
    import graphconvex.cli
    import graphconvex.io
    import graphconvex.theorems

    return graphconvex


if __name__ == "__main__":
    # set-up ends here; the harness's own imports and inputs below are not in it
    LIBRARY = import_library()
    SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(SRC).resolve().parent


def _reference_graph(n=300, degree=4):
    state, adj = 12345, [[] for _ in range(n)]
    for u in range(n):
        for _ in range(degree // 2):
            state = (state * 1103515245 + 12345) % 2**31
            v = state % n
            if v != u:
                adj[u].append(v)
                adj[v].append(u)
    return adj


REFERENCE_GRAPH = _reference_graph()
REFERENCE_SAMPLES = 20
BURST_SAMPLES = 5
SAMPLE_INTERVAL_S = 0.02


def reference_kernel() -> list[float]:
    """[end time, seconds] of a fixed piece of pure-Python work: breadth-first
    search from 3 sources of a fixed 300-vertex graph.  It gauges how fast
    the host runs interpreter code at this moment."""
    start = time.perf_counter()
    adj = REFERENCE_GRAPH
    for src in range(0, 300, 100):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            du = dist[u] + 1
            for v in adj[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)
    end = time.perf_counter()
    return [end, end - start]


class HostSampler:
    """Runs the reference kernel from a SIGALRM handler every
    SAMPLE_INTERVAL_S, so host speed is sampled during long ops as well as
    between them.  The handler's own time lies inside the op it interrupted;
    the harness subtracts it."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def _sample(self, signum, frame):
        self.samples.append(reference_kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def check_origin(gc) -> None:
    """Refuse a graphconvex imported from anywhere but this checkout."""
    if Path(gc.__file__).resolve().parent != ROOT / "src" / "graphconvex":
        raise SystemExit(f"graphconvex imported from {gc.__file__}, not {SRC}")


def load_library():
    """Import graphconvex from this checkout's ``src``, never from elsewhere."""
    gc = import_library()
    check_origin(gc)
    return gc


def run_op(gc, op: dict, tracer=None) -> dict:
    """One CLI command or claim call; its stdout or report is kept for the checks."""
    out, err = io.StringIO(), io.StringIO()
    result = {"id": op["id"], "exit": None, "error": None}
    if tracer is not None:
        tracer.op = op["id"]
        root = tracer.begin("bench.op")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                result["exit"] = gc.cli.main(op["argv"])
            else:
                # looked up at call time, so installed wrappers are seen
                fn = getattr(gc.theorems, op["fn"])
                args = list(op["args"])
                if "graph" in op:
                    text = Path(op["graph"]).read_text(encoding="utf-8")
                    args.insert(0, gc.io.parse_graph(text))
                result["report"] = fn(*args, values=tuple(op["values"])).as_dict()
    except SystemExit as exc:  # argparse usage errors
        result["exit"] = exc.code
    except Exception as exc:  # one failing op must not end the pass
        result["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.end(root)
        start, end = tracer.spans[root][1], tracer.spans[root][2]
    result["start"], result["end"] = start, end
    result["out"] = out.getvalue()
    if err.getvalue():
        result["stderr"] = err.getvalue()
    return result


def trace_summary(tracer, results) -> dict:
    """Per-name self time and calls, counters, and the per-op self-time sum check."""
    per_op: dict = {}
    for _, start, end, _, op, child in tracer.spans:
        per_op[op] = per_op.get(op, 0.0) + (end - start) - child
    worst = max(abs(per_op.get(r["id"], 0.0) - (r["end"] - r["start"])) for r in results)
    return {
        "self_s": tracer.self_times(),
        "calls": dict(tracer.calls()),
        "counters": dict(tracer.counters),
        "self_sum_error_s": worst,
    }


def main(argv: list[str]) -> int:
    manifest_path, mode, result_path = argv[0], argv[1], Path(argv[2])
    gc = LIBRARY
    check_origin(gc)
    ops = [] if manifest_path == "-" else json.loads(
        Path(manifest_path).read_text(encoding="utf-8"))["ops"]
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    if mode == "sampled" and ops:
        with HostSampler() as sampler:
            results = [run_op(gc, op) for op in ops]
        reference = sampler.samples
    elif ops:
        reference, results = [], []
        for op in ops:
            reference += [reference_kernel() for _ in range(BURST_SAMPLES)]
            results.append(run_op(gc, op, tracer))
    else:
        reference = [reference_kernel() for _ in range(REFERENCE_SAMPLES)]
        results = []
    summary = {
        "setup_s": SETUP_S,
        # the ops' own time, without the host samples taken between them
        "wall_s": sum(r["end"] - r["start"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
        "reference": reference,
    }
    if tracer is not None:
        summary["trace"] = trace_summary(tracer, results)
        with open(result_path.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    result_path.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
