"""Output checks behind ``error_rate``.

An op fails when it raised, or when its exit code or report differs from
what its claim implies (``expect`` in the manifest):

* claim reports carry the expected verdict (thm1 on the triangle-free grid
  is never refuted; thm3, thm4, lem-dist-pt, prop-nn and prop-dist-cvx are
  verified), and ``checked``/``hypothesis_fired`` equal the counts the
  manifest gives;
* ``search grid ... convex-not-subharmonic`` reports ``found: false``;
* a hull contains its input and equals the reference hull, and on graphs
  of at most 14 vertices also ``brute_force_convex_hull``;
* ``check fn-convex`` rows match the reference verdicts and witness pairs.
"""

from __future__ import annotations

import json
from pathlib import Path


def brute_force_hulls(manifest: dict) -> dict:
    """Library brute-force hull (token list) for every op that asks for one."""
    from graphconvex import brute_force_convex_hull, parse_graph, parse_vertex_set
    from graphconvex.io import format_vertex

    out = {}
    for op in manifest["ops"]:
        if not op["expect"].get("brute_force"):
            continue
        argv = op["argv"]
        g = parse_graph(Path(argv[argv.index("--graph") + 1]).read_text(encoding="utf-8"))
        members = parse_vertex_set(
            Path(argv[argv.index("--set") + 1]).read_text(encoding="utf-8"), g.vertices
        )
        hull = brute_force_convex_hull(g.metric(), members)
        out[op["id"]] = [format_vertex(v) for v in g.vertices if v in hull]
    return out


def check_op(op: dict, result: dict, brute: dict) -> str | None:
    """None when the op's outcome is the expected one, else the reason."""
    if result.get("error"):
        return result["error"]
    expect = op["expect"]
    if op["kind"] == "cli":
        if result["exit"] != expect["exit"]:
            return f"exit code {result['exit']}, expected {expect['exit']}"
        try:
            payload = json.loads(result["out"])
        except ValueError:
            return "stdout is not one JSON report"
    else:
        payload = result["report"]
    for key in ("verdict", "found"):
        if key in expect and payload.get(key) != expect[key]:
            return f"{key} {payload.get(key)!r}, expected {expect[key]!r}"
    if "hull" in expect:
        if not set(payload["input"]) <= set(payload["hull"]):
            return "hull does not contain its input"
        if payload["hull"] != expect["hull"]:
            return f"hull {payload['hull']}, expected {expect['hull']}"
        if op["id"] in brute and payload["hull"] != brute[op["id"]]:
            return f"hull {payload['hull']}, brute force gives {brute[op['id']]}"
    if "rows" in expect:
        rows = [[r["vertex"], r["verdict"], r.get("pair")] for r in payload["rows"]]
        if rows != expect["rows"]:
            return "fn-convex rows differ from the reference"
    if "counts" in expect:
        got = [payload["checked"], payload["hypothesis_fired"]]
        if got != expect["counts"]:
            return f"checked/hypothesis_fired {got}, expected {expect['counts']}"
    return None


def count_failures(manifest: dict, passes: list[dict], brute: dict):
    """(attempted, failed, first few reasons) over every op of every pass."""
    ops = {op["id"]: op for op in manifest["ops"]}
    attempted = failed = 0
    reasons: list[str] = []
    for result in (r for p in passes for r in p["ops"]):
        attempted += 1
        reason = check_op(ops[result["id"]], result, brute)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{result['id']}: {reason}")
    return attempted, failed, reasons
