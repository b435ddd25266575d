"""Compare the parent and change runs of a BENCH JSON file, metric by metric.

Run from a qalg checkout:

    python3 tools/compare.py BENCH.json [--benchmark BENCHMARK.json]

Every BENCH file in the repository keeps its runs under ``runs`` (and
traced runs under ``trace_runs``), per key, as ``{"parent": ..., "change":
...}``; each side is one run (the earliest files) or a list of runs, and a
run's metrics sit in ``result.metrics`` as ``{name: {"value", "unit"}}``.
A ``summary`` section, where present, is not read: every figure is
recomputed from the runs.

For each key and metric the tool prints the parent and change medians,
their ratio (change over parent) and the pairs the change won, that is,
was better in (lower, or higher for a metric that BENCHMARK.json marks
``"better": "higher"``).  The median ops a run completed (``attempted``)
are printed beside ``peak_rss_mb``, since a faster run completes more ops
and may touch more memory doing so.  An end-to-end metric of
BENCHMARK.json whose change median is worse than the parent's by more
than its ``bound`` (a fraction) is flagged with ``WORSE``, and the exit
status is then 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sides(entry: dict) -> dict:
    """The runs of one key, as a list per side."""
    return {side: runs if isinstance(runs, list) else [runs]
            for side, runs in entry.items()}


def keyed_runs(bench: dict) -> dict:
    """Every key's runs; a traced key ends in ' --trace 1'."""
    out = {key: sides(entry) for key, entry in bench.get("runs", {}).items()}
    for key, entry in bench.get("trace_runs", {}).items():
        out[key if key.endswith(" --trace 1") else key + " --trace 1"] = sides(entry)
    return out


def compare(runs: dict, better: dict, bounds: dict) -> tuple[list, list]:
    """Rows (metric, parent median, change median, ratio, wins, pairs,
    note) for one key, and the flagged metric names."""
    parent, change = runs["parent"], runs["change"]
    rows, flagged = [], []
    for name, metric in parent[0]["result"]["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            continue
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        higher = better.get(name) == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        ratio = cm / pm if pm else float("nan")
        note = ""
        if name == "peak_rss_mb" and "attempted" in parent[0]["result"]:
            ops = [statistics.median(r["result"]["attempted"] for r in rs)
                   for rs in (parent, change)]
            note = f"ops {ops[0]:g} -> {ops[1]:g}"
        if name in bounds and pm:
            worse = (pm - cm) / pm if higher else (cm - pm) / pm
            if worse > bounds[name]:
                note = (note + "  " if note else "") + f"WORSE by {worse:.1%} > {bounds[name]:.0%}"
                flagged.append(name)
        rows.append((name, pm, cm, ratio, wins, min(len(p), len(c)), note))
    return rows, flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("bench", type=Path)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    spec = json.loads(args.benchmark.read_text())
    better = {m["name"]: m.get("better", "lower")
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}
    flagged = []
    for key, runs in keyed_runs(bench).items():
        rows, bad = compare(runs, better, bounds)
        flagged += [f"{key}: {name}" for name in bad]
        print(key)
        for name, pm, cm, ratio, wins, pairs, note in rows:
            print(f"  {name:42s} {pm:12.6g} -> {cm:12.6g}  ratio {ratio:6.3f}"
                  f"  won {wins}/{pairs}  {note}".rstrip())
    if flagged:
        print("worse than the bound: " + "; ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
