"""Time two commits of qalg against each other in alternating pairs and
write the runs to a BENCH JSON file.

Run from a qalg git checkout:

    python3 tools/suite_pairs.py PARENT CHANGE --pairs N --out BENCH.json \\
        --suite S [--digits D] [--parallelism N|default]
    python3 tools/suite_pairs.py PARENT CHANGE --pairs N --out BENCH.json \\
        --workload W --seed S [--trace 1]

PARENT and CHANGE are commits; each is exported with ``git archive`` into
a clean temporary directory, without bytecode caches, and every run sets
PYTHONDONTWRITEBYTECODE=1 so none are written.  Pair i runs the parent
first when i is even and the change first when it is odd.

With ``--suite`` a run is ``python3 -m qalg.cli verify --suite S
[--digits D] --parallelism N --json``, N = 1 unless ``--parallelism``
gives another; ``--parallelism default`` leaves the flag out, so the run
takes verify's own default.  Its metrics are the process wall time
(``wall_s``) and the sum of the checks' ``wall_time_ms`` (``checks_s``),
and the summary says whether every run gave the same check ids and
verdicts.  With ``--workload`` a run is a 30 s ``python3
perfbench/run.py`` run and its result is that run's final JSON line.

The file keeps the schema of the earlier BENCH files: per key (the suite
and digits, or the workload), ``runs`` holds each side's runs in order
(pair index, env, result; ``trace_runs`` for ``--trace 1``; a suite key
ends in `` --parallelism N`` unless N is 1, and a workload key
carries `` --seed S`` unless S is 0) and
``summary`` each metric's medians, the parent's interquartile range and
the pairs the change won (lower is better).  An existing ``--out`` file
is updated: other keys are kept, this key is replaced.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# the run length of BENCHMARK.json, for --workload runs
SECONDS = 30


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--suite", choices=("paper-core", "series-exact", "conjectures"))
    what.add_argument("--workload")
    ap.add_argument("--digits", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parallelism", default="1",
                    help="verify's workers for --suite: N, or 'default' for no flag")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.digits is not None and args.digits < 1:
        ap.error("--digits must be at least 1")
    if args.parallelism != "default" and not (args.parallelism.isdigit() and int(args.parallelism) >= 1):
        ap.error("--parallelism must be a positive integer or 'default'")
    if args.workload and args.parallelism != "1":
        ap.error("--parallelism applies to --suite runs only")
    if args.parallelism != "default":
        args.parallelism = str(int(args.parallelism))
    return args


def git(*args) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


def export(commit: str, into: Path) -> str:
    """Extract commit into the directory `into`; return its full hash."""
    sha = git("rev-parse", "--verify", f"{commit}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into)
    return sha


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import mpmath
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def command(args) -> list:
    if args.suite:
        cmd = ["-m", "qalg.cli", "verify", "--suite", args.suite]
        if args.digits:
            cmd += ["--digits", str(args.digits)]
        if args.parallelism != "default":
            cmd += ["--parallelism", args.parallelism]
        return cmd + ["--json"]
    return ["perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(SECONDS), "--trace", str(args.trace)]


def bench_key(args) -> str:
    """The key of the run in the BENCH file."""
    if args.suite:
        return args.suite + (f" --digits {args.digits}" if args.digits else "") \
            + (f" --parallelism {args.parallelism}" if args.parallelism != "1" else "")
    return args.workload + (f" --seed {args.seed}" if args.seed else "") \
        + (" --trace 1" if args.trace else "")


def run(tree: Path, cmd: list, args, pair: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    out = subprocess.run([sys.executable] + cmd, cwd=tree, env=env, check=True,
                         capture_output=True, text=True).stdout
    wall = time.perf_counter() - start
    if args.workload:
        lines = out.splitlines()
        env_line = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        return {"pair": pair, "env": env_line, "result": json.loads(lines[-1])}
    report = json.loads(out)
    checks = report["checks"]
    return {"pair": pair, "env": dict(environment(), suite=report["suite"], digits=report["digits"]),
            "result": {"correct": all(c["verdict"] != "fail" for c in checks),
                       "failed": sum(c["verdict"] == "fail" for c in checks),
                       "verdicts": {c["id"]: c["verdict"] for c in checks},
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "checks_s": {"value": sum(c["wall_time_ms"] for c in checks) / 1000,
                                                "unit": "s"}}}}


def summarize(sides: dict, pairs: int) -> dict:
    summary = {"pairs": pairs}
    parent, change = sides["parent"], sides["change"]
    for name, metric in parent[0]["result"]["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            continue
        p = [r["result"]["metrics"][name]["value"] for r in parent]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [p[0]] * 3
        summary[name] = {"parent_median": statistics.median(p), "change_median": statistics.median(c),
                         "change_wins": sum(b < a for a, b in zip(p, c)), "parent_iqr": q[2] - q[0]}
    summary["failed"] = {side: sum(r["result"]["failed"] for r in runs) for side, runs in sides.items()}
    if "verdicts" in parent[0]["result"]:
        first = parent[0]["result"]["verdicts"]
        summary["same_verdicts"] = all(r["result"]["verdicts"] == first for r in parent + change)
    else:
        summary["attempted"] = {side: sum(r["result"]["attempted"] for r in runs)
                                for side, runs in sides.items()}
    return summary


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    cmd, key = command(args), bench_key(args)
    with tempfile.TemporaryDirectory(prefix="suite_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        sides = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run(trees[side], cmd, args, pair))
            wall = "trace.wall_s" if args.trace else "wall_s"
            print(f"pair {pair}: " + ", ".join(
                f"{side} {sides[side][-1]['result']['metrics'][wall]['value']:.4g} s"
                for side in order), flush=True)
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench.update(parent_commit=shas["parent"], change_commit=shas["change"])
    bench.setdefault("commands", {})[key] = "python3 " + " ".join(cmd)
    bench.setdefault("trace_runs" if args.trace else "runs", {})[key] = sides
    bench.setdefault("summary", {})[key] = summarize(sides, args.pairs)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps(bench["summary"][key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
