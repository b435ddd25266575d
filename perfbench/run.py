"""qalg benchmark: time to a verified result, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; nothing is
installed.  The run sets up several times (fresh import of ``qalg``, which
builds the identity registry, plus the seeded inputs) and reports the
median as ``setup_s``.  It then runs whole passes over the workload until
``--seconds`` is used up, at least one pass, clearing every ``lru_cache``
in the package and mpmath's quadrature nodes before each pass, as a fresh
``qalg`` process would start.

Every reported time is scaled to a reference host speed: between ops the
run times a fixed probe that uses no qalg code, and each pass's times are
multiplied by REFERENCE_PROBE_S over that pass's median probe time (see
SpeedMeter).  The raw medians are printed alongside.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end figures: ``setup_s``, ``wall_s`` (median pass time),
``op_p50_ms`` and ``peak_rss_mb``.  With ``--trace 1`` passes alternate
untraced and traced, starting untraced, three passes at least; the metrics
are the per-layer figures of the traced passes (``<module>.<function>``
``.calls`` and ``.self_s``, medians over traced passes) and the tracing
overhead, and every span is written to ``perfbench/traces/``.  Every op's output is
checked; ``failed`` counts wrong verdicts, route disagreements, wrong or
missing polynomials, false recognitions and exceptions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import mpmath

from spans import PER_LAYER_METRICS, SpanRecorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
SETUP_REPS = 11
# Time one host probe takes at the reference speed; measured times are
# scaled by REFERENCE_PROBE_S / (median probe time in the same pass).
REFERENCE_PROBE_S = 0.0025
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
MODULES = ("precision", "qengine", "elliptic", "hpcore", "series", "moebius",
           "modular", "recognize", "harness", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh_import():
    """Import qalg from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "qalg" or n.startswith("qalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("qalg")
    return SimpleNamespace(qalg=pkg, **{n: importlib.import_module(f"qalg.{n}")
                                        for n in MODULES})


def clear_caches():
    """Drop what a fresh process would not have: every lru_cache in the
    package and mpmath's quadrature nodes."""
    for rule in ("_tanh_sinh", "_gauss_legendre"):
        getattr(mpmath.mp, rule).clear()
    for name, mod in list(sys.modules.items()):
        if name == "qalg" or name.startswith("qalg."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class SpeedMeter:
    """Samples the host's current speed between ops.

    On a shared host the speed of this process drifts by a third and more
    over minutes, and that drift is as large as the changes the benchmark
    has to detect.  The probe is a fixed mix of interpreter work and
    300-digit mpmath arithmetic that runs no qalg code, taken between ops,
    outside the timed regions; times are reported at the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self):
        t0 = perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        with mpmath.workdps(300):
            x = mpmath.mpf(2)
            for _ in range(20):
                x = mpmath.sqrt(x + 1) * 3 / 2
        self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def singular_modulus_cache(m):
    cached = getattr(m.elliptic, "_singular_modulus_cached", None)
    info = getattr(cached, "cache_info", None)
    return info() if info else None


def environment(args, workload):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": args.seed,
        "digits": workload.digits,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, ceil(p n / 100)
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return None, None


def per_layer(traced, untraced):
    """Per-layer metrics: medians over the traced passes."""
    rows = [p["layers"] for p in traced]
    out = {}
    for metric, unit in PER_LAYER_METRICS:
        vals = [row.get(metric, 0) for row in rows]
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    # the first pass of a process runs slower (mpmath warms up), so the
    # overhead compares traced passes with the untraced passes after it
    t_wall = statistics.median(p["wall_s"] for p in traced)
    u_wall = statistics.median(p["wall_s"] for p in untraced[1:])
    out["trace.wall_s"] = {"value": t_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": t_wall - u_wall, "unit": "s"}
    return out


def layer_row(recorder, start, result, cache, scale):
    """Flatten one traced pass into metric name -> value."""
    row = {}
    for name, agg in recorder.aggregate(start).items():
        row[f"{name}.calls"] = agg["calls"]
        row[f"{name}.self_s"] = agg["self_s"] * scale
    counts = recorder.counts
    row["recognize.lattice_reduce.input_bits"] = counts.get("recognize.lattice_reduce.input_bits", 0)
    row["recognize.degrees_scanned"] = counts.get("recognize.degrees_scanned", 0)
    attempted = counts.get("recognize.attempted", 0)
    row["recognize.hit_ratio"] = counts.get("recognize.recognized", 0) / attempted if attempted else 0.0
    if cache is not None:
        looked = cache.hits + cache.misses
        row["elliptic.singular_modulus.cache_hit_ratio"] = cache.hits / looked if looked else 0.0
    row["harness.check.fail"] = result.layer_fails
    return row


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "qalg" / "__init__.py").is_file():
        print(f"error: no qalg sources under {SRC}; run from a qalg checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args, workload)
    print("env " + json.dumps(env))
    if env["mpmath_backend"] != "python":
        print(f"WARNING: mpmath backend is {env['mpmath_backend']!r}, not 'python'; "
              "the recorded baselines assume the pure-Python backend")

    setups, meter = [], SpeedMeter()
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        m = fresh_import()
        inputs = workload.make_inputs(m, random.Random(args.seed))
        setups.append(perf_counter() - t0)
        for _ in range(3):
            meter.probe()
    setup_scale = meter.scale()

    recorder = SpanRecorder()
    if args.trace:
        recorder.install()
    origin = perf_counter()
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            clear_caches()
            gc.collect()
            recorder.active = traced
            start = recorder.mark()
            meter = SpeedMeter()
            meter.probe()
            t0 = perf_counter()
            result = workload.run_pass(m, inputs, recorder, meter.probe)
            elapsed = perf_counter() - t0
            recorder.active = False
            scale = meter.scale()
            info = {"traced": traced, "raw_wall_s": result.wall_s, "scale": scale,
                    "wall_s": result.wall_s * scale, "elapsed": elapsed, "result": result}
            if traced:
                info["layers"] = layer_row(recorder, start, result,
                                           singular_modulus_cache(m), scale)
            passes.append(info)
            used = perf_counter() - origin
            next_cost = statistics.median(p["elapsed"] for p in passes)
            if len(passes) >= (3 if args.trace else 1) and used + next_cost > args.seconds:
                break
    finally:
        recorder.uninstall()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_ops = [op for p in passes for op in p["result"].ops]
    failed = [op for op in all_ops if op.error]
    op_ms = [op.seconds * 1000 * p["scale"] for p in untraced for op in p["result"].ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e = {
        "setup_s": {"value": statistics.median(setups) * setup_scale, "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    pct, tail_ms = tail(op_ms)
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"ops {len(all_ops)} attempted, {len(failed)} failed "
          f"(fail_frac {len(failed) / max(1, len(all_ops)):.6g})")
    print("pass wall_s (raw*scale) " + " ".join(
        f"{p['raw_wall_s']:.4f}*{p['scale']:.3f}{'T' if p['traced'] else ''}" for p in passes))
    print(f"raw medians: setup_s {statistics.median(setups):.6g} s (scale {setup_scale:.4g}), "
          f"wall_s {statistics.median(p['raw_wall_s'] for p in untraced):.6g} s")
    for name, metric in e2e.items():
        print(f"{name:<12} {metric['value']:.6g} {metric['unit']}")
    if pct is None:
        print(f"op_tail_ms   omitted: {len(op_ms)} op samples, too few for a "
              "percentile with ten samples beyond it")
    else:
        print(f"op_tail_ms   {tail_ms:.6g} ms (p{pct:g} of {len(op_ms)} op samples)")
    by_label: dict[str, list] = {}
    by_group: dict[str, list] = {}  # suite (verify) or digits (eval) -> pass shares
    for p in untraced:
        shares: dict[str, float] = {}
        for op in p["result"].ops:
            by_label.setdefault(op.label, []).append(op.seconds * 1000 * p["scale"])
            if ":" in op.label or "@" in op.label:
                group = op.label.split(":")[0] if ":" in op.label else op.label.split("@")[1]
                shares[group] = shares.get(group, 0.0) + op.seconds * p["scale"]
        for group, total in shares.items():
            by_group.setdefault(group, []).append(total)
    for group in sorted(by_group):
        print(f"  {group:<37} median pass share {statistics.median(by_group[group]):.6g} s")
    for label in sorted(by_label):
        vals = by_label[label]
        print(f"  op {label:<34} n={len(vals):<4} p50 {statistics.median(vals):.6g} ms")
    for op in failed[:20]:
        print(f"FAILED {op.label}: {op.error}")

    metrics = e2e
    if args.trace:
        metrics = per_layer(traced, untraced)
        for name, metric in metrics.items():
            print(f"  {name:<52} {metric['value']:.6g} {metric['unit']}")
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        recorder.dump(out, origin, env)
        print(f"spans written to {out.relative_to(ROOT)} ({len(recorder.spans)} spans)")

    print(json.dumps({"correct": not failed, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
