"""In-memory span recorder for the traced benchmark run.

Each public function of a layer module is replaced, for the length of the
run, by a wrapper that records one span per call: name, start, end and the
span that was open when it was called.  The wrapper is installed on every
``qalg`` module that holds the function, because ``harness``, ``modular``,
``recognize``, ``moebius`` and ``elliptic`` import their dependencies by
name (``from .x import f``); patching only the defining module would miss
those calls.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and nest strictly, so the children never
overlap and their durations sum to the part of the parent they cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter

# The layer modules, in the order they are reported.  ``precision`` and
# ``errors`` do no measurable work; ``cli`` only parses and formats, and its
# import is part of the set-up time.
LAYER_MODULES = ("qengine", "elliptic", "hpcore", "series", "moebius",
                 "modular", "recognize")

# FormalSeries methods traced under the series layer (span name, attribute).
SERIES_METHODS = (("mul", "__mul__"), ("exp", "exp"), ("log", "log"),
                  ("inverse", "inverse"))


class SpanRecorder:
    """Records spans while ``active``; a disabled wrapper costs one test."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span: [name id, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        # exact counts taken at the boundaries during the current pass
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        entry = [self._name_id(name), 0.0, 0.0, parent]
        self.spans.append(entry)
        self._stack.append(idx)
        entry[1] = perf_counter()
        try:
            yield
        finally:
            entry[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def count_max(self, name: str, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def inside(self, name: str) -> bool:
        """Whether the innermost open span has this name."""
        return bool(self._stack) and self.names[self.spans[self._stack[-1]][0]] == name

    def wrap(self, name: str, fn, namer=None, before=None, after=None):
        """A traced stand-in for ``fn``.  ``namer(args, kwargs)`` may pick
        the span name per call; ``before`` may rewrite the arguments and
        ``after`` sees the result, both only while recording."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(namer(args, kwargs) if namer else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "qalg"):
        """Wrap every public function of each layer module, on every module
        of the package that holds it, plus the FormalSeries methods."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        replacements = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replacements[id(fn)] = self.wrap(f"{short}.{attr}", fn,
                                                 **self._hooks(short, attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._set(mod, attr, new)
        series_cls = sys.modules[f"{package}.series"].FormalSeries
        for label, attr in SERIES_METHODS:
            self._set(series_cls, attr,
                      self.wrap(f"series.FormalSeries.{label}", getattr(series_cls, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _hooks(self, short: str, attr: str) -> dict:
        if (short, attr) == ("modular", "rrcf"):
            def namer(args, kwargs):
                method = args[1] if len(args) > 1 else kwargs.get("method", "product")
                return f"modular.rrcf.{method}"
            return {"namer": namer}
        if (short, attr) == ("recognize", "lattice_reduce"):
            def before(args, kwargs):
                basis = args[0] if args else kwargs["basis"]
                bits = max(abs(int(x)).bit_length() for row in basis for x in row)
                self.count_max("recognize.lattice_reduce.input_bits", bits)
                if self.inside("recognize.recognize"):
                    self.count("recognize.degrees_scanned")
                return args, kwargs
            return {"before": before}
        if (short, attr) == ("recognize", "recognize"):
            def before(args, kwargs):
                # time the doubled-precision recompute callback on its own
                args, kwargs = list(args), dict(kwargs)
                if len(args) > 4 and args[4] is not None:
                    args[4] = self.wrap("recognize.recompute", args[4])
                elif kwargs.get("recompute") is not None:
                    kwargs["recompute"] = self.wrap("recognize.recompute", kwargs["recompute"])
                self.count("recognize.attempted")
                return tuple(args), kwargs

            def after(result):
                if getattr(result, "status", None) == "recognized":
                    self.count("recognize.recognized")
            return {"before": before, "after": after}
        return {}

    # -- reporting ---------------------------------------------------------

    def mark(self) -> int:
        """Start a pass: reset the counts; its spans are those after this index."""
        self.counts = {}
        return len(self.spans)

    def aggregate(self, start: int) -> dict[str, dict]:
        """Calls and self time per span name over spans[start:]."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        out: dict[str, dict] = {}
        for i, (nid, t0, t1, _) in enumerate(spans):
            agg = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
        return out

    def dump(self, path, origin: float, meta: dict):
        """Write every span (times relative to ``origin``) as JSON."""
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, t0 - origin, t1 - origin, p]
                                 for n, t0, t1, p in self.spans]}, fh)


def _timed(layer, *functions):
    for fn in functions:
        yield f"{layer}.{fn}.calls", "count"
        yield f"{layer}.{fn}.self_s", "s"


# The per-layer metrics a traced run reports, with their units.  Functions
# a workload never calls report zero calls and zero self time.
PER_LAYER_METRICS = (
    *_timed("recognize", "recognize", "lattice_reduce"),
    ("recognize.lattice_reduce.input_bits", "bits"),
    ("recognize.degrees_scanned", "count"),
    *_timed("recognize", "recompute"),
    ("recognize.hit_ratio", "ratio"),
    *_timed("elliptic", "singular_modulus"),
    ("elliptic.singular_modulus.cache_hit_ratio", "ratio"),
    *_timed("elliptic", "ellint_K", "ellint_E", "inverse_singular_modulus",
            "elliptic_alpha", "j_invariant", "multiplier"),
    *_timed("qengine", "make_nome", "agile", "agile_star", "theta_general", "theta2",
            "theta3", "theta_powersum", "eta_paper", "agile_via_triangular", "m_series"),
    *_timed("modular", "rrcf.product", "rrcf.continued_fraction", "incomplete_beta",
            "solve_sextic", "theorem3_check", "eq43_derivative_check",
            "theorem4_check", "modular5_check"),
    *_timed("hpcore", "integrate"),
    *_timed("series", "exponent_product", "one_minus_power_product", "FormalSeries.mul",
            "FormalSeries.exp", "FormalSeries.log", "FormalSeries.inverse"),
    *_timed("moebius", "lambert_series", "normalized_value", "detect_period",
            "eta_qdlog", "theta_qdlog", "square_character_eta_identity"),
    *_timed("harness", "check"),
    ("harness.check.fail", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
