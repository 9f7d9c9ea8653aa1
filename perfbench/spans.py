"""Span tracing of celint's layers, installed from outside the package.

`Tracer.install()` replaces the public entry points of each celint
module (and every module global that re-imports them) with wrappers
that record a span: name, start, end, parent span and op id. Spans are
kept in memory up to a cap and written out at the end; per-name
aggregates (calls, total time, self time, counters) are kept for every
call, so the counts stay exact when the span buffer is full.

Self time is a span's duration minus the time covered by its child
spans. While `active` is false the wrappers only forward the call, so
output checks made between ops leave no trace.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

MAX_SPANS = 50_000

# (module, attribute or "Class.method", span name); the modules are the
# celint layers named in the benchmark's per-layer metrics
ENTRY_POINTS = (
    ("exactnum", "Polynomial.__mul__", "exactnum.poly_mul"),
    ("exactnum", "Polynomial.gcd", "exactnum.poly_gcd"),
    ("exactnum", "RationalFunction.__init__", "exactnum.rf_new"),
    ("exactnum", "rational_poles", "exactnum.rational_poles"),
    ("exprparse", "parse_expression", "exprparse.parse"),
    ("chow", "ChowClass.__mul__", "chow.class_mul"),
    ("chow", "ChowClass.inverse", "chow.inverse"),
    ("chow", "ChowClass.render", "chow.render"),
    ("chow", "ChowRing.__init__", "chow.ring_build"),
    ("chow", "PushForwardMap.__init__", "chow.map_build"),
    ("chow", "ring_blowup_point", "chow.blowup"),
    ("model", "load_model", "model.load_model"),
    ("model", "NCConfig.__init__", "model.config_new"),
    ("model", "StratumSelection.__init__", "model.selection_new"),
    ("model", "blowup_transport", "model.blowup_transport"),
    ("celestial", "log_chern", "celestial.log_chern"),
    ("celestial", "selection_class", "celestial.selection_class"),
    ("celestial", "integrate_class", "celestial.integrate_class"),
    ("celestial", "integrate_degree", "celestial.integrate_degree"),
    ("celestial", "manifest", "celestial.manifest"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)


def _ring_key(ring):
    """Structural identity of a ring: what a construction cache would key on."""
    return (ring.kind, ring.basis, tuple(sorted(
        (k, tuple(sorted(v.items()))) for k, v in ring.products.items()
    )))


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "counters")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    def __init__(self, max_spans=MAX_SPANS):
        self.active = False
        self.op_id = -1
        self.stats = {}
        self.spans = []
        self.max_spans = max_spans
        self.dropped = 0
        self._stack = []  # [span index or -1, child_ns]
        self._patches = []
        self._blown_up = set()

    # -- recording -------------------------------------------------------

    def stat(self, name) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def _wrap(self, fn, name):
        tracer = self
        stat = self.stat(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, stat, args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            if len(tracer.spans) < tracer.max_spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.spans[index] = (name, start, end, parent, tracer.op_id)
            if after is not None:
                after(tracer, stat, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every entry point, including re-imports in other modules."""
        for module_name, _, _ in ENTRY_POINTS:
            importlib.import_module(f"celint.{module_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "celint" or n.startswith("celint.")) and m is not None]
        for module_name, attr, span_name in ENTRY_POINTS:
            module = sys.modules[f"celint.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, span_name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            name: {"calls": s.calls, "total_ns": s.total_ns,
                   "self_ns": s.self_ns, "counters": dict(s.counters)}
            for name, s in self.stats.items()
        }

    def dump(self, path, extra=None):
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]]
                      for s in self.spans if s is not None],
            "dropped": self.dropped,
            "aggregates": self.aggregates(),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def merge_aggregates(total: dict, part: dict):
    """Add one aggregate table (as from `Tracer.aggregates`) into another."""
    for name, row in part.items():
        into = total.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "counters": {}})
        into["calls"] += row["calls"]
        into["total_ns"] += row["total_ns"]
        into["self_ns"] += row["self_ns"]
        for key, n in row["counters"].items():
            into["counters"][key] = into["counters"].get(key, 0) + n


# -- counters taken at the boundaries ----------------------------------------


def _gcd_after(tracer, stat, args, result):
    if result.degree > 0:
        stat.count("nontrivial")


def _blowup_before(tracer, stat, args, kwargs):
    key = _ring_key(args[0])
    if key in tracer._blown_up:
        stat.count("repeat")
    tracer._blown_up.add(key)


def _selection_after(tracer, stat, args, result):
    if hasattr(args[0], "strata"):
        stat.count("strata", len(args[0].strata))


def _config_after(tracer, stat, args, result):
    components = args[0].components
    stat.count(f"components={len(components)}")
    stat.count("components", len(components))
    stat.count("mlinear", sum(not c.mult.is_constant() for c in components))


def _log_chern_before(tracer, stat, args, kwargs):
    if getattr(args[0], "_log_chern", None) is not None:
        stat.count("cached")


def _strata_before(tracer, stat, args, kwargs):
    config = args[0]
    selection = args[1] if len(args) > 1 else kwargs.get("selection")
    if selection is None:
        stat.count("strata_visited", 2 ** len(config.names))
    elif hasattr(selection, "strata"):
        stat.count("strata_visited", len(selection.strata))


_BEFORE = {
    "chow.blowup": _blowup_before,
    "celestial.log_chern": _log_chern_before,
    "celestial.selection_class": _strata_before,
    "celestial.integrate_degree": _strata_before,
}
_AFTER = {
    "exactnum.poly_gcd": _gcd_after,
    "model.config_new": _config_after,
    "model.selection_new": _selection_after,
}
