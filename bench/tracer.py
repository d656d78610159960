"""Span tracer for the nbiotsim layers, installed from outside the package.

`Tracer.install()` replaces each public function of the package modules, at
every module binding that refers to it (``cli`` and ``energy`` import
``validate_scenario`` by name), with a wrapper that records one span:
``(name, start, end, parent)``.  Spans stay in memory and are written out
when the traced work ends; `summarize` derives self time as span time minus
the time of the span's children.

Counts that the metrics need beyond calls (transport blocks, timeline
intervals, emitted bytes, distinct timeline inputs) are taken by hooks that
run outside the wrapped call.  Hook time is recorded as a child span of the
caller, so it is not charged to any layer's self time.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import json
import sys
import time

PACKAGE = "nbiotsim"
LAYERS = ("config", "phy", "ra", "flows", "energy", "capacity", "cli")

# Helpers called once per interval or per RA attempt.  A span each would cost
# more than the call and would swamp the caller's self time, so their time
# stays in the caller.
UNWRAPPED = frozenset({
    "config.builtin_coverage_profile",
    "energy.interval_energy_mj",
    "phy.npdcch_period_ms",
    "phy.ul_carrier_fraction",
    "phy.ul_resource_unit_ms",
    "ra.detection_probability",
})

HOOK = "<tracer>"


class CountingStream:
    """Forwards writes to a stream and counts the bytes written."""

    def __init__(self, stream, counters):
        self._stream = stream
        self._counters = counters

    def write(self, text):
        self._counters["cli.emit.bytes"] += len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _without_iat(value):
    if dataclasses.is_dataclass(value) and hasattr(value, "iat_s"):
        return dataclasses.replace(value, iat_s=0.0)
    return value


def _before_emit(tracer, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    for key, value in bound.arguments.items():
        if callable(getattr(value, "write", None)):
            bound.arguments[key] = CountingStream(value, tracer.counters)
    return bound.args, bound.kwargs


def _after_blocks(tracer, sig, args, kwargs, result):
    tracer.counters["phy.transport_block_units.blocks"] += len(result)


def _after_timeline(tracer, sig, args, kwargs, result):
    tracer.counters["flows.flow_timeline.intervals"] += len(result)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    key = tuple((k, _without_iat(v)) for k, v in bound.arguments.items())
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    if key not in tracer.timeline_inputs:
        tracer.timeline_inputs.add(key)
        tracer.counters["flows.flow_timeline.distinct"] += 1


BEFORE = {"cli.emit": _before_emit}
AFTER = {"phy.transport_block_units": _after_blocks,
         "flows.flow_timeline": _after_timeline}


class Tracer:
    """Records spans of the package's public functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self.timeline_inputs: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)
        sig = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if before is not None:
                h0 = clock()
                args, kwargs = before(self, sig, args, kwargs)
                spans.append((HOOK, h0, clock(), parent))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                h0 = clock()
                after(self, sig, args, kwargs, result)
                spans.append((HOOK, h0, clock(), parent))
            return result

        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(name, fn)
                for holder in modules:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, hattr, wrapped)
                            self._patched.append((holder, hattr, fn))
        return self

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def summarize(dump: dict) -> tuple[dict, collections.Counter]:
    """Per-function ``[calls, self_ms]`` and the hook counters of one trace."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    per: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == HOOK:
            continue
        entry = per.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start - child[i]) * 1000.0
    return per, collections.Counter(dump["counters"])


def merge(parts) -> tuple[dict, collections.Counter]:
    """Sum several `summarize` results."""
    per: dict[str, list] = {}
    counters: collections.Counter = collections.Counter()
    for part_per, part_counters in parts:
        for name, (calls, self_ms) in part_per.items():
            entry = per.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_ms
        counters.update(part_counters)
    return per, counters


def write(path, dump: dict, **extra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(dump, **extra), fh)


def read(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
