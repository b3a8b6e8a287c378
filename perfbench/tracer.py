"""Outside-in tracer: spans and counters around the library's public
functions, installed from the benchmark's own files.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded module of the package that holds the same function object, so calls
through re-bound names (``bench.apply``, ``radarrx.synthesize``,
``commrx.hop_groups``, ...) are recorded too. ``uninstall`` restores the
originals. Spans are kept in memory as
``[name, start, end, parent index, unit id]`` and written out at the end.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A library function to wrap.

    ``variant`` = (argument, default, values) appends the argument's value
    to the span name, one span name per value. ``count`` returns counter
    increments from the bound arguments and the result. ``alloc`` records
    the peak bytes of the arrays allocated inside the call.
    """

    module: str
    func: str
    variant: tuple | None = None
    count: Callable | None = None
    alloc: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.func}"


def _synth_count(a, r) -> dict:
    return {"waveform.synthesize.samples": r.data.size}


def _apply_count(a, r) -> dict:
    cfg = a["cfg"]
    active = cfg.hops_per_pulse * cfg.samples_per_hop * r.n_prt
    return {"impairments.apply.samples": r.data.size,
            "impairments.apply.active_samples": active * r.n_channels}


def _demod_count(a, r) -> dict:
    out = {"commrx.erased_hops": r.n_erased_hops,
           "commrx.erased_slots": r.n_erased_slots}
    spec = a.get("spec")
    if spec is not None and a.get("mode", "estimated") != "known":
        resid = (r.sync.cfo - spec.cfo) / (2 * math.pi)
        out["commrx.cfo_residual_sq"] = resid * resid
        out["commrx.cfo_residual_n"] = 1
    return out


def _cfar_count(a, r) -> dict:
    return {"radarrx.cfar_detect.detections": len(r)}


def _read_count(a, r) -> dict:
    return {"iqfile.read_iq.bytes": os.path.getsize(a["path"])}


LAYER_TARGETS = (
    Target("fhmimo.waveform", "plan_hops"),
    Target("fhmimo.waveform", "make_psk_grid"),
    Target("fhmimo.waveform", "synthesize", count=_synth_count),
    Target("fhmimo.waveform", "hop_groups"),
    Target("fhmimo.waveform", "payload_codewords"),
    Target("fhmimo.impairments", "apply", count=_apply_count),
    Target("fhmimo.impairments", "slot_gain"),
    Target("fhmimo.impairments", "expected_hop_peak"),
    Target("fhmimo.commrx", "demodulate",
           variant=("mode", "estimated",
                    ("known", "estimated", "averaged", "flat")),
           count=_demod_count),
    Target("fhmimo.commrx", "score_report"),
    Target("fhmimo.commrx", "estimate_cfo"),
    Target("fhmimo.commrx", "build_pilot_ratios"),
    Target("fhmimo.commrx", "correction_factor"),
    Target("fhmimo.radarrx", "synthesize_echo"),
    Target("fhmimo.radarrx", "matched_filter", alloc=True),
    Target("fhmimo.radarrx", "mtd"),
    Target("fhmimo.radarrx", "cfar_detect", count=_cfar_count),
    Target("fhmimo.radarrx", "estimate_params"),
    Target("fhmimo.radarrx", "estimate_angle"),
    Target("fhmimo.radarrx", "process_cpi"),
    Target("fhmimo.bench", "radar_trial"),
    Target("fhmimo.bench", "ber_point"),
    Target("fhmimo.iqfile", "read_iq", count=_read_count),
)

def span_names(targets=LAYER_TARGETS) -> list[str]:
    """Every span name the targets can produce."""
    names = []
    for t in targets:
        if t.variant:
            names += [f"{t.name}.{v}" for v in t.variant[2]]
        else:
            names.append(t.name)
    return names


# (name, unit, better) of the counters reported next to calls and self time
COUNTERS = (
    ("waveform.synthesize.samples", "count", "lower"),
    ("impairments.apply.samples", "count", "lower"),
    ("impairments.apply.active_frac", "ratio", "higher"),
    ("radarrx.matched_filter.bytes_computed", "bytes", "lower"),
    ("radarrx.cfar_detect.detections", "count", "lower"),
    ("commrx.erased_hops", "count", "lower"),
    ("commrx.erased_slots", "count", "lower"),
    ("commrx.cfo_residual_hz", "Hz", "lower"),
    ("iqfile.read_iq.bytes", "bytes", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def metric_specs(targets=LAYER_TARGETS) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for n in span_names(targets):
        out += [(f"{n}.calls", "count", "lower"),
                (f"{n}.self_s", "s", "lower")]
    return out + list(COUNTERS)


class Tracer:
    """Records spans and counters around wrapped calls; see the module
    docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.unit = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, target: Target):
        """Wrapper of ``fn`` that records one span per call."""
        sig = inspect.signature(fn)
        name = target.name
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if target.variant or target.count:
                bound = sig.bind(*args, **kwargs).arguments
            label = name
            if target.variant:
                arg, default, _ = target.variant
                label = f"{name}.{bound.get(arg, default)}"
            span = tracer._open(label)
            if target.alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if target.alloc:
                    tracer.counters[f"{name}.bytes_computed"] += \
                        tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(span)
            if target.count:
                for key, val in target.count(bound, result).items():
                    tracer.counters[key] += val
            return result

        # __module__ stays "tracer", which marks the wrapper as ours
        return functools.update_wrapper(
            wrapper, fn, assigned=("__name__", "__qualname__", "__doc__"))

    @contextlib.contextmanager
    def unit_span(self, unit: int):
        """Record one benchmark unit as a root span."""
        self.unit = unit
        span = self._open("unit")
        try:
            yield
        finally:
            self._close(span)

    # -- patching ------------------------------------------------------------

    def install(self, targets=LAYER_TARGETS, package: str = "fhmimo") -> None:
        """Wrap every target in every loaded module of ``package``."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package
                                      or n.startswith(package + "."))]
        for t in targets:
            orig = getattr(sys.modules[t.module], t.func)
            wrapper = self.wrap(orig, t)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- reports -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the children's durations."""
        self_t = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_t[s[3]] -= s[2] - s[1]
        return self_t

    def layer_metrics(self, n_units: int, overhead_per_span: float,
                      targets=LAYER_TARGETS) -> dict:
        """Per-layer metrics: calls and counters summed over the run,
        self seconds per unit (mean over the ``n_units`` units)."""
        self_t = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        unit_wall = unit_self = 0.0
        for s, st in zip(self.spans, self_t):
            if s[0] == "unit":
                unit_wall += s[2] - s[1]
                unit_self += st
                continue
            self_s[s[0]] += st
            calls[s[0]] += 1
        c = self.counters
        n_lib = len(self.spans) - sum(1 for s in self.spans
                                      if s[0] == "unit")
        derived = {
            "impairments.apply.active_frac":
                c["impairments.apply.active_samples"]
                / c["impairments.apply.samples"]
                if c["impairments.apply.samples"] else 0.0,
            "commrx.cfo_residual_hz":
                math.sqrt(c["commrx.cfo_residual_sq"]
                          / c["commrx.cfo_residual_n"])
                if c["commrx.cfo_residual_n"] else 0.0,
            "trace.unattributed_frac":
                unit_self / unit_wall if unit_wall else 0.0,
            "trace.overhead_frac":
                n_lib * overhead_per_span / unit_wall if unit_wall else 0.0,
        }
        out = {}
        for name, unit, _ in metric_specs(targets):
            if name.endswith(".calls"):
                val = calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                val = self_s[name[:-len(".self_s")]] / max(n_units, 1)
            elif name in derived:
                val = derived[name]
            else:
                val = c[name]
            out[name] = {"value": val, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: name, start, end, parent, unit."""
        with gzip.open(path, "wt", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "start_s", "end_s", "parent", "unit"])
            w.writerows(self.spans)


def overhead_per_span(n: int = 20000) -> float:
    """Seconds one wrapped call adds, calibrated on a no-op function."""

    def noop(x=None):
        return x

    probe = Tracer()
    wrapped = probe.wrap(noop, Target("probe", "noop"))
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(time.perf_counter() - t0 - bare, 0.0) / n
