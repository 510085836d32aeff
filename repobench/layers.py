"""Per-layer metrics of a traced unit, from the span files the hook wrote.

A layer's time is the self time of its spans summed over every process
of the unit, divided by the unit's points.  ``harness.other_s`` is the
part of the unit's wall time that no span covers (on the union of all
spans of all processes, so a client polling while its worker shard
simulates is not counted twice): interpreter start, executor and service
bookkeeping, polling sleeps, row assembly, the Pareto front.
"""
from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field

#: span layer -> per-layer metric (host self-seconds per point)
TIMED = {
    "kernels.workload": "kernels.workload_s",
    "kernels.build": "kernels.build_s",
    "kernels.verify": "kernels.verify_s",
    "sim.functional": "sim.functional_s",
    "sim.replay": "sim.replay_s",
    "sim.run": "sim.other_s",
    "memory.warm": "memory.warm_s",
    "cpu.timing": "cpu.timing_s",
    "harness.fingerprint": "harness.fingerprint_s",
    "harness.cache": "harness.cache_s",
    "harness.queue": "harness.queue_s",
}

#: exact per-point count -> per-layer metric (read after each timing run)
COUNT_METRIC = {
    "committed": "sim.committed",
    "cycles": "cpu.cycles",
    "active_cycles": "cpu.active_cycles",
    "line_requests": "engine.line_requests",
    "l1d_accesses": "memory.l1d_accesses",
    "dram_bytes": "memory.dram_bytes",
}
COUNTS = tuple(COUNT_METRIC)

UNITS = {
    **{metric: "s" for metric in TIMED.values()},
    **{metric: "count" for metric in COUNT_METRIC.values()},
    "sim.s_per_minst": "s/Minst",
    "cpu.s_per_mcycle": "s/Mcycle",
    "sim.trace_reuse": "ratio",
    "sim.trace_mb": "MB",
    "harness.hit_frac": "ratio",
    "harness.other_s": "s",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Trace:
    spans: list = field(default_factory=list)
    points: list = field(default_factory=list)
    lookups: int = 0
    hits: int = 0


def load(directory) -> Trace:
    trace = Trace()
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as handle:
            payload = json.load(handle)
        trace.spans.extend(payload["spans"])
        trace.points.extend(payload["points"])
        trace.lookups += payload["lookups"]
        trace.hits += payload["hits"]
    return trace


def counts_of(point) -> dict:
    return {name: point.get(name, 0) for name in COUNTS}


def covered_seconds(spans, start, end) -> float:
    """Length of the union of all span intervals inside [start, end]."""
    covered = 0.0
    reach = start
    for _, lo, hi, _ in sorted(spans, key=lambda span: span[1]):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def metrics(trace, unit, info, expected) -> dict:
    """Per-layer values of one traced unit."""
    n = len(expected)
    self_s = dict.fromkeys(TIMED, 0.0)
    for layer, _, _, own in trace.spans:
        self_s[layer] = self_s.get(layer, 0.0) + own
    out = {metric: self_s[layer] / n for layer, metric in TIMED.items()}
    totals = dict.fromkeys(COUNTS, 0)
    for point in trace.points:
        for name in COUNTS:
            totals[name] += point.get(name, 0)
    for name, metric in COUNT_METRIC.items():
        out[metric] = totals[name] / n
    passes = self_s["sim.functional"] + self_s["sim.replay"]
    out["sim.s_per_minst"] = (
        passes / (totals["committed"] / 1e6) if totals["committed"] else 0.0
    )
    out["cpu.s_per_mcycle"] = (
        self_s["cpu.timing"] / (totals["active_cycles"] / 1e6)
        if totals["active_cycles"] else 0.0
    )
    traces = {(p["kernel"], p["isa"], p["vector_bits"])
              for p in info["points"]}
    out["sim.trace_reuse"] = n / len(traces)
    out["sim.trace_mb"] = max(
        (p.get("trace_bytes", 0) for p in trace.points), default=0
    ) / 1e6
    out["harness.hit_frac"] = (
        trace.hits / trace.lookups if trace.lookups else 0.0
    )
    covered = covered_seconds(trace.spans, unit.start, unit.end)
    out["harness.other_s"] = (unit.wall_s - covered) / n
    out["trace.covered_frac"] = covered / unit.wall_s
    return out


def merge(per_unit, overhead_pairs) -> dict:
    """Per metric: (values over traced units, unit)."""
    merged = {
        metric: ([values[metric] for values in per_unit], UNITS[metric])
        for metric in per_unit[0]
    }
    merged["trace.overhead_frac"] = (
        [traced / plain - 1.0 for traced, plain in overhead_pairs],
        UNITS["trace.overhead_frac"],
    )
    return merged
