"""Per-layer spans for a traced benchmark unit, recorded from outside the
program.

``install()`` wraps public functions of each layer of ``repro`` in
timing spans; nothing under ``src/`` is edited.  Spans stay in memory and
are written once, as ``spans-<pid>.json`` in ``$REPOBENCH_TRACE_DIR``,
when the process exits.  ``sitecustomize.py`` next to this file calls
``install()`` in every interpreter of a traced unit, worker shards
included, so the client and its shards each leave one file.

A span is ``[layer, start, end, self]`` on ``time.monotonic()``, a clock
shared by all processes of the host; ``self`` is the span's duration
minus its direct children's.  Stacks are per thread, because a worker
shard's lease heartbeat and the sweep client's shard supervisor call
the queue from their own threads.

Besides spans the file holds, per simulated point, the run fingerprint,
the ``RunRecord`` the run produced and exact work counts read from the
pipeline after ``Pipeline.run`` returns.  ``FunctionalSimulator.trace``
(the replay pass that ``Simulator.run`` feeds to the timing model) is
materialised into a list inside its span, so replay time separates from
timing time; the list's size is estimated for ``sim.trace_mb``.
"""
from __future__ import annotations

import atexit
import dataclasses
import functools
import json
import os
import sys
import threading
import time

_now = time.monotonic

#: estimate a trace's size from every _SIZE_STRIDE-th op (exact repeatable).
_SIZE_STRIDE = 64


class Tracer:
    """Collects spans, per-point counts and cache lookups of one process."""

    def __init__(self) -> None:
        self.spans = []
        self.points = []
        self.lookups = 0
        self.hits = 0
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def enter(self, layer):
        # [layer, start, time covered by direct children]
        frame = [layer, _now(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame):
        end = _now()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], frame[1], end, duration - frame[2]))

    # -- per-point bookkeeping (one simulation per thread at a time) --------

    def point(self):
        point = getattr(self._local, "point", None)
        if point is None:
            point = self._local.point = {}
        return point

    def take_point(self):
        point = getattr(self._local, "point", None)
        self._local.point = None
        return point

    def dump(self, directory) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        payload = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "spans": self.spans,
            "points": self.points,
            "lookups": self.lookups,
            "hits": self.hits,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _span(tracer, layer, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.leave(frame)

    return wrapper


def _trace_bytes(ops) -> int:
    """Estimated bytes of a materialised trace: the list plus each DynOp
    and the tuples it owns (instructions are shared, not counted)."""
    sample = 0
    count = 0
    for op in ops[::_SIZE_STRIDE]:
        size = sys.getsizeof(op)
        for name in op.__slots__:
            value = getattr(op, name)
            if isinstance(value, tuple):
                size += sys.getsizeof(value)
                size += sum(
                    sys.getsizeof(v) for v in value if isinstance(v, tuple)
                )
        sample += size
        count += 1
    per_op = sample / count if count else 0.0
    return int(sys.getsizeof(ops) + per_op * len(ops))


def _kernel_classes(base):
    seen = []
    todo = [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans of ``tracer``."""
    import repro.kernels  # noqa: F401 — registers every kernel class
    from repro.cpu.pipeline import Pipeline
    from repro.harness import serve, speccodec
    from repro.harness.diskcache import ResultCache
    from repro.harness.jobqueue import JobQueue
    from repro.harness.runner import Runner, RunSpec
    from repro.kernels.base import Kernel, Workload
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.simulator import Simulator

    # kernels: workload generation, program build, result check
    for cls in _kernel_classes(Kernel):
        if "workload" in cls.__dict__:
            cls.workload = _span(tracer, "kernels.workload",
                                 cls.__dict__["workload"])
    Kernel.build = _span(tracer, "kernels.build", Kernel.build)
    Workload.verify = _span(tracer, "kernels.verify", Workload.verify)

    # sim: metadata pass, materialised replay pass, the rest of Simulator.run
    Simulator.run = _span(tracer, "sim.run", Simulator.run)
    FunctionalSimulator.run = _span(tracer, "sim.functional",
                                    FunctionalSimulator.run)
    trace_gen = FunctionalSimulator.trace

    @functools.wraps(trace_gen)
    def trace(self):
        if tracer.top() == "sim.functional":
            return trace_gen(self)  # FunctionalSimulator.run's own pass
        frame = tracer.enter("sim.replay")
        try:
            ops = list(trace_gen(self))
        finally:
            tracer.leave(frame)
        point = tracer.point()
        point["committed"] = len(ops)
        point["trace_bytes"] = _trace_bytes(ops)
        return iter(ops)

    FunctionalSimulator.trace = trace

    # memory: hierarchy construction and warm-up
    MemoryHierarchy.__init__ = _span(tracer, "memory.warm",
                                     MemoryHierarchy.__init__)
    MemoryHierarchy.warm = _span(tracer, "memory.warm", MemoryHierarchy.warm)

    # cpu: the timing loop (engine and memory work per cycle included)
    pipeline_run = Pipeline.run

    @functools.wraps(pipeline_run)
    def timing(self, trace_ops):
        frame = tracer.enter("cpu.timing")
        try:
            stats = pipeline_run(self, trace_ops)
        finally:
            tracer.leave(frame)
        engine = self.engine
        tracer.point().update(
            cycles=stats.cycles,
            active_cycles=stats.cycles - self.ff_skipped_cycles,
            line_requests=engine.stats.line_requests if engine else 0,
            l1d_accesses=self.hierarchy.l1d.stats.accesses,
            dram_bytes=self.hierarchy.dram.total_bytes,
        )
        return stats

    Pipeline.run = timing

    # harness: fingerprints, the artifact store, the job queue
    RunSpec.key = _span(tracer, "harness.fingerprint", RunSpec.key)
    cache_load = _span(tracer, "harness.cache", ResultCache.load)

    @functools.wraps(cache_load)
    def load(self, key):
        record = cache_load(self, key)
        tracer.lookups += 1
        tracer.hits += record is not None
        return record

    ResultCache.load = load
    ResultCache.store = _span(tracer, "harness.cache", ResultCache.store)
    # (a worker opens one more connection per job for its lease heartbeat)
    for name in ("__init__", "close", "submit", "lease", "heartbeat",
                 "complete", "fail", "get", "requeue_expired",
                 "release_stale_leases", "counts", "drained"):
        setattr(JobQueue, name,
                _span(tracer, "harness.queue", getattr(JobQueue, name)))
    for name in ("spec_to_json", "spec_from_json"):
        codec = _span(tracer, "harness.queue", getattr(speccodec, name))
        setattr(speccodec, name, codec)
        setattr(serve, name, codec)  # serve imported the name itself

    # one record per simulated point, identified by its run fingerprint
    run_spec = Runner.run_spec
    fingerprint = RunSpec.key.__wrapped__

    @functools.wraps(run_spec)
    def run_point(self, spec):
        tracer.take_point()
        record = run_spec(self, spec)
        point = tracer.take_point()
        if point:
            point["key"] = fingerprint(spec, self.scale, self.seed,
                                       self.lowering)
            point["record"] = dataclasses.asdict(record)
            tracer.points.append(point)
        return record

    Runner.run_spec = run_point


def install_from_env() -> None:
    directory = os.environ.get("REPOBENCH_TRACE_DIR")
    if not directory:
        return
    tracer = Tracer()
    install(tracer)
    atexit.register(tracer.dump, directory)
