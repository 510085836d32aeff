"""Combined functional + timing simulation.

The timing pipeline needs complete per-stream chunk sequences *before*
consuming instructions arrive (the Streaming Engine runs ahead of the
core), so simulation runs the functional simulator once, holds its
dynamic trace in memory, and feeds that trace to the pipeline together
with the stream metadata the same pass collected.  Memory grows with the
trace: the longest paper trace, 3mm/neon at scale 1.0 (253,180 committed
instructions), peaks at 99.7 MB RSS (see docs/TIMING.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import Pipeline
from repro.cpu.stats import PipelineStats
from repro.isa.program import Program
from repro.memory.backing import Memory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import TraceSummary


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one run."""

    program: str
    summary: TraceSummary
    timing: PipelineStats
    hierarchy: MemoryHierarchy
    pipeline: Pipeline

    @property
    def committed(self) -> int:
        return self.summary.committed

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @property
    def bus_utilization(self) -> float:
        return self.timing.bus_utilization

    @property
    def rename_blocks_per_cycle(self) -> float:
        return self.timing.rename_blocks_per_cycle

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the run (for external tooling)."""
        engine = self.pipeline.engine
        out = {
            "program": self.program,
            "committed": self.committed,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "bus_utilization": self.bus_utilization,
            "rename_blocks_per_cycle": self.rename_blocks_per_cycle,
            "rename_block_causes": dict(self.timing.rename_block_causes),
            "mispredict_rate": self.timing.mispredict_rate,
            "fetch_stall_cycles": self.timing.fetch_stall_cycles,
            "dram_bytes": self.hierarchy.dram.total_bytes,
            "l1d_miss_rate": self.hierarchy.l1d.stats.miss_rate,
            "l2_miss_rate": self.hierarchy.l2.stats.miss_rate,
        }
        if engine is not None:
            out["engine"] = {
                "line_requests": engine.stats.line_requests,
                "chunks_filled": engine.stats.chunks_filled,
                "store_lines": engine.stats.store_lines,
                "mean_fifo_occupancy": engine.stats.mean_fifo_occupancy,
                "configs": engine.stats.configs,
            }
        return out


class Simulator:
    """Runs a program functionally and through the timing model."""

    def __init__(
        self,
        program: Program,
        memory: Memory,
        config: Optional[MachineConfig] = None,
        warm: bool = True,
    ) -> None:
        self.program = program
        self.memory = memory
        self.config = config or MachineConfig()
        #: pre-install the allocated data into the L2 (steady-state
        #: measurement); working sets beyond the L2 capacity overflow.
        self.warm = warm

    def run(self) -> SimulationResult:
        sim = FunctionalSimulator(
            self.program, memory=self.memory,
            vector_bits=self.config.vector_bits,
        )
        trace = list(sim.trace())
        hierarchy = MemoryHierarchy(self.config)
        if self.warm:
            hierarchy.warm(0, self.memory._brk)
        pipeline = Pipeline(self.config, hierarchy, dict(sim.summary.streams))
        timing = pipeline.run(iter(trace))
        return SimulationResult(
            program=self.program.name,
            summary=sim.summary,
            timing=timing,
            hierarchy=hierarchy,
            pipeline=pipeline,
        )
