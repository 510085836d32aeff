"""Unit tests for the combined Simulator (one functional pass feeding
the timing model)."""
import numpy as np
import pytest

from repro.cpu.config import baseline_machine, uve_machine
from repro.cpu.pipeline import Pipeline
from repro.isa import ProgramBuilder, f, u, x
from repro.isa import scalar_ops as sc
from repro.isa import uve_ops as uve
from repro.kernels import get_kernel
from repro.memory.backing import Memory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import SimulationResult, Simulator
from repro.streams.pattern import Direction


def scale_program(mem, n=256):
    data = mem.alloc_array(np.arange(n, dtype=np.float32))
    b = ProgramBuilder("scale")
    b.emit(
        uve.SsConfig1D(u(0), Direction.LOAD, data // 4, n, 1),
        uve.SsConfig1D(u(1), Direction.STORE, data // 4, n, 1),
        sc.FLi(f(0), 2.0),
        uve.SoDup(u(2), f(0)),
    )
    b.label("loop")
    b.emit(
        uve.SoOp("mul", u(1), u(0), u(2)),
        uve.SoBranchEnd(u(0), "loop", negate=True),
        sc.Halt(),
    )
    return b.build(), data


class TestOrchestration:
    def test_in_place_kernel_runs_once(self):
        """The functional pass runs exactly once, so an in-place kernel
        leaves memory as a single sequential run would."""
        mem = Memory(1 << 20)
        program, data = scale_program(mem)
        Simulator(program, mem, uve_machine()).run()
        got = mem.ndarray(data, (256,), np.float32)
        np.testing.assert_array_equal(got, 2.0 * np.arange(256))

    def test_result_properties(self):
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem, uve_machine()).run()
        assert isinstance(result, SimulationResult)
        assert result.committed > 0
        assert result.cycles > 0
        assert result.ipc == result.committed / result.cycles
        assert 0 <= result.bus_utilization <= 1
        assert 0 <= result.rename_blocks_per_cycle <= 1
        assert result.program == "scale"

    def test_warm_flag_changes_timing_not_results(self):
        cold_mem = Memory(1 << 20)
        cold_prog, cold_data = scale_program(cold_mem)
        cold = Simulator(cold_prog, cold_mem, uve_machine(), warm=False).run()

        warm_mem = Memory(1 << 20)
        warm_prog, warm_data = scale_program(warm_mem)
        warm = Simulator(warm_prog, warm_mem, uve_machine(), warm=True).run()

        assert cold.committed == warm.committed
        assert cold.cycles > warm.cycles  # cold misses go to DRAM
        np.testing.assert_array_equal(
            cold_mem.ndarray(cold_data, (256,), np.float32),
            warm_mem.ndarray(warm_data, (256,), np.float32),
        )

    def test_default_config_is_uve(self):
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem).run()
        assert result.pipeline.engine is not None


class TestFunctionalRun:
    def test_run_collects_stream_metadata(self):
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        summary = FunctionalSimulator(program, memory=mem).run()
        assert summary.committed > 0
        assert summary.streams  # stream metadata collected


def two_pass_reference(program, memory, config):
    """The former orchestration: a metadata pass, a memory restore, then
    a lazy replay into the timing model."""
    snapshot = memory.data.copy()
    summary = FunctionalSimulator(
        program, memory=memory, vector_bits=config.vector_bits
    ).run()
    np.copyto(memory.data, snapshot)
    replay = FunctionalSimulator(
        program, memory=memory, vector_bits=config.vector_bits
    )
    hierarchy = MemoryHierarchy(config)
    hierarchy.warm(0, memory._brk)
    pipeline = Pipeline(config, hierarchy, dict(summary.streams))
    timing = pipeline.run(replay.trace())
    return SimulationResult(program.name, summary, timing, hierarchy, pipeline)


class TestTwoPassOracle:
    """The single pass must reproduce the two-pass reference exactly on
    in-place, data-dependent and indirect kernels."""

    @pytest.mark.parametrize("name,isa", [
        ("floyd-warshall", "uve"),  # in place, data-dependent
        ("mamr-ind", "uve"),  # indirect
        ("seidel-2d", "sve"),  # in place
        ("jacobi-2d", "neon"),
        ("trisolv", "uve"),
    ])
    def test_matches_two_pass_reference(self, name, isa):
        kernel = get_kernel(name)
        config = uve_machine() if isa == "uve" else baseline_machine()

        def run(orchestrate):
            wl = kernel.workload(seed=0, scale=0.1)
            program = kernel.build(isa, wl, config.vector_bits)
            result = orchestrate(program, wl.memory, config)
            wl.verify()
            return result, wl.memory.data.tobytes()

        got, got_image = run(lambda *args: Simulator(*args).run())
        want, want_image = run(two_pass_reference)
        assert got.timing.as_dict() == want.timing.as_dict()
        assert got.to_dict() == want.to_dict()
        assert got_image == want_image


class TestResultExport:
    def test_to_dict_is_json_serialisable(self):
        import json
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem, uve_machine()).run()
        payload = result.to_dict()
        text = json.dumps(payload)  # must not raise
        assert payload["program"] == "scale"
        assert payload["engine"]["chunks_filled"] > 0
        assert "rename_block_causes" in payload

    def test_baseline_export_has_no_engine(self):
        b = ProgramBuilder("tiny")
        b.emit(sc.Li(x(1), 1), sc.Halt())
        result = Simulator(b.build(), Memory(1 << 16),
                           baseline_machine()).run()
        assert "engine" not in result.to_dict()
