"""Simulator-performance micro-benchmark (wall clock of the timing loop).

Unlike the figure benchmarks, this measures the *simulator itself*: how
fast ``Pipeline.run`` replays a materialised trace with the event-horizon
fast-forward on vs off.  It is the pytest face of
``repro.harness.bench`` (which CI runs directly to produce the
``BENCH_sim.json`` artifact).
"""
import json
import os

import pytest

from conftest import bench_scale
from repro.harness import bench


@pytest.mark.parametrize("kernel,isa", bench.DEFAULT_CASES)
def test_timing_loop_speedup(benchmark, kernel, isa):
    scale = bench_scale()
    mat = bench.materialize(kernel, isa, scale=scale)

    off_s, off_pipe = bench.time_run(mat, fast_forward=False)
    on_s, on_pipe = benchmark.pedantic(
        bench.time_run, args=(mat, True), rounds=1, iterations=1,
        warmup_rounds=0,
    )

    # Equivalence gate: fast-forward must be invisible in the stats.
    assert on_pipe.stats.as_dict() == off_pipe.stats.as_dict()
    assert on_pipe.ff_skipped_cycles > 0
    print(
        f"\n{kernel}/{isa} @ scale {scale}: off {off_s:.3f}s, "
        f"on {on_s:.3f}s ({off_s / on_s:.2f}x), skipped "
        f"{on_pipe.ff_skipped_cycles}/{int(on_pipe.stats.cycles)} cycles"
    )


def test_bench_module_writes_json(tmp_path):
    """``python -m repro.harness.bench --json`` output shape (what CI
    uploads as the BENCH_sim.json artifact)."""
    out = tmp_path / "BENCH_sim.json"
    rc = bench.main(
        ["--json", str(out), "--scale", "0.1", "--repeats", "1",
         "--cases", "memcpy/uve"]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    (run,) = data["runs"]
    assert run["stats_identical"] is True
    # Wall-clock speedup is asserted at full scale (BENCH_sim.json); at
    # this smoke scale only check the fast path engaged and was recorded.
    assert run["skipped_cycles"] > 0
    assert run["speedup"] > 0
    assert data["max_speedup"] == run["speedup"]
    # Without --bless the trajectory stays as it was (empty here).
    assert data["trajectory"] == []


def test_time_baseline_on_own_tree():
    """``--baseline-src`` times another tree in a subprocess; pointed at
    this tree's own ``src`` it must simulate the same cycles and
    committed instructions as the in-process case."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    base = bench.time_baseline(src, "memcpy", "uve", 0.1, repeats=1)
    run = bench.bench_case("memcpy", "uve", scale=0.1, repeats=1)
    assert base["cycles"] == run["cycles"]
    assert base["committed"] == run["committed"]
    assert base["wall_s"] > 0


def test_bench_bless_appends_trajectory(tmp_path):
    """--bless appends one append-only trajectory entry per run and
    carries prior entries forward across invocations."""
    out = tmp_path / "BENCH_sim.json"
    args = ["--json", str(out), "--scale", "0.1", "--repeats", "1",
            "--cases", "memcpy/uve", "--bless"]
    assert bench.main(args) == 0
    first = json.loads(out.read_text())["trajectory"]
    assert len(first) == 1
    assert first[0]["scale"] == 0.1
    assert "memcpy/uve" in first[0]["cycles_per_sec_on"]
    assert "memcpy/uve" in first[0]["cycles"]
    assert first[0]["rev"]
    assert bench.main(args) == 0
    second = json.loads(out.read_text())["trajectory"]
    assert len(second) == 2
    assert second[0] == first[0]  # append-only: old entries untouched


class TestGate:
    """Unit tests of the trajectory regression gate."""

    def _results(self, cps, cycles=1000.0):
        return {
            "scale": 1.0,
            "runs": [
                {"kernel": "stream", "isa": "uve", "cycles": cycles,
                 "cycles_per_sec_on": cps},
            ],
        }

    def _reference(self, cps, cycles=1000.0):
        return {
            "rev": "abc1234",
            "scale": 1.0,
            "cycles": {"stream/uve": cycles},
            "cycles_per_sec_on": {"stream/uve": cps},
        }

    def test_regression_beyond_tolerance_fails(self):
        failures, _ = bench.check_gate(
            self._results(cps=80_000.0), self._reference(cps=100_000.0),
            tolerance=0.10,
        )
        assert failures and "stream/uve" in failures[0]

    def test_regression_within_tolerance_passes(self):
        failures, _ = bench.check_gate(
            self._results(cps=95_000.0), self._reference(cps=100_000.0),
            tolerance=0.10,
        )
        assert failures == []

    def test_improvement_passes(self):
        failures, _ = bench.check_gate(
            self._results(cps=300_000.0), self._reference(cps=100_000.0),
        )
        assert failures == []

    def test_cycle_count_drift_warns_not_fails(self):
        # A timing-model change invalidates the wall-clock comparison;
        # the gate must surface it without failing the build (model
        # output is guarded by tier-1 and the differential fuzzer).
        failures, warnings = bench.check_gate(
            self._results(cps=10_000.0, cycles=2000.0),
            self._reference(cps=100_000.0, cycles=1000.0),
        )
        assert failures == []
        assert any("cycles changed" in w for w in warnings)

    def test_missing_reference_passes_with_warning(self):
        failures, warnings = bench.check_gate(
            self._results(cps=10_000.0), None
        )
        assert failures == []
        assert warnings

    def test_gate_cli_fails_on_blessed_regression(self, tmp_path):
        """End-to-end: bless an impossible reference, then --gate exits 2
        and refuses to bless the regressed run."""
        out = tmp_path / "BENCH_sim.json"
        doc = {
            "scale": 0.1,
            "runs": [],
            "trajectory": [
                {
                    "rev": "ffffff0",
                    "scale": 0.1,
                    "cycles": {},  # unknown cycles: no drift downgrade
                    "cycles_per_sec_on": {"memcpy/uve": 1e15},
                }
            ],
        }
        out.write_text(json.dumps(doc))
        rc = bench.main(
            ["--json", str(out), "--scale", "0.1", "--repeats", "1",
             "--cases", "memcpy/uve", "--gate", "--bless"]
        )
        assert rc == 2
        data = json.loads(out.read_text())
        assert len(data["trajectory"]) == 1  # failed gate blocks bless
