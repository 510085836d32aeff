"""Repository benchmark: end-to-end and per-layer speed of the UVE
reproduction's campaigns.  See README.md beside this file.

    python3 repobench/run.py --workload figures|sweep|resume --seed N \
        --seconds S --trace 0|1 [--record]

Run from the root of a checkout.  Each unit is one invocation of a
public entry point (the campaign CLI or the sweep CLI) in a child
process; one unit runs at a time, with one simulating process in it.
The last stdout line is the JSON result; a table of medians, quartiles
and sample counts goes to stderr before it.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
GRID = os.path.join(HERE, "grid.json")
REFERENCE_DIR = os.path.join(HERE, "reference")

#: reduced scales: a figures unit is ~8 s and a sweep unit ~7 s of host
#: time on a 2-core x86 VM, so each run holds several units.
SCALE = {"figures": 0.1, "sweep": 0.05, "resume": 0.05}
FIG8 = ("fig8a", "fig8b", "fig8c", "fig8d")
#: set-up probes and host-speed calibrations per untraced run, spread
#: over the run between its units
SETUP_PROBES = 7
CALIBRATIONS = 7
#: seconds calibrate.py takes at the reference host speed (the median on
#: a 2-vCPU Intel Xeon VM); time metrics are scaled to this speed
HOST_REFERENCE_S = 0.75
MIN_UNITS = 3
SPOT_CHECK_POINTS = 3
#: no run may take longer than this, whatever ``--seconds`` asks for
RUN_DEADLINE_S = 150.0
PAPER_SVE_SPEEDUP = 2.4
BOOT = time.monotonic()


def canonical(row) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def digest(row) -> str:
    return hashlib.sha256(canonical(row).encode()).hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sve_speedup_err(cycles, vectorized) -> float:
    """|geomean UVE-vs-SVE speedup over SVE-vectorized kernels - 2.4| / 2.4
    (the Fig. 8.B headline; ``cycles`` maps "kernel/isa" to cycles)."""
    logs = [
        math.log(cycles[f"{k}/sve"] / cycles[f"{k}/uve"]) for k in vectorized
    ]
    geomean = math.exp(sum(logs) / len(logs))
    return abs(geomean - PAPER_SVE_SPEEDUP) / PAPER_SVE_SPEEDUP


class Bench:
    """One benchmark run: set-up probes, units, checks, metrics."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = SCALE[workload]
        self.work = os.path.join(root, ".repobench")
        self.env = procs.child_env(root, self.work)
        self.serial = itertools.count(1)
        self.attempted = 0
        self.failed = 0
        self.first = None  # id -> digest of the first unit's rows
        self.info = self._reference_side()
        self.ids = {p["key"]: p["id"] for p in self.info["points"]}
        self.expected = [p["id"] for p in self.info["points"]]
        self.reference = self._load_reference()
        self.scratch = os.path.join(self.work, f"run-{os.getpid()}")
        os.makedirs(self.scratch)
        self.population = None
        self.population_rows = {}
        self.full_rows = None  # the first unit that delivered every row

    # -- reference side -------------------------------------------------------

    def _common(self):
        return ["--scale", str(self.scale), "--seed", str(self.seed)]

    def _reference_side(self):
        argv = [sys.executable, os.path.join(HERE, "points.py"),
                self.workload, *self._common(), "--grid", GRID,
                "--sample", str(SPOT_CHECK_POINTS)]
        out = subprocess.run(argv, cwd=self.root, env=self.env,
                             stdout=subprocess.PIPE, start_new_session=True)
        if out.returncode != 0:
            raise SystemExit("repobench: the reference side (points.py) "
                             "failed; the program cannot simulate its "
                             "sample points")
        return json.loads(out.stdout)

    def _reference_path(self):
        name = "figures" if self.workload == "figures" else "sweep"
        return os.path.join(REFERENCE_DIR, f"{name}.json")

    def _load_reference(self):
        try:
            with open(self._reference_path()) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        if payload["scale"] != self.scale:
            raise SystemExit(
                f"{self._reference_path()} was recorded at scale "
                f"{payload['scale']}, the workload runs at {self.scale}; "
                "re-record it with --record"
            )
        return payload["seeds"].get(str(self.seed))

    # -- units ----------------------------------------------------------------

    def _command(self, unit_dir, resume):
        out = os.path.join(unit_dir, "out.json")
        if self.workload == "figures":
            return [
                sys.executable, "-m", "repro.harness", *FIG8,
                "--cache-dir", os.path.join(unit_dir, "store"),
                "--jobs", "1", *self._common(), "--json", out,
            ]
        argv = [
            sys.executable, "-m", "repro.harness.sweep", GRID,
            "--queue", os.path.join(unit_dir, "campaign"),
            "--workers", "1", *self._common(), "--json", out,
        ]
        return argv + ["--resume"] if resume else argv

    def _prepare(self, unit_dir, resume):
        os.makedirs(unit_dir)
        if resume:
            shutil.copytree(os.path.join(self.population, "campaign"),
                            os.path.join(unit_dir, "campaign"))

    def _rows(self, unit_dir):
        """id -> row the unit delivered."""
        rows = {}
        if self.workload == "figures":
            store = os.path.join(unit_dir, "store")
            for dirpath, _, files in os.walk(store):
                for name in files:
                    if not name.endswith(".json"):
                        continue
                    with open(os.path.join(dirpath, name)) as handle:
                        entry = json.load(handle)
                    ident = self.ids.get(entry["key"])
                    if ident is not None:
                        rows[ident] = entry["record"]
            return rows
        try:
            with open(os.path.join(unit_dir, "out.json")) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return rows
        for row in payload["rows"]:
            rows[f"#{row['index']}"] = row
        return rows

    def run_unit(self, traced=False, label=None, cold=False):
        """One unit: prepare (untimed), run, check its rows.  Returns the
        unit, its rows, its trace (or None) and the ids that failed.
        ``cold`` runs a resume workload's sweep on a fresh store."""
        unit_dir = os.path.join(self.scratch,
                                label or f"unit-{next(self.serial)}")
        resume = self.workload == "resume" and not cold
        self._prepare(unit_dir, resume)
        env = self.env
        if traced:
            trace_dir = os.path.join(unit_dir, "trace")
            os.makedirs(trace_dir)
            env = procs.child_env(self.root, self.work,
                                  [os.path.join(HERE, "hook")])
            env["REPOBENCH_TRACE_DIR"] = trace_dir
        log = os.path.join(unit_dir, "log.txt")
        unit = procs.run_unit(self._command(unit_dir, resume), env,
                              self.root, log,
                              BOOT + RUN_DEADLINE_S - time.monotonic())
        rows = {}
        if unit.returncode == 0:
            rows = self._rows(unit_dir)
        else:
            with open(log, errors="replace") as handle:
                tail = handle.read()[-2000:]
            print(f"[repobench] unit exited {unit.returncode}:\n{tail}",
                  file=sys.stderr)
        bad = self.check_rows(rows)
        trace = None
        if traced:
            trace = layers.load(trace_dir)
            bad |= self.check_traced_points(trace, rows)
        if bad:
            print(f"[repobench] {len(bad)} failed point(s) in {unit_dir}: "
                  f"{sorted(bad)[:8]}", file=sys.stderr)
        return unit, rows, trace, bad

    def measured_unit(self, traced=False):
        unit, rows, trace, bad = self.run_unit(traced)
        self.attempted += len(self.expected)
        self.failed += len(bad)
        return unit, rows, trace

    # -- checks ---------------------------------------------------------------

    def check_rows(self, rows):
        """Ids whose row is missing, differs from the recorded reference,
        from the first unit of this run, from the reference path's
        re-simulation, or (resume) from the populating sweep's row."""
        digests = {ident: digest(row) for ident, row in rows.items()}
        if self.first is None and rows:
            self.first = digests
        bad = set()
        for ident in self.expected:
            mine = digests.get(ident)
            if mine is None:
                bad.add(ident)
                continue
            if self.reference and self.reference["rows"].get(ident) != mine:
                bad.add(ident)
            if self.first and self.first.get(ident) != mine:
                bad.add(ident)
            expected = self.info["sample"].get(ident)
            if expected and any(rows[ident].get(k) != v
                                for k, v in expected.items()):
                bad.add(ident)
            if self.population is not None and \
                    canonical(rows[ident]) != self.population_rows.get(ident):
                bad.add(ident)
        return bad

    def check_traced_points(self, trace, rows):
        """Ids that a traced unit failed to simulate and trace exactly
        once (``figures``, ``sweep``) or simulated at all (``resume``,
        whose rows are all artifact hits), or whose traced point differs
        from the untraced row's record or the recorded exact counts."""
        traced = {}
        bad = set()
        for point in trace.points:
            ident = self.ids.get(point["key"])
            if ident is None:
                continue
            if ident in traced or self.workload == "resume":
                bad.add(ident)
            traced[ident] = point
        if self.workload != "resume":
            bad |= set(self.expected) - set(traced)
        for ident, point in traced.items():
            row = rows.get(ident)
            if row is None or any(row.get(k) != v
                                  for k, v in point["record"].items()):
                bad.add(ident)
            ref = self.reference and self.reference["counts"].get(ident)
            if ref and ref != layers.counts_of(point):
                bad.add(ident)
        return bad

    # -- resume: a store populated once per seed and code version -----------

    def populate(self):
        name = (f"{self.info['salt'][:16]}-seed{self.seed}-"
                f"scale{self.scale}")
        target = os.path.join(self.work, "populated", name)
        if not os.path.isdir(target):
            _, rows, _, bad = self.run_unit(label="populate", cold=True)
            if bad:
                raise SystemExit("repobench: populating the resume store "
                                 f"failed ({len(bad)} bad rows)")
            staging = os.path.join(self.scratch, "populate")
            with open(os.path.join(staging, "rows.json"), "w") as handle:
                json.dump({i: canonical(r) for i, r in rows.items()}, handle)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(staging, target)
        with open(os.path.join(target, "rows.json")) as handle:
            self.population_rows = json.load(handle)
        self.population = target

    # -- set-up time ----------------------------------------------------------

    def setup_probe(self):
        """One cold start of the workload's entry point, timed until it is
        ready for its first point (see probe.py)."""
        probe_dir = os.path.join(self.scratch, f"probe-{len(self.setup)}")
        if self.workload == "sweep":
            # the real sweep CLI, until its worker shard leases a job
            os.makedirs(probe_dir)
            return procs.time_until_first_lease(
                self._command(probe_dir, resume=False), self.env, self.root,
                os.path.join(probe_dir, "campaign", "events.jsonl"))
        if self.workload == "resume":
            shutil.copytree(os.path.join(self.population, "campaign"),
                            probe_dir)
        argv = [sys.executable, os.path.join(HERE, "probe.py"),
                self.workload, probe_dir, *self._common(), "--grid", GRID]
        return procs.time_until_ready(argv, self.env, self.root)

    def calibrate(self):
        """One timing of calibrate.py, a fixed workload outside repro."""
        argv = [sys.executable, os.path.join(HERE, "calibrate.py")]
        return procs.time_until_ready(argv, self.env, self.root)

    def side_runs(self, unit_s, final=False):
        """Spread an untraced run's set-up probes and calibrations over it:
        before each unit they catch up with the share of ``--seconds`` that
        the units will have used once this one ends (``unit_s``: seconds of
        the units so far), so that they and the units sample the same
        stretch of host time; ``final`` completes them."""
        if final:
            share = 1.0
        elif unit_s:
            share = (sum(unit_s) + statistics.median(unit_s)) / self.seconds
        else:
            share = 1.0 / MIN_UNITS
        share = min(1.0, share)
        probes = math.ceil(SETUP_PROBES * share - 1e-9)
        calibrations = math.ceil(CALIBRATIONS * share - 1e-9)
        while len(self.setup) < probes or \
                len(self.calibration) < calibrations:
            if len(self.setup) < probes:
                self.setup.append(self.setup_probe())
            if len(self.calibration) < calibrations:
                self.calibration.append(self.calibrate())

    # -- the run --------------------------------------------------------------

    def measure(self, traced_run):
        """Units until ``--seconds`` of unit time is used up (at least
        MIN_UNITS untraced units, or one untraced + traced pair); an
        untraced run also makes its set-up probes and calibrations."""
        if self.workload == "resume":
            self.populate()
        self.setup = []
        self.calibration = []
        self.samples = {"points_per_s": [], "peak_rss_mb": []}
        self.cpu_share = []
        self.per_layer = []
        self.overhead_pairs = []
        iterations = []
        while True:
            if not traced_run:
                self.side_runs(iterations)
            begin = time.monotonic()
            unit, rows, _ = self.measured_unit()
            self.samples["points_per_s"].append(len(rows) / unit.wall_s)
            self.samples["peak_rss_mb"].append(unit.peak_rss_mb)
            self.cpu_share.append(unit.cpu_s / unit.wall_s)
            if traced_run:
                traced, rows, trace = self.measured_unit(traced=True)
                self.per_layer.append(
                    layers.metrics(trace, traced, self.info, self.expected))
                self.overhead_pairs.append((traced.wall_s, unit.wall_s))
            if self.full_rows is None and len(rows) == len(self.expected):
                self.full_rows = rows
            now = time.monotonic()
            iterations.append(now - begin)
            enough = traced_run or len(iterations) >= MIN_UNITS
            next_unit = statistics.median(iterations)
            if enough and (sum(iterations) + next_unit > self.seconds
                           or now + next_unit > BOOT + RUN_DEADLINE_S):
                break
        if not traced_run:
            self.side_runs(iterations, final=True)

    def accuracy(self):
        if self.workload == "figures":
            if self.full_rows is None:
                raise SystemExit("repobench: no unit delivered every row")
            cycles = {ident: row["cycles"] for ident, row in
                      self.full_rows.items()}
        else:
            cycles = self.info["accuracy_cycles"]
        return sve_speedup_err(cycles, self.info["sve_vectorized"])

    def end_to_end(self):
        # > 1 when the host ran slower than the reference speed
        slowdown = statistics.median(self.calibration) / HOST_REFERENCE_S
        report(self.workload, {
            "calibration_s": (self.calibration, "s"),
            "raw.points_per_s": (self.samples["points_per_s"], "1/s"),
            "raw.setup_s": (self.setup, "s"),
        })
        metrics = {
            "points_per_s": ([p * slowdown for p in
                              self.samples["points_per_s"]], "1/s"),
            "setup_s": ([t / slowdown for t in self.setup], "s"),
            "peak_rss_mb": (self.samples["peak_rss_mb"], "MB"),
            "sve_speedup_err": ([self.accuracy()], "ratio"),
        }
        # CPU seconds of a unit's processes over its wall time: near 1
        # means the unit waits on nothing, so any drift of points_per_s
        # is the host's CPU speed, not I/O or sleeping
        report(self.workload, {"unit_cpu_share": (self.cpu_share, "ratio")})
        return report(self.workload, metrics)

    def layer_metrics(self):
        merged = layers.merge(self.per_layer, self.overhead_pairs)
        return report(self.workload, merged)

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def report(workload, metrics):
    """Print median, quartiles and sample count per metric on stderr;
    return the medians in the result's ``metrics`` shape."""
    out = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = quartiles(values)
        print(f"[repobench] {workload:<8} {name:<24} {median:14.6g} {unit:<9}"
              f" q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}",
              file=sys.stderr)
        out[name] = {"value": median, "unit": unit}
    return out


def record(bench):
    """Write this seed's row digests and exact per-point counts into the
    workload's reference file (runs one untraced and one traced unit)."""
    if bench.workload == "resume":
        raise SystemExit("resume rows are checked against the sweep "
                         "reference; record the sweep workload instead")
    bench.reference = None
    _, rows, _, bad = bench.run_unit()
    _, traced_rows, trace, traced_bad = bench.run_unit(traced=True)
    if bad or traced_bad or traced_rows != rows:
        raise SystemExit("refusing to record: the units disagree or failed")
    counts = {}
    for point in trace.points:
        if point["key"] in bench.ids:
            counts[bench.ids[point["key"]]] = layers.counts_of(point)
    missing = [i for i in bench.expected if i not in counts]
    if missing:
        raise SystemExit(f"refusing to record: no traced counts for "
                         f"{len(missing)} points, e.g. {missing[:4]}")
    path = bench._reference_path()
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        payload = {"workload": os.path.basename(path)[:-5],
                   "scale": bench.scale, "seeds": {}}
    payload["seeds"][str(bench.seed)] = {
        "rows": {i: digest(rows[i]) for i in bench.expected},
        "counts": {i: counts[i] for i in bench.expected},
    }
    payload["seeds"] = dict(sorted(payload["seeds"].items(),
                                   key=lambda kv: int(kv[0])))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded seed {bench.seed} in {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 repobench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(SCALE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's reference rows and counts")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("repobench: run from the root of a checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    procs.become_subreaper()
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        if args.record:
            record(bench)
            return 0
        bench.measure(traced_run=bool(args.trace))
        metrics = bench.layer_metrics() if args.trace else bench.end_to_end()
    finally:
        bench.cleanup()
    print(f"[repobench] failed {bench.failed} of {bench.attempted} points",
          file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
