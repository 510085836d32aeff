"""Reference side of a benchmark run, in its own interpreter.

Prints one JSON object: the code-version salt, every point the workload
must deliver (stable id, run fingerprint, kernel, ISA, vector length),
and a seed-chosen sample of those points re-simulated through
``Runner.run_spec``, the serial reference path, so that a seed with no
recorded reference still has its rows checked.  For ``sweep`` and
``resume``, which simulate no SVE point, it also simulates the Fig. 8.B
UVE/SVE pairs at the workload's scale for ``sve_speedup_err``.

    python repobench/points.py WORKLOAD --scale S --seed N --grid SPEC \
        --sample K
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys


def expected_points(workload, scale, seed, grid):
    from repro.harness.fig8 import comparison_specs
    from repro.harness.runner import Runner
    from repro.harness.sweep import SweepSpec

    if workload == "figures":
        labelled = [
            (f"{spec.kernel}/{spec.isa}", spec)
            for spec in comparison_specs(Runner(scale=scale, seed=seed))
        ]
    else:
        labelled = [
            (f"#{point.index}", point.spec)
            for point in SweepSpec.from_file(grid).expand()
        ]
    return [
        (ident, spec, {
            "id": ident,
            "key": spec.key(scale, seed),
            "kernel": spec.kernel,
            "isa": spec.isa,
            "vector_bits": spec.resolved_config().vector_bits,
        })
        for ident, spec in labelled
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--grid", required=True)
    parser.add_argument("--sample", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.harness.diskcache import code_version_salt
    from repro.harness.fig8 import comparison_specs
    from repro.harness.runner import Runner
    from repro.kernels import all_kernels

    points = expected_points(args.workload, args.scale, args.seed,
                             args.grid)
    runner = Runner(scale=args.scale, seed=args.seed)
    chosen = random.Random(args.seed).sample(
        range(len(points)), min(args.sample, len(points))
    )
    sample = {
        points[i][0]: dataclasses.asdict(runner.run_spec(points[i][1]))
        for i in sorted(chosen)
    }
    vectorized = [k.name for k in all_kernels() if k.sve_vectorized]
    accuracy = {}
    if args.workload != "figures":
        for spec in comparison_specs(runner):
            if spec.kernel in vectorized and spec.isa in ("uve", "sve"):
                accuracy[f"{spec.kernel}/{spec.isa}"] = \
                    runner.run_spec(spec).cycles
    json.dump({
        "salt": code_version_salt(),
        "points": [meta for _, _, meta in points],
        "sample": sample,
        "sve_vectorized": vectorized,
        "accuracy_cycles": accuracy,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
