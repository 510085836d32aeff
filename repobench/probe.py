"""Cold-start probe for ``setup_s`` of ``figures`` and ``resume``, run in
a fresh interpreter.

Does what the workload's entry point does before its first point, then
prints ``ready``; the parent times spawn to ``ready``, so interpreter
start is included.

- ``figures`` (``python -m repro.harness``): import the CLI, hash the
  simulator sources (``code_version_salt``), open the result store,
  collect the campaign's run specs and look each one up in the (fresh)
  store.  With ``--jobs 1`` the next step is the first simulation.
- ``resume`` (``python -m repro.harness.sweep --resume``): import the
  sweep CLI, expand the sweep, open the ``ExperimentService`` on the
  populated store, release stale leases and submit every point (all
  artifact hits).  The next step reads the first row.

``sweep`` needs no probe: its set-up is timed on the real sweep CLI,
from spawn until its worker shard leases the first job.

    python repobench/probe.py WORKLOAD DIR --scale S --seed N --grid SPEC
"""
from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("figures", "resume"))
    parser.add_argument("dir")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--grid", required=True)
    args = parser.parse_args(argv)

    from repro.harness.diskcache import ResultCache, code_version_salt

    code_version_salt()
    if args.workload == "figures":
        import repro.harness.__main__  # noqa: F401 — the CLI's imports
        from repro.harness.executor import CampaignExecutor

        executor = CampaignExecutor(
            scale=args.scale, seed=args.seed, jobs=1,
            cache=ResultCache(args.dir),
        )
        specs = executor.collect_specs(["fig8a", "fig8b", "fig8c", "fig8d"])
        if any(executor.cache.load(key) is not None for key in specs):
            raise SystemExit("figures probe: the store is not fresh")
    else:
        import repro.harness.sweep as sweep
        from repro.harness.serve import ExperimentService

        points = sweep.SweepSpec.from_file(args.grid).expand()
        service = ExperimentService(
            args.dir, scale=args.scale, seed=args.seed, resume=True,
        )
        service.queue.release_stale_leases()
        submits = service.submit_many([p.spec for p in points])
        if any(s.status != "hit" for s in submits):
            raise SystemExit("resume probe: the populated store misses "
                             "some points")
        service.queue.close()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
