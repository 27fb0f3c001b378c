"""``repro-trace``: replay any workload with full telemetry enabled.

One command turns a simulated run into a set of machine-readable run
artifacts::

    repro-trace --workload pathfinder --platform pcie --out /tmp/t

drops into ``/tmp/t``:

* ``timeline.json``  -- Chrome trace-event timeline (open in Perfetto or
  ``chrome://tracing``),
* ``events.jsonl``   -- structured event stream, manifest first,
* ``metrics.prom``   -- Prometheus text exposition of all counters.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..workloads.registry import add_run_arguments, run_command
from ..workloads.run import RunSpec, execute, mini_cuda_workloads

__all__ = ["main", "run_traced"]


def run_traced(workload: str, platform: str, out_dir: str | Path,
               *, materialize: bool = True,
               backend: str = "auto") -> dict[str, Path]:
    """Run ``workload`` on ``platform`` with telemetry; write artifacts.

    ``backend`` selects the execution backend for mini-CUDA (``mc-*``)
    workloads -- ``auto`` vectorizes when provable, else per-thread
    codegen, else the tree-walking interpreter; Session workloads run
    native Python and ignore it.  Returns the artifact paths
    (``timeline``, ``metrics``, ``events``).
    """
    done = execute(RunSpec(workload, platform, out_dir,
                           materialize=materialize, backend=backend))
    run = done.run
    if workload in mini_cuda_workloads():
        sys.stdout.write(run.stdout)
    else:
        summary = {k: v for k, v in run.stats.items()
                   if isinstance(v, (int, float))}
        print(f"{workload} on {done.session.platform.name}: "
              f"sim_time={run.sim_time:.6f}s "
              f"fault_groups={summary.get('fault_groups', 0):.0f} "
              f"migrated_pages={summary.get('migrated_pages', 0):.0f}")
    for name, path in sorted(done.paths.items()):
        print(f"  {name:9s} {path}")
    return done.paths


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-trace`` / ``python -m repro.telemetry``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Replay a workload on the simulated stack with unified "
                    "telemetry (Perfetto timeline, JSONL events, metrics); "
                    "mc-* workloads run interpreted mini-CUDA programs.")
    add_run_arguments(
        parser, out="directory for timeline.json / events.jsonl / "
                    "metrics.prom",
        list_extra=(("mini-cuda", sorted(mini_cuda_workloads())),))
    from ..codegen import BACKENDS
    parser.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="execution backend for mc-* workloads: auto "
                             "(default) vectorizes when provable, falling "
                             "back to per-thread codegen, then interp")
    return run_command(parser.parse_args(argv), _trace)


def _trace(args: argparse.Namespace) -> None:
    run_traced(args.workload, args.platform, args.out,
               materialize=not args.footprint, backend=args.backend)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
