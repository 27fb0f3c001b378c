"""``repro-report``: run a workload and emit a heat-profiled run report.

Builds on ``repro-trace``: the same telemetry artifacts plus per-epoch
access heat, and renders everything into a single self-contained
``report.html`` (plus ``heat.csv`` / ``heat.npz`` exports)::

    repro-report --workload pathfinder --platform pcie --out /tmp/r

``--ansi`` additionally prints the terminal heatmap (honours ``NO_COLOR``;
``--epoch N`` scrubs to one epoch).

Where ``repro-trace`` diagnoses once at the end, the report runs each
workload with ``per_iteration=True``: the variants that diagnose *every
iteration* freeze one heat row per epoch -- that per-epoch sequence is
the temporal axis of the heatmaps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..workloads.registry import (PER_ITERATION, add_run_arguments,
                                  resolve_platform, run_command)
from ..workloads.run import RunSpec, execute

from .ansi import render_store, supports_color
from .html import build_report
from .store import HeatStore

__all__ = ["main", "run_report"]


def run_report(workload: str, platform: str, out_dir: str | Path, *,
               buckets: int = 64, attribute: bool = True,
               materialize: bool = True, why: bool = False) -> dict[str, Path]:
    """Run ``workload`` with heat recording and write the report bundle.

    Returns artifact paths: ``report`` (HTML) plus everything
    :meth:`TelemetryRecorder.flush` wrote (timeline, metrics, events),
    what :meth:`HeatStore.write` wrote (heat_csv, heat_npz), plus
    ``signature.json`` (the run's access-pattern signature; its detected
    phases render as the report's phase lane).  The :class:`HeatStore`
    rides along under the ``"store"`` key for programmatic callers
    (``--ansi``, tests).

    With ``why=True`` the run is captured with causal provenance: the
    report gains the causal-blame section and ``causes.json`` is written
    next to the other artifacts.

    If any driver events fell out of retention un-spilled, the report
    leads with a data-loss warning.
    """
    done = execute(RunSpec(workload, platform, out_dir,
                           materialize=materialize, buckets=buckets,
                           attribute=attribute, why=why))
    out, heat, run = Path(out_dir), done.store, done.run
    recorder, paths = done.recorder, done.paths
    preset = done.session.platform.name
    paths.update(heat.write(out))

    from ..signature.vector import signature_from_store

    sig = signature_from_store(heat, workload=workload, platform=preset)
    paths["signature"] = sig.save(out / "signature.json")

    causes = None
    if why:
        from ..causes.capture import build_report as build_causes, write_causes

        causes = build_causes(out)
        paths["causes"] = write_causes(out, causes)

    stats = {k: v for k, v in run.stats.items()
             if isinstance(v, (int, float))}
    stats.setdefault("sim_time", run.sim_time)
    dropped = int(recorder.events_dropped_total)
    report = build_report(workload=workload, platform=preset, store=heat,
                          diagnoses=[*run.diagnoses, done.final],
                          metrics=recorder.metrics.snapshot(), stats=stats,
                          causes=causes,
                          stream={"events_dropped": dropped} if dropped
                          else None,
                          backend=done.session.tracer.backend_info(),
                          phases=sig.phases)
    report_path = out / "report.html"
    report_path.write_text(report)
    paths["report"] = report_path
    paths["store"] = heat  # type: ignore[assignment]
    return paths


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-report`` / ``python -m repro.heatmap``."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Replay a workload with temporal heat profiling and "
                    "render a self-contained HTML run report.")
    add_run_arguments(
        parser, out="run directory for report.html + artifacts",
        buckets=True,
        list_extra=(("per-iteration heat", sorted(PER_ITERATION)),))
    parser.add_argument("--no-attribution", action="store_true",
                        help="skip source-line attribution (lower overhead)")
    parser.add_argument("--why", action="store_true",
                        help="capture causal provenance: adds the causal-"
                             "blame report section and writes causes.json")
    parser.add_argument("--ansi", action="store_true",
                        help="also print the terminal heatmap to stdout")
    parser.add_argument("--epoch", type=int, default=None,
                        help="with --ansi: show only this epoch (scrub)")
    parser.add_argument("--no-color", action="store_true",
                        help="with --ansi: force the plain ASCII ramp")
    args = parser.parse_args(argv)
    if args.epoch is not None:
        if args.epoch < 0:
            parser.error(f"argument --epoch: {args.epoch} is not an epoch "
                         "number (>= 0)")
        if not args.ansi:
            parser.error("--epoch requires --ansi")
    return run_command(args, _report)


def _report(args: argparse.Namespace) -> int:
    paths = run_report(args.workload, args.platform, args.out,
                       buckets=args.buckets,
                       attribute=not args.no_attribution,
                       materialize=not args.footprint, why=args.why)
    store: HeatStore = paths.pop("store")  # type: ignore[assignment]
    closed = store.epochs_closed
    if args.epoch is not None and args.epoch not in closed:
        span = f"{closed[0]}-{closed[-1]}" if closed else "none"
        print(f"error: --epoch {args.epoch} was never closed (closed "
              f"epochs: {span})", file=sys.stderr)
        return 2
    if args.ansi:
        color = False if args.no_color else supports_color()
        print(render_store(store, color=color, epoch=args.epoch))
    print(f"{args.workload} on {resolve_platform(args.platform)}: "
          f"{len(store.allocations())} allocation(s), "
          f"{len(store.epochs_closed)} epoch(s), "
          f"{store.total} word-accesses recorded")
    for name, path in sorted(paths.items()):
        print(f"  {name:9s} {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
