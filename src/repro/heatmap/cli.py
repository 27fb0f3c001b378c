"""``repro-report``: run a workload and emit a heat-profiled run report.

Builds on ``repro-trace``: the same telemetry artifacts plus per-epoch
access heat, and renders everything into a single self-contained
``report.html`` (plus ``heat.csv`` / ``heat.npz`` exports)::

    repro-report --workload pathfinder --platform pcie --out /tmp/r

``--ansi`` additionally prints the terminal heatmap (honours ``NO_COLOR``;
``--epoch N`` scrubs to one epoch).

Where ``repro-trace`` diagnoses once at the end, the report runners prefer
workload variants that diagnose *every iteration* so each epoch freezes
its own heat row -- that per-epoch sequence is the temporal axis of the
heatmaps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from ..analysis import diagnose
from ..signature.tracker import PhaseTracker
from ..telemetry import context
from ..telemetry.cli import PLATFORM_ALIASES, WORKLOADS
from ..telemetry.events_jsonl import JsonlWriter
from ..telemetry.recorder import TelemetryRecorder
from ..workloads.base import Session, WorkloadRun, make_session

from .ansi import render_store, supports_color
from .html import build_report
from .store import HeatStore

__all__ = ["main", "REPORT_RUNNERS", "run_report"]


def _pathfinder(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Pathfinder
    return Pathfinder(session, cols=8192, rows=40, pyramid_height=8,
                      diagnose_each_iteration=True).run()


def _lulesh(session: Session) -> WorkloadRun:
    from ..workloads.lulesh import Lulesh
    return Lulesh(session, 8, diagnose_each_step=True).run(6)


def _sw(session: Session) -> WorkloadRun:
    from ..workloads.smithwaterman import SmithWaterman
    return SmithWaterman(session, 192, diagnose_each_iteration=True).run()


def _sw_rotated(session: Session) -> WorkloadRun:
    from ..workloads.smithwaterman import RotatedSmithWaterman
    return RotatedSmithWaterman(session, 192,
                                diagnose_each_iteration=True).run()


def _lud(session: Session) -> WorkloadRun:
    from ..workloads.rodinia import Lud
    return Lud(session, size=64, diagnose_each_iteration=True).run()


#: Per-iteration-diagnosing runners (epoch-rich heat).  Workloads absent
#: here fall back to the ``repro-trace`` runners, which diagnose once at
#: the end -- their heatmap collapses to a single epoch row.
REPORT_RUNNERS: dict[str, Callable[[Session], WorkloadRun]] = {
    "pathfinder": _pathfinder,
    "lulesh": _lulesh,
    "sw": _sw,
    "sw-rotated": _sw_rotated,
    "lud": _lud,
}


def run_report(workload: str, platform: str, out_dir: str | Path, *,
               buckets: int = 64, attribute: bool = True,
               materialize: bool = True, why: bool = False) -> dict[str, Path]:
    """Run ``workload`` with heat recording and write the report bundle.

    Returns artifact paths: ``report`` (HTML) plus everything
    :meth:`TelemetryRecorder.flush` wrote (timeline, metrics, events,
    heat_csv, heat_npz), plus ``signature.json`` (the run's
    access-pattern signature; its detected phases render as the report's
    phase lane).  The :class:`HeatStore` rides along under the
    ``"store"`` key for programmatic callers (``--ansi``, tests).

    With ``why=True`` the run is captured with causal provenance: the
    report gains the causal-blame section and ``causes.json`` is written
    next to the other artifacts.

    If any driver events fell out of retention un-spilled, the report
    leads with a data-loss warning.
    """
    preset = PLATFORM_ALIASES.get(platform, platform)
    runner = REPORT_RUNNERS.get(workload, WORKLOADS[workload])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    heat = HeatStore(nbuckets=buckets, attribute=attribute)
    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"),
                                 heat=heat)
    recorder.workload = workload
    recorder.config = {"platform": preset, "materialize": materialize,
                       "heat_buckets": buckets, "causes": why}
    context.install(recorder, track_causes=why)
    try:
        session = make_session(preset, trace=True, materialize=materialize)
        # Live phase tracking: markers land in the event log (and so in
        # events.jsonl / the Perfetto timeline / the causal rollups).
        tracker = PhaseTracker(
            log=session.platform.events,
            clock=lambda: session.platform.clock.now,
        ).attach(session.tracer, heat)
        run = runner(session)
        diagnoses = list(run.diagnoses)
        if session.tracer is not None:
            final = diagnose(session.tracer, include_unnamed=True)
            recorder.record_diagnosis(final)
            diagnoses.append(final)
        tracker.finish()
        recorder.detach()
    finally:
        context.uninstall()
    paths = recorder.flush(out)

    from ..signature.vector import signature_from_store

    heat.flush_current()
    sig = signature_from_store(heat, workload=workload, platform=preset)
    paths["signature"] = sig.save(out / "signature.json")

    causes = None
    if why:
        import json

        from ..causes.capture import build_report as build_causes

        causes = build_causes(out)
        (out / "causes.json").write_text(
            json.dumps(causes, indent=2, sort_keys=False) + "\n")
        paths["causes"] = out / "causes.json"

    stats = {k: v for k, v in run.stats.items()
             if isinstance(v, (int, float))}
    stats.setdefault("sim_time", run.sim_time)
    dropped = int(recorder.events_dropped_total)
    backend = (session.tracer.backend_info()
               if session.tracer is not None else None)
    report = build_report(workload=workload, platform=preset, store=heat,
                          diagnoses=diagnoses,
                          metrics=recorder.metrics.snapshot(), stats=stats,
                          causes=causes,
                          stream={"events_dropped": dropped} if dropped
                          else None,
                          backend=backend,
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
    parser.add_argument("--workload", default="pathfinder",
                        choices=sorted(WORKLOADS),
                        help="workload to replay (default: pathfinder)")
    parser.add_argument("--platform", default="pcie",
                        help="platform preset or alias: "
                             + ", ".join(sorted(PLATFORM_ALIASES)))
    parser.add_argument("--out", metavar="DIR",
                        help="run directory for report.html + artifacts")
    parser.add_argument("--buckets", type=int, default=64,
                        help="word buckets per allocation (default: 64)")
    parser.add_argument("--no-attribution", action="store_true",
                        help="skip source-line attribution (lower overhead)")
    parser.add_argument("--footprint", action="store_true",
                        help="footprint-only allocations (no numpy backing)")
    parser.add_argument("--why", action="store_true",
                        help="capture causal provenance: adds the causal-"
                             "blame report section and writes causes.json")
    parser.add_argument("--ansi", action="store_true",
                        help="also print the terminal heatmap to stdout")
    parser.add_argument("--epoch", type=int, default=None,
                        help="with --ansi: show only this epoch (scrub)")
    parser.add_argument("--no-color", action="store_true",
                        help="with --ansi: force the plain ASCII ramp")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and platform aliases, then exit")
    args = parser.parse_args(argv)

    if args.list:
        print("workloads: " + ", ".join(sorted(WORKLOADS)))
        print("per-iteration heat: " + ", ".join(sorted(REPORT_RUNNERS)))
        print("platforms: " + ", ".join(
            f"{alias}->{name}"
            for alias, name in sorted(PLATFORM_ALIASES.items())))
        return 0
    if args.out is None:
        parser.error("--out is required (unless --list)")
    preset = PLATFORM_ALIASES.get(args.platform, args.platform)
    if preset not in {"intel-pascal", "intel-volta", "power9-volta"}:
        print(f"unknown platform {args.platform!r}; known: "
              + ", ".join(sorted(PLATFORM_ALIASES)), file=sys.stderr)
        return 2

    paths = run_report(args.workload, preset, args.out,
                       buckets=args.buckets,
                       attribute=not args.no_attribution,
                       materialize=not args.footprint,
                       why=args.why)
    store: HeatStore = paths.pop("store")  # type: ignore[assignment]
    if args.ansi:
        color = False if args.no_color else supports_color()
        print(render_store(store, color=color, epoch=args.epoch))
    print(f"{args.workload} on {preset}: "
          f"{len(store.allocations())} allocation(s), "
          f"{len(store.epochs_closed)} epoch(s), "
          f"{store.total} word-accesses recorded")
    for name, path in sorted(paths.items()):
        print(f"  {name:9s} {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
