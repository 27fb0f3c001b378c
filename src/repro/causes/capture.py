"""Causal run capture: execute a workload with provenance tracking on.

The capture layer composes the pieces built elsewhere: it switches the
UM driver into ``track_causes`` mode, attaches a
:class:`~repro.telemetry.recorder.TelemetryRecorder` (so the run also
produces the standard timeline / JSONL / metrics artifacts, now with
cause links and flow arrows), executes the workload, and distils the
event stream into a :class:`~repro.causes.graph.CausalGraph` report.

``load_report`` is the reading counterpart used by ``repro-why diff``:
it rebuilds a report from a run directory's ``events.jsonl``, rejecting
captures whose schema version this reader does not understand.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from ..analysis import diagnose
from ..memsim import Platform
from ..telemetry import context as telemetry_context
from ..telemetry.events_jsonl import SCHEMA_VERSION, JsonlWriter, read_jsonl
from ..telemetry.recorder import TelemetryRecorder
from ..workloads.base import make_session

from .graph import CausalGraph

__all__ = ["causal_capture", "run_with_causes", "load_report",
           "IncompatibleCaptureError"]


class IncompatibleCaptureError(RuntimeError):
    """A capture's schema version cannot be read by this build."""


@contextmanager
def causal_capture(platform: Platform, *, sites: bool = True) -> Iterator[Platform]:
    """Enable causal provenance on ``platform`` for the block's duration.

    :param sites: also walk the stack for triggering source sites (the
        expensive-but-actionable half of the cause link).
    """
    um = platform.um
    prev = (um.track_causes, um.blame_sites)
    um.track_causes = True
    um.blame_sites = sites
    try:
        yield platform
    finally:
        um.track_causes, um.blame_sites = prev


def run_with_causes(workload: str, platform: str, out_dir: str | Path,
                    *, materialize: bool = True, sites: bool = True,
                    diagnose_run: bool = True) -> dict[str, Any]:
    """Run ``workload`` with causal tracking; write artifacts to ``out_dir``.

    Produces the full telemetry bundle (``events.jsonl`` with cause
    blocks, ``timeline.json`` with flow arrows, ``metrics.prom``) plus
    ``causes.json``, the causal blame report.  Returns a dict with the
    artifact ``paths``, the ``report`` and the workload ``run``.
    """
    from ..workloads.registry import resolve_platform, resolve_workload

    preset = resolve_platform(platform)
    runner = resolve_workload(workload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    recorder = TelemetryRecorder(jsonl=JsonlWriter(out / "events.jsonl"))
    recorder.workload = workload
    recorder.config = {"platform": preset, "materialize": materialize,
                       "track_causes": True, "blame_sites": sites}
    telemetry_context.install(recorder, track_causes=True)
    try:
        session = make_session(preset, trace=True, materialize=materialize)
        session.platform.um.blame_sites = sites
        run = runner(session)
        if diagnose_run and session.tracer is not None:
            recorder.record_diagnosis(
                diagnose(session.tracer, include_unnamed=True))
        recorder.detach()
    finally:
        telemetry_context.uninstall()
    paths = recorder.flush(out)

    # Build the report from the stream just written: one code path no
    # matter whether the events come from a live log or a saved capture.
    report = build_report(out, workload=workload, platform=preset)
    report_path = out / "causes.json"
    _write_json(report_path, report)
    paths["causes"] = report_path
    return {"paths": paths, "report": report, "run": run}


def build_report(run_dir: str | Path, *, workload: str = "",
                 platform: str = "") -> dict[str, Any]:
    """Causal report for a run directory containing ``events.jsonl``."""
    records = _load_records(Path(run_dir))
    manifest = records[0]
    graph = CausalGraph.from_records(records)
    return graph.report(
        workload=workload or manifest.get("workload", ""),
        platform=platform or manifest.get("platform", {}).get("name", ""),
    )


def load_report(run_dir: str | Path) -> dict[str, Any]:
    """Load (or rebuild) the causal report of a captured run directory."""
    run_dir = Path(run_dir)
    causes = run_dir / "causes.json"
    if causes.exists():
        import json
        report = json.loads(causes.read_text())
        if report.get("report_version") != _report_version():
            raise IncompatibleCaptureError(
                f"{causes}: report_version {report.get('report_version')!r} "
                f"!= supported {_report_version()}")
        return report
    return build_report(run_dir)


def _report_version() -> int:
    from .graph import REPORT_VERSION
    return REPORT_VERSION


def _load_records(run_dir: Path) -> list[dict[str, Any]]:
    events = run_dir / "events.jsonl"
    if not events.exists():
        raise FileNotFoundError(f"{run_dir} has no events.jsonl capture")
    records = read_jsonl(events)
    if not records or records[0].get("type") != "manifest":
        raise IncompatibleCaptureError(
            f"{events}: stream does not start with a run manifest")
    version = records[0].get("schema_version")
    if not isinstance(version, int) or version < 2 or version > SCHEMA_VERSION:
        raise IncompatibleCaptureError(
            f"{events}: schema_version {version!r} is outside the supported "
            f"range [2, {SCHEMA_VERSION}] (v1 streams carry no event ids or "
            "cause links)")
    return records


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    import json
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
