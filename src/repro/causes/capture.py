"""Causal run capture: execute a workload with provenance tracking on.

:func:`run_with_causes` runs a workload through the one run path with
the UM driver in ``track_causes`` mode and a
:class:`~repro.telemetry.recorder.TelemetryRecorder` attached (so the
run also produces the standard timeline / JSONL / metrics artifacts, now
with cause links and flow arrows), then distils the event stream into a
:class:`~repro.causes.graph.CausalGraph` report.

``load_report`` is the reading counterpart used by ``repro-why diff``:
it rebuilds a report from a run directory's ``events.jsonl``, rejecting
captures whose schema version this reader does not understand.
:func:`write_causes` is the one writer of ``causes.json``, for
``repro-why``, ``repro-report --why`` and merged streams alike.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..telemetry.events_jsonl import SCHEMA_VERSION, read_jsonl

from .graph import CausalGraph

__all__ = ["run_with_causes", "load_report", "write_causes",
           "IncompatibleCaptureError"]


class IncompatibleCaptureError(RuntimeError):
    """A capture's schema version cannot be read by this build."""


def run_with_causes(workload: str, platform: str, out_dir: str | Path,
                    *, materialize: bool = True,
                    sites: bool = True) -> dict[str, Any]:
    """Run ``workload`` with causal tracking; write artifacts to ``out_dir``.

    Produces the full telemetry bundle (``events.jsonl`` with cause
    blocks, ``timeline.json`` with flow arrows, ``metrics.prom``) plus
    ``causes.json``, the causal blame report; ``sites=False`` skips the
    stack walk for triggering source sites.  Returns a dict with the
    artifact ``paths``, the ``report`` and the workload ``run``.
    """
    from ..workloads.run import RunSpec, execute

    done = execute(RunSpec(workload, platform, out_dir,
                           materialize=materialize, why=True, sites=sites))
    out, paths = Path(out_dir), done.paths
    # Build the report from the stream just written: one code path no
    # matter whether the events come from a live log or a saved capture.
    report = build_report(out, workload=workload,
                          platform=done.session.platform.name)
    paths["causes"] = write_causes(out, report)
    return {"paths": paths, "report": report, "run": done.run}


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


def write_causes(out_dir: str | Path, report: dict[str, Any]) -> Path:
    """Write a causal ``report`` as ``out_dir/causes.json``; returns the
    path."""
    path = Path(out_dir) / "causes.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
