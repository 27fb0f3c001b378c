"""CLI for the evaluation harness: ``python -m repro.evalx [ids...]``.

Running with no arguments regenerates every figure and table.  Each
experiment prints the rows/series the paper reports; ``--list`` shows the
catalogue with the paper artifact each id corresponds to.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import sys
from pathlib import Path
from typing import Callable

from ..heatmap.html import build_report
from ..heatmap.store import HeatStore
from ..telemetry import JsonlWriter, TelemetryRecorder
from ..workloads.base import Session, make_session
from . import figures, spatter, tables  # noqa: F401  (importing registers experiments)
from .base import EXPERIMENTS, ExperimentResult

__all__ = ["main", "rows_to_csv", "PLACEMENT_PAIRS"]

#: Experiments comparing two placement variants of one workload:
#: experiment id -> (baseline workload, optimized/advised workload), both
#: names from :data:`repro.workloads.registry.WORKLOADS`.  ``--why`` captures
#: each variant with causal provenance and auto-diffs the pair.
PLACEMENT_PAIRS: dict[str, tuple[str, str]] = {
    "fig9": ("sw", "sw-advised"),
    "fig11": ("pathfinder", "pathfinder-opt"),
}


def _run_why(name: str, why_dir: Path) -> None:
    """Capture + diff the placement pair behind experiment ``name``."""
    from ..causes.capture import run_with_causes
    from ..causes.diff import diff_reports
    from ..causes.render import render_diff

    pair = PLACEMENT_PAIRS.get(name)
    if pair is None:
        print(f"why: {name} has no placement pair; "
              f"known: {', '.join(sorted(PLACEMENT_PAIRS))}")
        return
    base, cand = pair
    exp_dir = why_dir / name
    result_a = run_with_causes(base, "pcie", exp_dir / base)
    result_b = run_with_causes(cand, "pcie", exp_dir / cand)
    diff = diff_reports(result_a["report"], result_b["report"],
                        label_a=base, label_b=cand)
    import json
    (exp_dir / "why_diff.json").write_text(
        json.dumps(diff, indent=2, sort_keys=False) + "\n")
    print(f"why: {name} ({base} vs {cand}) -> {exp_dir / 'why_diff.json'}")
    print(render_diff(diff, limit=5), end="")


def rows_to_csv(result: ExperimentResult) -> str:
    """Render an experiment's rows as CSV (for external plotting)."""
    if not result.rows:
        return ""
    fields: list[str] = []
    for row in result.rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in result.rows:
        writer.writerow({k: _cell(v) for k, v in row.items()})
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple, set)):
        return ";".join(str(v) for v in sorted(value, key=str))
    return value


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="xplacer-eval",
        description="Regenerate the XPlacer paper's figures and tables "
                    "on the simulated platforms.",
    )
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (fig4..fig11, tab2, tab3); "
                             "default: all")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--quick", action="store_true",
                        help="smaller configurations (tab3)")
    parser.add_argument("--csv", metavar="DIR",
                        help="also write each experiment's rows as "
                             "DIR/<id>.csv")
    parser.add_argument("--telemetry-dir", metavar="DIR",
                        help="record telemetry for every session an "
                             "experiment opens; writes DIR/<id>/"
                             "{timeline.json,events.jsonl,metrics.prom}")
    parser.add_argument("--report", action="store_true",
                        help="with --telemetry-dir: also record access "
                             "heat and render DIR/<id>/report.html (in "
                             "DIR/<id>/session-<n>/ per session when "
                             "several sessions record heat)")
    parser.add_argument("--why", metavar="DIR",
                        help="for experiments with a placement pair "
                             "(fig9, fig11): capture both variants with "
                             "causal provenance and write DIR/<id>/"
                             "why_diff.json plus the diff summary")
    args = parser.parse_args(argv)
    if args.report and args.telemetry_dir is None:
        parser.error("--report requires --telemetry-dir")

    if args.list:
        for name, fn in EXPERIMENTS.items():
            print(f"{name:8s} {fn.title}")
        return 0

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}; "
              f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    csv_dir = None
    if args.csv:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)

    for name in ids:
        kwargs = {"quick": True} if (args.quick and name == "tab3") else {}
        if args.telemetry_dir is None:
            result = EXPERIMENTS[name](**kwargs)
        else:
            result = _run_recorded(name, kwargs,
                                   Path(args.telemetry_dir) / name,
                                   report=args.report)
        print(result)
        if csv_dir is not None:
            (csv_dir / f"{name}.csv").write_text(rows_to_csv(result))
        if args.why is not None:
            _run_why(name, Path(args.why))
    return 0


def recording_sessions(recorder: TelemetryRecorder,
                       heat: dict[int, tuple[str, HeatStore]] | None = None
                       ) -> Callable[..., Session]:
    """A session factory: :func:`make_session`, then ``recorder`` attached
    to the new session's runtime and tracer.

    With ``heat``, each traced session also records access heat into a
    store of its own, filed with the session's platform name under the
    session's number (its process in ``timeline.json``: 1, 2, ... in the
    order the sessions open).
    """
    numbers = itertools.count(1)

    def recorded_session(*args, **kwargs) -> Session:
        session = make_session(*args, **kwargs)
        recorder.attach(session.runtime, session.tracer)
        number = next(numbers)
        if heat is not None and session.tracer is not None:
            session.tracer.heat = store = HeatStore()
            heat[number] = (session.platform.name, store)
        return session

    return recorded_session


def _run_recorded(name: str, kwargs: dict, exp_dir: Path, *,
                  report: bool) -> ExperimentResult:
    """Run experiment ``name`` with telemetry on every session it opens and
    write the bundle (plus, with ``report``, heat and ``report.html``) into
    ``exp_dir``."""
    heat: dict[int, tuple[str, HeatStore]] | None = {} if report else None
    recorder = TelemetryRecorder(jsonl=JsonlWriter(exp_dir / "events.jsonl"))
    recorder.workload = name
    recorder.config = dict(kwargs)
    try:
        return EXPERIMENTS[name](
            make_session=recording_sessions(recorder, heat), **kwargs)
    finally:
        recorder.detach()
        paths = recorder.flush(exp_dir)
        if heat is not None:
            _write_heat(name, heat, exp_dir, recorder.metrics.snapshot())
        print(f"telemetry: {paths['timeline'].parent}")


def _write_heat(name: str, heat: dict[int, tuple[str, HeatStore]],
                exp_dir: Path, metrics: dict) -> None:
    """``heat.csv``, ``heat.npz`` and ``report.html`` for each session
    that recorded heat: in ``exp_dir`` when at most one did, else in
    ``exp_dir/session-<n>``, where each report names its own session's
    platform, leaves the experiment-wide ``metrics`` to
    ``exp_dir/metrics.prom`` and links the experiment's artifacts one
    directory up."""
    heat = {n: entry for n, entry in heat.items() if len(entry[1])}
    shared = ("timeline.json", "events.jsonl", "metrics.prom")
    if len(heat) > 1:
        links = ("heat.csv", "heat.npz", *(f"../{a}" for a in shared))
        targets = {exp_dir / f"session-{n}": (platform, store, None, links)
                   for n, (platform, store) in heat.items()}
    else:
        _, store = next(iter(heat.values()), ("", HeatStore()))
        targets = {exp_dir: ("(per experiment)", store, metrics, shared)}
    for out, (platform, store, report_metrics, links) in targets.items():
        out.mkdir(exist_ok=True)
        store.write(out)
        (out / "report.html").write_text(build_report(
            workload=name, platform=platform, store=store,
            metrics=report_metrics, artifacts=links))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
