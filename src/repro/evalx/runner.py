"""CLI for the evaluation harness: ``python -m repro.evalx [ids...]``.

Running with no arguments regenerates every figure and table.  Each
experiment prints the rows/series the paper reports; ``--list`` shows the
catalogue with the paper artifact each id corresponds to.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

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
                             "heat and render DIR/<id>/report.html")
    parser.add_argument("--why", metavar="DIR",
                        help="for experiments with a placement pair "
                             "(fig9, fig11): capture both variants with "
                             "causal provenance and write DIR/<id>/"
                             "why_diff.json plus the diff summary")
    from ..codegen import BACKENDS
    parser.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="execution backend for any mini-CUDA program "
                             "an experiment interprets: auto (default) "
                             "vectorizes when provable, falling back to "
                             "per-thread codegen, then interp; Session "
                             "workloads run native Python regardless")
    args = parser.parse_args(argv)

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

    from ..codegen import default_backend, set_default_backend
    prev_backend = default_backend()
    set_default_backend(args.backend)
    try:
        return _run(args, ids)
    finally:
        set_default_backend(prev_backend)


def _run(args: argparse.Namespace, ids: list[str]) -> int:
    """Execute the selected experiments (backend default already set)."""

    csv_dir = None
    if args.csv:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)

    telemetry_dir = Path(args.telemetry_dir) if args.telemetry_dir else None
    if args.report and telemetry_dir is None:
        parser.error("--report requires --telemetry-dir")

    for name in ids:
        kwargs = {"quick": True} if (args.quick and name == "tab3") else {}
        recorder = None
        heat = None
        if telemetry_dir is not None:
            from ..telemetry import JsonlWriter, TelemetryRecorder
            from ..telemetry import context as telemetry_context

            exp_dir = telemetry_dir / name
            if args.report:
                from ..heatmap.store import HeatStore
                heat = HeatStore()
            recorder = TelemetryRecorder(
                jsonl=JsonlWriter(exp_dir / "events.jsonl"), heat=heat)
            recorder.workload = name
            recorder.config = dict(kwargs)
            telemetry_context.install(recorder)
        try:
            result = EXPERIMENTS[name](**kwargs)
        finally:
            if recorder is not None:
                telemetry_context.uninstall()
                recorder.detach()
                paths = recorder.flush(exp_dir)
                if heat is not None:
                    from ..heatmap.html import build_report

                    report = build_report(
                        workload=name, platform="(per experiment)",
                        store=heat, metrics=recorder.metrics.snapshot())
                    (exp_dir / "report.html").write_text(report)
                print(f"telemetry: {paths['timeline'].parent}")
        print(result)
        if csv_dir is not None:
            (csv_dir / f"{name}.csv").write_text(rows_to_csv(result))
        if args.why is not None:
            _run_why(name, Path(args.why))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
