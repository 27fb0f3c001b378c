"""``repro-why``: capture causal runs and compare them.

Two subcommands::

    repro-why run  --workload sw --platform pcie --out runs/managed
    repro-why diff runs/managed runs/advised

``run`` replays a workload with causal provenance enabled and writes the
telemetry bundle plus ``causes.json`` (blame by site / allocation /
category, critical path).  ``diff`` aligns two captured runs and reports
what improved and what regressed -- the question every ``cudaMemAdvise``
experiment asks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .capture import IncompatibleCaptureError, load_report, run_with_causes
from .diff import diff_reports
from .render import render_diff, render_report

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    from ..workloads.registry import UnknownNameError, listing

    if args.list:
        print(listing(), end="")
        return 0
    if args.out is None:
        print("repro-why run: --out is required (unless --list)",
              file=sys.stderr)
        return 2
    try:
        result = run_with_causes(args.workload, args.platform, args.out,
                                 materialize=not args.footprint,
                                 sites=not args.no_sites)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result["report"], indent=2))
    else:
        print(render_report(result["report"], limit=args.limit), end="")
        print("artifacts:")
        for name, path in sorted(result["paths"].items()):
            print(f"  {name:9s} {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        report_a = load_report(Path(args.run_a))
        report_b = load_report(Path(args.run_b))
    except (IncompatibleCaptureError, FileNotFoundError) as exc:
        print(f"repro-why diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_reports(report_a, report_b, threshold=args.threshold,
                        label_a=str(args.run_a), label_b=str(args.run_b))
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(render_diff(diff, limit=args.limit), end="")
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(diff, indent=2) + "\n")
    if args.fail_on_regression and diff["summary"]["verdict"] == "regression":
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-why`` / ``python -m repro.causes``."""
    parser = argparse.ArgumentParser(
        prog="repro-why",
        description="Causal 'why' profiler: blame attribution, critical "
                    "path and differential run comparison.")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="replay a workload with causal tracking")
    run.add_argument("--workload", default="sw",
                     help="workload to replay (default: sw)")
    run.add_argument("--platform", default="pcie",
                     help="platform preset or alias (default: pcie)")
    run.add_argument("--out", metavar="DIR",
                     help="run directory for the capture artifacts")
    run.add_argument("--footprint", action="store_true",
                     help="footprint-only allocations (no numpy backing)")
    run.add_argument("--no-sites", action="store_true",
                     help="skip source-site stack walking (cheaper capture)")
    run.add_argument("--json", action="store_true",
                     help="print the causes report as JSON instead of text")
    run.add_argument("--limit", type=int, default=10,
                     help="rows per blame table in text output")
    run.add_argument("--list", action="store_true",
                     help="list workloads and platforms, then exit")
    run.set_defaults(func=_cmd_run)

    diff = sub.add_parser("diff", help="compare two captured runs (A vs B)")
    diff.add_argument("run_a", help="baseline run directory")
    diff.add_argument("run_b", help="candidate run directory")
    diff.add_argument("--threshold", type=float, default=0.05,
                      help="relative change considered significant "
                           "(default: 0.05)")
    diff.add_argument("--json", action="store_true",
                      help="print the diff as JSON instead of text")
    diff.add_argument("--out", metavar="FILE",
                      help="also write the diff JSON to FILE")
    diff.add_argument("--limit", type=int, default=10,
                      help="rows per section in text output")
    diff.add_argument("--fail-on-regression", action="store_true",
                      help="exit 1 when total cost regresses")
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
