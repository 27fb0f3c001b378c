"""What do signatures and phase tracking cost on top of plain tracing?

A traced run with a heat store attached (the ``repro-report``
configuration) versus the same run with a live
:class:`~repro.signature.tracker.PhaseTracker` plus the end-of-run
:func:`~repro.signature.vector.signature_from_store` computation.  Phase
tracking is one vector fold per epoch and the signature a single pass
over frozen heat counts, so the bar is < 1.3x over traced.

Usage::

    python -m repro.signature.overhead --repeats 3
"""

from __future__ import annotations

import argparse
import io
import sys

from ..heatmap.store import HeatStore
from ..memsim.events import EventLog
from ..telemetry.overhead import OVERHEAD_WORKLOADS, _timed
from ..workloads.base import make_session
from .tracker import PhaseTracker
from .vector import signature_from_store

__all__ = [
    "measure_signature_overhead",
    "format_rows",
    "main",
]


def measure_signature_overhead(
    workloads: tuple[str, ...] = ("sw",),
    *,
    platform: str = "intel-pascal",
    repeats: int = 3,
) -> list[dict]:
    """Time each workload traced+heat vs traced+heat+phases+signature.

    Returns one row per workload with absolute times and the ratio
    ``signature_x`` against the traced run.
    """
    rows: list[dict] = []
    for name in workloads:
        runner = OVERHEAD_WORKLOADS[name]

        def run_config(signature: bool) -> None:
            session = make_session(platform, trace=True, materialize=False)
            heat = HeatStore(nbuckets=64, attribute=False)
            session.tracer.heat = heat
            tracker = None
            if signature:
                tracker = PhaseTracker(log=EventLog()).attach(
                    session.tracer, heat)
            runner(session)
            if signature:
                tracker.finish()
                heat.flush_current()
                signature_from_store(heat, workload=name, platform=platform)

        traced_s = _timed(lambda: run_config(False), repeats)
        signature_s = _timed(lambda: run_config(True), repeats)
        rows.append({
            "workload": name,
            "traced_s": traced_s,
            "signature_s": signature_s,
            "signature_x": (signature_s / traced_s if traced_s
                            else float("inf")),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render the overhead table as text."""
    out = io.StringIO()
    out.write(f"{'workload':14s}{'traced':>9s}{'signature':>11s}"
              f"{'ratio':>8s}\n")
    for r in rows:
        out.write(f"{r['workload']:14s}{r['traced_s']:8.3f}s"
                  f"{r['signature_s']:10.3f}s{r['signature_x']:7.2f}x\n")
    if rows:
        mean = sum(r["signature_x"] for r in rows) / len(rows)
        out.write(f"{'average signature overhead vs traced':40s}"
                  f"{mean:7.2f}x\n")
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.signature.overhead``)."""
    parser = argparse.ArgumentParser(
        prog="repro-sig-overhead",
        description="Measure signature/phase overhead vs plain tracing.")
    parser.add_argument("--workloads", nargs="*", default=["sw"],
                        choices=sorted(OVERHEAD_WORKLOADS),
                        help="workloads to time")
    parser.add_argument("--platform", default="intel-pascal",
                        help="platform preset (default: intel-pascal)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per configuration")
    args = parser.parse_args(argv)
    rows = measure_signature_overhead(tuple(args.workloads),
                                      platform=args.platform,
                                      repeats=args.repeats)
    sys.stdout.write(format_rows(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
