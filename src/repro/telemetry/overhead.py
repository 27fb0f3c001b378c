"""Self-profiling harness: what does observing a run cost us?

The paper's Table III reports the wall-clock overhead of XPlacer's
compiled instrumentation (5x-20x, ~15x average).  This module reproduces
the *shape* of that measurement for the Python stack, per workload and per
observation layer, in one table:

* ``plain``     -- no tracer, no recorder: the telemetry path disabled.
* ``traced``    -- XPlacer tracer attached (the paper's Table III column).
* ``telemetry`` -- tracer plus a full :class:`TelemetryRecorder` (metrics,
  timeline and JSONL sinks all live).
* ``heat``      -- tracer plus a :class:`~repro.heatmap.store.HeatStore`
  with source attribution: the ``repro-report`` configuration.  The
  acceptance bar is < 2x over ``traced``.
* ``detached``  -- a recorder attached and then detached before the run:
  must cost the same as ``plain`` (regression guard that ``detach``
  really unwires every hook).
* ``causes``    -- the ``telemetry`` recorder with ``track_causes`` on and
  source-site stack walking: the ``repro-why run`` configuration, priced
  against ``telemetry``.
* ``causes_no_sites`` -- provenance without the per-API stack walk (the
  ``--no-sites`` capture): cause links and parent edges only.
* ``heat_no_sites`` -- tracer plus a 64-bucket heat store without source
  attribution: the baseline the signature layer rides on.
* ``signature`` -- ``heat_no_sites`` plus a live
  :class:`~repro.signature.tracker.PhaseTracker` and the end-of-run
  :func:`~repro.signature.vector.signature_from_store`.  The bar is
  < 1.3x over ``heat_no_sites``.

Workloads run at their :mod:`repro.workloads.registry` sizes in
footprint mode (no numpy backing): materialized runs are dominated by
allocator/page-cache noise, while footprint runs measure exactly the
simulator + instrumentation code paths the ratios are about.

Usage::

    python -m repro.telemetry.overhead --repeats 3
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
from typing import Callable

from ..heatmap.store import HeatStore
from ..memsim.events import EventLog
from ..signature.tracker import PhaseTracker
from ..signature.vector import signature_from_store
from ..workloads.base import Session, make_session
from ..workloads.registry import WORKLOADS, Runner, resolve_workload

from .events_jsonl import StringJsonl
from .recorder import TelemetryRecorder

__all__ = ["CONFIGS", "RATIOS", "measure_overhead", "format_rows", "main"]


def _session(platform: str, trace: bool = True) -> Session:
    return make_session(platform, trace=trace, materialize=False)


def _recorded(runner: Runner, platform: str, *, track_causes: bool = False,
              sites: bool = True) -> None:
    session = _session(platform)
    recorder = TelemetryRecorder(jsonl=StringJsonl())
    recorder.attach(session.runtime, session.tracer,
                    track_causes=track_causes)
    session.platform.um.blame_sites = sites
    try:
        runner(session)
    finally:
        recorder.detach()


def _heat(runner: Runner, platform: str, workload: str, *,
          attribute: bool = True, signature: bool = False) -> None:
    session = _session(platform)
    heat = session.tracer.heat = HeatStore(attribute=attribute)
    tracker = (PhaseTracker(log=EventLog()).attach(session.tracer, heat)
               if signature else None)
    runner(session)
    if tracker is not None:
        tracker.finish()
        heat.flush_current()
        signature_from_store(heat, workload=workload, platform=platform)


def _detached(runner: Runner, platform: str) -> None:
    session = _session(platform, trace=False)
    recorder = TelemetryRecorder(jsonl=None)
    recorder.attach(session.runtime)
    recorder.detach()
    runner(session)


#: configuration -> run(runner, platform, workload), in timing order.
CONFIGS: dict[str, Callable[[Runner, str, str], None]] = {
    "plain": lambda r, p, w: r(_session(p, trace=False)),
    "traced": lambda r, p, w: r(_session(p)),
    "telemetry": lambda r, p, w: _recorded(r, p),
    "heat": lambda r, p, w: _heat(r, p, w),
    "detached": lambda r, p, w: _detached(r, p),
    "causes": lambda r, p, w: _recorded(r, p, track_causes=True),
    "causes_no_sites": lambda r, p, w: _recorded(r, p, track_causes=True,
                                                 sites=False),
    "heat_no_sites": lambda r, p, w: _heat(r, p, w, attribute=False),
    "signature": lambda r, p, w: _heat(r, p, w, attribute=False,
                                       signature=True),
}

#: ratio key -> (numerator, denominator) configuration.
RATIOS: dict[str, tuple[str, str]] = {
    "traced_x": ("traced", "plain"),
    "telemetry_x": ("telemetry", "plain"),
    "heat_x": ("heat", "plain"),
    "detached_x": ("detached", "plain"),
    "heat_vs_traced_x": ("heat", "traced"),
    "causes_x": ("causes", "telemetry"),
    "causes_no_sites_x": ("causes_no_sites", "telemetry"),
    "signature_x": ("signature", "heat_no_sites"),
}


def _timed(run: Callable[[], None], repeats: int) -> float:
    run()  # warm-up: imports, allocator pools, bytecode caches
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_overhead(
    workloads: tuple[str, ...] = ("sw", "lulesh"),
    *,
    platform: str = "intel-pascal",
    repeats: int = 3,
) -> list[dict]:
    """Time each workload under every configuration in :data:`CONFIGS`.

    Returns one row per workload with each configuration's best time
    (``<config>_s``) and every :data:`RATIOS` overhead factor.
    """
    rows: list[dict] = []
    for name in workloads:
        runner = resolve_workload(name)
        row: dict = {"workload": name}
        for config, run in CONFIGS.items():
            row[f"{config}_s"] = _timed(
                lambda: run(runner, platform, name), repeats)
        for key, (num, den) in RATIOS.items():
            den_s = row[f"{den}_s"]
            row[key] = row[f"{num}_s"] / den_s if den_s else float("inf")
        rows.append(row)
    return rows


#: ``format_rows`` headers: configuration -> time column.
_TIME_HEADS = {"plain": "plain", "traced": "traced", "telemetry": "+telem",
               "heat": "+heat", "detached": "detach", "causes": "+causes",
               "causes_no_sites": "-sites", "heat_no_sites": "heat-s",
               "signature": "+sig"}

#: ``format_rows`` ratio columns: key -> (header, decimals).
_RATIO_HEADS = {"traced_x": ("traced", 1), "telemetry_x": ("telem", 1),
                "heat_x": ("heat", 1), "detached_x": ("detach", 1),
                "heat_vs_traced_x": ("heat/tr", 2), "causes_x": ("causes", 2),
                "causes_no_sites_x": ("-sites", 2),
                "signature_x": ("sig", 2)}

#: ``format_rows`` summary lines: label -> (ratio key, decimals).
_AVERAGES = {
    "average telemetry overhead": ("telemetry_x", 1),
    "average heat overhead vs traced": ("heat_vs_traced_x", 2),
    "average causal overhead vs telemetry": ("causes_x", 2),
    "average signature overhead vs heat": ("signature_x", 2),
}


def format_rows(rows: list[dict]) -> str:
    """Render the Table-III-style text block: times, ratios, averages."""
    out = io.StringIO()
    out.write(f"{'workload':14s}"
              + "".join(f"{h:>9s}" for h in _TIME_HEADS.values()) + "\n")
    for r in rows:
        out.write(f"{r['workload']:14s}"
                  + "".join(f"{r[f'{c}_s']:8.3f}s" for c in _TIME_HEADS)
                  + "\n")
    out.write(f"{'overhead':14s}"
              + "".join(f"{h:>9s}" for h, _ in _RATIO_HEADS.values()) + "\n")
    for r in rows:
        out.write(f"{r['workload']:14s}"
                  + "".join(f"{r[k]:8.{d}f}x"
                            for k, (_, d) in _RATIO_HEADS.items()) + "\n")
    for label, (key, digits) in _AVERAGES.items():
        if rows:
            mean = sum(r[key] for r in rows) / len(rows)
            out.write(f"{label:40s}{mean:8.{digits}f}x\n")
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.telemetry.overhead``)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace-overhead",
        description="Measure instrumentation overhead (paper Table III shape).")
    parser.add_argument("--workloads", nargs="*",
                        default=["sw", "lulesh"],
                        choices=sorted(WORKLOADS),
                        help="workloads to time")
    parser.add_argument("--platform", default="intel-pascal",
                        help="platform preset (default: intel-pascal)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per configuration")
    args = parser.parse_args(argv)
    rows = measure_overhead(tuple(args.workloads), platform=args.platform,
                            repeats=args.repeats)
    sys.stdout.write(format_rows(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
