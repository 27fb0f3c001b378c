"""Experiments regenerating the paper's tables (Table II and Table III)."""

from __future__ import annotations

import io
import time

from ..analysis import AntiPattern, diagnose
from ..workloads.lulesh import Lulesh
from ..workloads.rodinia import Backprop, Cfd, Gaussian, Lud, NearestNeighbor, Pathfinder
from ..workloads.smithwaterman import SmithWaterman

from .base import ExperimentResult, experiment

__all__ = ["tab2", "tab3"]

#: What Table II reports per benchmark (pattern, allocation substring).
TABLE2_EXPECTED = {
    "backprop": [
        (AntiPattern.UNUSED_ALLOCATION, "output_hidden_cuda"),
        (AntiPattern.UNNECESSARY_TRANSFER_OUT, "input_cuda"),
    ],
    "cfd": [],
    "gaussian": [(AntiPattern.TRANSFER_OVERWRITTEN, "m_cuda")],
    "lud": [(AntiPattern.UNNECESSARY_TRANSFER_OUT, "m_d")],
    "nn": [],
    "pathfinder": [(AntiPattern.UNNECESSARY_TRANSFER_IN, "gpuWall")],
}


@experiment("tab2", "Findings in a subset of the Rodinia benchmarks")
def tab2(result: ExperimentResult, *, make_session) -> ExperimentResult:
    """Run the six Rodinia ports under XPlacer; list detector findings."""
    out = io.StringIO()

    def run_whole(name, app_cls, **kw):
        session = make_session(trace=True, materialize=True)
        app_cls(session, **kw).run()
        return name, diagnose(session.tracer, include_unnamed=True).findings

    def run_pathfinder():
        # The pathfinder pattern is per-iteration (like the paper's
        # "where applicable, we ran the analysis after each iteration").
        session = make_session(trace=True, materialize=True)
        app = Pathfinder(session, cols=2048, rows=26, pyramid_height=5,
                         diagnose_each_iteration=True)
        run = app.run()
        return "pathfinder", [f for d in run.diagnoses for f in d.findings]

    cases = [
        run_whole("backprop", Backprop, input_size=8192),
        run_whole("cfd", Cfd, cells=2048),
        run_whole("gaussian", Gaussian, size=64),
        run_whole("lud", Lud, size=64),
        run_whole("nn", NearestNeighbor, records=4096),
        run_pathfinder(),
    ]
    for bench, findings in cases:
        expected = TABLE2_EXPECTED[bench]
        found = {(f.pattern, f.name) for f in findings}
        matched = all(any(p is fp and sub in fn for fp, fn in found)
                      for p, sub in expected)
        clean_expected = not expected
        clean_found = not findings
        status = "MATCH" if (matched and (not clean_expected or clean_found)) \
            else "DIFFERS"
        out.write(f"{bench:12s} [{status}]\n")
        if not findings:
            out.write("    no possible improvements identified.\n")
        seen = set()
        for f in findings:
            key = (f.pattern, f.name)
            if key in seen:
                continue
            seen.add(key)
            out.write(f"    {f.pattern.value}: {f.name}\n")
        result.rows.append({
            "benchmark": bench,
            "findings": sorted({(f.pattern.name, f.name) for f in findings}),
            "matches_paper": status == "MATCH",
        })
    result.text = out.getvalue()
    return result


#: Table III configurations: (label, runner) where runner(trace) -> None.
def _tab3_cases(quick: bool, make_session):
    lulesh_sizes = (8, 16) if quick else (8, 48, 96)
    sw_sizes = (200,) if quick else (1000, 2000)
    cases = []
    for size in lulesh_sizes:
        def run_lul(trace, size=size):
            session = make_session("intel-pascal", trace=trace,
                                   materialize=False)
            Lulesh(session, size).run(4 if size > 32 else 16)
        cases.append((f"LULESH 2 (size={size})", run_lul))
    for n in sw_sizes:
        def run_sw(trace, n=n):
            session = make_session("intel-pascal", trace=trace,
                                   materialize=False)
            SmithWaterman(session, n).run()
        cases.append((f"Smith-Waterman ({n}x{n})", run_sw))

    def run_bp(trace):
        session = make_session("intel-pascal", trace=trace, materialize=True)
        Backprop(session, input_size=65536 if not quick else 8192).run()
    cases.append(("Backprop", run_bp))

    def run_ga(trace):
        session = make_session("intel-pascal", trace=trace, materialize=True)
        Gaussian(session, size=128 if not quick else 48).run()
    cases.append(("Gaussian", run_ga))
    return cases


@experiment("tab3", "Runtime overhead of XPlacer instrumentation")
def tab3(result: ExperimentResult, *, make_session, quick: bool = False,
         repeats: int = 3) -> ExperimentResult:
    """Wall-clock ratio of traced vs untraced runs.

    The paper measures compiled instrumented binaries (5x-20x, ~15x
    average); here the ratio measures the tracer + shadow-memory layer of
    the Python runtime -- the same *kind* of overhead on the same code
    paths, reported the same way.
    """
    out = io.StringIO()
    out.write(f"{'benchmark':28s}{'plain':>10s}{'traced':>10s}{'overhead':>10s}\n")
    for label, runner in _tab3_cases(quick, make_session):
        def best(trace: bool) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                runner(trace)
                times.append(time.perf_counter() - t0)
            return min(times)

        plain = best(False)
        traced = best(True)
        ratio = traced / plain if plain > 0 else float("inf")
        result.rows.append({"benchmark": label, "plain_s": plain,
                            "traced_s": traced, "overhead_x": ratio})
        out.write(f"{label:28s}{plain:9.3f}s{traced:9.3f}s{ratio:9.1f}x\n")
    mean = sum(r["overhead_x"] for r in result.rows) / len(result.rows)
    out.write(f"{'average':28s}{'':10s}{'':10s}{mean:9.1f}x\n")
    result.text = out.getvalue()
    return result
