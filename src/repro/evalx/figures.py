"""Experiments regenerating the paper's figures (Fig 4 through Fig 11)."""

from __future__ import annotations

import io

import numpy as np

from ..memsim import PLATFORMS
from ..runtime import AccessMap, format_text, overlap
from ..workloads.lulesh import VARIANTS, Lulesh
from ..workloads.rodinia import OverlappedPathfinder, Pathfinder
from ..workloads.smithwaterman import RotatedSmithWaterman, SmithWaterman

from .base import ExperimentResult, experiment

__all__ = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]

#: The paper's Smith-Waterman input lengths and its 16 GB-class GPU.
SW_PAPER_SIZES = (5000, 25000, 45000, 46000)
SW_PAPER_GPU_MEMORY = 16.6e9


def sw_scaled(scale: int) -> tuple[tuple[int, ...], int]:
    """Paper SW sizes scaled by ``1/scale`` with GPU memory scaled by
    ``1/scale^2`` (matrix areas scale quadratically), so the 45000->46000
    oversubscription crossover lands in the same place."""
    sizes = tuple(s // scale for s in SW_PAPER_SIZES)
    return sizes, int(SW_PAPER_GPU_MEMORY / scale ** 2)


@experiment("fig4", "LULESH 2: partial XPlacer output after the second iteration")
def fig4(result: ExperimentResult, *, make_session,
         size: int = 8) -> ExperimentResult:
    """Diagnostic table for ``dom`` and ``(dom)->m_p``, Fig 4 layout."""
    session = make_session("intel-pascal", trace=True, materialize=True)
    app = Lulesh(session, size, diagnose_each_step=True)
    run = app.run(2)
    diag = run.diagnoses[1].result
    out = io.StringIO()
    out.write(f"*** checking {len(diag.reports)} named allocations\n")
    shown = [r for r in diag.reports if r.name in ("dom", "(dom)->m_p")]
    sub = type(diag)(epoch=diag.epoch, reports=shown)
    out.write(format_text(sub).split("\n", 1)[1])
    out.write(f"[{len(diag.reports) - len(shown)} more entries omitted]\n")
    for r in shown:
        c = r.counts
        result.rows.append({
            "name": r.name, "C": c.cpu_written, "G": c.gpu_written,
            "C>C": c.read_cc, "C>G": c.read_cg, "G>C": c.read_gc,
            "G>G": c.read_gg, "density_pct": r.density_pct,
            "alternating": r.alternating,
        })
    result.text = out.getvalue()
    return result


@experiment("fig5", "LULESH 2: access maps of the domain object")
def fig5(result: ExperimentResult, *, make_session, size: int = 8,
         width: int = 72) -> ExperimentResult:
    """Six maps: CPU writes/reads and GPU reads, init+iter1 vs iter2."""
    session = make_session("intel-pascal", trace=True, materialize=True)
    app = Lulesh(session, size, diagnose_each_step=True)
    run = app.run(2)
    out = io.StringIO()
    panels = (("a", 0, "cpu_write", "CPU writes"),
              ("b", 0, "cpu_read", "CPU reads"),
              ("c", 0, "gpu_read", "GPU reads"),
              ("d", 1, "cpu_write", "CPU writes"),
              ("e", 1, "cpu_read", "CPU reads"),
              ("f", 1, "gpu_read", "GPU reads"))
    for tag, epoch, cat, label in panels:
        report = run.diagnoses[epoch].result.named("dom")
        amap = report.maps[cat]
        phase = "init + iteration 1" if epoch == 0 else "iteration 2"
        out.write(f"(5{tag}) dom {label} -- {phase} "
                  f"({amap.touched}/{amap.words} words)\n")
        out.write(amap.to_ascii(width) + "\n\n")
        result.rows.append({"panel": tag, "epoch": epoch, "category": cat,
                            "touched": amap.touched, "words": amap.words})
    # The Fig 5e/5f story: where GPU reads overlap CPU writes in steady state.
    rep = run.diagnoses[1].result.named("dom")
    both = overlap(rep.maps["cpu_write"], rep.maps["gpu_read"])
    out.write(f"overlap of CPU writes and GPU reads in iteration 2: "
              f"{both.touched} words (the temporary-pointer slots)\n")
    result.rows.append({"panel": "overlap", "epoch": 1,
                        "category": "cpu_write&gpu_read",
                        "touched": both.touched, "words": both.words})
    result.text = out.getvalue()
    return result


@experiment("fig6", "LULESH 2: speedup over the baseline (3 platforms x 4 remedies)")
def fig6(result: ExperimentResult, *, make_session,
         sizes=(8, 16, 32, 48), iterations: int = 16) -> ExperimentResult:
    """Remedy speedups per platform and problem size."""
    out = io.StringIO()
    out.write(f"{'platform':14s}{'size':>5s}{'baseline':>11s}"
              + "".join(f"{v:>14s}" for v in VARIANTS[1:]) + "\n")
    for plat in PLATFORMS:
        for size in sizes:
            times = {}
            for variant in VARIANTS:
                session = make_session(plat, trace=False, materialize=False)
                run = Lulesh(session, size, variant=variant).run(iterations)
                times[variant] = run.sim_time
            base = times["baseline"]
            row = {"platform": plat, "size": size, "baseline_s": base}
            row.update({v: base / times[v] for v in VARIANTS[1:]})
            result.rows.append(row)
            out.write(f"{plat:14s}{size:5d}{base:10.4f}s"
                      + "".join(f"{base / times[v]:13.2f}x" for v in VARIANTS[1:])
                      + "\n")
    result.text = out.getvalue()
    return result


@experiment("fig7", "Smith-Waterman 20x10: H initialization vs actually-used boundary")
def fig7(result: ExperimentResult, *, make_session) -> ExperimentResult:
    """CPU writes the whole matrix; only boundary zeroes are ever read."""
    from ..analysis import diagnose
    session = make_session("intel-pascal", trace=True, materialize=True)
    sw = SmithWaterman(session, 20, 10)
    sw.run()
    diag = diagnose(session.tracer, sw.descriptors())
    h = diag.result.named("H")
    w = sw.geom.width
    out = io.StringIO()
    cpu_init = AccessMap("H", "cpu_write", h.maps["cpu_write"].mask[: (sw.n + 1) * w])
    used = AccessMap("H", "gpu_read_cpu_origin",
                     h.maps["gpu_read_cpu_origin"].mask[: (sw.n + 1) * w])
    out.write(f"(7a) H values written by the CPU "
              f"({cpu_init.touched}/{cpu_init.words} words)\n")
    out.write(cpu_init.to_ascii(w) + "\n\n")
    out.write(f"(7b) initial values actually read by the GPU "
              f"({used.touched}/{used.words} words -- the boundary)\n")
    out.write(used.to_ascii(w) + "\n")
    result.rows.append({"panel": "a", "touched": cpu_init.touched,
                        "words": cpu_init.words})
    result.rows.append({"panel": "b", "touched": used.touched,
                        "words": used.words})
    result.text = out.getvalue()
    return result


@experiment("fig8", "Smith-Waterman 20x10: GPU accesses to H in iteration 8")
def fig8(result: ExperimentResult, *, make_session) -> ExperimentResult:
    """GPU writes diag 8; reads GPU values of diags 6 and 7."""
    session = make_session("intel-pascal", trace=True, materialize=True)
    sw = SmithWaterman(session, 20, 10, diagnose_each_iteration=True)
    run = sw.run()
    diag = run.diagnoses[6]  # wavefront k = 8
    h = diag.result.named("H")
    w = sw.geom.width
    out = io.StringIO()
    for tag, cat, label in (("a", "gpu_write", "values written by the GPU"),
                            ("b", "gpu_read_gpu_origin",
                             "values read (produced by the GPU in the "
                             "previous two iterations)")):
        amap = AccessMap("H", cat, h.maps[cat].mask[: (sw.n + 1) * w])
        out.write(f"(8{tag}) {label} ({amap.touched} words)\n")
        out.write(amap.to_ascii(w) + "\n\n")
        diags = {int(off // w) + int(off % w)
                 for off in np.flatnonzero(amap.mask)}
        result.rows.append({"panel": tag, "touched": amap.touched,
                            "diagonals": sorted(diags)})
    result.text = out.getvalue()
    return result


@experiment("fig9", "Smith-Waterman: speedup of the rotated version")
def fig9(result: ExperimentResult, *, make_session,
         scale: int = 10) -> ExperimentResult:
    """Rotated-vs-baseline across sizes, including the oversubscribed one.

    Sizes are the paper's 5000/25000/45000/46000 scaled by ``1/scale``,
    with GPU memory scaled by ``1/scale^2`` (areas scale quadratically),
    so the largest input exceeds simulated GPU memory as in the paper.
    """
    sizes, gpu_memory = sw_scaled(scale)
    out = io.StringIO()
    out.write(f"sizes {sizes} = paper sizes / {scale}; "
              f"GPU memory {gpu_memory / 1e6:.0f} MB = 16.6 GB / {scale}^2\n")
    out.write(f"{'platform':14s}{'n':>7s}{'baseline':>12s}{'rotated':>12s}"
              f"{'speedup':>9s}\n")
    for plat in ("intel-pascal", "power9-volta"):
        preferred = plat == "intel-pascal"  # paper's per-platform choice
        for n in sizes:
            sb = make_session(plat, trace=False, materialize=False,
                              gpu_memory_bytes=gpu_memory)
            base = SmithWaterman(sb, n).run()
            so = make_session(plat, trace=False, materialize=False,
                              gpu_memory_bytes=gpu_memory)
            opt = RotatedSmithWaterman(so, n, set_preferred_gpu=preferred).run()
            speedup = base.sim_time / opt.sim_time
            result.rows.append({
                "platform": plat, "n": n,
                "baseline_ms": base.sim_time * 1e3,
                "rotated_ms": opt.sim_time * 1e3,
                "speedup": speedup,
                "baseline_fault_groups": base.stats["fault_groups"],
                "oversubscribed": n == sizes[-1],
            })
            out.write(f"{plat:14s}{n:7d}{base.sim_time * 1e3:10.1f}ms"
                      f"{opt.sim_time * 1e3:10.1f}ms{speedup:8.2f}x\n")
    result.text = out.getvalue()
    return result


@experiment("fig10", "Pathfinder: gpuWall access maps")
def fig10(result: ExperimentResult, *, make_session, cols: int = 2048,
          rows: int = 26, pyramid_height: int = 5,
          width: int = 64) -> ExperimentResult:
    """Copied-in wall; iterations 1, 2 and 5 read one fifth each."""
    session = make_session("intel-pascal", trace=True, materialize=True)
    pf = Pathfinder(session, cols=cols, rows=rows,
                    pyramid_height=pyramid_height,
                    diagnose_each_iteration=True)
    run = pf.run()
    out = io.StringIO()
    copied = run.diagnoses[0].result.named("gpuWall").maps["cpu_write"]
    out.write(f"(10a) gpuWall initialized by the CPU and copied to the GPU "
              f"({copied.touched}/{copied.words} words)\n")
    out.write(copied.to_ascii(width) + "\n\n")
    result.rows.append({"panel": "a", "touched": copied.touched,
                        "words": copied.words})
    for tag, it in (("b", 1), ("c", 2), ("d", 5)):
        amap = run.diagnoses[it - 1].result.named("gpuWall").maps["gpu_read"]
        pct = 100.0 * amap.touched / amap.words
        out.write(f"(10{tag}) GPU reads, iteration {it} "
                  f"({pct:.0f}% of the array)\n")
        out.write(amap.to_ascii(width) + "\n\n")
        result.rows.append({"panel": tag, "iteration": it,
                            "touched": amap.touched, "words": amap.words,
                            "pct": pct})
    result.text = out.getvalue()
    return result


@experiment("fig11", "Pathfinder: speedup of the overlapped-transfer version")
def fig11(result: ExperimentResult, *, make_session, cols: int = 1_000_000,
          rows=(200, 600, 1000), pyramid_height: int = 20) -> ExperimentResult:
    """Overlap wins on PCIe, loses on the Power9 node."""
    out = io.StringIO()
    out.write(f"{'platform':14s}{'rows':>6s}{'baseline':>12s}{'overlap':>12s}"
              f"{'speedup':>9s}\n")
    for plat in ("intel-pascal", "power9-volta"):
        for r in rows:
            s1 = make_session(plat, trace=False, materialize=False)
            base = Pathfinder(s1, cols=cols, rows=r,
                              pyramid_height=pyramid_height).run()
            s2 = make_session(plat, trace=False, materialize=False)
            opt = OverlappedPathfinder(s2, cols=cols, rows=r,
                                       pyramid_height=pyramid_height).run()
            speedup = base.sim_time / opt.sim_time
            result.rows.append({"platform": plat, "rows": r,
                                "baseline_ms": base.sim_time * 1e3,
                                "overlap_ms": opt.sim_time * 1e3,
                                "speedup": speedup})
            out.write(f"{plat:14s}{r:6d}{base.sim_time * 1e3:10.1f}ms"
                      f"{opt.sim_time * 1e3:10.1f}ms{speedup:8.3f}x\n")
    result.text = out.getvalue()
    return result
