"""Spatter pattern sweep: access density and movement vs pattern shape.

Not a figure from the XPlacer paper -- a companion experiment driving the
tracer with Spatter-style gather/scatter specs (Lavin et al.), showing
how shadow-map density and unified-memory traffic degrade as patterns go
from unit stride through large strides to full indirection.
"""

from __future__ import annotations

from ..workloads.spatter import (
    SpatterWorkload,
    indirection,
    mostly_stride_1,
    uniform_stride,
)
from .base import ExperimentResult, experiment

__all__ = ["spatter_sweep"]


def _specs():
    return [
        uniform_stride(1, length=16, count=32),
        uniform_stride(8, length=16, count=32),
        uniform_stride(64, length=16, count=32),
        mostly_stride_1(length=16, jump=256, count=32),
        indirection(length=128, spread=32768),
    ]


@experiment("spatter", "Spatter gather/scatter pattern sweep")
def spatter_sweep(result: ExperimentResult, *, make_session,
                  platform: str = "intel-pascal") -> ExperimentResult:
    lines = [f"{'pattern':<14} {'n/kernel':>8} {'density':>8} "
             f"{'faults':>7} {'pages':>6} {'sim_time':>10}"]
    for spec in _specs():
        session = make_session(platform)
        run = SpatterWorkload(session, spec).run()
        s = run.stats
        row = {
            "pattern": spec.name,
            "kind": spec.kind,
            "indirect": spec.indirect,
            "accesses_per_kernel": int(s["accesses_per_kernel"]),
            "footprint_density": round(float(s["footprint_density"]), 4),
            "fault_groups": int(s.get("fault_groups", 0)),
            "migrated_pages": int(s.get("migrated_pages", 0)),
            "sim_time": run.sim_time,
        }
        result.rows.append(row)
        lines.append(f"{row['pattern']:<14} {row['accesses_per_kernel']:>8} "
                     f"{row['footprint_density']:>8.4f} "
                     f"{row['fault_groups']:>7} {row['migrated_pages']:>6} "
                     f"{run.sim_time:>10.6f}")

    # Cross-family signature similarity: each pattern family re-run under
    # heat tracing, fingerprinted, and compared pairwise.  Same family ->
    # ~1.0 on the diagonal; different families separate well below the
    # repro-sig match threshold.
    from ..analysis import diagnose
    from ..heatmap.store import HeatStore
    from ..signature.vector import run_similarity, signature_from_store

    sigs = []
    for spec in _specs():
        session = make_session(platform, trace=True)
        session.tracer.heat = HeatStore(nbuckets=64, attribute=False)
        SpatterWorkload(session, spec).run()
        diagnose(session.tracer, include_unnamed=True)
        session.tracer.heat.flush_current()
        sigs.append((spec.name, signature_from_store(
            session.tracer.heat, workload=f"spatter-{spec.name}",
            platform=platform)))
    lines.append("")
    lines.append("access-pattern signature similarity (cosine):")
    lines.append(f"{'':<14}" + "".join(f"{name:>14}" for name, _ in sigs))
    for name_a, sig_a in sigs:
        cells = []
        sim_row = {"pattern": name_a, "similarity": {}}
        for name_b, sig_b in sigs:
            sim = run_similarity(sig_a, sig_b)["similarity"]
            sim_row["similarity"][name_b] = sim
            cells.append(f"{sim:>14.4f}")
        result.rows.append(sim_row)
        lines.append(f"{name_a:<14}" + "".join(cells))
    result.text = "\n".join(lines) + "\n"
    return result
