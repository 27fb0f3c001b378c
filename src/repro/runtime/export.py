"""Raw-data exports: CSV series.

The paper: "XPlacer can produce output in the form of a textual summary
or in form of raw comma-separated files for further processing (e.g., to
produce a graphical output)."  This module provides the CSV half:
multi-epoch diagnostics, transfers and kernel launches.
"""

from __future__ import annotations

import io
from typing import Sequence

from .diagnostics import DiagnosticResult
from .tracer import Tracer

__all__ = [
    "epochs_to_csv",
    "transfers_to_csv",
    "kernels_to_csv",
]


def epochs_to_csv(results: Sequence[DiagnosticResult]) -> str:
    """Multi-epoch diagnostic series, one row per (epoch, allocation)."""
    out = io.StringIO()
    out.write("epoch,name,size_bytes,kind,freed,"
              "cpu_writes,gpu_writes,read_cc,read_cg,read_gc,read_gg,"
              "accessed_words,total_words,density_pct,alternating\n")
    for result in results:
        for r in result.reports:
            c = r.counts
            out.write(
                f"{result.epoch},{r.name},{r.alloc.size},{r.alloc.kind.value},"
                f"{int(r.freed)},{c.cpu_written},{c.gpu_written},"
                f"{c.read_cc},{c.read_cg},{c.read_gc},{c.read_gg},"
                f"{c.accessed_words},{c.total_words},{r.density_pct},"
                f"{r.alternating}\n"
            )
    return out.getvalue()


def transfers_to_csv(tracer: Tracer) -> str:
    """Explicit-transfer log: one row per recorded ``cudaMemcpy`` leg."""
    out = io.StringIO()
    out.write("epoch,allocation,offset,bytes,direction\n")
    for t in tracer.transfers:
        out.write(f"{t.epoch},{t.alloc.label or hex(t.alloc.base)},"
                  f"{t.offset},{t.nbytes},{t.direction}\n")
    return out.getvalue()


def kernels_to_csv(tracer: Tracer) -> str:
    """Kernel-launch log: one row per launch."""
    out = io.StringIO()
    out.write("epoch,kernel,grid,block\n")
    for k in tracer.kernels:
        out.write(f"{k.epoch},{k.name},{k.grid},{k.block}\n")
    return out.getvalue()
