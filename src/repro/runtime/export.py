"""Raw-data exports: CSV series and SVG access maps.

The paper: "XPlacer can produce output in the form of a textual summary
or in form of raw comma-separated files for further processing (e.g., to
produce a graphical output)."  This module provides both halves: CSV
exports of multi-epoch diagnostics, transfers and kernel launches, and a
dependency-free SVG renderer for access maps (the graphical form of the
paper's Figs 5, 7, 8 and 10).
"""

from __future__ import annotations

import io
from typing import Sequence

from .access_map import AccessMap
from .diagnostics import DiagnosticResult
from .tracer import Tracer

__all__ = [
    "epochs_to_csv",
    "transfers_to_csv",
    "kernels_to_csv",
    "access_maps_to_svg",
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


#: Fill colours per map category (accessible, colour-blind-safe-ish).
_CATEGORY_COLORS = {
    "cpu_write": "#1f77b4",
    "gpu_write": "#d62728",
    "cpu_read": "#17becf",
    "gpu_read": "#ff7f0e",
    "gpu_read_cpu_origin": "#9467bd",
    "gpu_read_gpu_origin": "#8c564b",
    "cpu_read_gpu_origin": "#2ca02c",
    "accessed": "#444444",
}
#: SVG cell edge and vertical gap between panels, in pixels.
_CELL = 6
_GAP = 24


def access_maps_to_svg(
    maps: Sequence[AccessMap],
    *,
    width: int = 64,
) -> str:
    """Render access maps as a standalone SVG document.

    Each map becomes a labelled grid panel (one cell per traced word,
    Fig 5/7/8/10 style); untouched words are light grey.

    :param width: words per grid row.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    panels = []
    y = _GAP
    max_w = 0
    for amap in maps:
        grid = amap.as_grid(width)
        rows, cols = grid.shape
        color = _CATEGORY_COLORS.get(amap.category, "#333333")
        label = (f"{amap.name} — {amap.category} "
                 f"({amap.touched}/{amap.words} words)")
        body = [f'<text x="0" y="{y - 6}" font-family="monospace" '
                f'font-size="12">{label}</text>']
        # Emit one rect per contiguous run per row (compact output).
        for r in range(rows):
            row = grid[r]
            c = 0
            while c < cols:
                if row[c]:
                    start = c
                    while c < cols and row[c]:
                        c += 1
                    body.append(
                        f'<rect x="{start * _CELL}" y="{y + r * _CELL}" '
                        f'width="{(c - start) * _CELL}" height="{_CELL}" '
                        f'fill="{color}"/>'
                    )
                else:
                    c += 1
        body.insert(1, f'<rect x="0" y="{y}" width="{cols * _CELL}" '
                       f'height="{rows * _CELL}" fill="#eeeeee" '
                       f'stroke="#999999" stroke-width="0.5"/>')
        # Keep background behind the runs: background first, runs after.
        background = body.pop(1)
        panels.append(body[0] + background + "".join(body[1:]))
        y += rows * _CELL + _GAP
        max_w = max(max_w, cols * _CELL)
    svg = io.StringIO()
    svg.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
              f'width="{max_w + 2}" height="{y}">')
    for p in panels:
        svg.write(p)
    svg.write("</svg>")
    return svg.getvalue()
