"""Textual rendering of diagnostic results.

:func:`format_text` reproduces the layout of the paper's Fig 4:

.. code-block:: text

    *** checking 50 named allocations
    dom
    write counts                    write>read counts
         C        G        C>C      C>G      G>C      G>G
        27        0        680        4        0        0
    access density (in %): 9
    18 elements with alternating accesses

The paper's second output form, "raw comma-separated files for further
processing", is :func:`repro.runtime.export.epochs_to_csv`.
"""

from __future__ import annotations

import io

from .diagnostics import AllocationReport, DiagnosticResult

__all__ = ["format_text"]

_COLS = ("C", "G", "C>C", "C>G", "G>C", "G>G")


def _count_row(r: AllocationReport) -> tuple[int, int, int, int, int, int]:
    c = r.counts
    return (c.cpu_written, c.gpu_written, c.read_cc, c.read_cg, c.read_gc, c.read_gg)


def format_text(result: DiagnosticResult) -> str:
    """Fig 4-style report for every allocation in ``result``."""
    out = io.StringIO()
    out.write(f"*** checking {len(result.reports)} named allocations\n")
    for r in result.reports:
        name = r.name + (" (freed)" if r.freed else "")
        out.write(f"{name}\n")
        out.write("write counts                    write>read counts\n")
        out.write("".join(f"{c:>9}" for c in _COLS) + "\n")
        out.write("".join(f"{v:>9}" for v in _count_row(r)) + "\n")
        out.write(f"access density (in %): {r.density_pct}\n")
        out.write(f"{r.alternating} elements with alternating accesses\n")
        if r.hot_sites:
            sites = ", ".join(f"{label} x{n}" for label, n in r.hot_sites)
            out.write(f"hot sites: {sites}\n")
        out.write("\n")
    return out.getvalue()
