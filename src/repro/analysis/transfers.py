"""Detector: unnecessary data transfers (§III-A #3, refined per Table II).

Operates on ``cudaMalloc`` allocations and the explicit-transfer records
the tracer collected from ``cudaMemcpy``:

* **transfer in, never accessed** -- a contiguous chunk of an H2D transfer
  that the GPU never touched (Pathfinder's ``gpuWall`` per-iteration view,
  Backprop's over-wide copies);
* **transfer in, overwritten before use** -- the GPU wrote the words but
  never read the CPU-origin values, so the initial transfer carried dead
  data (Gaussian's ``m_cuda``);
* **transfer out, unmodified** -- a D2H transfer of words the GPU never
  wrote (Backprop's ``input_cuda`` round trip, LUD's first row);
* **unused allocation** -- never accessed at all this epoch (Backprop's
  ``output_hidden_cuda``).

The minimum contiguous block size is parametrizable, per the paper.
"""

from __future__ import annotations

import numpy as np

from ..memsim import MemoryKind
from ..runtime import flags as F
from ..runtime.diagnostics import AllocationReport, DiagnosticResult
from ..runtime.tracer import Tracer, TransferRecord

from .patterns import AntiPattern, Finding, remedies_for

__all__ = ["detect_unnecessary_transfers"]


def _runs(mask: np.ndarray, min_words: int) -> list[tuple[int, int]]:
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [len(idx)]))
    return [
        (int(idx[a]), int(idx[b - 1]) + 1)
        for a, b in zip(starts, stops)
        if idx[b - 1] + 1 - idx[a] >= min_words
    ]


def _transfer_mask(report: AllocationReport, transfers: list[TransferRecord],
                   direction: str) -> np.ndarray:
    mask = np.zeros(report.counts.total_words, dtype=bool)
    for t in transfers:
        if t.direction != direction or t.alloc.base != report.alloc.base:
            continue
        lo = t.offset // F.WORD_SIZE
        hi = (t.offset + t.nbytes - 1) // F.WORD_SIZE + 1
        mask[lo:hi] = True
    return mask


def detect_unnecessary_transfers(
    result: DiagnosticResult,
    tracer: Tracer,
    *,
    min_block_words: int = 16,
) -> list[Finding]:
    """Findings for wasted explicit transfers (needs ``include_maps=True``)."""
    findings: list[Finding] = []
    transfers = [t for t in tracer.transfers if t.epoch == result.epoch]
    for report in result.reports:
        if report.alloc.kind is not MemoryKind.DEVICE:
            continue
        if not report.maps:
            raise ValueError(
                "transfer analysis needs trace_print(include_maps=True)"
            )

        if not report.touched:
            findings.append(Finding(
                pattern=AntiPattern.UNUSED_ALLOCATION,
                name=report.name,
                alloc=report.alloc,
                metric=float(report.alloc.size),
                detail=f"{report.alloc.size} bytes allocated but never accessed",
                remedies=remedies_for(AntiPattern.UNUSED_ALLOCATION),
                epoch=result.epoch,
            ))
            continue

        gpu_write = report.maps["gpu_write"].mask
        gpu_read_cpu_origin = report.maps["gpu_read_cpu_origin"].mask
        gpu_read = report.maps["gpu_read"].mask
        gpu_touched = gpu_write | gpu_read

        h2d = _transfer_mask(report, transfers, "H2D")
        d2h = _transfer_mask(report, transfers, "D2H")

        cases = (
            (AntiPattern.UNNECESSARY_TRANSFER_IN,
             h2d & ~gpu_touched,
             "copied to the GPU but never accessed there"),
            (AntiPattern.TRANSFER_OVERWRITTEN,
             h2d & gpu_write & ~gpu_read_cpu_origin,
             "copied to the GPU, then overwritten before any read of the "
             "transferred values"),
            (AntiPattern.UNNECESSARY_TRANSFER_OUT,
             d2h & ~gpu_write,
             "copied back to the CPU although the GPU never wrote them"),
        )
        for pattern, mask, what in cases:
            runs = _runs(mask, min_block_words)
            if not runs:
                continue
            nbytes = sum(hi - lo for lo, hi in runs) * F.WORD_SIZE
            where = ", ".join(f"[{lo},{hi})" for lo, hi in runs[:4])
            if len(runs) > 4:
                where += f", ... ({len(runs)} ranges)"
            findings.append(Finding(
                pattern=pattern,
                name=report.name,
                alloc=report.alloc,
                metric=float(nbytes),
                detail=f"words {where} ({nbytes} bytes) were {what}",
                remedies=remedies_for(pattern),
                epoch=result.epoch,
                ranges=tuple(runs),
            ))
    return findings
