"""The diagnostic pass: ``tracePrint`` (paper §III-C/D and Fig 4).

Invoked wherever the user placed ``#pragma xpl diagnostic`` (Python
workloads just call :func:`trace_print`).  It walks the shadow memory
table (live blocks plus the graveyard of allocations freed since the last
diagnostic), extracts the Fig 4 counters for each named allocation, runs
the anti-pattern analyses, optionally snapshots access maps for figures,
then resets the epoch.

Each block's counters -- the Fig 4 columns and the alternating-word
count alike -- come from a single :meth:`ShadowBlock.counts` call, one
histogram pass over the block's nonzero shadow bytes.

Access maps are views of one read-only copy of the block's shadow bytes
(one byte per word, as in Fig 3): :class:`ShadowMaps` builds a
category's boolean mask only when that category is looked up.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Iterator, Sequence

import numpy as np

from ..memsim import Allocation, MemoryKind

from .access_map import AccessMap
from .alloc_data import XplAllocData
from .shadow import CATEGORY_BITS, AccessCounts, ShadowBlock
from .tracer import Tracer

__all__ = ["AllocationReport", "DiagnosticResult", "ShadowMaps",
           "trace_print"]

#: Default low-access-density threshold (paper: "e.g., 50%").
DENSITY_THRESHOLD = 0.5

#: ``AllocationReport.maps`` of a diagnostic taken without maps.
_NO_MAPS: Mapping[str, AccessMap] = MappingProxyType({})


class ShadowMaps(Mapping[str, AccessMap]):
    """Read-only ``category -> AccessMap`` view of one shadow snapshot.

    Keys are the :data:`~repro.runtime.shadow.CATEGORY_BITS` categories,
    in that order; each lookup builds the category's mask afresh from the
    snapshot, so the report keeps one byte per word however many maps a
    figure or detector reads.
    """

    __slots__ = ("_name", "_shadow")

    def __init__(self, name: str, shadow: np.ndarray) -> None:
        self._name = name
        self._shadow = shadow

    def __getitem__(self, category: str) -> AccessMap:
        return AccessMap(self._name, category,
                         (self._shadow & CATEGORY_BITS[category]) != 0)

    def __contains__(self, category: object) -> bool:
        return category in CATEGORY_BITS

    def __iter__(self) -> Iterator[str]:
        return iter(CATEGORY_BITS)

    def __len__(self) -> int:
        return len(CATEGORY_BITS)


@dataclass(frozen=True)
class AllocationReport:
    """Per-allocation diagnostic record (one Fig 4 table block)."""

    name: str
    alloc: Allocation
    counts: AccessCounts
    alternating: int
    freed: bool
    #: Per-category access maps (:class:`ShadowMaps`), or empty when the
    #: diagnostic ran without ``include_maps``.
    maps: Mapping[str, AccessMap] = field(default_factory=dict)
    #: Top ``(site label, word-access count)`` pairs for this epoch, when
    #: the tracer carries a heat store (empty otherwise).
    hot_sites: tuple[tuple[str, int], ...] = ()

    @property
    def density_pct(self) -> int:
        """Access density in percent, floored like the paper's output."""
        return int(self.counts.density * 100)

    @property
    def touched(self) -> bool:
        """Whether anything accessed this allocation during the epoch."""
        return self.counts.accessed_words > 0


@dataclass
class DiagnosticResult:
    """Everything one diagnostic call produced."""

    epoch: int
    reports: list[AllocationReport]

    def __iter__(self):
        return iter(self.reports)

    def named(self, name: str) -> AllocationReport:
        """Report for allocation ``name`` (exact match)."""
        for r in self.reports:
            if r.name == name:
                return r
        raise KeyError(name)


def _report_block(block: ShadowBlock, name: str, *, include_maps: bool,
                  heat=None) -> AllocationReport:
    maps = _NO_MAPS
    if include_maps:
        snapshot = block.shadow.copy()
        snapshot.flags.writeable = False
        maps = ShadowMaps(name, snapshot)
    hot_sites: tuple[tuple[str, int], ...] = ()
    if heat is not None:
        alloc_heat = heat.peek(block.alloc)
        if alloc_heat is not None:
            hot_sites = tuple((site.label, n) for site, n
                              in alloc_heat.current_top_sites(3))
    counts = block.counts()
    return AllocationReport(
        name=name,
        alloc=block.alloc,
        counts=counts,
        alternating=counts.alternating,
        freed=block.freed_epoch is not None,
        maps=maps,
        hot_sites=hot_sites,
    )


def trace_print(
    tracer: Tracer,
    descriptors: Sequence[XplAllocData] | None = None,
    out: IO[str] | None = None,
    *,
    include_maps: bool = False,
    include_unnamed: bool = False,
    reset: bool = True,
) -> DiagnosticResult:
    """Analyze recorded accesses and (optionally) print a Fig 4-style report.

    :param descriptors: ``XplAllocData`` records naming allocations (from
        :func:`~repro.runtime.alloc_data.expand_object`); ``None`` reports
        every traced allocation under its label.
    :param out: stream for the textual report; ``None`` suppresses output
        (the structured :class:`DiagnosticResult` is always returned).
    :param include_maps: snapshot per-category access maps before reset.
    :param include_unnamed: with descriptors, also report allocations that
        no descriptor names.
    :param reset: close the epoch afterwards (paper behaviour).  Figures
        that need cumulative maps pass ``False``.
    """
    from .report import format_text  # local import to avoid a cycle

    tracer.flush_trace()  # apply any pending coalesced interval first
    blocks = tracer.smt.live_and_dead()
    by_base = {b.alloc.base: b for b in blocks}

    reports: list[AllocationReport] = []
    claimed: set[int] = set()
    if descriptors is not None:
        for desc in descriptors:
            block = by_base.get(desc.alloc.base if desc.alloc else desc.addr)
            if block is None:
                block = tracer.smt.lookup(desc.addr)
            if block is None:
                continue
            reports.append(_report_block(block, desc.name,
                                         include_maps=include_maps,
                                         heat=tracer.heat))
            claimed.add(block.alloc.base)
    if descriptors is None or include_unnamed:
        for block in blocks:
            if block.alloc.base in claimed:
                continue
            label = block.alloc.label or f"alloc@{block.alloc.base:#x}"
            reports.append(_report_block(block, label,
                                         include_maps=include_maps,
                                         heat=tracer.heat))

    result = DiagnosticResult(epoch=tracer.epoch, reports=reports)
    for hook in tuple(tracer.diagnostic_hooks):
        hook(result)
    if out is not None:
        out.write(format_text(result))
    if reset:
        tracer.advance_epoch()
    return result
