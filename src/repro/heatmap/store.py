"""The heat store: per-epoch access counts at word-bucket granularity.

One :class:`AllocationHeat` tracks one allocation.  Words are folded into
at most ``nbuckets`` equal-width buckets so the store's footprint is
independent of allocation size; within an epoch the store accumulates a
``(4, nbuckets)`` int64 matrix -- one row per channel (CPU read, CPU
write, GPU read, GPU write) -- plus a per-source-site bucket vector so
hot regions can name the code that made them hot.  A diagnostic epoch
reset (:meth:`HeatStore.advance_epoch`) freezes the accumulator into an
:class:`EpochHeat` snapshot; the sequence of snapshots is the temporal
heatmap the renderers draw.

All bucket updates are O(nbuckets) or O(len(indices)) numpy operations --
no per-word Python loops, matching the shadow-memory discipline.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..memsim import Allocation, Processor

__all__ = [
    "CHANNELS",
    "AllocationHeat",
    "EpochHeat",
    "HeatStore",
    "SourceSite",
    "OTHER_SITE",
]

#: Bytes per traced word (mirrors :data:`repro.runtime.flags.WORD_SIZE`;
#: duplicated here so the store never imports the runtime package).
WORD_SIZE = 4

#: Channel order of every ``counts`` matrix row.
CHANNELS = ("cpu_read", "cpu_write", "gpu_read", "gpu_write")


@dataclass(frozen=True, order=True)
class SourceSite:
    """One attributed call site (``file:line``, optionally a function)."""

    file: str
    line: int
    func: str = ""

    @property
    def label(self) -> str:
        """``file:line`` (plus the function when known)."""
        base = f"{self.file}:{self.line}" if self.line else self.file
        return f"{base} ({self.func})" if self.func else base


#: Bucket for sites beyond an allocation's ``max_sites`` budget.
OTHER_SITE = SourceSite("<other>", 0)


def _channel(proc: Processor, is_write: bool) -> int:
    gpu = proc is Processor.GPU
    return (2 if gpu else 0) + (1 if is_write else 0)


@dataclass(frozen=True)
class EpochHeat:
    """Frozen heat of one allocation over one closed epoch."""

    epoch: int
    counts: np.ndarray  #: ``(4, nbuckets)`` int64, rows per :data:`CHANNELS`
    sites: dict[SourceSite, np.ndarray] = field(default_factory=dict)

    @property
    def heat(self) -> np.ndarray:
        """Combined heat per bucket (all channels summed)."""
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        """Total word-accesses recorded this epoch."""
        return int(self.counts.sum())

    def channel(self, name: str) -> np.ndarray:
        """One channel's bucket vector by :data:`CHANNELS` name."""
        return self.counts[CHANNELS.index(name)]

    def top_sites(self, k: int = 5, lo: int = 0,
                  hi: int | None = None) -> list[tuple[SourceSite, int]]:
        """Top contributing sites over buckets ``[lo, hi)``."""
        totals = [(site, int(vec[lo:hi].sum())) for site, vec in self.sites.items()]
        totals = [(s, n) for s, n in totals if n > 0]
        totals.sort(key=lambda sn: (-sn[1], sn[0]))
        return totals[:k]

    def bucket_top_sites(self) -> tuple[list, np.ndarray, np.ndarray]:
        """Every bucket's top site as ``(sorted sites, index, count)``.

        Ties go to the smallest site; unattributed buckets get index -1.
        """
        sites = sorted(self.sites)
        # A leading zero row wins argmax only where no site has heat.
        stacked = np.array([np.zeros_like(self.counts[0])]
                           + [self.sites[s] for s in sites])
        return sites, stacked.argmax(axis=0) - 1, stacked.max(axis=0)


class AllocationHeat:
    """Heat history of one allocation (open accumulator + closed epochs)."""

    __slots__ = ("label", "base", "serial", "size", "nwords", "nbuckets",
                 "max_sites", "epochs", "_counts", "_sites",
                 "_starts", "_ends")

    def __init__(self, alloc: Allocation, *, nbuckets: int = 64,
                 max_sites: int = 32) -> None:
        self._init(alloc.label or f"alloc@{alloc.base:#x}", alloc.base,
                   alloc.serial, alloc.size, nbuckets, max_sites)

    @classmethod
    def from_meta(cls, label: str, base: int, serial: int, size: int, *,
                  nbuckets: int = 64,
                  max_sites: int = 32) -> "AllocationHeat":
        """Rebuild a record from serialized geometry (no live allocation).

        Used when reconstituting heat from on-disk stream segments
        (:mod:`repro.stream`): bucket geometry is a pure function of
        ``size`` and ``nbuckets``, so a rebuilt record bins identically
        to the live one it mirrors.
        """
        self = cls.__new__(cls)
        self._init(label, base, serial, size, nbuckets, max_sites)
        return self

    def _init(self, label: str, base: int, serial: int, size: int,
              nbuckets: int, max_sites: int) -> None:
        self.label = label
        self.base = base
        self.serial = serial
        self.size = size
        self.nwords = max(1, -(-size // WORD_SIZE))
        self.nbuckets = max(1, min(nbuckets, self.nwords))
        self.max_sites = max_sites
        self.epochs: list[EpochHeat] = []
        self._counts = np.zeros((len(CHANNELS), self.nbuckets), np.int64)
        self._sites: dict[SourceSite, np.ndarray] = {}
        # Fair-division bucket boundaries: bucket b covers words
        # [starts[b], ends[b]) with starts[b] = b*nwords//nbuckets.
        b = np.arange(self.nbuckets + 1, dtype=np.int64)
        bounds = (b * self.nwords) // self.nbuckets
        self._starts = bounds[:-1]
        self._ends = bounds[1:]

    # ------------------------------------------------------------------ #
    # geometry

    def bucket_word_range(self, bucket: int) -> tuple[int, int]:
        """Word range ``[lo, hi)`` a bucket covers."""
        return int(self._starts[bucket]), int(self._ends[bucket])

    def bucket_of(self, words):
        """Bucket(s) holding word index (or array of indices) ``words``."""
        return np.searchsorted(self._ends, words, side="right")

    # ------------------------------------------------------------------ #
    # recording

    def add(self, channel: int, lo: int, hi: int,
            idx: np.ndarray | None = None,
            site: SourceSite | None = None) -> None:
        """Accumulate one access over words ``[lo, hi)`` (or ``idx``)."""
        if idx is not None:
            # The same fair-division boundaries the span path clips
            # against, so scattered and contiguous records always agree.
            contrib = np.bincount(self.bucket_of(idx),
                                  minlength=self.nbuckets)
        else:
            contrib = np.clip(np.minimum(hi, self._ends)
                              - np.maximum(lo, self._starts), 0, None)
        self._counts[channel] += contrib
        if site is not None:
            vec = self._sites.get(site)
            if vec is None:
                if len(self._sites) >= self.max_sites:
                    site = OTHER_SITE
                    vec = self._sites.get(site)
                if vec is None:
                    vec = self._sites[site] = np.zeros(self.nbuckets, np.int64)
            vec += contrib

    def freeze(self, epoch: int) -> EpochHeat | None:
        """Close the accumulator into an :class:`EpochHeat` (if non-empty)."""
        if not self._counts.any():
            self._sites.clear()
            return None
        snap = EpochHeat(epoch=epoch, counts=self._counts.copy(),
                         sites={s: v.copy() for s, v in
                                sorted(self._sites.items())})
        self.epochs.append(snap)
        self._counts[:] = 0
        self._sites.clear()
        return snap

    # ------------------------------------------------------------------ #
    # queries

    @property
    def touched(self) -> bool:
        """Whether any heat was ever recorded (closed or pending)."""
        return bool(self.epochs) or bool(self._counts.any())

    @property
    def total(self) -> int:
        """Word-accesses across all closed epochs."""
        return sum(e.total for e in self.epochs)

    def epoch_counts(self) -> np.ndarray:
        """``(n_epochs, 4, nbuckets)`` channel counts over closed epochs."""
        if not self.epochs:
            return np.zeros((0, len(CHANNELS), self.nbuckets), np.int64)
        return np.stack([e.counts for e in self.epochs])

    def matrix(self) -> np.ndarray:
        """``(n_epochs, nbuckets)`` heat matrix over closed epochs."""
        return self.epoch_counts().sum(axis=1)

    def current_heat(self) -> np.ndarray:
        """Combined per-bucket heat of the *open* (not yet frozen) epoch.

        The live counterpart of :attr:`EpochHeat.heat`, used by consumers
        that render mid-epoch state -- the interactive debugger's ``heat``
        command pairs it with the closed-epoch rows.
        """
        return self._counts.sum(axis=0)

    def current_top_sites(self, k: int = 5) -> list[tuple[SourceSite, int]]:
        """Top sites of the *open* accumulator (for diagnostics output)."""
        return EpochHeat(-1, self._counts, self._sites).top_sites(k)

    def hottest_region(self, k_sites: int = 5):
        """The hottest (epoch, word-range) and the sites that heated it.

        Returns ``None`` when no epoch recorded heat; otherwise a dict with
        ``epoch``, ``word_lo``/``word_hi``, ``peak`` (word-accesses in the
        peak bucket) and ``sites`` (top ``(SourceSite, count)`` pairs over
        the region).  The region is the contiguous bucket run around the
        global peak whose heat stays above half the peak.
        """
        mat = self.matrix()
        if not mat.size or mat.max() <= 0:
            return None
        ei, b = (int(i) for i in np.unravel_index(mat.argmax(), mat.shape))
        heat, peak = mat[ei], int(mat[ei, b])
        lo = b
        while lo > 0 and heat[lo - 1] * 2 >= peak:
            lo -= 1
        hi = b + 1
        while hi < self.nbuckets and heat[hi] * 2 >= peak:
            hi += 1
        return {
            "epoch": self.epochs[ei].epoch,
            "word_lo": int(self._starts[lo]),
            "word_hi": int(self._ends[hi - 1]),
            "bucket_lo": lo,
            "bucket_hi": hi,
            "peak": peak,
            "sites": self.epochs[ei].top_sites(k_sites, lo, hi),
        }


class HeatStore:
    """Per-allocation temporal heat for one traced run.

    :param nbuckets: word buckets per allocation (spatial resolution).
    :param max_sites: distinct source sites tracked per allocation per
        epoch; overflow folds into ``<other>``.
    :param attribute: when a record carries no explicit site, walk the
        Python stack for the first frame outside the simulator (the
        workload line that made the access).  Disable for minimum
        overhead heat-only profiling.
    """

    def __init__(self, *, nbuckets: int = 64, max_sites: int = 32,
                 attribute: bool = True) -> None:
        self.nbuckets = nbuckets
        self.max_sites = max_sites
        self.attribute = attribute
        self.epochs_closed: list[int] = []
        self.records = 0
        #: Called as ``listener(alloc_heat, epoch_heat)`` for every snapshot
        #: an :meth:`advance_epoch` freezes -- *before* a streaming store
        #: releases it, so live consumers (phase tracking, adaptive
        #: sampling telemetry) see every epoch even when heat spills to
        #: disk.
        self.epoch_listeners: list = []
        self._allocs: dict[tuple[int, int], AllocationHeat] = {}

    # ------------------------------------------------------------------ #
    # recording

    def track(self, alloc: Allocation) -> AllocationHeat:
        """The (lazily created) heat record for ``alloc``."""
        key = (alloc.base, alloc.serial)
        heat = self._allocs.get(key)
        if heat is None:
            heat = self._allocs[key] = AllocationHeat(
                alloc, nbuckets=self.nbuckets, max_sites=self.max_sites)
        return heat

    def peek(self, alloc: Allocation) -> AllocationHeat | None:
        """The heat record for ``alloc`` if it exists (never creates one)."""
        return self._allocs.get((alloc.base, alloc.serial))

    def adopt(self, heat: AllocationHeat) -> AllocationHeat:
        """Install a pre-built record (stream merge reconstruction)."""
        self._allocs[(heat.base, heat.serial)] = heat
        return heat

    def record(self, alloc: Allocation, proc: Processor, *, is_write: bool,
               lo: int = 0, hi: int = 0, idx: np.ndarray | None = None,
               site: SourceSite | None = None, n: int = 1) -> None:
        """Accumulate one traced access (word range or word indices).

        ``n`` lets a batched backend account one call as ``n`` logical
        accesses (one per grid lane), keeping ``records`` comparable
        across execution backends.
        """
        if site is None and self.attribute:
            from .attribution import caller_site
            site = caller_site()
        self.records += n
        self.track(alloc).add(_channel(proc, is_write), lo, hi, idx, site)

    def advance_epoch(self, closed_epoch: int) -> None:
        """Freeze every open accumulator as epoch ``closed_epoch``."""
        for heat in self._allocs.values():
            snap = heat.freeze(closed_epoch)
            if snap is not None and self.epoch_listeners:
                for listener in tuple(self.epoch_listeners):
                    listener(heat, snap)
        self.epochs_closed.append(closed_epoch)

    def flush_current(self) -> None:
        """Freeze residual heat that never saw a diagnostic reset."""
        epoch = (self.epochs_closed[-1] + 1) if self.epochs_closed else 0
        pending = [h for h in self._allocs.values() if h._counts.any()]
        if pending:
            self.advance_epoch(epoch)

    # ------------------------------------------------------------------ #
    # queries

    def allocations(self) -> list[AllocationHeat]:
        """Touched allocations, sorted by label then base (deterministic)."""
        return sorted((h for h in self._allocs.values() if h.touched),
                      key=lambda h: (h.label, h.base, h.serial))

    def __len__(self) -> int:
        return len(self._allocs)

    @property
    def total(self) -> int:
        """Word-accesses across every allocation's closed epochs."""
        return sum(h.total for h in self._allocs.values())

    # ------------------------------------------------------------------ #
    # exports

    def to_csv(self) -> str:
        """Long-form CSV: one row per (allocation, epoch, bucket)."""
        out = io.StringIO()
        out.write("allocation,epoch,bucket,word_lo,word_hi,"
                  + ",".join(CHANNELS) + ",top_site\n")
        for heat in self.allocations():
            spans = [f"{b},{lo},{hi}," for b, (lo, hi) in enumerate(
                zip(heat._starts.tolist(), heat._ends.tolist()))]
            for e in heat.epochs:
                sites, top, _ = e.bucket_top_sites()
                labels = [s.label for s in sites] + [""]  # [-1]: no site
                nz = np.flatnonzero(e.counts.any(axis=0))
                out.write("".join(
                    f"{heat.label},{e.epoch},{spans[b]}{c0},{c1},{c2},{c3},"
                    f"{labels[t]}\n"
                    for b, (c0, c1, c2, c3), t in zip(
                        nz.tolist(), e.counts[:, nz].T.tolist(),
                        top[nz].tolist())))
        return out.getvalue()

    def to_npz(self, path: str | Path) -> Path:
        """Write all heat matrices to a compressed ``.npz`` archive.

        Keys: ``a<i>_counts`` (``(n_epochs, 4, nbuckets)`` int64),
        ``a<i>_epochs`` and one ``a<i>_<channel>`` array per
        :data:`CHANNELS` name (``(n_epochs, nbuckets)``, the same data
        split per channel under stable keys) per allocation, plus the
        ``labels``, ``nwords``, ``sizes``, ``bases``, ``serials`` and
        ``epochs_closed`` index arrays.  The per-channel arrays and the
        geometry index are what let access-pattern signatures
        (:func:`repro.signature.signature_from_npz`) -- and external
        tooling -- be rebuilt from the archive alone.
        """
        path = Path(path)
        allocs = self.allocations()
        arrays: dict[str, np.ndarray] = {
            "labels": np.array([h.label for h in allocs]),
            "nwords": np.array([h.nwords for h in allocs], np.int64),
            "sizes": np.array([h.size for h in allocs], np.int64),
            "bases": np.array([h.base for h in allocs], np.int64),
            "serials": np.array([h.serial for h in allocs], np.int64),
            "epochs_closed": np.array(self.epochs_closed, np.int64),
            "channels": np.array(CHANNELS),
        }
        for i, heat in enumerate(allocs):
            counts = heat.epoch_counts()
            arrays[f"a{i}_counts"] = counts
            for c, name in enumerate(CHANNELS):
                arrays[f"a{i}_{name}"] = counts[:, c, :]
            arrays[f"a{i}_epochs"] = np.array(
                [e.epoch for e in heat.epochs], np.int64)
        np.savez_compressed(path, **arrays)
        return path
