"""Shadow memory blocks (paper Fig 3).

For every traced allocation, XPlacer keeps one shadow byte per 32-bit word
of payload.  :class:`ShadowBlock` holds that byte array (numpy ``uint8``)
and implements the vectorized update rules for reads, writes and
read-modify-writes.  All updates are mask operations over word ranges or
index arrays -- there is no per-element Python loop even when a kernel
touches a megabyte.

Counter extraction is one pass too: :meth:`ShadowBlock.counts` takes a
histogram of the block's nonzero shadow bytes and maps it through a
256-entry table (one row of 0/1 counter contributions per byte value), so
every Fig 4 counter and the alternating-word count come from the same
scan.  Untouched words are byte 0 and contribute to no counter, which is
why only the (typically sparse) nonzero bytes are histogrammed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arrays import unique
from ..memsim import Allocation, Processor
from . import flags as F

__all__ = ["ShadowBlock", "AccessCounts", "CATEGORY_BITS", "nwords_for"]

#: Access-map category -> the shadow bits any one of which puts a word in
#: that category's map (Figs 5/7/8/10).  :meth:`ShadowBlock.category_masks`
#: and the diagnostic's lazy maps both read this one table.
CATEGORY_BITS: dict[str, np.uint8] = {
    "cpu_write": F.CPU_WROTE,
    "gpu_write": F.GPU_WROTE,
    "cpu_read": F.READ_CC | F.READ_GC,
    "gpu_read": F.READ_CG | F.READ_GG,
    "gpu_read_cpu_origin": F.READ_CG,
    "gpu_read_gpu_origin": F.READ_GG,
    "cpu_read_gpu_origin": F.READ_GC,
    "accessed": F.EPOCH_MASK,
}


def nwords_for(size: int) -> int:
    """Traced 32-bit words covering ``size`` payload bytes (ceil division)."""
    return -(-size // F.WORD_SIZE)


@dataclass(frozen=True)
class AccessCounts:
    """Aggregate counters extracted from one shadow block.

    Matches the columns of the paper's Fig 4 diagnostic table: write counts
    per processor (each address counted once), read counts per
    ``origin > reader`` category (each address counted at most once per
    category), and the "elements with alternating accesses" line.
    """

    cpu_written: int
    gpu_written: int
    read_cc: int
    read_cg: int
    read_gc: int
    read_gg: int
    accessed_words: int
    #: Words accessed by both processors with at least one write.
    alternating: int
    total_words: int

    @property
    def density(self) -> float:
        """Fraction of words accessed at least once this epoch."""
        return self.accessed_words / self.total_words if self.total_words else 0.0


def _counter_table() -> np.ndarray:
    """``(256, 8)`` int64: each shadow byte value's contribution to the
    counters, in :class:`AccessCounts` field order up to ``alternating``."""
    b = np.arange(256, dtype=np.uint8)

    def has(mask) -> np.ndarray:
        return (b & mask) != 0

    cpu = has(F.CPU_WROTE | F.READ_CC | F.READ_GC)
    gpu = has(F.GPU_WROTE | F.READ_CG | F.READ_GG)
    written = has(F.CPU_WROTE | F.GPU_WROTE)
    cols = [has(F.CPU_WROTE), has(F.GPU_WROTE), has(F.READ_CC),
            has(F.READ_CG), has(F.READ_GC), has(F.READ_GG),
            has(F.EPOCH_MASK), cpu & gpu & written]
    return np.stack(cols, axis=1).astype(np.int64)


_COUNTER_TABLE = _counter_table()


def _mark_write(window: np.ndarray, proc: Processor) -> None:
    """The write rule, in place: ``proc``'s write bit and the last writer."""
    window |= F.write_bit(proc)
    if proc is Processor.GPU:
        window |= F.LAST_WRITE_GPU
    else:
        window &= np.uint8(~F.LAST_WRITE_GPU & 0xFF)


def _mark_read(window: np.ndarray, proc: Processor) -> None:
    """The read rule, in place: one read bit per word, by value origin."""
    origin_gpu = (window & F.LAST_WRITE_GPU) != 0
    window[origin_gpu] |= F.read_bit_for(proc, True)
    window[~origin_gpu] |= F.read_bit_for(proc, False)


def _rule_table(mark) -> np.ndarray:
    """``(2, 256)`` uint8: each shadow byte after ``mark`` by each
    processor, so a gather/scatter applies the rule in one lookup."""
    table = np.tile(np.arange(256, dtype=np.uint8), (len(Processor), 1))
    for proc in Processor:
        mark(table[proc], proc)
    return table


_WRITE_TABLE = _rule_table(_mark_write)
_READ_TABLE = _rule_table(_mark_read)


class ShadowBlock:
    """Shadow state for one allocation."""

    __slots__ = ("alloc", "shadow", "epoch_created", "freed_epoch")

    def __init__(self, alloc: Allocation, epoch: int = 0) -> None:
        self.alloc = alloc
        self.shadow = np.zeros(nwords_for(alloc.size), dtype=np.uint8)
        self.epoch_created = epoch
        self.freed_epoch: int | None = None

    @property
    def nwords(self) -> int:
        """Number of traced 32-bit words."""
        return len(self.shadow)

    # ------------------------------------------------------------------ #
    # address helpers

    def word_range(self, byte_offset: int, nbytes: int) -> tuple[int, int]:
        """Word-index range covering bytes ``[byte_offset, byte_offset+nbytes)``."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        lo = byte_offset // F.WORD_SIZE
        hi = (byte_offset + nbytes - 1) // F.WORD_SIZE + 1
        if hi > self.nwords:
            raise ValueError("access beyond end of shadowed allocation")
        return lo, hi

    def word_indices(self, byte_offset: int, elem_size: int,
                     indices: np.ndarray) -> np.ndarray:
        """Unique word indices for a gather/scatter access."""
        if elem_size == F.WORD_SIZE:
            # (b + 4 i) // 4 == b // 4 + i: one add, no multiply or divide.
            return unique(indices + byte_offset // F.WORD_SIZE)
        starts = byte_offset + indices * elem_size
        if elem_size < F.WORD_SIZE:
            words = starts // F.WORD_SIZE
        else:
            # Wide elements span several words.
            span = -(-elem_size // F.WORD_SIZE)
            words = (starts[:, None] // F.WORD_SIZE) + np.arange(span)[None, :]
            words = words.ravel()
        return unique(words)

    # ------------------------------------------------------------------ #
    # update rules

    def record_write(self, proc: Processor, lo: int, hi: int,
                     idx: np.ndarray | None = None) -> None:
        """Mark words written by ``proc`` and update the last-writer bit."""
        if idx is None:
            _mark_write(self.shadow[lo:hi], proc)
        else:
            self.shadow[idx] = _WRITE_TABLE[proc].take(self.shadow[idx])

    def record_read(self, proc: Processor, lo: int, hi: int,
                    idx: np.ndarray | None = None) -> None:
        """Mark words read by ``proc``, classified by value origin."""
        if idx is None:
            _mark_read(self.shadow[lo:hi], proc)
        else:
            self.shadow[idx] = _READ_TABLE[proc].take(self.shadow[idx])

    def record_rmw(self, proc: Processor, lo: int, hi: int,
                   idx: np.ndarray | None = None) -> None:
        """A read-modify-write: the read observes the *old* origin, then
        the write updates ownership -- order matters."""
        self.record_read(proc, lo, hi, idx)
        self.record_write(proc, lo, hi, idx)

    # ------------------------------------------------------------------ #
    # analysis extraction

    def counts(self) -> AccessCounts:
        """Aggregate Fig 4-style counters for the current epoch, in one
        pass: a histogram of the nonzero shadow bytes through the
        byte-value table."""
        s = self.shadow
        hist = np.bincount(s[s != 0], minlength=256)
        return AccessCounts(*(hist @ _COUNTER_TABLE).tolist(),
                            total_words=self.nwords)

    def alternating_words(self) -> int:
        """Words accessed by *both* processors with at least one write --
        the paper's alternating-access criterion."""
        return self.counts().alternating

    def category_masks(self) -> dict[str, np.ndarray]:
        """Per-word boolean masks for access-map figures (Fig 5/7/8/10)."""
        s = self.shadow
        return {cat: (s & bits) != 0 for cat, bits in CATEGORY_BITS.items()}

    def reset(self) -> None:
        """Epoch reset: clear access bits, keep the last-writer bit."""
        self.shadow &= np.uint8(~F.EPOCH_MASK & 0xFF)
