"""Trace batching: coalesce runs of accesses into one shadow update.

The instrumented-source path produces a *storm* of tiny trace calls -- one
``traceR``/``traceW`` per element as each simulated GPU thread walks its
slice of an array.  Consecutive calls overwhelmingly hit the same
allocation with the same processor and access kind on adjacent words, so
instead of paying a vectorized-numpy update per word, the tracer parks the
running ``(block, proc, kind)`` word interval here and applies it as one
``record_*`` call when the run ends.

Correctness rests on three properties of the shadow update rules
(:mod:`repro.runtime.shadow`):

* **reads and writes are idempotent** per word (sticky OR of classification
  bits), so union-merging overlapping or adjacent intervals of the same
  kind is exact;
* **read-modify-writes are not** (a second RMW of a word reads its *own*
  write's origin), so RMW intervals merge only when disjoint-adjacent and
  any overlap flushes first;
* read classification depends on the last-writer bit, so any access that
  does not merge -- different allocation, processor or kind -- flushes the
  pending interval *before* being processed, preserving program order
  exactly.

Only one interval is ever pending, which makes the order argument local:
between the first and last merged call there is, by construction, no
intervening shadow access anywhere.  The tracer flushes explicitly at every
point where shadow state becomes observable: kernel boundaries, memcpys,
advice, frees, epoch advances and diagnostic queries.

Heat counts (:mod:`repro.heatmap`) are additive rather than idempotent, so
they are *not* coalesced -- the tracer forwards them per call, and counts
traced words before a span reaches the batcher, so batching changes no
count.
"""

from __future__ import annotations

from typing import Callable

from ..memsim import Processor

__all__ = ["TraceBatcher", "KIND_READ", "KIND_WRITE", "KIND_RMW"]

#: Access kinds carried through the batcher (and its sink signature).
KIND_READ = 0
KIND_WRITE = 1
KIND_RMW = 2

#: ``sink(block, proc, kind, lo, hi)`` applies one coalesced word interval.
Sink = Callable[[object, Processor, int, int, int], None]


class TraceBatcher:
    """Coalesces consecutive same-``(block, proc, kind)`` word intervals.

    :param sink: callback receiving each flushed interval; the tracer
        passes its shadow-apply routine.
    """

    __slots__ = ("sink", "block", "proc", "kind", "lo", "hi")

    def __init__(self, sink: Sink) -> None:
        self.sink = sink
        self.block: object | None = None
        self.proc: Processor = Processor.CPU
        self.kind: int = KIND_READ
        self.lo = 0
        self.hi = 0

    def add(self, block: object, proc: Processor, kind: int,
            lo: int, hi: int) -> None:
        """Record words ``[lo, hi)`` of ``block``, merging when safe."""
        if block is self.block and proc is self.proc and kind == self.kind:
            if kind != KIND_RMW:
                # Idempotent kinds: merge any overlapping/adjacent interval.
                if lo <= self.hi and hi >= self.lo:
                    if lo < self.lo:
                        self.lo = lo
                    if hi > self.hi:
                        self.hi = hi
                    return
            else:
                # RMW merges only by extension; overlap must flush so the
                # second RMW reads the first one's write.
                if lo == self.hi:
                    self.hi = hi
                    return
                if hi == self.lo:
                    self.lo = lo
                    return
        if self.block is not None:
            self.sink(self.block, self.proc, self.kind, self.lo, self.hi)
        self.block = block
        self.proc = proc
        self.kind = kind
        self.lo = lo
        self.hi = hi

    def flush(self) -> None:
        """Apply and clear the pending interval, if any."""
        if self.block is not None:
            self.sink(self.block, self.proc, self.kind, self.lo, self.hi)
            self.block = None
