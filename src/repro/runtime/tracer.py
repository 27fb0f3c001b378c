"""The XPlacer tracer: the runtime half of the instrumentation API.

Two entry paths feed the same shadow memory:

* **Observer path** -- the tracer subscribes to a simulated
  :class:`~repro.cudart.CudaRuntime`, which publishes every view access,
  CUDA call and kernel launch (how the Python workloads are traced).
* **Direct path** -- the paper's Table I API (:meth:`Tracer.traceR`,
  :meth:`Tracer.traceW`, :meth:`Tracer.traceRW`, and the ``trc*`` wrappers)
  used by instrumented mini-CUDA programs, where *every* call performs an
  SMT address lookup exactly as the paper describes.

Besides shadow updates, the tracer records explicit transfers (for the
unnecessary-transfer analysis), applied advice (so detectors can check
"existing hints do not match access characteristics"), and kernel launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cudart.advice import cudaMemcpyKind, cudaMemoryAdvise
from ..cudart.observer import ObserverBase
from ..memsim import Allocation, MemoryKind, Processor

from .batch import KIND_READ, KIND_RMW, KIND_WRITE, TraceBatcher
from .shadow import ShadowBlock
from .smt import ShadowMemoryTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cudart.api import CudaRuntime
    from ..heatmap.store import HeatStore, SourceSite

__all__ = ["Tracer", "TransferRecord", "AdviceRecord", "KernelRecord"]

#: Unset-advice -> the set-advice it cancels (advice-state folding).
_UNSET_OF = {
    cudaMemoryAdvise.cudaMemAdviseUnsetReadMostly:
        cudaMemoryAdvise.cudaMemAdviseSetReadMostly,
    cudaMemoryAdvise.cudaMemAdviseUnsetPreferredLocation:
        cudaMemoryAdvise.cudaMemAdviseSetPreferredLocation,
    cudaMemoryAdvise.cudaMemAdviseUnsetAccessedBy:
        cudaMemoryAdvise.cudaMemAdviseSetAccessedBy,
}


@dataclass(frozen=True)
class TransferRecord:
    """One explicit ``cudaMemcpy`` leg touching traced memory."""

    alloc: Allocation
    offset: int
    nbytes: int
    direction: str  #: ``"H2D"`` or ``"D2H"``
    epoch: int


@dataclass(frozen=True)
class AdviceRecord:
    """One ``cudaMemAdvise`` application."""

    alloc: Allocation
    advice: cudaMemoryAdvise
    offset: int
    nbytes: int
    device_id: int
    epoch: int


@dataclass(frozen=True)
class KernelRecord:
    """One kernel launch."""

    name: str
    grid: int
    block: int
    epoch: int


class Tracer(ObserverBase):
    """Records heap accesses into shadow memory (paper §III-C)."""

    def __init__(self, *, heat: "HeatStore | None" = None,
                 batch: bool = True) -> None:
        self.smt = ShadowMemoryTable()
        #: Optional access-count heat recorder (off by default; the shadow
        #: memory itself only keeps boolean per-word masks per epoch).
        self.heat = heat
        self.epoch = 0
        self.transfers: list[TransferRecord] = []
        self.advice: list[AdviceRecord] = []
        self.kernels: list[KernelRecord] = []
        #: Called as ``hook(closed, frozen)`` by :meth:`advance_epoch`: the
        #: closed epoch's number and the ``(AllocationHeat, EpochHeat)``
        #: pairs the heat store froze for it (empty without a store).
        self.epoch_hooks: list = []
        #: Called with each :class:`~repro.runtime.diagnostics.DiagnosticResult`
        #: *before* the diagnostic resets the epoch -- live state (shadow,
        #: open heat accumulators) is still inspectable.  The interactive
        #: debugger hangs anti-pattern breakpoints here.
        self.diagnostic_hooks: list = []
        #: Shadow words traced so far, counted as each access enters the
        #: tracer (batched or not, the same figure).
        self.words_recorded = 0
        #: Coalesces consecutive same-(alloc, proc, kind) accesses into one
        #: vectorized shadow update (see :mod:`repro.runtime.batch`).
        #: ``Tracer(batch=False)`` restores the one-update-per-call path
        #: (differential testing); diagnostics are identical either way.
        self.batcher: TraceBatcher | None = \
            TraceBatcher(self._apply_range) if batch else None
        #: Folded per-allocation advice state (see :meth:`advice_for`).
        self._advice_state: dict[int, set[cudaMemoryAdvise]] = {}
        self._runtime: "CudaRuntime | None" = None
        #: Requested execution backend (set by the interpreter): one of
        #: ``interp``/``codegen``/``codegen-vec``/``auto``.  Reports and
        #: JSONL headers surface it via :meth:`backend_info` so fidelity
        #: numbers are attributable to the backend that produced them.
        self.backend = "interp"
        #: Launch counts by the backend that actually executed them.
        self.backend_launches: dict[str, int] = {}
        #: Total tiers dropped across launches (vec -> codegen -> interp).
        self.backend_fallbacks = 0

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, runtime: "CudaRuntime") -> "Tracer":
        """Subscribe to ``runtime`` (idempotent); returns self."""
        runtime.subscribe(self)
        self._runtime = runtime
        return self

    def bind(self, runtime: "CudaRuntime") -> "Tracer":
        """Bind to ``runtime`` for processor context *without* subscribing.

        Used by the mini-CUDA pipeline, where only the instrumented
        ``trace*`` calls feed the tracer (as in the paper's compiled
        workflow) but device/host attribution still follows the runtime's
        execution context.
        """
        self._runtime = runtime
        return self

    def detach(self) -> None:
        """Unsubscribe from the runtime."""
        if self._runtime is not None:
            self._runtime.unsubscribe(self)
            self._runtime = None

    @property
    def current_proc(self) -> Processor:
        """Processor executing right now (CPU unless inside a kernel)."""
        return self._runtime.current_proc if self._runtime else Processor.CPU

    # ------------------------------------------------------------------ #
    # shadow application (batch sink)

    def _apply_range(self, block: ShadowBlock, proc: Processor, kind: int,
                     lo: int, hi: int) -> None:
        """Apply one (possibly coalesced) word interval to the shadow."""
        if kind == KIND_READ:
            block.record_read(proc, lo, hi)
        elif kind == KIND_WRITE:
            block.record_write(proc, lo, hi)
        else:
            block.record_rmw(proc, lo, hi)

    def _trace_span(self, block: ShadowBlock, proc: Processor, kind: int,
                    lo: int, hi: int) -> None:
        """Count one span access, then route it through the batcher (or
        apply it directly)."""
        self.words_recorded += hi - lo
        b = self.batcher
        if b is not None:
            b.add(block, proc, kind, lo, hi)
        else:
            self._apply_range(block, proc, kind, lo, hi)

    def flush_trace(self) -> None:
        """Apply any pending coalesced interval (diagnostic-safe point)."""
        if self.batcher is not None:
            self.batcher.flush()

    def _apply_words(self, block: ShadowBlock, proc: Processor, kind: int,
                     idx) -> None:
        """Apply one batched per-word update (vectorized backend sink).

        ``idx`` is an int array of shadow word indices, one entry per
        traced word per lane (duplicates legal: the shadow ORs bits, and
        heat counts each entry, exactly like the per-thread calls the
        batch replaces); each entry counts as one traced word.
        """
        self.words_recorded += len(idx)
        if kind == KIND_READ:
            block.record_read(proc, 0, 0, idx=idx)
        elif kind == KIND_WRITE:
            block.record_write(proc, 0, 0, idx=idx)
        else:
            block.record_rmw(proc, 0, 0, idx=idx)

    def note_launch(self, used: str, fallbacks: int = 0) -> None:
        """Record which backend executed a kernel launch (and how many
        tiers it fell through to get there)."""
        self.backend_launches[used] = self.backend_launches.get(used, 0) + 1
        self.backend_fallbacks += fallbacks

    def backend_info(self) -> dict | None:
        """Backend attribution for report/JSONL headers, or ``None``.

        ``None`` when running the plain interpreter (the historical
        default, so existing artifacts are byte-identical); otherwise the
        requested backend, per-backend launch counts, and the total
        number of per-launch fallbacks.
        """
        if self.backend == "interp":
            return None
        return {
            "backend": self.backend,
            "launches": {k: self.backend_launches[k]
                         for k in sorted(self.backend_launches)},
            "fallbacks": self.backend_fallbacks,
        }

    # ------------------------------------------------------------------ #
    # direct tracing API (paper Table I)

    def traceR(self, addr: int, size: int = 4,
               site: "SourceSite | None" = None) -> int:
        """``const T& traceR(const T&)``: record a read, return the address."""
        block = self.smt.lookup(addr)
        if block is not None:
            lo, hi = block.word_range(addr - block.alloc.base, size)
            self._trace_span(block, self.current_proc, KIND_READ, lo, hi)
            if self.heat is not None:
                self.heat.record(block.alloc, self.current_proc,
                                 is_write=False, lo=lo, hi=hi, site=site)
        return addr

    def traceW(self, addr: int, size: int = 4,
               site: "SourceSite | None" = None) -> int:
        """``T& traceW(T&)``: record a write, return the address."""
        block = self.smt.lookup(addr)
        if block is not None:
            lo, hi = block.word_range(addr - block.alloc.base, size)
            self._trace_span(block, self.current_proc, KIND_WRITE, lo, hi)
            if self.heat is not None:
                self.heat.record(block.alloc, self.current_proc,
                                 is_write=True, lo=lo, hi=hi, site=site)
        return addr

    def traceRW(self, addr: int, size: int = 4,
                site: "SourceSite | None" = None) -> int:
        """``T& traceRW(T&)``: record a read-modify-write, return the address."""
        block = self.smt.lookup(addr)
        if block is not None:
            lo, hi = block.word_range(addr - block.alloc.base, size)
            self._trace_span(block, self.current_proc, KIND_RMW, lo, hi)
            if self.heat is not None:
                proc = self.current_proc
                self.heat.record(block.alloc, proc, is_write=False,
                                 lo=lo, hi=hi, site=site)
                self.heat.record(block.alloc, proc, is_write=True,
                                 lo=lo, hi=hi, site=site)
        return addr

    # ------------------------------------------------------------------ #
    # allocation wrappers (``#pragma xpl replace`` targets)

    def trc_register(self, alloc: Allocation) -> ShadowBlock:
        """``trcMalloc``/``trcMallocManaged`` bookkeeping for ``alloc``."""
        return self.smt.insert(alloc, self.epoch)

    def trc_free(self, alloc: Allocation) -> None:
        """``trcFree``: payload goes now, shadow parks until next diagnostic."""
        self.flush_trace()
        self.smt.remove(alloc.base, self.epoch)

    # ------------------------------------------------------------------ #
    # observer callbacks (the Python-workload path)

    def on_alloc(self, alloc: Allocation) -> None:  # noqa: D102
        self.trc_register(alloc)

    def on_free(self, alloc: Allocation) -> None:  # noqa: D102
        self.trc_free(alloc)

    def on_access(self, proc, alloc, byte_offset, elem_size, count,
                  is_write, indices, is_rmw) -> None:  # noqa: D102
        block = self.smt.lookup(alloc.base)
        if block is None:
            return
        if indices is None:
            lo, hi = block.word_range(byte_offset, count * elem_size)
            idx = None
            kind = KIND_RMW if is_rmw else (KIND_WRITE if is_write else KIND_READ)
            self._trace_span(block, proc, kind, lo, hi)
        else:
            lo = hi = 0
            idx = block.word_indices(byte_offset, elem_size, indices)
            # Scattered accesses bypass the batcher but must still respect
            # program order against any pending interval.
            self.flush_trace()
            self.words_recorded += len(idx)
            if is_rmw:
                block.record_rmw(proc, lo, hi, idx)
            elif is_write:
                block.record_write(proc, lo, hi, idx)
            else:
                block.record_read(proc, lo, hi, idx)
        if self.heat is not None:
            if is_rmw:
                self.heat.record(alloc, proc, is_write=False,
                                 lo=lo, hi=hi, idx=idx)
                self.heat.record(alloc, proc, is_write=True,
                                 lo=lo, hi=hi, idx=idx)
            else:
                self.heat.record(alloc, proc, is_write=is_write,
                                 lo=lo, hi=hi, idx=idx)

    def on_memcpy(self, dst, dst_off, src, src_off, nbytes, kind) -> None:  # noqa: D102
        self.flush_trace()
        # Paper §III-C: H2D transfers are recorded as CPU writes of the
        # destination; D2H transfers as CPU reads of the source.
        if dst is not None:
            block = self.smt.lookup(dst.base)
            if block is not None:
                lo, hi = block.word_range(dst_off, nbytes)
                block.record_write(Processor.CPU, lo, hi)
                self.words_recorded += hi - lo
                if self.heat is not None:
                    self.heat.record(dst, Processor.CPU, is_write=True,
                                     lo=lo, hi=hi)
                if dst.kind is MemoryKind.DEVICE:
                    self.transfers.append(TransferRecord(
                        dst, dst_off, nbytes, "H2D", self.epoch))
        if src is not None:
            block = self.smt.lookup(src.base)
            if block is not None:
                lo, hi = block.word_range(src_off, nbytes)
                block.record_read(Processor.CPU, lo, hi)
                self.words_recorded += hi - lo
                if self.heat is not None:
                    self.heat.record(src, Processor.CPU, is_write=False,
                                     lo=lo, hi=hi)
                if src.kind is MemoryKind.DEVICE:
                    self.transfers.append(TransferRecord(
                        src, src_off, nbytes, "D2H", self.epoch))

    def on_kernel_launch(self, name: str, grid: int, block: int) -> None:  # noqa: D102
        self.flush_trace()
        self.kernels.append(KernelRecord(name, grid, block, self.epoch))

    def on_kernel_complete(self, name: str, grid: int, block: int,
                           duration: float) -> None:  # noqa: D102
        self.flush_trace()

    def on_advice(self, alloc, advice, byte_offset, nbytes, device_id) -> None:  # noqa: D102
        self.flush_trace()
        self.advice.append(AdviceRecord(
            alloc, advice, byte_offset, nbytes, device_id, self.epoch))
        state = self._advice_state.setdefault(alloc.base, set())
        unset = _UNSET_OF.get(advice)
        if unset is not None:
            state.discard(unset)
        else:
            state.add(advice)

    # ------------------------------------------------------------------ #
    # epoch management (driven by diagnostics)

    def advance_epoch(self) -> int:
        """Close the current epoch: reset live shadows, drop parked ones."""
        self.flush_trace()
        self.smt.reset_all()
        self.smt.flush_graveyard()
        closed = self.epoch
        self.epoch += 1
        frozen = self.heat.advance_epoch(closed) \
            if self.heat is not None else []
        for hook in tuple(self.epoch_hooks):
            hook(closed, frozen)
        return self.epoch

    def describe(self) -> dict:
        """Live description of the tracer: epoch, word and launch counters."""
        return {
            "epoch": self.epoch,
            "words_recorded": self.words_recorded,
            "kernels": len(self.kernels),
            "transfers": len(self.transfers),
            "backend": self.backend,
            "backend_launches": {k: self.backend_launches[k]
                                 for k in sorted(self.backend_launches)},
            "backend_fallbacks": self.backend_fallbacks,
        }

    def advice_for(self, alloc: Allocation) -> set[cudaMemoryAdvise]:
        """Advice currently applied to ``alloc`` (set/unset pairs folded).

        Folded incrementally in :meth:`on_advice` -- O(1) per query instead
        of rescanning the whole advice history (which the anti-pattern
        detectors query once per allocation per diagnostic).  The record
        list itself is untouched and still exported verbatim.
        """
        state = self._advice_state.get(alloc.base)
        return set(state) if state else set()
