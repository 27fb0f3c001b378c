"""The unified-memory driver: faults, migration, advice, eviction.

This is the simulator's heart.  It models what the CUDA UM driver does for
managed allocations at page granularity:

* **first touch** populates a page at the accessing processor;
* an access to a page resident elsewhere raises a **page fault**; the
  driver then either *migrates* the page, serves it through an established
  **remote mapping** (AccessedBy advice, preferred-location mapping, or any
  access over a coherent NVLink), or -- for reads under
  ``cudaMemAdviseSetReadMostly`` -- creates a local **duplicate**;
* a write to a read-duplicated page **invalidates** all other copies;
* GPU residency is bounded by device memory; exceeding it triggers **LRU
  eviction** back to the host (the oversubscription behaviour behind the
  Smith-Waterman 46000-character result).

Each action charges simulated time through the platform's cost parameters
and records an event.  Faulting pages are grouped into contiguous *fault
groups*; a group pays one service latency plus a per-faulting-block replay
penalty, which is what makes alternating CPU/GPU access to a hot page so
expensive on PCIe platforms (the LULESH anti-pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .address_space import PAGE_SIZE, Allocation, MemoryKind
from .clock import SimClock
from .devices import Processor
from .events import CauseLink, Event, EventKind, EventLog
from .interconnect import Link
from .pages import NO_PREFERENCE, PageState, contiguous_runs

__all__ = [
    "UMCostParams",
    "UnifiedMemoryDriver",
    "AccessOutcome",
    "MetricsHook",
    "BlameContext",
]

#: Signature of the driver's metric emission hook: ``hook(name, value,
#: labels)``.  Kept as a plain callable so :mod:`repro.memsim` stays free
#: of any dependency on the telemetry package.
MetricsHook = Callable[[str, float, Mapping[str, str]], None]


@dataclass(frozen=True)
class UMCostParams:
    """Mechanistic cost knobs of the driver (seconds unless noted).

    :param fault_service: driver/OS time to service one fault group.
    :param replay_per_block: extra stall charged per concurrently faulting
        accessor (GPU thread block) in a fault group -- models the replay
        storm when a whole grid trips over the same page.
    :param populate_time: first-touch population cost per page.
    :param invalidation_time: cost to invalidate one duplicated page copy.
    :param map_time: cost to (lazily) establish one page mapping.
    :param eviction_service: fixed cost per eviction batch.
    :param max_replay_blocks: cap on accessors counted for replay (a real
        GPU coalesces replays once the fault is in flight).
    :param remote_per_accessor: extra cost per concurrently accessing unit
        on a remote (non-migrating) access -- models each thread block
        issuing its own uncached loads over the link.  Pipelined, so far
        cheaper per block than a fault replay.
    :param pressure_factor: multiplier on GPU fault service while the node
        is *oversubscribed* (total device+managed allocation exceeds GPU
        memory).  Models the driver's slow path once every fault-in must
        synchronously make room -- the paper's "GPU page fault groups"
        blow-up when the Smith-Waterman data set exceeds GPU memory.
    :param eviction_block_pages: eviction granularity; the driver frees
        aligned runs of this many pages around the LRU page (CUDA evicts
        in large chunks, not single pages).
    """

    fault_service: float = 20e-6
    replay_per_block: float = 0.15e-6
    populate_time: float = 0.05e-6
    invalidation_time: float = 2.0e-6
    map_time: float = 1.0e-6
    eviction_service: float = 30e-6
    max_replay_blocks: int = 100_000
    remote_per_accessor: float = 0.0
    pressure_factor: float = 8.0
    eviction_block_pages: int = 512


@dataclass
class BlameContext:
    """Who is currently driving the UM driver (set by the runtime).

    The CUDA runtime fills this in around each driver entry point
    (``access``/``memcpy``/``prefetch``/``advise``) when ``track_causes``
    is on; the driver copies it into the :class:`~.events.CauseLink` of
    every event it records, so a migration can later be blamed on the
    kernel and source line whose access triggered it.
    """

    site: str = ""
    kernel: str = ""
    api: str = ""
    alloc: str = ""

    def set(self, *, site: str = "", kernel: str = "", api: str = "",
            alloc: str = "") -> None:
        """Replace the whole context in one call (hot path, no kwargs loop)."""
        self.site = site
        self.kernel = kernel
        self.api = api
        self.alloc = alloc

    def clear(self) -> None:
        self.set()


@dataclass
class AccessOutcome:
    """What one :meth:`UnifiedMemoryDriver.access` call did and cost."""

    cost: float = 0.0
    fault_groups: int = 0
    migrated_pages: int = 0
    duplicated_pages: int = 0
    remote_bytes: int = 0
    invalidated_pages: int = 0
    populated_pages: int = 0
    evicted_pages: int = 0


#: Shared zero-cost outcome returned by the resident fast path.  Callers
#: only ever read outcome fields, so one immutable-by-convention instance
#: avoids constructing a dataclass per steady-state access.
_ZERO_OUTCOME = AccessOutcome()


class UnifiedMemoryDriver:
    """Page-granular unified-memory state machine with a timing model."""

    def __init__(
        self,
        link: Link,
        gpu_memory_bytes: int,
        clock: SimClock,
        log: EventLog,
        params: UMCostParams | None = None,
    ) -> None:
        self.link = link
        self.gpu_capacity_pages = max(1, gpu_memory_bytes // PAGE_SIZE)
        self.clock = clock
        self.log = log
        self.params = params or UMCostParams()
        #: Resident fast path: when every page of an allocation already has
        #: a valid local copy (and, for writes, no stale remote copy), the
        #: access is a plain hit and skips mask classification entirely.
        #: The gate is a generation-stamped residency summary per
        #: allocation (see :meth:`PageState.residency_summary`), so the
        #: check costs one dict hit and a tuple compare.  Disable to force
        #: the full state machine (differential testing).
        self.fast_path = True
        #: Optional telemetry tap (see :data:`MetricsHook`); ``None`` keeps
        #: the access path free of any telemetry cost.
        self.metrics_hook: MetricsHook | None = None
        #: When True, every recorded event carries a :class:`CauseLink`
        #: built from :attr:`blame` plus per-page displacement history
        #: (see ``PageState.displaced_by``).  Off by default: plain traced
        #: runs stay byte-identical to pre-provenance behaviour.
        self.track_causes = False
        #: Sub-flag of ``track_causes``: also walk the Python stack for the
        #: triggering source site.  Sites make blame actionable but cost a
        #: frame walk per runtime entry; disable for cheap causal runs.
        self.blame_sites = True
        #: Triggering-context scratchpad the runtime fills in around each
        #: driver call while ``track_causes`` is enabled.
        self.blame = BlameContext()
        self._states: dict[int, PageState] = {}       # managed alloc base -> state
        self._managed: dict[int, Allocation] = {}
        self._device_pages = 0                        # cudaMalloc residency
        self._gpu_managed_pages = 0                   # managed pages resident on GPU
        self._tick = 0                                # logical LRU clock
        self._gpu_visible_pages = 0                   # total device+managed footprint

    # ------------------------------------------------------------------ #
    # registration

    def register(self, alloc: Allocation) -> None:
        """Start tracking a managed or device allocation."""
        if alloc.kind is MemoryKind.MANAGED:
            self._states[alloc.base] = PageState(alloc.num_pages)
            self._managed[alloc.base] = alloc
            self._gpu_visible_pages += alloc.num_pages
        elif alloc.kind is MemoryKind.DEVICE:
            if self._device_pages + alloc.num_pages > self.gpu_capacity_pages:
                raise MemoryError(
                    f"cudaMalloc of {alloc.size} bytes exceeds simulated GPU memory"
                )
            self._device_pages += alloc.num_pages
            self._gpu_visible_pages += alloc.num_pages
        # HOST allocations need no driver state.

    def unregister(self, alloc: Allocation) -> None:
        """Stop tracking ``alloc`` (its pages release GPU residency)."""
        if alloc.kind is MemoryKind.MANAGED:
            state = self._states.pop(alloc.base, None)
            self._managed.pop(alloc.base, None)
            if state is not None:
                self._gpu_managed_pages -= state.resident_pages(Processor.GPU)
                self._gpu_visible_pages -= alloc.num_pages
        elif alloc.kind is MemoryKind.DEVICE:
            self._device_pages -= alloc.num_pages
            self._gpu_visible_pages -= alloc.num_pages

    def state_of(self, alloc: Allocation) -> PageState:
        """Page state for a managed allocation (raises for others)."""
        try:
            return self._states[alloc.base]
        except KeyError:
            raise KeyError(
                f"allocation at {alloc.base:#x} is not managed/registered"
            ) from None

    @property
    def gpu_pages_in_use(self) -> int:
        """GPU-resident pages (managed + device allocations)."""
        return self._gpu_managed_pages + self._device_pages

    @property
    def oversubscribed(self) -> bool:
        """Whether the GPU-visible footprint exceeds device memory."""
        return self._gpu_visible_pages > self.gpu_capacity_pages

    # ------------------------------------------------------------------ #
    # advice (cudaMemAdvise semantics)

    def set_read_mostly(self, alloc: Allocation, lo: int, hi: int, value: bool) -> None:
        """Apply or revert ``cudaMemAdviseSetReadMostly`` to pages [lo, hi)."""
        st = self.state_of(alloc)
        st.read_mostly[lo:hi] = value
        st.touch()
        if not value:
            # Collapse duplicated pages to a single copy; keep the GPU copy
            # when both exist (deterministic, documented choice).
            both = st.present[Processor.CPU, lo:hi] & st.present[Processor.GPU, lo:hi]
            if both.any():
                dropped = int(both.sum())
                st.present[Processor.CPU, lo:hi] &= ~both
                ev = self.log.record(Event(
                    EventKind.INVALIDATION, self.clock.now, Processor.CPU,
                    pages=dropped, detail=f"unset-read-mostly {alloc.label}",
                    cause=self._cause(alloc=alloc),
                ))
                self._mark_displaced(st, np.flatnonzero(both) + lo, ev.id)

    def set_preferred_location(
        self, alloc: Allocation, lo: int, hi: int, proc: Processor | None
    ) -> None:
        """Set/unset preferred location.  Does not move data (per the API)."""
        st = self.state_of(alloc)
        st.preferred[lo:hi] = NO_PREFERENCE if proc is None else int(proc)
        st.touch()

    def set_accessed_by(
        self, alloc: Allocation, lo: int, hi: int, proc: Processor, value: bool
    ) -> None:
        """Set/unset AccessedBy: keep ``proc``'s mapping established."""
        st = self.state_of(alloc)
        st.accessed_by[proc, lo:hi] = value
        st.touch()
        if value:
            # Map whatever is populated now; future migrations keep it fresh.
            pop = st.populated()[lo:hi]
            newly = pop & ~st.mapped[proc, lo:hi]
            n = int(newly.sum())
            if n:
                st.mapped[proc, lo:hi] |= pop
                cost = n * self.params.map_time
                self.clock.advance(cost)
                self.log.record(Event(
                    EventKind.MAP, self.clock.now, proc, pages=n, cost=cost,
                    detail=f"accessed-by {alloc.label}",
                    cause=self._cause(alloc=alloc),
                ))
        else:
            st.mapped[proc, lo:hi] &= st.present[proc, lo:hi]

    # ------------------------------------------------------------------ #
    # prefetch

    def prefetch(self, alloc: Allocation, lo: int, hi: int, proc: Processor) -> float:
        """``cudaMemPrefetchAsync``: bulk-migrate pages without fault storms.

        Returns the simulated cost (one DMA per contiguous run of moved
        pages, no fault service or replay).
        """
        st = self.state_of(alloc)
        idx = np.flatnonzero(~st.present[proc, lo:hi] & st.present[proc.other, lo:hi]) + lo
        cost = 0.0
        moved = 0
        for a, b in contiguous_runs(idx):
            npages = b - a
            cost += self.link.transfer_time(npages * PAGE_SIZE)
            moved += npages
        if moved:
            self._move_pages(st, idx, proc)
            ev = self.log.record(Event(
                EventKind.MIGRATION, self.clock.now, proc, pages=moved,
                nbytes=moved * PAGE_SIZE, cost=cost,
                detail=f"prefetch {alloc.label}",
                cause=self._cause(alloc=alloc),
            ))
            self._mark_displaced(st, idx, ev.id)
        # Populate untouched pages at the destination too (cudaMemPrefetch
        # backs unpopulated pages at the target).
        fresh = np.flatnonzero(~st.populated()[lo:hi]) + lo
        if len(fresh):
            self._populate(st, fresh, proc)
            cost += len(fresh) * self.params.populate_time
        return cost

    # ------------------------------------------------------------------ #
    # the access state machine

    def access_bytes(
        self,
        alloc: Allocation,
        byte_offset: int,
        nbytes: int,
        proc: Processor,
        *,
        is_write: bool,
        accessors: int = 1,
        pages: np.ndarray | None = None,
    ) -> AccessOutcome:
        """Span-granular driver entry: one byte span, any length.

        Converts ``[byte_offset, byte_offset + nbytes)`` within ``alloc``
        to the covering page range and runs :meth:`access` once -- the
        single-call shape batched backends and per-statement tracers both
        funnel through, so fault grouping and migration costs are decided
        by the *span*, never by how many accesses composed it.
        """
        lo, hi = alloc.page_range(alloc.base + byte_offset, max(1, nbytes))
        return self.access(alloc, lo, hi, proc, is_write=is_write,
                           nbytes=nbytes, accessors=accessors, pages=pages)

    def access(
        self,
        alloc: Allocation,
        lo_page: int,
        hi_page: int,
        proc: Processor,
        *,
        is_write: bool,
        nbytes: int | None = None,
        accessors: int = 1,
        pages: np.ndarray | None = None,
    ) -> AccessOutcome:
        """Process an access by ``proc`` to pages ``[lo_page, hi_page)``.

        :param nbytes: bytes actually touched (defaults to the full page
            span); used to charge remote accesses by payload.
        :param accessors: concurrently accessing units (GPU thread blocks);
            scales the fault replay penalty.
        :param pages: optional sorted, unique array of page indices for
            scattered (gather/scatter) accesses; overrides the span, which
            must still bound it.
        :returns: an :class:`AccessOutcome` with the total simulated cost.
        """
        if alloc.kind is MemoryKind.HOST:
            return AccessOutcome()  # plain host memory: no driver involvement
        if alloc.kind is MemoryKind.DEVICE:
            if proc is Processor.CPU:
                raise RuntimeError(
                    f"CPU cannot dereference cudaMalloc memory {alloc.label or hex(alloc.base)}"
                )
            return AccessOutcome()  # device-local: no UM cost
        if not (0 <= lo_page < hi_page <= alloc.num_pages):
            raise ValueError(f"page range [{lo_page},{hi_page}) out of bounds")

        st = self.state_of(alloc)

        # --- resident fast path ----------------------------------------- #
        # Steady state: every touched page already has a valid copy here
        # (so fresh/remote/faulting masks are all empty), and for writes no
        # touched page has a copy on the other processor (so there is no
        # duplicate to invalidate).  Present implies mapped throughout the
        # driver, so residency alone decides.  The allocation's cached
        # summary answers for most accesses; only a partly resident one
        # looks at the touched pages.  Only the LRU refresh and the
        # logical tick remain -- both must still happen, exactly as the
        # slow path would do them, or eviction ordering (and thus cost)
        # diverges between the paths.
        if self.fast_path:
            _, cpu_full, gpu_full, cpu_any, gpu_any = st.residency_summary()
            gpu = proc is Processor.GPU
            here_full, there_any = ((gpu_full, cpu_any) if gpu
                                    else (cpu_full, gpu_any))
            touched = slice(lo_page, hi_page) if pages is None else pages
            hit = here_full or st.present[proc, touched].all()
            if hit and is_write and there_any:
                hit = not st.present[proc.other, touched].any()
            if hit:
                if pages is not None and len(pages) == 0:
                    return _ZERO_OUTCOME
                self._tick += 1
                if gpu:
                    st.last_use[touched] = self._tick
                if self.metrics_hook is not None:
                    self._emit_pages_in_use()
                return _ZERO_OUTCOME

        out = AccessOutcome()
        p = self.params
        page_idx = (st.page_index[lo_page:hi_page] if pages is None
                    else np.asarray(pages))
        if len(page_idx) == 0:
            return out
        span_bytes = len(page_idx) * PAGE_SIZE if nbytes is None else nbytes
        bytes_per_page = max(1, span_bytes // len(page_idx))

        self._tick += 1
        here = st.present[proc, page_idx]
        there = st.present[proc.other, page_idx]
        mapped_here = st.mapped[proc, page_idx]

        # --- first touch: populate locally ------------------------------ #
        # CPU first touch is an ordinary OS minor fault (cheap).  GPU
        # first touch is a real UM fault: each contiguous group pays the
        # service latency, and the pressured slow path applies when the
        # node is oversubscribed -- this is where the paper's optimized
        # Smith-Waterman still loses ~12s to "GPU page fault groups".
        fresh = ~here & ~there
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh:
            fresh_idx = page_idx[fresh]
            self._populate(st, fresh_idx, proc)
            cost = n_fresh * p.populate_time
            if proc is Processor.GPU:
                # First-touch faults never migrate data, so they skip the
                # pressured evict+DMA slow path.
                service = p.fault_service
                groups = contiguous_runs(fresh_idx)
                cost += len(groups) * service
                out.fault_groups += len(groups)
                self.log.record(Event(
                    EventKind.PAGE_FAULT, self.clock.now, proc,
                    pages=n_fresh, detail=f"first-touch {alloc.label}",
                    cause=self._cause(alloc=alloc),
                ))
            out.cost += cost
            out.populated_pages += n_fresh
            self.log.record(Event(
                EventKind.POPULATE, self.clock.now, proc, pages=n_fresh,
                cost=cost, detail=alloc.label,
                cause=self._cause(alloc=alloc),
            ))
            here = st.present[proc, page_idx]  # refreshed view

        # --- remote: not here, but mapped (AccessedBy / prior mapping) -- #
        remote = ~here & there & mapped_here
        # Writes through a remote mapping to a read-mostly page would
        # invalidate; treat them as migrating instead (handled below).
        if is_write:
            remote &= ~st.read_mostly[page_idx]
        remote_units = min(accessors, p.max_replay_blocks)
        n_remote = int(np.count_nonzero(remote))
        if n_remote:
            rbytes = n_remote * bytes_per_page
            cost = (self.link.remote_access_time(rbytes)
                    + remote_units * p.remote_per_accessor)
            out.cost += cost
            out.remote_bytes += rbytes
            st.last_use[page_idx[remote]] = self._tick
            self.log.record(Event(
                EventKind.REMOTE_ACCESS, self.clock.now, proc, pages=n_remote,
                nbytes=rbytes, cost=cost, detail=alloc.label,
                cause=self._cause(alloc=alloc),
            ))

        # --- faulting pages: not here, not served remotely -------------- #
        faulting = ~here & there & ~remote
        fault_idx = page_idx[faulting]

        if len(fault_idx):
            rm = st.read_mostly[fault_idx]
            pref_other = st.preferred[fault_idx] == int(proc.other)

            if not is_write:
                # Reads of read-mostly pages duplicate rather than migrate.
                dup_idx = fault_idx[rm]
                if len(dup_idx):
                    out.cost += self._duplicate(st, dup_idx, proc, alloc, out, accessors)
                fault_idx = fault_idx[~rm]
                pref_other = pref_other[~rm]

            # Pages preferred at the *other* processor: establish a mapping
            # and access remotely instead of migrating ("the faulting
            # processor will try to directly establish a mapping").
            map_idx = fault_idx[pref_other]
            if len(map_idx) and self._can_map_remotely(proc):
                cost = len(map_idx) * p.map_time
                cost += (self.link.remote_access_time(len(map_idx) * bytes_per_page)
                         + remote_units * p.remote_per_accessor)
                st.mapped[proc, map_idx] = True
                st.last_use[map_idx] = self._tick
                out.cost += cost
                out.remote_bytes += len(map_idx) * bytes_per_page
                out.fault_groups += 1
                self.log.record(Event(
                    EventKind.PAGE_FAULT, self.clock.now, proc,
                    pages=len(map_idx), cost=0.0, detail=f"mapped {alloc.label}",
                    cause=self._cause(self._displacer(st, map_idx), alloc),
                ))
                self.log.record(Event(
                    EventKind.MAP, self.clock.now, proc, pages=len(map_idx),
                    cost=cost, detail=alloc.label,
                    cause=self._cause(alloc=alloc),
                ))
                fault_idx = fault_idx[~pref_other]
            elif self.link.coherent and not is_write:
                # Coherent link (NVLink): serve read faults remotely with a
                # lazy mapping -- no migration storm on the Power9 testbed.
                cost = len(fault_idx) * p.map_time
                cost += (self.link.remote_access_time(len(fault_idx) * bytes_per_page)
                         + remote_units * p.remote_per_accessor)
                st.mapped[proc, fault_idx] = True
                st.last_use[fault_idx] = self._tick
                out.cost += cost
                out.remote_bytes += len(fault_idx) * bytes_per_page
                out.fault_groups += 1
                self.log.record(Event(
                    EventKind.PAGE_FAULT, self.clock.now, proc,
                    pages=len(fault_idx), detail=f"coherent {alloc.label}",
                    cause=self._cause(self._displacer(st, fault_idx), alloc),
                ))
                self.log.record(Event(
                    EventKind.REMOTE_ACCESS, self.clock.now, proc,
                    pages=len(fault_idx),
                    nbytes=len(fault_idx) * bytes_per_page, cost=cost,
                    detail=alloc.label,
                    cause=self._cause(alloc=alloc),
                ))
                fault_idx = fault_idx[:0]

            # Whatever remains migrates, one fault group per contiguous run.
            if len(fault_idx):
                out.cost += self._migrate(st, fault_idx, proc, alloc, out, accessors)

        # --- write to a duplicated read-mostly page: invalidate copies -- #
        if is_write:
            dup = st.present[proc, page_idx] & st.present[proc.other, page_idx]
            n_dup = int(np.count_nonzero(dup))
            if n_dup:
                self._drop_copies(st, page_idx[dup], keep=proc)
                cost = n_dup * p.invalidation_time
                out.cost += cost
                out.invalidated_pages += n_dup
                ev = self.log.record(Event(
                    EventKind.INVALIDATION, self.clock.now, proc, pages=n_dup,
                    cost=cost, detail=alloc.label,
                    cause=self._cause(alloc=alloc),
                ))
                self._mark_displaced(st, page_idx[dup], ev.id)

        # --- plain hits: refresh LRU --------------------------------- #
        if proc is Processor.GPU:
            st.last_use[page_idx[st.present[proc, page_idx]]] = self._tick

        if self.metrics_hook is not None:
            self._emit_outcome(out, proc)
        return out

    def _emit_outcome(self, out: AccessOutcome, proc: Processor) -> None:
        """Forward one access outcome to the metrics hook."""
        hook = self.metrics_hook
        assert hook is not None
        labels = {"proc": proc.name}
        for name, value in (
            ("um_fault_groups", out.fault_groups),
            ("um_migrated_pages", out.migrated_pages),
            ("um_duplicated_pages", out.duplicated_pages),
            ("um_remote_bytes", out.remote_bytes),
            ("um_invalidated_pages", out.invalidated_pages),
            ("um_populated_pages", out.populated_pages),
            ("um_evicted_pages", out.evicted_pages),
        ):
            if value:
                hook(name, float(value), labels)
        if out.cost:
            hook("um_access_cost_seconds", out.cost, labels)
        self._emit_pages_in_use()

    def _emit_pages_in_use(self) -> None:
        """Forward the GPU residency gauge -- all a zero outcome emits."""
        hook = self.metrics_hook
        assert hook is not None
        hook("um_gpu_pages_in_use", float(self.gpu_pages_in_use), {})

    # ------------------------------------------------------------------ #
    # internals

    def _cause(self, parent: int = -1,
               alloc: Allocation | None = None) -> CauseLink | None:
        """Cause link for the event being recorded (None when not tracking).

        ``alloc`` overrides the blame context's allocation label -- the
        driver knows the touched allocation more precisely than the runtime
        for per-allocation events; evictions keep the context's label (the
        *incoming* allocation that created the pressure).
        """
        if not self.track_causes:
            return None
        b = self.blame
        label = b.alloc if alloc is None else (alloc.label or b.alloc)
        return CauseLink(site=b.site, kernel=b.kernel, api=b.api,
                         alloc=label, parent=parent)

    def _mark_displaced(self, st: PageState, idx: np.ndarray,
                        event_id: int) -> None:
        """Remember that ``event_id`` removed pages ``idx`` from somewhere."""
        if self.track_causes and len(idx):
            st.displaced_by[idx] = event_id

    def _displacer(self, st: PageState, idx: np.ndarray) -> int:
        """Most recent event that displaced any page in ``idx`` (-1 if none)."""
        if not self.track_causes or len(idx) == 0:
            return -1
        return int(st.displaced_by[idx].max())

    def _can_map_remotely(self, proc: Processor) -> bool:
        # The GPU can map host memory on any link (zero-copy over PCIe,
        # coherent over NVLink); the CPU can only map GPU memory on a
        # coherent link.
        return proc is Processor.GPU or self.link.coherent

    def _populate(self, st: PageState, idx: np.ndarray, proc: Processor) -> None:
        st.touch()
        st.present[proc, idx] = True
        st.mapped[proc, idx] = True
        st.last_use[idx] = self._tick
        for other in (proc.other,):
            ab = st.accessed_by[other, idx]
            st.mapped[other, idx] |= ab
        if proc is Processor.GPU:
            self._gpu_managed_pages += len(idx)
            self._ensure_capacity(exclude=(st, idx))

    def _move_pages(self, st: PageState, idx: np.ndarray, proc: Processor) -> None:
        """Flip residency of pages ``idx`` to ``proc`` and fix mappings."""
        if len(idx) == 0:
            return
        st.touch()
        was_gpu = st.present[Processor.GPU, idx]
        st.present[proc.other, idx] = False
        st.present[proc, idx] = True
        st.mapped[proc, idx] = True
        # AccessedBy keeps the other processor's mapping updated; otherwise
        # the old mapping is torn down by the migration.
        keep = st.accessed_by[proc.other, idx]
        st.mapped[proc.other, idx] = keep
        st.last_use[idx] = self._tick
        if proc is Processor.GPU:
            self._gpu_managed_pages += int((~was_gpu).sum())
            self._ensure_capacity(exclude=(st, idx))
        else:
            self._gpu_managed_pages -= int(was_gpu.sum())

    def _migrate(
        self,
        st: PageState,
        idx: np.ndarray,
        proc: Processor,
        alloc: Allocation,
        out: AccessOutcome,
        accessors: int,
    ) -> float:
        p = self.params
        runs = contiguous_runs(idx)
        cost = 0.0
        replay_units = min(accessors, p.max_replay_blocks)
        service = p.fault_service
        if proc is Processor.GPU and self.oversubscribed:
            service *= p.pressure_factor
        first_fault = -1
        for a, b in runs:
            npages = b - a
            group_cost = (
                service
                + self.link.transfer_time(npages * PAGE_SIZE)
                + replay_units * p.replay_per_block
            )
            cost += group_cost
            out.fault_groups += 1
            # The fault's parent is whatever event last removed one of these
            # pages from the faulting processor (migration the other way,
            # invalidation, eviction) -- the "why did we fault again" link.
            parent = int(st.displaced_by[a:b].max()) if self.track_causes else -1
            ev = self.log.record(Event(
                EventKind.PAGE_FAULT, self.clock.now, proc, pages=npages,
                cost=group_cost, detail=alloc.label,
                cause=self._cause(parent, alloc),
            ))
            if first_fault < 0:
                first_fault = ev.id
        self._move_pages(st, idx, proc)
        out.migrated_pages += len(idx)
        mig = self.log.record(Event(
            EventKind.MIGRATION, self.clock.now, proc, pages=len(idx),
            nbytes=len(idx) * PAGE_SIZE, detail=alloc.label,
            cause=self._cause(first_fault, alloc),
        ))
        self._mark_displaced(st, idx, mig.id)
        return cost

    def _duplicate(
        self,
        st: PageState,
        idx: np.ndarray,
        proc: Processor,
        alloc: Allocation,
        out: AccessOutcome,
        accessors: int,
    ) -> float:
        p = self.params
        cost = 0.0
        for a, b in contiguous_runs(idx):
            npages = b - a
            # Read-duplication services the fault once and leaves the home
            # copy valid, so there is no replay storm -- the asymmetry that
            # makes SetReadMostly so effective on PCIe platforms.
            cost += p.fault_service + self.link.transfer_time(npages * PAGE_SIZE)
            out.fault_groups += 1
        st.touch()
        st.present[proc, idx] = True
        st.mapped[proc, idx] = True
        st.last_use[idx] = self._tick
        if proc is Processor.GPU:
            self._gpu_managed_pages += len(idx)
            self._ensure_capacity(exclude=(st, idx))
        out.duplicated_pages += len(idx)
        self.log.record(Event(
            EventKind.DUPLICATION, self.clock.now, proc, pages=len(idx),
            nbytes=len(idx) * PAGE_SIZE, cost=cost, detail=alloc.label,
            cause=self._cause(self._displacer(st, idx), alloc),
        ))
        return cost

    def _drop_copies(self, st: PageState, idx: np.ndarray, keep: Processor) -> None:
        st.touch()
        was_gpu = st.present[Processor.GPU, idx]
        st.present[keep.other, idx] = False
        st.mapped[keep.other, idx] = st.accessed_by[keep.other, idx]
        if keep is Processor.CPU:
            self._gpu_managed_pages -= int(was_gpu.sum())

    def _ensure_capacity(self, exclude: tuple[PageState, np.ndarray]) -> None:
        """Evict GPU pages until residency fits device memory.

        Eviction is block-granular: the driver locates the globally
        least-recently-used GPU page and writes back the whole aligned
        ``eviction_block_pages`` run around it (CUDA reclaims memory in
        large chunks).  Pages of the access currently being served are
        pinned.
        """
        if self.gpu_pages_in_use <= self.gpu_capacity_pages:
            return
        ex_state, ex_idx = exclude
        pinned = np.zeros(ex_state.npages, dtype=bool)
        pinned[ex_idx] = True
        block = self.params.eviction_block_pages

        total_evicted = 0
        cost = self.params.eviction_service
        victim_batches: list[tuple[PageState, np.ndarray]] = []
        while self.gpu_pages_in_use > self.gpu_capacity_pages:
            # Find the global LRU GPU-resident, unpinned page.
            best: tuple[int, PageState, int] | None = None
            for st in self._states.values():
                mask = st.present[Processor.GPU].copy()
                if st is ex_state:
                    mask &= ~pinned
                idx = np.flatnonzero(mask)
                if len(idx) == 0:
                    continue
                k = idx[np.argmin(st.last_use[idx])]
                age = int(st.last_use[k])
                if best is None or age < best[0]:
                    best = (age, st, int(k))
            if best is None:
                raise MemoryError("GPU memory exhausted with all pages pinned")
            _, st, page = best
            lo = (page // block) * block
            hi = min(lo + block, st.npages)
            window = st.page_index[lo:hi]
            victim_mask = st.present[Processor.GPU, window]
            if st is ex_state:
                victim_mask &= ~pinned[window]
            victims = window[victim_mask]
            # Write back to host: pages leave the GPU, host copy revalidated.
            st.touch()
            st.present[Processor.GPU, victims] = False
            st.mapped[Processor.GPU, victims] = st.accessed_by[Processor.GPU, victims]
            st.present[Processor.CPU, victims] = True
            st.mapped[Processor.CPU, victims] = True
            cost += self.link.transfer_time(len(victims) * PAGE_SIZE)
            total_evicted += len(victims)
            self._gpu_managed_pages -= len(victims)
            if self.track_causes:
                victim_batches.append((st, victims))
        self.clock.advance(cost)
        # The eviction's blame stays on the *incoming* access (the blame
        # context): the allocation being faulted in created the pressure.
        ev = self.log.record(Event(
            EventKind.EVICTION, self.clock.now, Processor.GPU,
            pages=total_evicted, nbytes=total_evicted * PAGE_SIZE, cost=cost,
            detail="lru-block-eviction",
            cause=self._cause(),
        ))
        for vst, victims in victim_batches:
            self._mark_displaced(vst, victims, ev.id)
        if self.metrics_hook is not None:
            self.metrics_hook("um_evicted_pages", float(total_evicted),
                              {"proc": Processor.GPU.name})
            self.metrics_hook("um_eviction_cost_seconds", cost,
                              {"proc": Processor.GPU.name})
