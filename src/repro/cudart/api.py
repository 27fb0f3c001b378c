"""The simulated CUDA runtime API.

:class:`CudaRuntime` binds a :class:`~repro.memsim.Platform` to the CUDA
API surface the paper's workloads use: the ``cudaMalloc`` family,
``cudaMemcpy``, ``cudaMemAdvise``/``cudaMemPrefetchAsync``, kernel
launches, and host-side ``malloc``.  Every memory operation flows through
:meth:`CudaRuntime.record_access`, which

1. charges the unified-memory driver (faults, migrations, duplications,
   remote traffic -- all with simulated time),
2. notifies registered observers (XPlacer's tracer), and
3. performs the real numpy data movement when allocations are
   materialized.

Simulated time accounting: synchronous operations advance the platform
clock directly; operations issued on a :class:`~repro.memsim.Stream` are
enqueued for overlap, and ``device_synchronize`` folds all streams back
into the clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from ..arrays import unique
from ..memsim import (
    PAGE_SIZE,
    Allocation,
    CauseLink,
    Event,
    EventKind,
    MemoryKind,
    Platform,
    Processor,
    Stream,
    processor_from_device_id,
)
from .advice import cudaMemcpyKind, cudaMemoryAdvise
from .errors import CudaError, cudaError_t
from .kernel import KernelContext, LaunchConfig
from .memory import ArrayView, DevicePtr
from .observer import ObserverBase, overriders

__all__ = ["CudaRuntime"]

#: Simulated host memcpy/memset throughput (bytes/second).
_HOST_COPY_BW = 20e9


class CudaRuntime:
    """A simulated CUDA runtime bound to one platform.

    :param platform: the simulated node (devices + link + UM driver).
    :param materialize: whether allocations get real numpy backing.
        Functional/diagnosis runs use ``True``; large timing sweeps use
        ``False`` (footprint mode).
    """

    def __init__(self, platform: Platform, *, materialize: bool = True) -> None:
        self.platform = platform
        self.materialize = materialize
        self.observers: list[ObserverBase] = []
        self.current_proc: Processor = Processor.CPU
        self._accessors: int = 1
        self._kernel_depth = 0
        self._current_kernel = ""
        self._streams: list[Stream] = []
        self.kernel_launches = 0
        # Precomputed per-callback fan-out (see _rebuild_fanout); publish
        # sites iterate these instead of calling no-ops on every subscriber.
        self._rebuild_fanout()

    # ------------------------------------------------------------------ #
    # causal blame (only active while the driver has track_causes set)

    def _blame(self, api: str, alloc: Allocation | None = None,
               site: str = "") -> None:
        """Fill the driver's blame context before entering it.

        Called on every UM entry point but returns immediately unless the
        driver is tracking causes, so plain runs pay one attribute load
        and a branch.  A caller that knows its own ``site`` passes it;
        otherwise, with ``blame_sites`` on, the Python caller is looked up.
        """
        um = self.platform.um
        if not um.track_causes:
            return
        if not site and um.blame_sites:
            from ..heatmap.attribution import caller_site
            s = caller_site()
            if s is not None:
                site = s.label
        um.blame.set(site=site, kernel=self._current_kernel, api=api,
                     alloc="" if alloc is None else alloc.label)

    def _transfer_cause(self, dst: Allocation | None,
                        src: Allocation | None) -> CauseLink | None:
        """Cause link for an explicit-transfer event (None when not tracking)."""
        um = self.platform.um
        if not um.track_causes:
            return None
        label = ""
        for alloc in (dst, src):
            if alloc is not None and alloc.label:
                label = alloc.label
                break
        b = um.blame
        return CauseLink(site=b.site, kernel=b.kernel, api="memcpy",
                         alloc=label)

    # ------------------------------------------------------------------ #
    # observers

    def subscribe(self, observer: ObserverBase) -> None:
        """Attach an observer (e.g. the XPlacer tracer); idempotent.

        Publishing always iterates a snapshot of the observer list, so an
        observer may ``unsubscribe`` (itself or another) from inside a
        callback without perturbing the in-flight notification round.
        """
        if observer not in self.observers:
            self.observers.append(observer)
            self._rebuild_fanout()

    def unsubscribe(self, observer: ObserverBase) -> None:
        """Detach a previously attached observer."""
        if observer in self.observers:
            self.observers.remove(observer)
            self._rebuild_fanout()

    def _rebuild_fanout(self) -> None:
        """Recompute the live-subscriber tuple for every callback.

        Subscribers that inherit :class:`~.observer.ObserverBase`'s no-op
        for a callback are dropped from that callback's tuple, so e.g. a
        tracer without telemetry costs nothing on kernel-complete events.
        The tuples are immutable snapshots, preserving the re-entrancy
        guarantee documented on :meth:`subscribe`.
        """
        obs = self.observers
        self._subs_alloc = overriders(obs, "on_alloc")
        self._subs_free = overriders(obs, "on_free")
        self._subs_access = overriders(obs, "on_access")
        self._subs_memcpy = overriders(obs, "on_memcpy")
        self._subs_kernel_launch = overriders(obs, "on_kernel_launch")
        self._subs_kernel_complete = overriders(obs, "on_kernel_complete")
        self._subs_advice = overriders(obs, "on_advice")

    # ------------------------------------------------------------------ #
    # allocation API

    def malloc(self, nbytes: int, label: str = "") -> DevicePtr:
        """``cudaMalloc``: GPU-only memory."""
        return self._allocate(nbytes, MemoryKind.DEVICE, label)

    def malloc_managed(self, nbytes: int, label: str = "") -> DevicePtr:
        """``cudaMallocManaged``: unified memory."""
        return self._allocate(nbytes, MemoryKind.MANAGED, label)

    def host_malloc(self, nbytes: int, label: str = "") -> DevicePtr:
        """Plain host heap allocation (``malloc``/``new``)."""
        return self._allocate(nbytes, MemoryKind.HOST, label)

    def _allocate(self, nbytes: int, kind: MemoryKind, label: str) -> DevicePtr:
        if nbytes <= 0:
            raise CudaError(cudaError_t.cudaErrorInvalidValue,
                            f"allocation size {nbytes}")
        try:
            alloc = self.platform.address_space.allocate(
                nbytes, kind, label=label, materialize=self.materialize,
            )
            self.platform.um.register(alloc)
        except MemoryError as exc:
            raise CudaError(cudaError_t.cudaErrorMemoryAllocation, str(exc)) from exc
        um = self.platform.um
        if um.track_causes and um.blame_sites:
            from ..heatmap.attribution import caller_site
            s = caller_site()
            if s is not None:
                alloc.site = s.label
        for obs in self._subs_alloc:
            obs.on_alloc(alloc)
        return DevicePtr(self, alloc)

    def free(self, ptr: DevicePtr) -> None:
        """``cudaFree``/``free``: release an allocation immediately.

        Observers are notified first (XPlacer parks the shadow block until
        the next diagnostic), then payload and driver state are dropped.
        """
        if ptr.offset != 0:
            raise CudaError(cudaError_t.cudaErrorInvalidDevicePointer,
                            "free of interior pointer")
        for obs in self._subs_free:
            obs.on_free(ptr.alloc)
        self.platform.um.unregister(ptr.alloc)
        self.platform.address_space.free(ptr.alloc.base)

    # ------------------------------------------------------------------ #
    # memcpy / memset

    def memcpy(
        self,
        dst: DevicePtr | np.ndarray | None,
        src: DevicePtr | np.ndarray | None,
        nbytes: int,
        kind: cudaMemcpyKind = cudaMemcpyKind.cudaMemcpyDefault,
        stream: Stream | None = None,
    ) -> cudaError_t:
        """``cudaMemcpy``: explicit data transfer.

        ``dst``/``src`` may be simulated pointers, real numpy arrays
        (standing in for raw host memory), or ``None`` for an anonymous
        host buffer in footprint-only runs.  Transfers touching device or
        managed memory cost link time; host-to-host copies cost host
        memcpy time.  Per the paper's convention, a host-to-device copy is
        traced as a *CPU write* of the destination and a device-to-host
        copy as a *CPU read* of the source.
        """
        if nbytes < 0:
            raise CudaError(cudaError_t.cudaErrorInvalidValue, "negative memcpy size")
        if nbytes == 0:
            return cudaError_t.cudaSuccess

        dst_alloc, dst_off = self._resolve(dst, nbytes, "dst")
        src_alloc, src_off = self._resolve(src, nbytes, "src")
        self._check_direction(kind, dst_alloc, src_alloc)

        self._blame("memcpy")
        cost = 0.0
        # Managed endpoints behave like CPU-side accesses through the UM
        # driver (the copy engine is the CPU here).
        for alloc, off, is_write in (
            (src_alloc, src_off, False), (dst_alloc, dst_off, True),
        ):
            if alloc is not None and alloc.kind is MemoryKind.MANAGED:
                self._blame("memcpy", alloc)
                lo, hi = alloc.page_range(alloc.base + off, nbytes)
                cost += self.platform.um.access(
                    alloc, lo, hi, Processor.CPU,
                    is_write=is_write, nbytes=nbytes,
                ).cost
        crosses_link = (
            (dst_alloc is not None and dst_alloc.kind is MemoryKind.DEVICE)
            or (src_alloc is not None and src_alloc.kind is MemoryKind.DEVICE)
        )
        if crosses_link:
            cost += self.platform.link.transfer_time(nbytes)
        else:
            cost += nbytes / _HOST_COPY_BW

        direction = (f"{'D' if self._kind_of(src_alloc) == 'device' else 'H'}2"
                     f"{'D' if self._kind_of(dst_alloc) == 'device' else 'H'}")
        self.platform.events.record(Event(
            EventKind.TRANSFER, self.platform.clock.now, self.current_proc,
            nbytes=nbytes, cost=cost, detail=direction,
            cause=self._transfer_cause(dst_alloc, src_alloc),
        ))
        if stream is None:
            self.platform.clock.advance(cost)
        else:
            stream.enqueue(cost)

        self._copy_payload(dst, dst_alloc, dst_off, src, src_alloc, src_off, nbytes)

        for obs in self._subs_memcpy:
            obs.on_memcpy(dst_alloc, dst_off, src_alloc, src_off, nbytes, kind)
        return cudaError_t.cudaSuccess

    def memset(self, dst: DevicePtr, value: int, nbytes: int) -> cudaError_t:
        """``cudaMemset``: fill device/managed memory."""
        if nbytes <= 0:
            return cudaError_t.cudaSuccess
        alloc, off = self._resolve(dst, nbytes, "dst")
        assert alloc is not None
        if alloc.kind is MemoryKind.MANAGED:
            self._blame("memset", alloc)
            lo, hi = alloc.page_range(alloc.base + off, nbytes)
            cost = self.platform.um.access(
                alloc, lo, hi, Processor.CPU, is_write=True, nbytes=nbytes,
            ).cost
            self.platform.clock.advance(cost + nbytes / _HOST_COPY_BW)
        else:
            self.platform.clock.advance(self.platform.link.latency + nbytes / _HOST_COPY_BW)
        if alloc.materialized:
            alloc.data[off:off + nbytes] = value
        for obs in self._subs_memcpy:
            obs.on_memcpy(alloc, off, None, 0, nbytes,
                          cudaMemcpyKind.cudaMemcpyHostToDevice
                          if alloc.kind is MemoryKind.DEVICE
                          else cudaMemcpyKind.cudaMemcpyHostToHost)
        return cudaError_t.cudaSuccess

    # ------------------------------------------------------------------ #
    # advice / prefetch

    def mem_advise(
        self,
        ptr: DevicePtr,
        nbytes: int,
        advice: cudaMemoryAdvise,
        device_id: int = 0,
    ) -> cudaError_t:
        """``cudaMemAdvise`` over ``[ptr, ptr + nbytes)``."""
        alloc = ptr.alloc
        if alloc.kind is not MemoryKind.MANAGED:
            raise CudaError(cudaError_t.cudaErrorInvalidValue,
                            "cudaMemAdvise requires managed memory")
        self._blame("advise", alloc)
        lo, hi = alloc.page_range(ptr.addr, nbytes)
        um = self.platform.um
        A = cudaMemoryAdvise
        if advice is A.cudaMemAdviseSetReadMostly:
            um.set_read_mostly(alloc, lo, hi, True)
        elif advice is A.cudaMemAdviseUnsetReadMostly:
            um.set_read_mostly(alloc, lo, hi, False)
        elif advice is A.cudaMemAdviseSetPreferredLocation:
            um.set_preferred_location(alloc, lo, hi, processor_from_device_id(device_id))
        elif advice is A.cudaMemAdviseUnsetPreferredLocation:
            um.set_preferred_location(alloc, lo, hi, None)
        elif advice is A.cudaMemAdviseSetAccessedBy:
            um.set_accessed_by(alloc, lo, hi, processor_from_device_id(device_id), True)
        elif advice is A.cudaMemAdviseUnsetAccessedBy:
            um.set_accessed_by(alloc, lo, hi, processor_from_device_id(device_id), False)
        else:  # pragma: no cover - enum is closed
            raise CudaError(cudaError_t.cudaErrorInvalidValue, str(advice))
        for obs in self._subs_advice:
            obs.on_advice(alloc, advice, ptr.offset, nbytes, device_id)
        return cudaError_t.cudaSuccess

    def mem_prefetch(self, ptr: DevicePtr, nbytes: int, device_id: int = 0,
                     stream: Stream | None = None) -> cudaError_t:
        """``cudaMemPrefetchAsync``."""
        alloc = ptr.alloc
        if alloc.kind is not MemoryKind.MANAGED:
            raise CudaError(cudaError_t.cudaErrorInvalidValue,
                            "prefetch requires managed memory")
        self._blame("prefetch", alloc)
        lo, hi = alloc.page_range(ptr.addr, nbytes)
        cost = self.platform.um.prefetch(alloc, lo, hi, processor_from_device_id(device_id))
        if stream is None:
            self.platform.clock.advance(cost)
        else:
            stream.enqueue(cost)
        return cudaError_t.cudaSuccess

    # ------------------------------------------------------------------ #
    # kernel launch

    def launch(
        self,
        kernel: Callable[..., None],
        grid: int,
        block: int,
        *args: Any,
        name: str | None = None,
        work: int | None = None,
        ops_per_element: float = 1.0,
        stream: Stream | None = None,
    ) -> None:
        """Launch ``kernel<<<grid, block>>>(*args)``.

        :param work: number of element-operations the kernel performs
            (defaults to one per thread); drives simulated compute time.
        :param stream: run asynchronously on this stream (the body still
            executes eagerly -- only the simulated time is deferred).
        """
        config = LaunchConfig(grid, block)
        kname = name or getattr(kernel, "__name__", "kernel")
        self.kernel_launches += 1
        for obs in self._subs_kernel_launch:
            obs.on_kernel_launch(kname, grid, block)

        ctx = KernelContext(self, config, kname)
        mem_cost = 0.0
        prev = (self.current_proc, self._accessors, self._current_kernel)
        self.current_proc, self._accessors = Processor.GPU, grid
        self._current_kernel = kname
        self._kernel_depth += 1
        self._kernel_mem_cost = 0.0
        try:
            kernel(ctx, *args)
            mem_cost = self._kernel_mem_cost
        finally:
            self._kernel_depth -= 1
            self.current_proc, self._accessors, self._current_kernel = prev

        n = work if work is not None else config.threads
        duration = self.platform.gpu.compute_time(n, ops_per_element) + mem_cost
        if stream is None:
            self.platform.clock.advance(duration)
        else:
            stream.enqueue(duration)
        for obs in self._subs_kernel_complete:
            obs.on_kernel_complete(kname, grid, block, duration)

    def device_synchronize(self) -> cudaError_t:
        """``cudaDeviceSynchronize``: drain all streams into the clock."""
        for s in self._streams:
            s.synchronize()
        return cudaError_t.cudaSuccess

    def new_stream(self, name: str = "stream") -> Stream:
        """``cudaStreamCreate``."""
        s = self.platform.new_stream(name)
        self._streams.append(s)
        return s

    # ------------------------------------------------------------------ #
    # host compute

    def cpu_compute(self, elements: int, ops_per_element: float = 1.0) -> None:
        """Charge host-side compute time for ``elements`` work items."""
        self.platform.clock.advance(
            self.platform.cpu.compute_time(elements, ops_per_element)
        )

    @contextmanager
    def accessors(self, n: int) -> Iterator[None]:
        """Temporarily override the concurrent-accessor count.

        Kernels use this around accesses performed by a subset of the grid
        (e.g. the single block that finalizes a reduction) so the fault
        replay model is not charged for the whole launch.
        """
        if n <= 0:
            raise ValueError("accessor count must be positive")
        prev = self._accessors
        self._accessors = n
        try:
            yield
        finally:
            self._accessors = prev

    # ------------------------------------------------------------------ #
    # the access funnel

    def record_access(
        self,
        alloc: Allocation,
        byte_offset: int,
        elem_size: int,
        count: int,
        *,
        is_write: bool,
        indices: np.ndarray | None,
        is_rmw: bool,
        site: str = "",
    ) -> None:
        """Charge, simulate and publish one (possibly vectorized) access.

        :param site: blame site of the access when causes are tracked
            (the debugger passes the interpreted source line).
        """
        proc = self.current_proc
        nbytes = count * elem_size

        self._blame("access", alloc, site)
        if indices is None:
            out = self.platform.um.access_bytes(
                alloc, byte_offset, nbytes, proc,
                is_write=is_write, accessors=self._accessors,
            )
        else:
            addrs = byte_offset + indices * elem_size
            touched = unique(addrs // PAGE_SIZE)
            out = self.platform.um.access(
                alloc, int(touched[0]), int(touched[-1]) + 1, proc,
                is_write=is_write, nbytes=nbytes,
                accessors=self._accessors, pages=touched,
            )
        if self._kernel_depth > 0:
            self._kernel_mem_cost += out.cost
        else:
            self.platform.clock.advance(out.cost)

        # A read-modify-write is published once with is_rmw=True; observers
        # are responsible for both legs (read of the old value, then write).
        for obs in self._subs_access:
            obs.on_access(proc, alloc, byte_offset, elem_size, count,
                          is_write, indices, is_rmw)

    # ------------------------------------------------------------------ #
    # helpers

    def _resolve(
        self, end: DevicePtr | np.ndarray | None, nbytes: int, which: str
    ) -> tuple[Allocation | None, int]:
        if end is None:
            if self.materialize:
                raise CudaError(cudaError_t.cudaErrorInvalidValue,
                                f"memcpy {which} is None in a materialized run")
            return None, 0
        if isinstance(end, DevicePtr):
            if end.offset + nbytes > end.alloc.size:
                raise CudaError(cudaError_t.cudaErrorInvalidValue,
                                f"memcpy {which} range exceeds allocation")
            return end.alloc, end.offset
        if isinstance(end, np.ndarray):
            if end.nbytes < nbytes:
                raise CudaError(cudaError_t.cudaErrorInvalidValue,
                                f"memcpy {which} host buffer too small")
            return None, 0
        raise CudaError(cudaError_t.cudaErrorInvalidValue,
                        f"memcpy {which} must be DevicePtr or ndarray")

    @staticmethod
    def _kind_of(alloc: Allocation | None) -> str:
        if alloc is None or alloc.kind is MemoryKind.HOST:
            return "host"
        return "device"

    def _check_direction(self, kind: cudaMemcpyKind,
                         dst: Allocation | None, src: Allocation | None) -> None:
        if kind is cudaMemcpyKind.cudaMemcpyDefault:
            return
        expect = {
            cudaMemcpyKind.cudaMemcpyHostToHost: ("host", "host"),
            cudaMemcpyKind.cudaMemcpyHostToDevice: ("device", "host"),
            cudaMemcpyKind.cudaMemcpyDeviceToHost: ("host", "device"),
            cudaMemcpyKind.cudaMemcpyDeviceToDevice: ("device", "device"),
        }[kind]
        # Managed memory is legal on either side of any direction.
        actual = (self._kind_of(dst), self._kind_of(src))
        managed = (
            (dst is not None and dst.kind is MemoryKind.MANAGED),
            (src is not None and src.kind is MemoryKind.MANAGED),
        )
        for got, want, is_managed in zip(actual, expect, managed):
            if not is_managed and got != want:
                raise CudaError(cudaError_t.cudaErrorInvalidMemcpyDirection,
                                f"{kind.name} with {actual[1]}->{actual[0]} endpoints")

    def _copy_payload(
        self,
        dst: DevicePtr | np.ndarray, dst_alloc: Allocation | None, dst_off: int,
        src: DevicePtr | np.ndarray, src_alloc: Allocation | None, src_off: int,
        nbytes: int,
    ) -> None:
        src_bytes: np.ndarray | None
        if src_alloc is not None:
            src_bytes = (src_alloc.data[src_off:src_off + nbytes]
                         if src_alloc.materialized else None)
        elif src is not None:
            src_bytes = np.ascontiguousarray(src).view(np.uint8).ravel()[:nbytes]
        else:
            src_bytes = None
        if dst_alloc is not None:
            if dst_alloc.materialized and src_bytes is not None:
                dst_alloc.data[dst_off:dst_off + nbytes] = src_bytes
        elif dst is not None and src_bytes is not None:
            flat = np.asarray(dst).view(np.uint8).ravel()
            flat[:nbytes] = src_bytes
