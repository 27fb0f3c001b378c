"""Observer protocol through which XPlacer's runtime watches the CUDA API.

In the paper, instrumentation rewrites the *source* so every heap access
and CUDA call goes through the tracing API.  In the Python workloads the
same effect is achieved by subscription: the simulated runtime publishes
every allocation, access, transfer, advice call and kernel launch to its
observers, and :class:`repro.runtime.tracer.Tracer` is such an observer.
(The mini-CUDA pipeline instead calls the tracing API explicitly from
instrumented source, exactly like the paper.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..memsim import Allocation, Processor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .advice import cudaMemcpyKind, cudaMemoryAdvise

__all__ = ["ObserverBase", "overriders"]


def overriders(observers, name: str) -> tuple:
    """Observers that actually implement callback ``name``.

    An observer inheriting :class:`ObserverBase`'s no-op (and not shadowing
    it on the instance) can be skipped entirely, so the runtime's publish
    sites iterate precomputed per-callback tuples instead of calling a
    no-op per subscriber per access -- disabled telemetry costs nothing.
    """
    base = getattr(ObserverBase, name)
    return tuple(
        o for o in observers
        if name in getattr(o, "__dict__", ())
        or getattr(type(o), name, base) is not base
    )


class ObserverBase:
    """What a subscriber to the simulated CUDA runtime implements.

    Every callback is a no-op here; subclass and override what you need.
    """

    def on_alloc(self, alloc: Allocation) -> None:
        """A heap allocation (host, device or managed) was created."""

    def on_free(self, alloc: Allocation) -> None:
        """An allocation was released."""

    def on_access(
        self,
        proc: Processor,
        alloc: Allocation,
        byte_offset: int,
        elem_size: int,
        count: int,
        is_write: bool,
        indices: np.ndarray | None,
        is_rmw: bool,
    ) -> None:
        """``count`` elements of ``elem_size`` bytes were accessed.

        ``indices`` (element indices relative to ``byte_offset``) is given
        for gather/scatter accesses; ``None`` means the contiguous range
        ``[byte_offset, byte_offset + count * elem_size)``.
        """

    def on_memcpy(
        self,
        dst: Allocation,
        dst_off: int,
        src: Allocation,
        src_off: int,
        nbytes: int,
        kind: "cudaMemcpyKind",
    ) -> None:
        """An explicit ``cudaMemcpy`` moved ``nbytes``."""

    def on_kernel_launch(self, name: str, grid: int, block: int) -> None:
        """A kernel was launched."""

    def on_kernel_complete(self, name: str, grid: int, block: int,
                           duration: float) -> None:
        """A kernel finished; ``duration`` is its simulated seconds."""

    def on_advice(self, alloc: Allocation, advice: "cudaMemoryAdvise",
                  byte_offset: int, nbytes: int, device_id: int) -> None:
        """``cudaMemAdvise`` was applied to a range."""
