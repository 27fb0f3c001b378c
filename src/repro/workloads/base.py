"""Shared workload scaffolding.

Every benchmark application in this package runs against a
:class:`~repro.cudart.CudaRuntime` in one of two regimes:

* **diagnosis** -- small problem sizes, materialized data, full XPlacer
  tracing, diagnostics at the pragma points (how the paper's figures 4, 5,
  7, 8 and 10 and Table II are produced);
* **timing** -- paper-scale problem sizes, footprint-only allocations,
  tracing optional, simulated time from the platform clock (figures 6, 9
  and 11; tracing *on* vs *off* gives Table III's overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis import Diagnosis
from ..cudart import CudaRuntime
from ..memsim import PLATFORMS, Platform
from ..runtime import Tracer

__all__ = ["Session", "WorkloadRun", "make_session"]


@dataclass
class Session:
    """A runtime + optional tracer bound to one platform."""

    platform: Platform
    runtime: CudaRuntime
    tracer: Tracer | None

    @property
    def sim_time(self) -> float:
        """Simulated seconds elapsed on this session's clock."""
        return self.platform.clock.now


@dataclass
class WorkloadRun:
    """Outcome of one workload execution."""

    name: str
    variant: str
    platform: str
    sim_time: float
    diagnoses: list[Diagnosis] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)


def make_session(
    platform: Platform | str | Callable[[], Platform] = "intel-pascal",
    *,
    trace: bool = True,
    materialize: bool = True,
    gpu_memory_bytes: int | None = None,
) -> Session:
    """Build a fresh simulated session.

    :param platform: a :class:`Platform`, a preset name, or a factory.
    :param trace: attach an XPlacer tracer.
    :param materialize: back allocations with real numpy buffers.
    :param gpu_memory_bytes: override GPU memory (oversubscription studies).
    """
    if isinstance(platform, str):
        factory = PLATFORMS[platform]
        plat = factory(gpu_memory_bytes=gpu_memory_bytes) if gpu_memory_bytes \
            else factory()
    elif callable(platform) and not isinstance(platform, Platform):
        plat = platform()
    else:
        plat = platform
    runtime = CudaRuntime(plat, materialize=materialize)
    tracer = Tracer().attach(runtime) if trace else None
    return Session(platform=plat, runtime=runtime, tracer=tracer)
