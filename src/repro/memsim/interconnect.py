"""CPU<->GPU interconnect models.

Two families matter for reproducing the paper's platform-dependent results:

* **PCIe** (the Intel testbeds): moderate bandwidth, no hardware coherence.
  A GPU access to a non-resident managed page must either fault-and-migrate
  the page or go through an explicitly established zero-copy mapping with a
  high per-byte cost.
* **NVLink 2.0** (the IBM Power9 testbed): high bandwidth *and* cache
  coherence with address translation services.  The GPU can access host
  memory through a mapping at a small per-access penalty, so fault storms
  on shared pages largely disappear -- which is exactly why the paper's
  LULESH remedies barely help (1.03x) or even hurt (ReadMostly: 0.8x)
  on that machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Link", "LinkStats", "pcie3", "nvlink2"]


@dataclass
class LinkStats:
    """Accumulated traffic through one :class:`Link` (telemetry hook).

    Every cost query corresponds to one simulated DMA batch or remote
    access batch, so the counters double as utilization metrics: the
    telemetry layer snapshots them into gauges/counters without the link
    needing to know anything about the metrics registry.
    """

    transfers: int = 0
    transfer_bytes: int = 0
    transfer_time: float = 0.0
    remote_accesses: int = 0
    remote_bytes: int = 0
    remote_time: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat mapping for metric emission."""
        return {
            "transfers": self.transfers,
            "transfer_bytes": self.transfer_bytes,
            "transfer_time": self.transfer_time,
            "remote_accesses": self.remote_accesses,
            "remote_bytes": self.remote_bytes,
            "remote_time": self.remote_time,
        }


@dataclass(frozen=True)
class Link:
    """A bidirectional CPU-GPU link.

    :param name: label used in reports.
    :param bandwidth: payload bandwidth in bytes/second.
    :param latency: fixed per-transfer latency in seconds.
    :param coherent: whether the link supports cache-coherent remote access
        (NVLink on Power9).  Coherent links serve remote accesses at
        ``remote_access_time`` cost without migrating pages.
    :param remote_byte_time: seconds per byte for remote (non-migrating)
        access through a mapping.  On non-coherent links this models
        zero-copy/pinned access over PCIe and is comparatively expensive.
    :param remote_access_overhead: fixed seconds per remote access batch.
    """

    name: str
    bandwidth: float
    latency: float
    coherent: bool
    remote_byte_time: float
    remote_access_overhead: float
    #: Telemetry accumulator; mutable and excluded from equality so two
    #: identically configured links still compare equal.
    stats: LinkStats = field(default_factory=LinkStats, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if min(self.latency, self.remote_byte_time, self.remote_access_overhead) < 0:
            raise ValueError("times must be non-negative")

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` as one DMA transfer."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        cost = self.latency + nbytes / self.bandwidth
        self.stats.transfers += 1
        self.stats.transfer_bytes += nbytes
        self.stats.transfer_time += cost
        return cost

    def remote_access_time(self, nbytes: int) -> float:
        """Time for a processor to touch ``nbytes`` of remote memory in place."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        cost = self.remote_access_overhead + nbytes * self.remote_byte_time
        self.stats.remote_accesses += 1
        self.stats.remote_bytes += nbytes
        self.stats.remote_time += cost
        return cost


def pcie3(*, lanes: int = 16) -> Link:
    """PCIe gen3 xN link (x16 ~ 12 GB/s effective payload bandwidth)."""
    bw = 12e9 * lanes / 16
    return Link(
        name=f"PCIe3 x{lanes}",
        bandwidth=bw,
        latency=10e-6,
        coherent=False,
        # Uncached remote access over PCIe costs roughly an order of
        # magnitude more per byte than a streamed DMA.
        remote_byte_time=10.0 / bw,
        remote_access_overhead=1.5e-6,
    )


def nvlink2(*, bricks: int = 3) -> Link:
    """NVLink 2.0 with ``bricks`` links ganged (3 bricks ~ 75 GB/s per
    direction on Power9/Volta nodes; we use a conservative 60 GB/s)."""
    bw = 20e9 * bricks
    return Link(
        name=f"NVLink2 x{bricks}",
        bandwidth=bw,
        latency=2e-6,
        coherent=True,
        # Coherent remote access is close to local HBM latency-wise for
        # streaming reads; charge ~3x the DMA per-byte cost.
        remote_byte_time=3.0 / bw,
        remote_access_overhead=0.3e-6,
    )
