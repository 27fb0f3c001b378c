"""A CUPTI-style per-kernel profiler.

The paper's §III-B and conclusion suggest wrapping kernel launches "to
record data before and after the launch of a CUDA kernel, such as the
number of page faults reported by the operating system or CUPTI", and
name per-kernel fault attribution as the natural next step for the
runtime.  :class:`KernelProfiler` implements exactly that against the
simulated driver: it snapshots the unified-memory event counters around
every launch and attributes the delta -- fault groups, migrated pages,
remote traffic, evictions, memory stall time -- to that kernel instance.
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass

from ..memsim import Platform

from .observer import ObserverBase

__all__ = ["KernelProfile", "KernelProfiler"]


@dataclass(frozen=True)
class KernelProfile:
    """Memory-system activity attributed to one kernel launch."""

    name: str
    launch_index: int
    grid: int
    block: int
    duration: float          #: simulated seconds, compute + memory stalls
    fault_groups: int
    migrated_pages: int
    duplicated_pages: int
    remote_accesses: int
    evicted_pages: int
    memory_time: float       #: simulated seconds of driver-charged time

    @property
    def memory_fraction(self) -> float:
        """Share of the kernel's time spent in the memory system."""
        return self.memory_time / self.duration if self.duration > 0 else 0.0


class KernelProfiler(ObserverBase):
    """Attributes driver events to kernel launches (CUPTI stand-in)."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.profiles: list[KernelProfile] = []
        self._pending: list[tuple[str, int, int, dict]] = []
        self._launches = 0

    # ------------------------------------------------------------------ #
    # observer callbacks

    def on_kernel_launch(self, name: str, grid: int, block: int) -> None:  # noqa: D102
        self._pending.append((name, grid, block,
                              self.platform.events.summary()))

    def on_kernel_complete(self, name: str, grid: int, block: int,
                           duration: float) -> None:  # noqa: D102
        if not self._pending:
            return
        # Completions may arrive out of launch order (stream overlap);
        # match the oldest pending launch with the same identity, falling
        # back to plain FIFO for anonymous/renamed kernels.
        for i, (pname, pgrid, pblock, _) in enumerate(self._pending):
            if (pname, pgrid, pblock) == (name, grid, block):
                break
        else:
            i = 0
        lname, lgrid, lblock, before = self._pending.pop(i)
        after = self.platform.events.summary()
        delta = {k: after[k] - before[k] for k in after}
        self._launches += 1
        self.profiles.append(KernelProfile(
            name=lname,
            launch_index=self._launches,
            grid=lgrid,
            block=lblock,
            duration=duration,
            fault_groups=int(delta["fault_groups"]),
            migrated_pages=int(delta["migrated_pages"]),
            duplicated_pages=int(delta["duplicated_pages"]),
            remote_accesses=int(delta["remote_accesses"]),
            evicted_pages=int(delta["evicted_pages"]),
            memory_time=delta["memory_time"],
        ))

    # ------------------------------------------------------------------ #
    # aggregation

    def by_kernel(self) -> dict[str, dict]:
        """Totals per kernel name (like a CUPTI summary view)."""
        agg: dict[str, dict] = defaultdict(lambda: {
            "launches": 0, "fault_groups": 0, "migrated_pages": 0,
            "duration": 0.0, "memory_time": 0.0,
        })
        for p in self.profiles:
            a = agg[p.name]
            a["launches"] += 1
            a["fault_groups"] += p.fault_groups
            a["migrated_pages"] += p.migrated_pages
            a["duration"] += p.duration
            a["memory_time"] += p.memory_time
        return dict(agg)

    def hotspots(self, n: int = 5) -> list[tuple[str, dict]]:
        """Kernel names ranked by attributed memory-system time."""
        return sorted(self.by_kernel().items(),
                      key=lambda kv: kv[1]["memory_time"], reverse=True)[:n]

    def report(self, top: int = 10) -> str:
        """Human-readable hotspot table ("which kernels fault and why")."""
        out = io.StringIO()
        out.write(f"{'kernel':28s}{'launches':>9s}{'faults':>8s}"
                  f"{'migrated':>9s}{'time':>11s}{'mem%':>6s}\n")
        for name, a in self.hotspots(top):
            mem_pct = (100.0 * a["memory_time"] / a["duration"]
                       if a["duration"] else 0.0)
            out.write(f"{name:28s}{a['launches']:9d}{a['fault_groups']:8d}"
                      f"{a['migrated_pages']:9d}"
                      f"{a['duration'] * 1e3:9.2f}ms{mem_pct:5.0f}%\n")
        return out.getvalue()

    def reset(self) -> None:
        """Drop collected profiles, pending snapshots and the launch count.

        Clearing ``_pending`` matters when resetting mid-launch: a stale
        snapshot would otherwise be matched against a later completion and
        leak pre-reset deltas into the next profile.
        """
        self.profiles.clear()
        self._pending.clear()
        self._launches = 0
