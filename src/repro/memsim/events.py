"""Event log for the unified-memory driver.

Every observable driver action (page fault, migration, duplication,
invalidation, eviction, explicit transfer, remote access) is recorded here.
The log serves two purposes: tests assert on driver behaviour through it,
and the evaluation harness derives fault/migration statistics from it
(e.g. the "GPU page fault groups" the paper attributes Smith-Waterman's
slow runs to).

Since the causal-provenance work every event also carries a **stable id**
(its position in the recording sequence) and an optional **cause link**
(:class:`CauseLink`): which source line / kernel / API call triggered the
work, and the id of the upstream event that made it necessary -- e.g. a
GPU fault whose ``parent`` is the CPU-triggered migration that stole the
page.  :mod:`repro.causes` builds blame tables and critical paths from
these links.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterator

from .devices import Processor

__all__ = ["EventKind", "Event", "EventLog", "CauseLink"]


class EventKind(enum.Enum):
    """Kinds of driver events."""

    PAGE_FAULT = "page_fault"          # a fault group (one per faulting access)
    MIGRATION = "migration"            # pages moved between memories
    DUPLICATION = "duplication"        # read-mostly copy created
    INVALIDATION = "invalidation"      # read-mostly copies dropped on write
    EVICTION = "eviction"              # GPU pages evicted to host (capacity)
    TRANSFER = "transfer"              # explicit cudaMemcpy traffic
    REMOTE_ACCESS = "remote_access"    # access served over the link w/o migration
    POPULATE = "populate"              # first-touch page population
    MAP = "map"                        # page mapped into a processor's tables
    PHASE = "phase"                    # access-pattern phase begin/end marker


@dataclass(frozen=True)
class CauseLink:
    """Why one driver event happened.

    :param site: source site (``file:line (func)``) of the triggering
        access/API call, when attribution is enabled.
    :param kernel: kernel executing when the work was triggered (empty for
        host-side work).
    :param api: runtime verb that entered the driver: ``access``,
        ``memcpy``, ``memset``, ``prefetch`` or ``advise``.
    :param alloc: label of the allocation whose access triggered the work
        (for evictions this is the *incoming* allocation that created the
        capacity pressure, not the victim).
    :param parent: id of the upstream event that made this work necessary
        (-1 when none): a re-fault's parent is the migration, invalidation
        or eviction that removed the page.
    """

    site: str = ""
    kernel: str = ""
    api: str = ""
    alloc: str = ""
    parent: int = -1


@dataclass(frozen=True)
class Event:
    """One driver event.

    :param kind: what happened.
    :param time: simulated time at which it happened.
    :param device: the processor whose access caused the event.
    :param pages: number of pages involved (0 for byte-granular events).
    :param nbytes: bytes moved/touched, when meaningful.
    :param cost: simulated seconds charged for the event.
    :param detail: free-form annotation (allocation label etc.).
    :param cause: optional provenance link (see :class:`CauseLink`).
    :param id: stable sequence id, assigned by :meth:`EventLog.record`
        (-1 until recorded).
    """

    kind: EventKind
    time: float
    device: Processor
    pages: int = 0
    nbytes: int = 0
    cost: float = 0.0
    detail: str = ""
    cause: CauseLink | None = None
    id: int = -1


class EventLog:
    """Append-only sequence of :class:`Event` with aggregate counters.

    Retention: the log keeps the most recent ``capacity`` events, so
    unbounded runs can stream forever at a fixed footprint.  Aggregate
    counters always cover the full run.

    Overflow is never silent: every event that falls out of retention is
    either handed to the :attr:`spill` sink (evict-to-disk, see
    :mod:`repro.stream`) or counted in :attr:`dropped` and announced to
    the drop listeners, so telemetry can surface the loss.
    """

    def __init__(self, *, capacity: int = 1_000_000) -> None:
        """:param capacity: bound on retained events; beyond it the oldest
            events fall out rather than exhausting memory.
        """
        self._capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._next_id = 0
        self._listeners: list[Callable[[Event], None]] = []
        self._drop_listeners: list[Callable[[Event], None]] = []
        #: Events that fell out of retention *without* being spilled,
        #: by kind.
        self.dropped: Counter[EventKind] = Counter()
        #: Evict-to-disk sink: when set, overflowed events are handed here
        #: instead of being dropped (and ``dropped`` stays untouched).
        self.spill: Callable[[Event], None] | None = None
        self.counts: Counter[EventKind] = Counter()
        self.pages: Counter[EventKind] = Counter()
        self.bytes: Counter[EventKind] = Counter()
        self.costs: dict[EventKind, float] = {k: 0.0 for k in EventKind}

    def record(self, event: Event) -> Event:
        """Append ``event``, assign its id and update aggregates.

        Returns the event (now carrying its stable ``id``) so callers can
        reference it in later cause links.
        """
        object.__setattr__(event, "id", self._next_id)
        self._next_id += 1
        self.counts[event.kind] += 1
        self.pages[event.kind] += event.pages
        self.bytes[event.kind] += event.nbytes
        self.costs[event.kind] += event.cost
        if len(self._events) >= self._capacity:
            # Full: the oldest event (or, at capacity 0, this one) leaves.
            self._overflow(self._events[0] if self._events else event)
        self._events.append(event)
        if self._listeners:
            for cb in tuple(self._listeners):
                cb(event)
        return event

    def _overflow(self, victim: Event) -> None:
        """Route one event falling out of retention (spill or drop)."""
        if self.spill is not None:
            self.spill(victim)
            return
        self.dropped[victim.kind] += 1
        for cb in tuple(self._drop_listeners):
            cb(victim)

    def configure_retention(self, *, capacity: int) -> None:
        """Re-bound retention in place (streaming runs shrink the window).

        Already-retained events beyond the new bound are routed through
        the normal overflow path (spilled or counted as dropped), never
        silently discarded.  Counters and the id sequence are untouched.
        """
        self._capacity = max(0, int(capacity))
        retained = list(self._events)
        cut = max(0, len(retained) - self._capacity)
        self._events = deque(retained[cut:], maxlen=self._capacity)
        for event in retained[:cut]:
            self._overflow(event)

    # ------------------------------------------------------------------ #
    # live taps (telemetry)

    def add_listener(self, callback: Callable[[Event], None]) -> None:
        """Invoke ``callback(event)`` on every future :meth:`record`.

        Listeners are the live-streaming counterpart of the retained event
        list: the telemetry recorder subscribes here so driver activity can
        be exported even when retention has overflowed.
        """
        if callback not in self._listeners:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[Event], None]) -> None:
        """Detach a previously added listener (no-op if absent)."""
        if callback in self._listeners:
            self._listeners.remove(callback)

    def add_drop_listener(self, callback: Callable[[Event], None]) -> None:
        """Invoke ``callback(event)`` whenever retention drops an event.

        Fires only for true losses: events overflowing retention with no
        :attr:`spill` sink installed.  Telemetry subscribes here to emit
        the ``repro_events_dropped_total`` counter.
        """
        if callback not in self._drop_listeners:
            self._drop_listeners.append(callback)

    def remove_drop_listener(self, callback: Callable[[Event], None]) -> None:
        """Detach a previously added drop listener (no-op if absent)."""
        if callback in self._drop_listeners:
            self._drop_listeners.remove(callback)

    @property
    def dropped_total(self) -> int:
        """Events lost from retention (not spilled), across all kinds."""
        return sum(self.dropped.values())

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def fault_groups(self) -> int:
        """Number of page-fault groups recorded so far."""
        return self.counts[EventKind.PAGE_FAULT]

    @property
    def migrated_pages(self) -> int:
        """Total pages migrated (demand migration only, not eviction)."""
        return self.pages[EventKind.MIGRATION]

    def total_cost(self) -> float:
        """Simulated seconds charged across all memory-system events."""
        return sum(self.costs.values())

    def summary(self) -> dict[str, float]:
        """Compact dict of headline statistics (used by reports/tests)."""
        return {
            "fault_groups": self.fault_groups,
            "migrated_pages": self.migrated_pages,
            "duplicated_pages": self.pages[EventKind.DUPLICATION],
            "invalidations": self.counts[EventKind.INVALIDATION],
            "evicted_pages": self.pages[EventKind.EVICTION],
            "transfer_bytes": self.bytes[EventKind.TRANSFER],
            "remote_accesses": self.counts[EventKind.REMOTE_ACCESS],
            "memory_time": self.total_cost(),
        }
