"""Spill-and-merge collection: bounded memory, everything on disk.

Two pieces turn the in-memory observability stores into streaming ones:

* :class:`SpillingHeatStore` -- a :class:`~repro.heatmap.store.HeatStore`
  whose epoch snapshots are handed to a sink as they freeze and then
  released, so heat memory stays flat no matter how many epochs a run
  closes.
* :class:`StreamSpiller` -- wires one session into a
  :class:`~repro.stream.segments.SegmentWriter`: the event log's ring
  retention becomes *evict-to-disk* (the :attr:`EventLog.spill` sink),
  the heat epochs the session tracer's :class:`SpillingHeatStore`
  freezes buffer up, and every closed tracing epoch -- or an
  event-buffer watermark, whichever comes first -- appends one framed
  segment to the shard log, with the rollup the manifest publishes for
  ``repro-top``.

Because ring eviction is FIFO and the final flush drains the still-
retained tail in order, the concatenated segments contain *every* driver
event exactly once, in recording order -- the property the merge algebra
(:mod:`repro.stream.merge`) relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from ..cudart.observer import ObserverBase
from ..heatmap.store import CHANNELS, AllocationHeat, EpochHeat, HeatStore, SourceSite
from ..memsim import Event
from ..telemetry.events_jsonl import encode_driver_event

from .segments import SegmentWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.base import Session

__all__ = ["SpillingHeatStore", "StreamSpiller",
           "encode_heat_epoch", "decode_heat_epoch", "encode_alloc_meta"]


def encode_alloc_meta(heat: AllocationHeat) -> dict[str, Any]:
    """Geometry record for one allocation (written before its heat)."""
    return {"type": "alloc_meta", "label": heat.label, "base": heat.base,
            "serial": heat.serial, "size": heat.size,
            "nwords": heat.nwords, "nbuckets": heat.nbuckets}


def encode_heat_epoch(heat: AllocationHeat, snap: EpochHeat) -> dict[str, Any]:
    """One frozen epoch of one allocation as a segment record."""
    return {
        "type": "heat_epoch",
        "base": heat.base,
        "serial": heat.serial,
        "label": heat.label,
        "epoch": snap.epoch,
        "counts": snap.counts.tolist(),
        "sites": [[s.file, s.line, s.func, vec.tolist()]
                  for s, vec in snap.sites.items()],
    }


def decode_heat_epoch(rec: Mapping[str, Any], nbuckets: int) -> EpochHeat:
    """Rebuild an :class:`EpochHeat` from its segment record."""
    import numpy as np

    counts = np.asarray(rec["counts"], np.int64)
    if counts.shape != (len(CHANNELS), nbuckets):
        raise ValueError(
            f"heat_epoch counts shape {counts.shape} != "
            f"({len(CHANNELS)}, {nbuckets})")
    sites = {SourceSite(file, int(line), func): np.asarray(vec, np.int64)
             for file, line, func, vec in rec.get("sites", ())}
    return EpochHeat(epoch=int(rec["epoch"]), counts=counts, sites=sites)


class SpillingHeatStore(HeatStore):
    """A heat store whose frozen epochs stream out instead of piling up.

    Once :meth:`StreamSpiller.attach` has installed :attr:`sink`, every
    snapshot goes to it as it freezes and the store releases it.  The
    pairs :meth:`advance_epoch` returns still hold the released
    snapshots, so the tracer's epoch hooks (live phase tracking) see
    every epoch.
    """

    #: Called as ``sink(alloc_heat, epoch_heat)`` for each snapshot
    #: frozen; ``None`` (no spiller yet) keeps snapshots in memory.
    sink = None

    def advance_epoch(
            self, closed_epoch: int) -> list[tuple[AllocationHeat, EpochHeat]]:
        """Freeze accumulators, stream the snapshots, release the memory."""
        frozen = [(heat, snap) for heat in self._allocs.values()
                  if (snap := heat.freeze(closed_epoch)) is not None]
        if self.sink is not None:
            for heat, snap in frozen:
                self.sink(heat, snap)
                heat.epochs.pop()
        self.epochs_closed.append(closed_epoch)
        return frozen


class StreamSpiller(ObserverBase):
    """Bridges one live session onto an on-disk segment stream.

    :param out_dir: stream directory to write (see :mod:`.segments`).
    :param shard: shard identity (unique per concurrent process).
    :param workload: manifest metadata.
    :param platform: manifest metadata (preset name).
    :param config: manifest metadata.
    :param watermark_events: buffered-event count that forces an early
        segment flush between epoch boundaries (the memory watermark).
    """

    def __init__(self, out_dir, *, shard: str = "shard-0",
                 workload: str = "", platform: str = "",
                 config: Mapping[str, Any] | None = None,
                 watermark_events: int = 16384) -> None:
        self.writer = SegmentWriter(out_dir, shard=shard, workload=workload,
                                    platform=platform, config=config)
        self.watermark_events = max(1, watermark_events)
        self.heat: SpillingHeatStore | None = None
        self.segments_written = 0
        self.events_spilled = 0
        self.heat_epochs_spilled = 0
        self._pending: list[dict[str, Any]] = []
        self._pending_events = 0
        self._meta_written: set[tuple[int, int]] = set()
        self._alloc_totals: dict[str, int] = {}
        self._session: "Session | None" = None
        self._prev_spill = None
        self._closed = False
        #: Optional :class:`~repro.signature.tracker.PhaseTracker`; when
        #: set, its live state rides the manifest rollup (``repro-top``'s
        #: phase line) and its markers land in the event stream like any
        #: other driver event.
        self.phase_source = None

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, session: "Session") -> "StreamSpiller":
        """Wire into ``session``: event-log spill sink, epoch hook, and the
        sink of the :class:`SpillingHeatStore` its tracer records into.

        The session's event log keeps its configured retention; what the
        ring would have dropped now lands in the stream instead.  Raises
        :class:`TypeError` when the tracer's heat store is not a
        :class:`SpillingHeatStore`.  Returns self.
        """
        if self._session is not None:
            raise RuntimeError("StreamSpiller is already attached")
        heat = getattr(session.tracer, "heat", None)
        if not isinstance(heat, SpillingHeatStore):
            raise TypeError("StreamSpiller needs the session tracer to "
                            "record heat into a SpillingHeatStore, not "
                            f"{type(heat).__name__}")
        self._session = session
        self.heat = heat
        heat.sink = self._on_heat_epoch
        log = session.platform.events
        self._prev_spill = log.spill
        log.spill = self._spill_event
        session.runtime.subscribe(self)
        session.tracer.epoch_hooks.append(self._on_epoch)
        return self

    def close(self) -> dict[str, Any]:
        """Drain retained state, finalize the manifest, unwire.

        Residual heat that never saw a diagnostic reset is frozen first;
        the events still held by the ring flush in order after everything
        the ring already evicted, so the stream ends complete.  Returns
        the final manifest dict.
        """
        if self._closed:
            return self.writer.manifest()
        session = self._session
        if session is not None:
            self.heat.flush_current()
            log = session.platform.events
            for event in log:
                self._append(encode_driver_event(event))
                self.events_spilled += 1
            self._flush_segment()
            log.spill = self._prev_spill
            session.runtime.unsubscribe(self)
            session.tracer.epoch_hooks.remove(self._on_epoch)
        self.writer.finalize(self._rollup())
        self._closed = True
        self._session = None
        return self.writer.manifest()

    # ------------------------------------------------------------------ #
    # sinks

    def _append(self, record: dict[str, Any]) -> None:
        self._pending.append(record)

    def _spill_event(self, event: Event) -> None:
        """EventLog evict-to-disk sink (replaces silent ring drops)."""
        self._append(encode_driver_event(event))
        self.events_spilled += 1
        self._pending_events += 1
        if self._pending_events >= self.watermark_events:
            self._flush_segment()

    def _on_heat_epoch(self, heat: AllocationHeat, snap: EpochHeat) -> None:
        key = (heat.base, heat.serial)
        if key not in self._meta_written:
            self._meta_written.add(key)
            self._append(encode_alloc_meta(heat))
        self._append(encode_heat_epoch(heat, snap))
        self.heat_epochs_spilled += 1
        self._alloc_totals[heat.label] = \
            self._alloc_totals.get(heat.label, 0) + snap.total

    def _on_epoch(self, closed: int, frozen) -> None:
        """Tracer epoch hook: every closed epoch lands one segment.

        The heat store sank ``frozen`` while freezing it, before the
        hooks fired, so the marker always follows its epoch's heat.
        """
        t = self._session.platform.clock.now if self._session else 0.0
        self._append({"type": "epoch", "epoch": closed, "t": t})
        self._flush_segment()

    def on_alloc(self, alloc) -> None:  # noqa: D102 (observer callback)
        self._append({"type": "alloc", "label": alloc.label,
                      "base": alloc.base, "bytes": alloc.size,
                      "kind": alloc.kind.value,
                      "site": getattr(alloc, "site", "")})

    # ------------------------------------------------------------------ #
    # segment output

    def _flush_segment(self) -> None:
        if not self._pending:
            return
        self.writer.write_segment(self._pending, rollup=self._rollup())
        self.segments_written += 1
        self._pending = []
        self._pending_events = 0

    def _rollup(self) -> dict[str, Any]:
        session = self._session
        rollup: dict[str, Any] = {
            "events_spilled": self.events_spilled,
            "heat_epochs_spilled": self.heat_epochs_spilled,
            "segments": len(self.writer.segments),
            "allocs": [{"label": label, "total": total}
                       for label, total in sorted(self._alloc_totals.items())],
        }
        if self.heat is not None:
            rollup["epochs_closed"] = len(self.heat.epochs_closed)
            rollup["heat_records"] = self.heat.records
        if session is not None:
            log = session.platform.events
            rollup["summary"] = {k: float(v) if isinstance(v, float) else int(v)
                                 for k, v in log.summary().items()}
            rollup["events_dropped"] = log.dropped_total
            rollup["sim_time"] = session.platform.clock.now
            rollup["gpu_pages_in_use"] = session.platform.um.gpu_pages_in_use
        if self.phase_source is not None:
            rollup["phase"] = self.phase_source.rollup()
        return rollup
