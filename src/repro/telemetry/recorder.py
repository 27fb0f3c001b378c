"""The telemetry recorder: one observer, three sinks.

:class:`TelemetryRecorder` subscribes to a :class:`~repro.cudart.CudaRuntime`
exactly like the XPlacer tracer does, taps the platform's
:class:`~repro.memsim.EventLog` through its listener hook, and registers as
the unified-memory driver's metrics hook.  Every observation fans out to
up to three sinks:

* a :class:`~repro.telemetry.metrics.MetricsRegistry` (counters/gauges/
  histograms, Prometheus exposition),
* a :class:`~repro.telemetry.timeline.TimelineBuilder` (Perfetto trace),
* a :class:`~repro.telemetry.events_jsonl.JsonlWriter` (structured stream).

A recorder may be attached to several sessions over its lifetime (the
evaluation harness runs one session per experiment case); each session
becomes its own process track in the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..cudart.observer import ObserverBase
from ..memsim import Event, EventKind, Platform

from .events_jsonl import (
    SCHEMA_VERSION,
    JsonlWriter,
    encode_driver_event,
    run_manifest,
)
from .metrics import MetricsRegistry
from .timeline import (
    TRACK_DRIVER,
    TRACK_GPU,
    TRACK_HOST,
    TRACK_LINK,
    TimelineBuilder,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.advisor import Diagnosis
    from ..cudart.api import CudaRuntime
    from ..runtime.tracer import Tracer

__all__ = ["TelemetryRecorder"]

#: Driver event kinds rendered as spans on the interconnect track.
_LINK_SPAN_KINDS = frozenset({
    EventKind.MIGRATION, EventKind.EVICTION, EventKind.TRANSFER,
    EventKind.DUPLICATION,
})
#: Driver event kinds rendered as instants on the driver track.
_DRIVER_INSTANT_KINDS = frozenset({
    EventKind.PAGE_FAULT, EventKind.INVALIDATION, EventKind.PHASE,
})
#: Soft cap on timeline events; beyond it new spans/instants are dropped
#: (counted in ``dropped_timeline_events``) so huge runs still produce
#: loadable traces.
MAX_TIMELINE_EVENTS = 200_000


@dataclass
class _SessionHooks:
    """Everything the recorder wired into one session (for detach)."""

    runtime: "CudaRuntime"
    platform: Platform
    pid: int
    listener: Any
    tracer: "Tracer | None" = None
    drop_listener: Any = None
    epoch_hook: Any = None
    pending_kernels: list[tuple[str, int, int, float]] = field(default_factory=list)
    #: Timeline anchor (time, track) of every drawn causal event, so later
    #: events can point flow arrows back at their parents.
    event_points: dict[int, tuple[float, int]] = field(default_factory=dict)
    #: Whether the tracer's backend attribution was already written to the
    #: JSONL stream (finalisation runs at both detach and flush).
    backend_recorded: bool = False


class TelemetryRecorder(ObserverBase):
    """Unified metrics + timeline + JSONL recording for simulated runs.

    :param jsonl: structured stream, or ``None`` to skip JSONL output.

    Access heat is not the recorder's: whoever creates a
    :class:`~repro.heatmap.store.HeatStore` installs it on the tracer
    and writes it (:meth:`~repro.heatmap.store.HeatStore.write`).
    """

    def __init__(self, *, jsonl: JsonlWriter | None = None) -> None:
        self.metrics = MetricsRegistry("xplacer_")
        self.timeline = TimelineBuilder()
        self.jsonl = jsonl
        self.dropped_timeline_events = 0
        self._flow_seq = 0
        #: Manifest fields used when the recorder itself has to open the
        #: stream (set by CLIs before the first attach).
        self.workload = ""
        self.config: dict[str, Any] = {}
        #: Backend attribution of the last compiled-backend tracer
        #: finalised (backend, launch counts, fallbacks) -- ``None`` for
        #: plain interpreter runs.
        self.backend: dict[str, Any] | None = None
        self._sessions: list[_SessionHooks] = []
        self._active: _SessionHooks | None = None
        self._declare_core_metrics()

    def _declare_core_metrics(self) -> None:
        """Pre-register the headline series at zero.

        A run that never faults (e.g. a pure cudaMalloc workload) still
        exposes the fault/migration/eviction/transfer families, so
        dashboards and the acceptance checks can rely on their presence.
        """
        m = self.metrics
        m.counter("page_fault_groups_total", "fault groups serviced").inc(0)
        m.counter("page_fault_pages_total", "faulting pages").inc(0)
        m.counter("migrated_pages_total",
                  "pages migrated on demand or by prefetch").inc(0)
        m.counter("evicted_pages_total",
                  "pages evicted to host for capacity").inc(0)
        m.counter("transfer_bytes_total", "explicit cudaMemcpy bytes").inc(0)
        m.counter("duplicated_pages_total", "read-mostly copies created").inc(0)
        m.counter("invalidated_pages_total",
                  "duplicated copies dropped on write").inc(0)
        m.counter("remote_access_bytes_total",
                  "bytes served over the link without migration").inc(0)
        m.counter("kernel_launches_total", "kernel launches").inc(0)
        # Contract name shared with the stream tooling: registered verbatim
        # (no ``xplacer_`` prefix) so dashboards see one series either way.
        m.counter("repro_events_dropped_total",
                  "driver events lost from retention (not spilled)",
                  absolute=True).inc(0)

    # ------------------------------------------------------------------ #
    # wiring

    def attach(self, runtime: "CudaRuntime", tracer: "Tracer | None" = None,
               *, label: str = "") -> "TelemetryRecorder":
        """Wire this recorder into ``runtime`` (and optionally ``tracer``).

        Subscribes as a runtime observer, adds an event-log listener, and
        installs the UM driver metrics hook.  While the UM driver tracks
        causes (``um.track_causes``), the JSONL stream gains ``cause``
        blocks and the timeline gains flow arrows from triggering kernels
        / upstream events to the work they caused.  Returns self.
        """
        platform = runtime.platform
        pid = len(self._sessions) + 1
        hooks = _SessionHooks(runtime=runtime, platform=platform, pid=pid,
                              listener=None, tracer=tracer)

        def listener(event: Event, _hooks=hooks) -> None:
            self._on_driver_event(_hooks, event)

        hooks.listener = listener

        def drop_listener(event: Event) -> None:
            self.metrics.counter(
                "repro_events_dropped_total",
                "driver events lost from retention (not spilled)",
                absolute=True).inc(1, kind=event.kind.value)

        hooks.drop_listener = drop_listener
        if self.jsonl is not None and self.jsonl.records == 0:
            self.jsonl.write(run_manifest(platform, workload=self.workload,
                                          config=self.config))
        self.timeline.declare_process(
            pid, label or f"{platform.name} session {pid}")
        runtime.subscribe(self)
        platform.events.add_listener(listener)
        platform.events.add_drop_listener(drop_listener)
        platform.um.metrics_hook = self._metrics_hook
        if tracer is not None:
            def epoch_hook(epoch: int, frozen, _hooks=hooks) -> None:
                self._on_epoch(_hooks, epoch)
            hooks.epoch_hook = epoch_hook
            tracer.epoch_hooks.append(epoch_hook)
        self._sessions.append(hooks)
        self._active = hooks
        return self

    def detach(self, runtime: "CudaRuntime | None" = None) -> None:
        """Unwire from ``runtime`` (default: every attached session)."""
        remaining: list[_SessionHooks] = []
        for hooks in self._sessions:
            if runtime is not None and hooks.runtime is not runtime:
                remaining.append(hooks)
                continue
            self._finalize_session(hooks)
            hooks.runtime.unsubscribe(self)
            hooks.platform.events.remove_listener(hooks.listener)
            if hooks.drop_listener is not None:
                hooks.platform.events.remove_drop_listener(hooks.drop_listener)
            # Bound-method access creates a fresh object each time, so
            # compare by equality, not identity.
            if hooks.platform.um.metrics_hook == self._metrics_hook:
                hooks.platform.um.metrics_hook = None
            if hooks.tracer is not None and hooks.epoch_hook is not None:
                if hooks.epoch_hook in hooks.tracer.epoch_hooks:
                    hooks.tracer.epoch_hooks.remove(hooks.epoch_hook)
            if self._active is hooks:
                self._active = None
        self._sessions = remaining
        if self._active is None and remaining:
            self._active = remaining[-1]

    @property
    def attached(self) -> bool:
        """Whether at least one session is currently wired in."""
        return bool(self._sessions)

    def _record_backend(self, hooks: _SessionHooks) -> None:
        """Surface the tracer's execution-backend attribution once.

        Runs at finalisation (not attach) because launch counts and
        fallback totals only exist after the kernels ran.  Interpreter
        runs record nothing, keeping their artifacts byte-identical with
        history.
        """
        if hooks.backend_recorded or hooks.tracer is None:
            return
        info = hooks.tracer.backend_info()
        if info is None:
            return
        hooks.backend_recorded = True
        self.backend = dict(info)
        self.metrics.gauge("backend_fallbacks",
                           "kernel launches that fell to a slower backend"
                           ).set(info["fallbacks"])
        self._write({"type": "backend", **info})

    @property
    def events_dropped_total(self) -> float:
        """Events lost from retention across every attached session."""
        counter = self.metrics.counter(
            "repro_events_dropped_total",
            "driver events lost from retention (not spilled)",
            absolute=True)
        return sum(counter.series().values())

    # ------------------------------------------------------------------ #
    # sink helpers

    def _write(self, record: Mapping[str, Any]) -> None:
        if self.jsonl is not None:
            self.jsonl.write(record)

    def _room_in_timeline(self) -> bool:
        if len(self.timeline) >= MAX_TIMELINE_EVENTS:
            self.dropped_timeline_events += 1
            return False
        return True

    # ------------------------------------------------------------------ #
    # driver events (EventLog listener)

    def _on_driver_event(self, hooks: _SessionHooks, event: Event) -> None:
        kind = event.kind.value
        proc = event.device.name
        m = self.metrics
        m.counter("driver_events_total",
                  "driver events by kind").inc(1, kind=kind, proc=proc)
        if event.cost:
            m.counter("driver_event_cost_seconds_total",
                      "simulated seconds charged by the UM driver"
                      ).inc(event.cost, kind=kind)
        if event.kind is EventKind.PAGE_FAULT:
            m.counter("page_fault_groups_total",
                      "fault groups serviced").inc(1, proc=proc)
            m.counter("page_fault_pages_total",
                      "faulting pages").inc(event.pages, proc=proc)
        elif event.kind is EventKind.MIGRATION:
            m.counter("migrated_pages_total",
                      "pages migrated on demand or by prefetch"
                      ).inc(event.pages, proc=proc)
        elif event.kind is EventKind.EVICTION:
            m.counter("evicted_pages_total",
                      "pages evicted to host for capacity").inc(event.pages)
        elif event.kind is EventKind.TRANSFER:
            m.counter("transfer_bytes_total",
                      "explicit cudaMemcpy bytes"
                      ).inc(event.nbytes, direction=event.detail or "?")
        elif event.kind is EventKind.DUPLICATION:
            m.counter("duplicated_pages_total",
                      "read-mostly copies created").inc(event.pages, proc=proc)
        elif event.kind is EventKind.INVALIDATION:
            m.counter("invalidated_pages_total",
                      "duplicated copies dropped on write"
                      ).inc(event.pages, proc=proc)
        elif event.kind is EventKind.REMOTE_ACCESS:
            m.counter("remote_access_bytes_total",
                      "bytes served over the link without migration"
                      ).inc(event.nbytes, proc=proc)

        drawn_tid: int | None = None
        if event.kind in _LINK_SPAN_KINDS and self._room_in_timeline():
            name = kind if event.kind is not EventKind.TRANSFER \
                else f"memcpy {event.detail}"
            args = {"pages": event.pages, "bytes": event.nbytes,
                    "detail": event.detail}
            self._cause_args(event, args)
            self.timeline.span(
                name, "memory", event.time, event.cost,
                pid=hooks.pid, tid=TRACK_LINK, args=args,
            )
            drawn_tid = TRACK_LINK
        elif event.kind in _DRIVER_INSTANT_KINDS and self._room_in_timeline():
            args = {"pages": event.pages, "proc": proc,
                    "detail": event.detail}
            self._cause_args(event, args)
            self.timeline.instant(
                kind, "memory", event.time, pid=hooks.pid, tid=TRACK_DRIVER,
                args=args,
            )
            drawn_tid = TRACK_DRIVER
        if event.cause is not None and drawn_tid is not None:
            hooks.event_points[event.id] = (event.time, drawn_tid)
            self._emit_flows(hooks, event, drawn_tid)
        self._write(encode_driver_event(event))

    @staticmethod
    def _cause_args(event: Event, args: dict) -> None:
        """Fold the cause link into a timeline element's args (in place)."""
        c = event.cause
        if c is None:
            return
        if c.site:
            args["cause_site"] = c.site
        if c.kernel:
            args["cause_kernel"] = c.kernel

    def _emit_flows(self, hooks: _SessionHooks, event: Event, tid: int) -> None:
        """Draw flow arrows from the event's causes to the event.

        Two arrows can apply: one from the triggering kernel's span on the
        GPU track (vertical, at the event's own timestamp -- the kernel
        span encloses it because the simulated clock is frozen during the
        kernel body), and one from the upstream parent event that made
        this work necessary.
        """
        cause = event.cause
        assert cause is not None
        if (cause.kernel and event.kind in _LINK_SPAN_KINDS
                and self._room_in_timeline()):
            self._flow_seq += 1
            self.timeline.flow("cause", "cause", self._flow_seq,
                               event.time, TRACK_GPU, event.time, tid,
                               pid=hooks.pid)
        if cause.parent >= 0:
            parent = hooks.event_points.get(cause.parent)
            if parent is not None and self._room_in_timeline():
                self._flow_seq += 1
                self.timeline.flow("cause", "cause", self._flow_seq,
                                   parent[0], parent[1], event.time, tid,
                                   pid=hooks.pid)

    # ------------------------------------------------------------------ #
    # UM driver metrics hook

    def _metrics_hook(self, name: str, value: float,
                      labels: Mapping[str, str]) -> None:
        if name == "um_gpu_pages_in_use":
            self.metrics.gauge("gpu_pages_in_use",
                               "GPU-resident pages (managed + device)"
                               ).set(value)
            if self._active is not None and self._room_in_timeline():
                self.timeline.counter(
                    "gpu_pages_in_use", self._active.platform.clock.now,
                    {"pages": value}, pid=self._active.pid)
        elif name.endswith("_seconds"):
            self.metrics.histogram(name, "UM driver charged seconds"
                                   ).observe(value, **labels)
        else:
            self.metrics.counter(name + "_total",
                                 "UM driver per-access outcome"
                                 ).inc(value, **labels)

    # ------------------------------------------------------------------ #
    # runtime observer callbacks

    def on_alloc(self, alloc) -> None:  # noqa: D102
        self.metrics.counter("allocations_total", "allocations created"
                             ).inc(1, kind=alloc.kind.value)
        hooks = self._active
        if hooks is not None and self._room_in_timeline():
            self.timeline.instant(
                f"alloc {alloc.label or hex(alloc.base)}", "api",
                hooks.platform.clock.now, pid=hooks.pid, tid=TRACK_HOST,
                args={"bytes": alloc.size, "kind": alloc.kind.value})
        self._write({"type": "alloc", "label": alloc.label,
                     "base": alloc.base, "bytes": alloc.size,
                     "kind": alloc.kind.value,
                     "site": getattr(alloc, "site", ""),
                     "t": hooks.platform.clock.now if hooks else 0.0})

    def on_free(self, alloc) -> None:  # noqa: D102
        self.metrics.counter("frees_total", "allocations released"
                             ).inc(1, kind=alloc.kind.value)
        hooks = self._active
        self._write({"type": "free", "label": alloc.label,
                     "base": alloc.base,
                     "t": hooks.platform.clock.now if hooks else 0.0})

    def on_access(self, proc, alloc, byte_offset, elem_size, count,
                  is_write, indices, is_rmw) -> None:  # noqa: D102
        op = "rmw" if is_rmw else ("write" if is_write else "read")
        name = proc.name
        self.metrics.counter("accesses_total", "traced heap accesses"
                             ).inc(1, proc=name, op=op)
        self.metrics.counter("access_bytes_total", "traced heap bytes"
                             ).inc(count * elem_size, proc=name, op=op)

    def on_memcpy(self, dst, dst_off, src, src_off, nbytes, kind) -> None:  # noqa: D102
        self.metrics.counter("memcpys_total", "explicit cudaMemcpy calls"
                             ).inc(1, kind=kind.name)
        hooks = self._active
        self._write({
            "type": "memcpy", "kind": kind.name, "bytes": nbytes,
            "dst": getattr(dst, "label", None), "src": getattr(src, "label", None),
            "t": hooks.platform.clock.now if hooks else 0.0,
        })

    def on_kernel_launch(self, name: str, grid: int, block: int) -> None:  # noqa: D102
        hooks = self._active
        if hooks is None:
            return
        hooks.pending_kernels.append((name, grid, block,
                                      hooks.platform.clock.now))

    def on_kernel_complete(self, name: str, grid: int, block: int,
                           duration: float) -> None:  # noqa: D102
        hooks = self._active
        if hooks is None:
            return
        pending = hooks.pending_kernels
        for i, (pname, pgrid, pblock, _) in enumerate(pending):
            if (pname, pgrid, pblock) == (name, grid, block):
                break
        else:
            i = 0 if pending else -1
        start = pending.pop(i)[3] if i >= 0 else hooks.platform.clock.now
        now = hooks.platform.clock.now
        span = now - start if now > start else duration
        self.metrics.counter("kernel_launches_total", "kernel launches"
                             ).inc(1, kernel=name)
        self.metrics.histogram("kernel_duration_seconds",
                               "simulated kernel durations"
                               ).observe(duration, kernel=name)
        if self._room_in_timeline():
            self.timeline.span(name, "kernel", start, span,
                               pid=hooks.pid, tid=TRACK_GPU,
                               args={"grid": grid, "block": block,
                                     "duration_s": duration})
        self._write({"type": "kernel", "name": name, "grid": grid,
                     "block": block, "t_start": start,
                     "duration": duration})

    def on_advice(self, alloc, advice, byte_offset, nbytes, device_id) -> None:  # noqa: D102
        self.metrics.counter("advice_total", "cudaMemAdvise applications"
                             ).inc(1, advice=advice.name)
        hooks = self._active
        if hooks is not None and self._room_in_timeline():
            self.timeline.instant(
                advice.name, "api", hooks.platform.clock.now,
                pid=hooks.pid, tid=TRACK_HOST,
                args={"allocation": alloc.label, "bytes": nbytes})
        self._write({"type": "advice", "advice": advice.name,
                     "allocation": alloc.label, "offset": byte_offset,
                     "bytes": nbytes, "device_id": device_id})

    # ------------------------------------------------------------------ #
    # epochs and diagnostics

    def _on_epoch(self, hooks: _SessionHooks, epoch: int) -> None:
        now = hooks.platform.clock.now
        self.metrics.counter("epochs_total", "tracing epochs closed").inc(1)
        if self._room_in_timeline():
            self.timeline.epoch_marker(epoch, now, pid=hooks.pid)
        self._write({"type": "epoch", "epoch": epoch, "t": now})

    def record_diagnosis(self, diagnosis: "Diagnosis") -> None:
        """Stream one per-epoch diagnostic (allocations + findings)."""
        result = diagnosis.result
        self.metrics.counter("diagnostics_total", "diagnostic passes").inc(1)
        self.metrics.counter("findings_total", "anti-pattern findings").inc(
            len(diagnosis.findings))
        self._write({
            "type": "diagnosis",
            "epoch": result.epoch,
            "allocations": [
                {
                    "name": r.name, "bytes": r.alloc.size,
                    "freed": r.freed, "density_pct": r.density_pct,
                    "alternating": r.alternating,
                    "cpu_writes": r.counts.cpu_written,
                    "gpu_writes": r.counts.gpu_written,
                }
                for r in result.reports
            ],
            "findings": [
                {"pattern": f.pattern.value, "allocation": f.name,
                 "detail": f.detail}
                for f in diagnosis.findings
            ],
        })

    # ------------------------------------------------------------------ #
    # finalisation

    def _finalize_session(self, hooks: _SessionHooks) -> None:
        self._record_backend(hooks)
        self.metrics.gauge("sim_time_seconds",
                           "simulated seconds on the session clock"
                           ).set(hooks.platform.clock.now,
                                 session=str(hooks.pid))
        for name, value in hooks.platform.link.stats.as_dict().items():
            self.metrics.gauge(f"link_{name}",
                               "accumulated interconnect traffic"
                               ).set(value, session=str(hooks.pid))

    def finalize_session_metrics(self) -> None:
        """Fold end-of-run gauges (sim time, link stats) into the registry.

        ``detach`` finalises each session as it unwires it; this covers
        sessions still attached at flush time (gauge sets are idempotent).
        """
        for hooks in self._sessions:
            self._finalize_session(hooks)

    def flush(self, out_dir: str | Path) -> dict[str, Path]:
        """Write ``timeline.json`` and ``metrics.prom`` into ``out_dir``.

        Closes the JSONL stream if the recorder owns one.  Returns the
        paths written, keyed by artifact name.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.finalize_session_metrics()
        paths: dict[str, Path] = {}
        timeline_path = out / "timeline.json"
        timeline_path.write_text(self.timeline.to_json(other_data={
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "dropped_events": self.dropped_timeline_events,
        }))
        paths["timeline"] = timeline_path
        metrics_path = out / "metrics.prom"
        metrics_path.write_text(self.metrics.to_prometheus())
        paths["metrics"] = metrics_path
        if self.jsonl is not None:
            self.jsonl.close()
            paths["events"] = out / "events.jsonl"
        return paths
