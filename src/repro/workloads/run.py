"""The one run path: a :class:`RunSpec` in, an :class:`Execution` out.

``repro-trace``, ``repro-report``, ``repro-why run``, ``repro-sig
compute`` and ``repro-agg run`` each build a spec and call
:func:`execute`, then add their own tail (HTML report, ``causes.json``,
signature, stream summary)::

    done = execute(RunSpec("sw", "pcie", "/tmp/r", buckets=64, why=True))

The spec's fields decide the observers: ``buckets`` records heat (and
diagnoses every iteration, so each one freezes a heat epoch);
``out_dir`` writes the telemetry bundle, or with ``shard`` a spill
stream; ``why`` records causal provenance.  They attach in one order:
session (its tracer gets the heat store, installed nowhere else),
recorder, causes, live phase tracker (when heat and an output go
together), stream spiller.  Observer modules are imported only when a
spec needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..analysis import Diagnosis, diagnose
from .base import Session, make_session
from .registry import resolve_platform, resolve_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..heatmap.store import HeatStore
    from ..signature.tracker import PhaseTracker
    from ..telemetry.recorder import TelemetryRecorder

__all__ = ["RunSpec", "Execution", "execute", "mini_cuda_workloads"]


def mini_cuda_workloads() -> tuple[str, ...]:
    """Names of the interpreted mini-CUDA catalogue programs (``mc-*``)."""
    from .minicuda import CATALOG
    return tuple(CATALOG)


@dataclass(frozen=True)
class RunSpec:
    """One workload run and what to observe of it.

    ``backend`` (the mini-CUDA execution backend) also admits the
    ``mc-*`` catalogue names; ``sites`` walks the stack for triggering
    sites of causal events; ``log_capacity`` (event-log ring size) and
    ``watermark_events`` (spilled events that force a segment flush)
    apply to stream runs.
    """

    workload: str
    platform: str = "pcie"
    out_dir: str | Path | None = None
    materialize: bool = True
    backend: str | None = None
    buckets: int | None = None
    attribute: bool = True
    why: bool = False
    sites: bool = True
    shard: str | None = None
    log_capacity: int = 512
    watermark_events: int = 16384


@dataclass
class Execution:
    """A finished run: the workload's ``run`` (the interpreter, for a
    mini-CUDA program), its session and observers, the final diagnosis
    (``None`` for stream runs), the recorder's flushed ``paths`` and the
    stream's final ``manifest``."""

    run: Any
    session: Session
    store: "HeatStore | None" = None
    tracker: "PhaseTracker | None" = None
    recorder: "TelemetryRecorder | None" = None
    final: Diagnosis | None = None
    paths: dict[str, Path] | None = None
    manifest: dict[str, Any] | None = None


def _config(spec: RunSpec, preset: str, mini: bool) -> dict[str, Any]:
    """The manifest ``config`` each kind of run records."""
    if spec.shard is not None:
        return {"buckets": spec.buckets, "materialize": spec.materialize,
                "causes": spec.why, "log_capacity": spec.log_capacity}
    config: dict[str, Any] = {"platform": preset,
                              "materialize": spec.materialize}
    if spec.buckets is not None:
        config.update(heat_buckets=spec.buckets, causes=spec.why)
    elif spec.why:
        config.update(track_causes=True, blame_sites=spec.sites)
    elif mini:
        config["backend"] = spec.backend
    return config


def _mini_cuda(spec: RunSpec, preset: str):
    """A session over an interpreter for catalogue program
    ``spec.workload``, and a runner that executes its ``main``."""
    from ..instrument import instrument, parse
    from ..interp.interpreter import Interpreter
    from ..memsim import PLATFORMS
    from ..runtime import Tracer
    from .minicuda import CATALOG

    unit = parse(CATALOG[spec.workload]())
    instrument(unit)
    interp = Interpreter(unit, platform=PLATFORMS[preset](), tracer=Tracer(),
                         source_name=f"{spec.workload}.cu",
                         backend=spec.backend)

    def runner(session: Session, per_iteration: bool = False):
        interp.run("main")
        return interp

    return Session(interp.runtime.platform, interp.runtime,
                   interp.tracer), runner


def execute(spec: RunSpec) -> Execution:
    """Run ``spec`` with its observers attached in the fixed order."""
    preset = resolve_platform(spec.platform)
    mini = spec.backend is not None and spec.workload in mini_cuda_workloads()
    runner = None if mini else resolve_workload(spec.workload)
    out = None if spec.out_dir is None else Path(spec.out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    stream = spec.shard is not None

    store = None
    if spec.buckets is not None:
        if stream:
            from ..stream.spill import SpillingHeatStore as Store
        else:
            from ..heatmap.store import HeatStore as Store
        store = Store(nbuckets=spec.buckets, attribute=spec.attribute)
    if mini:
        session, runner = _mini_cuda(spec, preset)
    else:
        session = make_session(preset, trace=True,
                               materialize=spec.materialize)
    done = Execution(run=None, session=session, store=store)
    tracer, events, um = (session.tracer, session.platform.events,
                          session.platform.um)
    tracer.heat = store

    if out is not None and not stream:
        from ..telemetry.events_jsonl import JsonlWriter
        from ..telemetry.recorder import TelemetryRecorder

        done.recorder = TelemetryRecorder(
            jsonl=JsonlWriter(out / "events.jsonl"))
        done.recorder.workload = spec.workload
        done.recorder.config = _config(spec, preset, mini)
        done.recorder.attach(session.runtime, tracer,
                             label=spec.workload if mini else "")
    if spec.why:
        um.track_causes, um.blame_sites = True, spec.sites
    if store is not None and out is not None:
        from ..signature.tracker import PhaseTracker

        # Ahead of the spiller, so an epoch's phase marker is in the
        # event log before that epoch's segment is flushed.
        done.tracker = PhaseTracker(
            log=events, clock=lambda: session.platform.clock.now,
        ).attach(tracer)
    spiller = None
    if stream:
        from ..stream.spill import StreamSpiller

        events.configure_retention(capacity=spec.log_capacity)
        spiller = StreamSpiller(
            out, shard=spec.shard, workload=spec.workload, platform=preset,
            config=_config(spec, preset, mini),
            watermark_events=spec.watermark_events).attach(session)
        spiller.phase_source = done.tracker

    try:
        done.run = runner(session, per_iteration=store is not None)
        if not stream:
            done.final = diagnose(tracer, include_unnamed=True)
            if done.recorder is not None:
                done.recorder.record_diagnosis(done.final)
    finally:
        if done.tracker is not None:
            done.tracker.finish()  # phase_end lands before the sinks drain
        if done.recorder is not None:
            done.recorder.detach()
        if spiller is not None:
            done.manifest = spiller.close()
    if done.recorder is not None:
        done.paths = done.recorder.flush(out)
    if store is not None:
        store.flush_current()
    return done
