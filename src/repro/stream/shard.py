"""Streaming runs and time-shard splitting.

:func:`run_streaming` is the producer side of the spill-and-merge story:
one workload executed with a :class:`~repro.stream.spill.SpillingHeatStore`
and a ring-retained event log whose evictions land in an on-disk stream
directory instead of being dropped.  Memory stays bounded by the ring
capacity + one pending segment, no matter how long the run.

:func:`split_stream` redistributes a finished stream's segments
round-robin into K shard directories -- the controlled way to exercise
the merge algebra (and the golden tests' ground truth): because the
shards carry disjoint slices of one recording sequence,
:func:`~repro.stream.merge.merge_shards` must reproduce the unsharded
run exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .segments import SegmentWriter, load_manifest, read_segment, segment_files
from .spill import SpillingHeatStore, StreamSpiller

__all__ = ["run_streaming", "split_stream"]

#: Record types every split shard needs a copy of to be self-contained
#: (geometry + provenance headers; the merge dedupes them).
_HEADER_TYPES = ("alloc_meta", "alloc")


def run_streaming(
    workload: str,
    platform: str,
    out_dir: str | Path,
    *,
    shard: str = "shard-0",
    buckets: int = 64,
    attribute: bool = True,
    materialize: bool = True,
    why: bool = True,
    phases: bool = True,
    log_capacity: int = 512,
    watermark_events: int = 16384,
) -> dict[str, Any]:
    """Run ``workload`` in streaming mode, writing one shard directory.

    :param shard: shard identity (must be unique across the directories
        that will later be merged together).
    :param why: record causal provenance so the merged run can feed
        ``repro-why`` (cause blocks on every driver event).
    :param phases: track access-pattern phases live and mark
        ``phase_begin``/``phase_end`` events in the stream (the manifest
        rollup carries the current phase for ``repro-top``).
    :param log_capacity: event-log ring size; evictions beyond it spill
        to disk (this is the memory watermark on the event side).
    :param watermark_events: spilled events that force a segment flush
        between epoch boundaries.

    Returns ``{"manifest": final stream manifest, "run": WorkloadRun,
    "sim_time": float}``.
    """
    from ..workloads.base import make_session
    from ..workloads.registry import resolve_platform, resolve_workload

    preset = resolve_platform(platform)
    runner = resolve_workload(workload)

    heat = SpillingHeatStore(nbuckets=buckets, attribute=attribute)
    spiller = StreamSpiller(
        out_dir, shard=shard, workload=workload, platform=preset,
        config={"buckets": buckets, "materialize": materialize,
                "causes": why, "log_capacity": log_capacity},
        watermark_events=watermark_events)
    session = make_session(preset, trace=True, materialize=materialize)
    if why:
        session.platform.um.track_causes = True
    session.platform.events.configure_retention(capacity=log_capacity,
                                                ring=True)
    tracker = None
    if phases:
        from ..signature.tracker import PhaseTracker

        # Attached before the spiller so each epoch's phase marker is
        # recorded before the spiller flushes that epoch's segment.
        tracker = PhaseTracker(
            log=session.platform.events,
            clock=lambda: session.platform.clock.now,
        ).attach(session.tracer, heat)
    spiller.attach(session, heat=heat)
    spiller.phase_source = tracker
    try:
        run = runner(session, per_iteration=True)
    finally:
        if tracker is not None:
            tracker.finish()  # phase_end lands before the final drain
        manifest = spiller.close()
    return {"manifest": manifest, "run": run,
            "sim_time": session.platform.clock.now}


def split_stream(src_dir: str | Path, out_base: str | Path,
                 k: int) -> list[Path]:
    """Split one complete stream into ``k`` round-robin shard directories.

    Segment ``i`` of the source lands in shard ``i % k``; the source's
    header records (``alloc_meta`` / ``alloc``, deduped)
    are prepended to each shard's first segment so every shard is
    self-contained.  The source's drop count is carried by shard 0 only
    (it is a property of the run, not of a slice).

    Returns the shard directory paths, in shard order.
    """
    if k < 1:
        raise ValueError(f"cannot split into {k} shards")
    src = Path(src_dir)
    manifest = load_manifest(src)
    rollup: Mapping[str, Any] = manifest.get("rollup", {})
    paths = segment_files(src)

    headers: list[dict[str, Any]] = []
    seen: set[str] = set()
    per_segment: list[list[dict[str, Any]]] = []
    for path in paths:
        records = read_segment(path)  # strict: the source must be complete
        per_segment.append(records)
        for rec in records:
            if rec.get("type") in _HEADER_TYPES:
                key = json.dumps(rec, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    headers.append(rec)

    out_base = Path(out_base)
    shard_dirs: list[Path] = []
    writers: list[SegmentWriter] = []
    counts = [{"events": 0, "heat": 0, "segments": 0} for _ in range(k)]
    for j in range(k):
        shard_dir = out_base / f"shard-{j}"
        shard_dirs.append(shard_dir)
        writers.append(SegmentWriter(
            shard_dir, shard=f"{manifest.get('shard', 'shard')}.{j}",
            workload=manifest.get("workload", ""),
            platform=manifest.get("platform", ""),
            config=dict(manifest.get("config", {}),
                        split_from=str(src), split_k=k)))
    first_written = [False] * k
    for i, records in enumerate(per_segment):
        j = i % k
        if not first_written[j]:
            first_written[j] = True
            extra = [h for h in headers if h not in records]
            records = extra + records
        writers[j].write_segment(records)
        counts[j]["segments"] += 1
        counts[j]["events"] += sum(
            1 for r in records if r.get("type") == "driver_event")
        counts[j]["heat"] += sum(
            1 for r in records if r.get("type") == "heat_epoch")
    for j, writer in enumerate(writers):
        if not first_written[j]:
            # More shards than segments: the shard still gets the headers.
            writer.write_segment(list(headers))
        shard_rollup: dict[str, Any] = {
            "events_spilled": counts[j]["events"],
            "heat_epochs_spilled": counts[j]["heat"],
            "segments": len(writer.segments),
            "events_dropped": int(rollup.get("events_dropped", 0))
            if j == 0 else 0,
            "heat_records": int(rollup.get("heat_records", 0))
            if j == 0 else 0,
        }
        if j == 0:
            # Whole-run properties live on one shard only (display-side;
            # the merge recomputes counters from the events themselves).
            for key in ("summary", "sim_time", "gpu_pages_in_use",
                        "epochs_closed", "phase"):
                if key in rollup:
                    shard_rollup[key] = rollup[key]
        writer.finalize(shard_rollup)
    return shard_dirs
