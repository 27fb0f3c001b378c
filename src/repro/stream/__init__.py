"""Streaming observability: spill-and-merge trace stores.

The in-memory observability stores (:class:`~repro.heatmap.store.HeatStore`,
:class:`~repro.memsim.EventLog`) bound a run's footprint by *forgetting*;
this package bounds it by *spilling*: epoch-framed segments appended to
one log per shard, with a versioned manifest
(:mod:`~repro.stream.segments`), producers that turn ring eviction into
evict-to-disk (:mod:`~repro.stream.spill`), a deterministic merge algebra
recombining N shard directories into one run (:mod:`~repro.stream.merge`,
the ``repro-agg`` CLI), and a live terminal monitor tailing the manifests
(:mod:`~repro.stream.top`, ``repro-top``).
"""

from .merge import MergedRun, merge_shards
from .segments import (
    STREAM_VERSION,
    IncompatibleStreamError,
    SegmentWriter,
    TruncatedSegmentError,
    iter_shard_records,
    load_manifest,
    read_segment,
    shard_frames,
    write_manifest,
)
from .shard import run_streaming, split_stream
from .spill import SpillingHeatStore, StreamSpiller

__all__ = [
    "STREAM_VERSION",
    "IncompatibleStreamError",
    "MergedRun",
    "SegmentWriter",
    "SpillingHeatStore",
    "StreamSpiller",
    "TruncatedSegmentError",
    "iter_shard_records",
    "load_manifest",
    "merge_shards",
    "read_segment",
    "run_streaming",
    "shard_frames",
    "split_stream",
    "write_manifest",
]
