"""Bench: spill-to-disk streaming overhead over plain in-memory capture.

The streaming path (SpillingHeatStore + ring event log + segment writer)
replaces unbounded in-memory retention with bounded memory and on-disk
segments.  Its acceptance bar is <= 1.5x the in-memory run: the spill
work is JSON encoding plus one framed write per epoch, amortised across
a workload that is itself dominated by interpreter-level simulation.

The ratio lands in ``BENCH_stream.json`` and is guarded by the conftest
perf-regression check (a >25% ratio regression fails the run).
"""

import time

from repro.heatmap.store import HeatStore
from repro.stream.merge import merge_shards
from repro.stream.shard import run_streaming, split_stream
from repro.workloads.base import make_session
from repro.workloads.registry import WORKLOADS

WORKLOAD = "lulesh"
REPEATS = 2


def _in_memory() -> None:
    session = make_session("intel-pascal", trace=True)
    session.platform.um.track_causes = True
    heat = HeatStore(nbuckets=64, attribute=True)
    session.tracer.heat = heat
    WORKLOADS[WORKLOAD](session, per_iteration=True)


def _best(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_spill_overhead_under_1_5x(tmp_path, once, bench_record):
    memory_s = _best(_in_memory)

    runs = iter(range(REPEATS + 1))

    def streaming():
        run_streaming(WORKLOAD, "pcie", tmp_path / f"s{next(runs)}",
                      log_capacity=32)

    spill_s = once(lambda: _best(streaming))
    ratio = spill_s / memory_s

    # Merge throughput rides along as an informational number.
    shards = split_stream(tmp_path / "s0", tmp_path / "shards", 4)
    t0 = time.perf_counter()
    merged = merge_shards(shards)
    merge_s = time.perf_counter() - t0

    print(f"\n{WORKLOAD}: in-memory {memory_s * 1e3:.0f}ms, "
          f"streaming {spill_s * 1e3:.0f}ms ({ratio:.2f}x), "
          f"4-shard merge {merge_s * 1e3:.0f}ms "
          f"({len(merged.events)} events)")
    bench_record("stream_spill_lulesh", file="stream",
                 spill_vs_memory_x=round(ratio, 3),
                 in_memory_s=round(memory_s, 4),
                 streaming_s=round(spill_s, 4),
                 merge_4shard_s=round(merge_s, 4),
                 merged_events=len(merged.events))
    assert ratio <= 1.5, f"spill overhead {ratio:.2f}x exceeds 1.5x bar"
