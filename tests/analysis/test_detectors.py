"""Unit tests for the three anti-pattern detectors."""

import numpy as np
import pytest

from repro.analysis import (
    AntiPattern,
    block_densities,
    detect_alternating,
    detect_low_density,
    detect_unnecessary_transfers,
    diagnose,
    format_findings,
)
from repro.cudart import CudaRuntime, cudaMemcpyKind, cudaMemoryAdvise
from repro.memsim import intel_pascal
from repro.runtime import Tracer, trace_print

H2D = cudaMemcpyKind.cudaMemcpyHostToDevice
D2H = cudaMemcpyKind.cudaMemcpyDeviceToHost
A = cudaMemoryAdvise


@pytest.fixture
def setup():
    rt = CudaRuntime(intel_pascal())
    tracer = Tracer().attach(rt)
    return rt, tracer


def gpu_read(rt, view, lo=0, hi=None):
    rt.launch(lambda ctx, v: v.read(lo, hi if hi is not None else len(v)),
              1, 32, view, name="gpu_read")


def gpu_write(rt, view, lo=0, hi=None):
    rt.launch(lambda ctx, v: v.write(lo, None, hi=hi if hi is not None else len(v)),
              1, 32, view, name="gpu_write")


class TestAlternating:
    def test_cpu_write_gpu_read_fires(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        gpu_read(rt, v)
        d = diagnose(tracer)
        hits = d.of(AntiPattern.ALTERNATING_ACCESS)
        assert len(hits) == 1 and hits[0].name == "x"
        assert hits[0].metric == 16

    def test_exclusive_access_does_not_fire(self, setup):
        rt, tracer = setup
        cpu_only = rt.malloc_managed(64, label="c").typed(np.int32)
        gpu_only = rt.malloc_managed(64, label="g").typed(np.int32)
        cpu_only.write(0, np.zeros(16, np.int32))
        gpu_write(rt, gpu_only)
        d = diagnose(tracer)
        assert d.of(AntiPattern.ALTERNATING_ACCESS) == []

    def test_read_only_sharing_does_not_fire(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        # no writes at all this epoch: CPU and GPU both read
        v.read(0, 16)
        gpu_read(rt, v)
        d = diagnose(tracer)
        assert d.of(AntiPattern.ALTERNATING_ACCESS) == []

    def test_device_memory_exempt(self, setup):
        rt, tracer = setup
        d = rt.malloc(64, label="d")
        rt.memcpy(d, np.zeros(64, np.uint8), 64, H2D)  # CPU write via memcpy
        gpu_write(rt, d.typed(np.int32))               # GPU writes same words
        diag = diagnose(tracer)
        assert diag.of(AntiPattern.ALTERNATING_ACCESS) == []

    def test_matching_read_mostly_advice_suppresses(self, setup):
        rt, tracer = setup
        m = rt.malloc_managed(64, label="x")
        v = m.typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        trace_print(tracer)  # init epoch closed
        rt.mem_advise(m, 64, A.cudaMemAdviseSetReadMostly)
        # Steady state: only reads from both sides; a single stale write bit
        # from the memcpy-free epoch is gone after reset.
        v.read(0, 16)
        gpu_read(rt, v)
        d = diagnose(tracer)
        assert d.for_allocation("x") == [] or all(
            f.pattern is not AntiPattern.ALTERNATING_ACCESS
            for f in d.for_allocation("x"))

    def test_mismatched_read_mostly_still_fires(self, setup):
        rt, tracer = setup
        m = rt.malloc_managed(256, label="x")
        v = m.typed(np.int32)
        rt.mem_advise(m, 256, A.cudaMemAdviseSetReadMostly)
        # Heavy writes under ReadMostly: hint inconsistent with behaviour.
        v.write(0, np.zeros(64, np.int32))
        gpu_read(rt, v)
        v.write(0, np.zeros(64, np.int32))
        d = diagnose(tracer)
        assert len(d.of(AntiPattern.ALTERNATING_ACCESS)) == 1

    def test_min_words_threshold(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(2, np.int32))
        gpu_read(rt, v, 0, 2)
        result = trace_print(tracer, include_maps=True)
        assert detect_alternating(result, tracer, min_words=3) == []
        # (fresh epoch for the second call would show nothing, so reuse result)
        assert len(detect_alternating(result, tracer, min_words=1)) == 1


class TestLowDensity:
    def test_sparse_managed_allocation_fires(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(4096, label="x").typed(np.int32)  # 1024 words
        v.write(0, np.zeros(10, np.int32))
        d = diagnose(tracer)
        hits = d.of(AntiPattern.LOW_ACCESS_DENSITY)
        assert len(hits) == 1
        assert hits[0].metric == pytest.approx(10 / 1024)

    def test_dense_allocation_does_not_fire(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        d = diagnose(tracer)
        assert d.of(AntiPattern.LOW_ACCESS_DENSITY) == []

    def test_untouched_allocation_does_not_fire(self, setup):
        rt, tracer = setup
        rt.malloc_managed(4096, label="x")
        d = diagnose(tracer)
        assert d.of(AntiPattern.LOW_ACCESS_DENSITY) == []

    def test_host_heap_exempt(self, setup):
        rt, tracer = setup
        v = rt.host_malloc(4096, label="h").typed(np.int32)
        v.write(0, np.zeros(1, np.int32))
        d = diagnose(tracer)
        assert d.of(AntiPattern.LOW_ACCESS_DENSITY) == []

    def test_threshold_boundary_inclusive(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)  # 16 words
        v.write(0, np.zeros(8, np.int32))  # exactly 50%
        d = diagnose(tracer)
        assert len(d.of(AntiPattern.LOW_ACCESS_DENSITY)) == 1

    def test_block_granular_density(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(1024, label="x").typed(np.int32)  # 256 words
        v.write(0, np.zeros(4, np.int32))        # block 0: sparse
        v.write(64, np.zeros(64, np.int32))      # block 1: dense
        result = trace_print(tracer, include_maps=True)
        hits = detect_low_density(result, threshold=0.5, block_words=64)
        assert hits[0].ranges == ((0, 64),)

    def test_block_densities_helper(self):
        mask = np.zeros(10, dtype=bool)
        mask[:3] = True
        dens = block_densities(mask, 4)
        assert dens[0] == pytest.approx(0.75)
        assert dens[1] == 0.0
        assert dens[2] == 0.0  # tail block (2 words, none set)

    def test_bad_threshold_rejected(self, setup):
        rt, tracer = setup
        result = trace_print(tracer, include_maps=True)
        with pytest.raises(ValueError):
            detect_low_density(result, threshold=0.0)


class TestUnnecessaryTransfers:
    def test_transfer_in_never_accessed(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="wall")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)
        v = d.typed(np.int32)
        gpu_read(rt, v, 0, 128)  # GPU uses only the first eighth
        diag = diagnose(tracer)
        hits = diag.of(AntiPattern.UNNECESSARY_TRANSFER_IN)
        assert len(hits) == 1
        (lo, hi), = hits[0].ranges
        assert lo == 128 and hi == 1024

    def test_fully_used_transfer_clean(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="wall")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)
        gpu_read(rt, d.typed(np.int32))
        diag = diagnose(tracer)
        assert diag.of(AntiPattern.UNNECESSARY_TRANSFER_IN) == []

    def test_overwritten_before_use(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="m_cuda")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)
        gpu_write(rt, d.typed(np.int32))  # overwrites everything, reads nothing
        diag = diagnose(tracer)
        hits = diag.of(AntiPattern.TRANSFER_OVERWRITTEN)
        assert len(hits) == 1
        assert hits[0].metric == 4096

    def test_read_then_write_is_legitimate(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="x")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)

        def k(ctx, v):
            v.read(0, len(v))
            v.write(0, None, hi=len(v))

        rt.launch(k, 1, 32, d.typed(np.int32))
        diag = diagnose(tracer)
        assert diag.of(AntiPattern.TRANSFER_OVERWRITTEN) == []

    def test_unmodified_transfer_out(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="input_cuda")
        host = np.zeros(4096, np.uint8)
        rt.memcpy(d, host, 4096, H2D)
        gpu_read(rt, d.typed(np.int32))
        rt.memcpy(host, d, 4096, D2H)  # round trip, GPU never wrote
        diag = diagnose(tracer)
        hits = diag.of(AntiPattern.UNNECESSARY_TRANSFER_OUT)
        assert len(hits) == 1
        assert hits[0].metric == 4096

    def test_modified_transfer_out_clean(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="x")
        host = np.zeros(4096, np.uint8)
        gpu_write(rt, d.typed(np.int32))
        rt.memcpy(host, d, 4096, D2H)
        diag = diagnose(tracer)
        assert diag.of(AntiPattern.UNNECESSARY_TRANSFER_OUT) == []

    def test_unused_allocation(self, setup):
        rt, tracer = setup
        rt.malloc(4096, label="output_hidden_cuda")
        diag = diagnose(tracer)
        hits = diag.of(AntiPattern.UNUSED_ALLOCATION)
        assert len(hits) == 1 and hits[0].name == "output_hidden_cuda"

    def test_min_block_words_filters_small_gaps(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="x")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)
        v = d.typed(np.int32)

        def k(ctx, view):
            # Touch all but a 4-word hole.
            view.read(0, 512)
            view.read(516, 1024)

        rt.launch(k, 1, 32, v)
        diag = diagnose(tracer, min_transfer_block_words=16)
        assert diag.of(AntiPattern.UNNECESSARY_TRANSFER_IN) == []

    def test_transfers_scoped_to_epoch(self, setup):
        rt, tracer = setup
        d = rt.malloc(4096, label="x")
        rt.memcpy(d, np.zeros(4096, np.uint8), 4096, H2D)
        gpu_read(rt, d.typed(np.int32))
        diagnose(tracer)  # epoch 0: clean
        gpu_read(rt, d.typed(np.int32), 0, 64)
        diag = diagnose(tracer)  # epoch 1 has no transfer records
        assert diag.of(AntiPattern.UNNECESSARY_TRANSFER_IN) == []


class TestFacade:
    def test_format_findings_mentions_remedies(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        gpu_read(rt, v)
        d = diagnose(tracer)
        text = format_findings(d.findings)
        assert "alternating" in text
        assert "remedy:" in text

    def test_diagnose_writes_report_and_findings(self, setup):
        import io
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        gpu_read(rt, v)
        out = io.StringIO()
        diagnose(tracer, out=out)
        assert "write counts" in out.getvalue()
        assert "anti-pattern finding" in out.getvalue()
