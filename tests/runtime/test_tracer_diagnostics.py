"""Integration tests: tracer + diagnostics against the simulated runtime."""

import io

import numpy as np
import pytest

from repro.cudart import CudaRuntime, cudaMemcpyKind, cudaMemoryAdvise
from repro.memsim import Processor, intel_pascal
from repro.runtime import (
    Tracer,
    XplAllocData,
    epochs_to_csv,
    expand_object,
    format_text,
    trace_print,
)

H2D = cudaMemcpyKind.cudaMemcpyHostToDevice
D2H = cudaMemcpyKind.cudaMemcpyDeviceToHost


@pytest.fixture
def setup():
    rt = CudaRuntime(intel_pascal())
    tracer = Tracer().attach(rt)
    return rt, tracer


class TestObserverPath:
    def test_cpu_write_recorded(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        result = trace_print(tracer)
        assert result.named("x").counts.cpu_written == 16

    def test_gpu_kernel_access_recorded(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.arange(16, dtype=np.int32))
        rt.launch(lambda ctx, x: x.read(0, 16), 1, 16, v, name="reader")
        r = trace_print(tracer).named("x")
        assert r.counts.read_cg == 16         # GPU read CPU-origin values
        assert r.alternating == 16            # CPU wrote + GPU read

    def test_freed_allocation_still_reported_once(self, setup):
        rt, tracer = setup
        p = rt.malloc_managed(64, label="tmp")
        p.typed(np.int32).write(0, np.zeros(16, np.int32))
        rt.free(p)
        first = trace_print(tracer)
        assert first.named("tmp").freed
        second = trace_print(tracer)
        with pytest.raises(KeyError):
            second.named("tmp")

    def test_kernel_launches_logged(self, setup):
        rt, tracer = setup
        rt.launch(lambda ctx: None, 4, 64, name="k1")
        assert tracer.kernels[0].name == "k1"
        assert tracer.kernels[0].grid == 4


class TestDirectApiPath:
    def test_traceR_returns_address(self, setup):
        rt, tracer = setup
        p = rt.malloc_managed(64, label="x")
        assert tracer.traceR(p.addr) == p.addr

    def test_untracked_address_ignored(self, setup):
        _, tracer = setup
        tracer.traceW(0xdeadbeef)  # must not raise

    def test_traceW_then_traceR_classifies_origin(self, setup):
        rt, tracer = setup
        p = rt.malloc_managed(64, label="x")
        # Writing via the direct API happens on the CPU context here.
        tracer.traceW(p.addr, 4)
        tracer.traceR(p.addr, 4)
        r = trace_print(tracer).named("x")
        # The observer path also recorded the on_alloc; counts combine.
        assert r.counts.read_cc >= 1

    def test_traceRW(self, setup):
        rt, tracer = setup
        p = rt.malloc_managed(64, label="x")
        tracer.traceRW(p.addr, 4)
        r = trace_print(tracer).named("x")
        assert r.counts.cpu_written == 1 and r.counts.read_cc == 1


class TestMemcpyConventions:
    def test_h2d_is_cpu_write_of_destination(self, setup):
        rt, tracer = setup
        d = rt.malloc(64, label="dev")
        rt.memcpy(d, np.zeros(64, np.uint8), 64, H2D)
        r = trace_print(tracer).named("dev")
        assert r.counts.cpu_written == 16
        assert tracer.transfers[0].direction == "H2D"

    def test_d2h_is_cpu_read_of_source(self, setup):
        rt, tracer = setup
        d = rt.malloc(64, label="dev")
        host = np.zeros(64, np.uint8)
        rt.memcpy(d, host, 64, H2D)
        rt.memcpy(host, d, 64, D2H)
        recs = [t.direction for t in tracer.transfers]
        assert recs == ["H2D", "D2H"]
        r = trace_print(tracer).named("dev")
        assert r.counts.read_cc == 16  # CPU read back its own values

    def test_managed_memcpy_has_no_transfer_record(self, setup):
        rt, tracer = setup
        m = rt.malloc_managed(64, label="m")
        rt.memcpy(m, np.zeros(64, np.uint8), 64, H2D)
        assert tracer.transfers == []


class TestAdviceTracking:
    def test_advice_folds_set_unset(self, setup):
        rt, tracer = setup
        m = rt.malloc_managed(4096, label="m")
        A = cudaMemoryAdvise
        rt.mem_advise(m, 4096, A.cudaMemAdviseSetReadMostly)
        assert A.cudaMemAdviseSetReadMostly in tracer.advice_for(m.alloc)
        rt.mem_advise(m, 4096, A.cudaMemAdviseUnsetReadMostly)
        assert tracer.advice_for(m.alloc) == set()


class TestExpansion:
    def test_expand_plain_pointer(self, setup):
        rt, _ = setup
        p = rt.malloc_managed(64, label="z")
        recs = expand_object(p, "z")
        assert len(recs) == 1 and recs[0].name == "z"

    def test_expand_object_with_pointer_members(self, setup):
        rt, _ = setup

        class Pair:
            def __init__(self):
                self.first = rt.malloc_managed(64, label="first")
                self.second = rt.malloc_managed(64, label="second")

        recs = expand_object(Pair(), "a")
        names = [r.name for r in recs]
        assert names == ["(a)->first", "(a)->second"]

    def test_expand_with_self_ptr_and_protocol(self, setup):
        rt, _ = setup

        class Domain:
            def __init__(self):
                self.self_ptr = rt.malloc_managed(4096, label="dom")
                self.m_p = rt.malloc_managed(64, label="m_p")

            def xpl_pointers(self):
                return [("m_p", self.m_p)]

        recs = expand_object(Domain(), "dom")
        assert [r.name for r in recs] == ["dom", "(dom)->m_p"]

    def test_type_repetition_guard(self, setup):
        rt, _ = setup

        class Node:
            def __init__(self, nxt=None):
                self.ptr = rt.malloc_managed(64)
                self.next = nxt

        chain = Node(Node(Node()))
        recs = expand_object(chain, "head")
        # Only the first Node's members expand; recursion stops on the
        # repeated type (paper's linked-list rule).
        assert len(recs) == 1

    def test_view_records_itemsize(self, setup):
        rt, _ = setup
        v = rt.malloc_managed(80, label="v").typed(np.float64)
        rec = expand_object(v, "v")[0]
        assert rec.elem_size == 8


class TestDiagnosticsOutput:
    def test_text_format_matches_fig4_shape(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(400, label="dom").typed(np.int32)
        v.write(0, np.zeros(27, np.int32))
        out = io.StringIO()
        trace_print(tracer, out=out)
        text = out.getvalue()
        assert "*** checking 1 named allocations" in text
        assert "write counts" in text and "write>read counts" in text
        assert "access density (in %):" in text
        assert "elements with alternating accesses" in text

    def test_named_descriptors_select_and_name(self, setup):
        rt, tracer = setup
        a = rt.malloc_managed(64, label="")
        b = rt.malloc_managed(64, label="")
        a.typed(np.int32).write(0, np.zeros(4, np.int32))
        descs = expand_object(a, "mine")
        result = trace_print(tracer, descriptors=descs)
        assert len(result.reports) == 1
        assert result.named("mine").counts.cpu_written == 4

    def test_include_unnamed_adds_rest(self, setup):
        rt, tracer = setup
        a = rt.malloc_managed(64, label="a")
        rt.malloc_managed(64, label="b")
        result = trace_print(tracer, descriptors=expand_object(a, "a"),
                             include_unnamed=True)
        assert {r.name for r in result.reports} == {"a", "b"}

    def test_reset_between_epochs(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        trace_print(tracer)
        result = trace_print(tracer)
        assert result.named("x").counts.cpu_written == 0
        assert result.epoch == 1

    def test_no_reset_accumulates(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(8, np.int32))
        trace_print(tracer, reset=False)
        v.write(8, np.zeros(8, np.int32))
        r = trace_print(tracer).named("x")
        assert r.counts.cpu_written == 16

    def test_maps_snapshot(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(400, label="x").typed(np.int32)
        v.write(0, np.zeros(10, np.int32))
        r = trace_print(tracer, include_maps=True).named("x")
        assert r.maps["cpu_write"].touched == 10

    def test_csv_format(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        v.write(0, np.zeros(16, np.int32))
        csv = epochs_to_csv([trace_print(tracer)])
        lines = csv.strip().split("\n")
        assert lines[0].startswith("epoch,name,size")
        assert ",x," in lines[1]
        assert lines[1].split(",")[5] == "16"   # cpu_writes column
