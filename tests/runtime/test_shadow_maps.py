"""Diagnostic access maps are lazy views of one shadow snapshot.

``AllocationReport.maps`` keeps a read-only copy of the block's shadow
bytes and builds a category's mask only when it is looked up.  The eager
``ShadowBlock.category_masks()``, captured by a diagnostic hook at the
same instant, is the oracle.
"""

import numpy as np
import pytest

from repro.analysis import diagnose
from repro.analysis.transfers import detect_unnecessary_transfers
from repro.cudart import CudaRuntime
from repro.memsim import MemoryKind, intel_pascal
from repro.runtime import AccessMap, Tracer, trace_print
from repro.runtime.diagnostics import ShadowMaps
from repro.runtime.shadow import CATEGORY_BITS
from repro.workloads.base import make_session
from repro.workloads.registry import WORKLOADS, resolve_platform


def _run_capturing_masks(workload):
    """Run ``workload`` plus the report's closing diagnostic; pair every
    diagnostic with its eager masks."""
    session = make_session(resolve_platform("pcie"), trace=True,
                           materialize=False)
    tracer = session.tracer
    captured = []

    def capture(result):
        blocks = {id(b.alloc): b for b in tracer.smt.live_and_dead()}
        captured.append((result, [blocks[id(r.alloc)].category_masks()
                                  for r in result.reports]))

    tracer.diagnostic_hooks.append(capture)
    WORKLOADS[workload](session, per_iteration=True)
    diagnose(tracer, include_unnamed=True)
    return captured


@pytest.mark.parametrize("workload", ["sw", "lulesh", "pathfinder",
                                      "backprop"])
def test_lazy_maps_equal_eager_masks(workload):
    captured = _run_capturing_masks(workload)
    assert captured
    kinds = set()
    # Compared after the run: later epochs must not leak into old reports.
    for result, masks in captured:
        for report, eager in zip(result.reports, masks, strict=True):
            kinds.add(report.alloc.kind)
            assert isinstance(report.maps, ShadowMaps)
            assert list(report.maps) == list(eager) == list(CATEGORY_BITS)
            assert len(report.maps) == 8 and report.maps
            for cat, mask in eager.items():
                assert cat in report.maps
                assert report.maps[cat] == AccessMap(report.name, cat, mask)
    if workload == "backprop":
        assert MemoryKind.DEVICE in kinds  # the transfer detector's input


def test_sw_diagnoses_build_no_mask(monkeypatch):
    built = []
    lookup = ShadowMaps.__getitem__

    def counting_lookup(self, category):
        built.append(category)
        return lookup(self, category)

    monkeypatch.setattr(ShadowMaps, "__getitem__", counting_lookup)
    session = make_session(resolve_platform("pcie"), trace=True,
                           materialize=False)
    run = WORKLOADS["sw"](session, per_iteration=True)
    assert len(run.diagnoses) > 1
    assert built == []


@pytest.fixture
def setup():
    rt = CudaRuntime(intel_pascal())
    return rt, Tracer().attach(rt)


def test_reset_false_snapshot_is_isolated(setup):
    rt, tracer = setup
    v = rt.malloc_managed(64, label="x").typed(np.int32)
    v.write(0, np.zeros(8, np.int32))
    report = trace_print(tracer, include_maps=True, reset=False).named("x")
    before = {cat: amap.mask.copy() for cat, amap in report.maps.items()}
    assert before["cpu_write"].sum() == 8

    rt.launch(lambda ctx, x: x.write(0, np.ones(16, np.int32)), 1, 16, v,
              name="writer")
    v.read(0, 16)
    later = trace_print(tracer, include_maps=True).named("x")
    assert later.maps["gpu_write"].touched == 16

    for cat, mask in before.items():
        assert np.array_equal(report.maps[cat].mask, mask), cat
    # Each lookup is a fresh mask: scribbling on one changes no other.
    report.maps["cpu_write"].mask[:] = False
    assert report.maps["cpu_write"].touched == 8


def test_without_maps_stays_empty_and_transfers_refuse(setup):
    rt, tracer = setup
    d = rt.malloc(64, label="dev")
    rt.launch(lambda ctx, x: x.read(0, 16), 1, 16, d.typed(np.int32),
              name="reader")
    result = trace_print(tracer, include_maps=False, reset=False)
    report = result.named("dev")
    assert report.alloc.kind is MemoryKind.DEVICE
    assert not report.maps and len(report.maps) == 0
    assert "accessed" not in report.maps
    with pytest.raises(ValueError, match="include_maps"):
        detect_unnecessary_transfers(result, tracer)
    # With maps, the same epoch analyzes.
    assert diagnose(tracer).result.named("dev").maps
