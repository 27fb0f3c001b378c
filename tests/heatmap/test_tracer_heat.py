"""Tracer/heat integration: both tracing paths, epochs, diagnostics."""

import io

import pytest

from repro.heatmap.store import HeatStore, SourceSite
from repro.interp import run_program
from repro.memsim import MemoryKind, Processor, intel_pascal
from repro.runtime import Tracer, trace_print
from repro.runtime.report import format_text


@pytest.fixture
def traced():
    platform = intel_pascal()
    heat = HeatStore(nbuckets=8, attribute=False)
    tracer = Tracer(heat=heat)
    alloc = platform.address_space.allocate(
        64 * 4, MemoryKind.MANAGED, label="buf")
    tracer.trc_register(alloc)
    return platform, tracer, heat, alloc


class TestDirectPath:
    def test_trace_calls_feed_heat_channels(self, traced):
        _, tracer, heat, alloc = traced
        tracer.traceR(alloc.base, 16)
        tracer.traceW(alloc.base + 32, 8)
        tracer.advance_epoch()
        e = heat.allocations()[0].epochs[0]
        assert e.channel("cpu_read").sum() == 4
        assert e.channel("cpu_write").sum() == 2

    def test_rmw_counts_both_channels(self, traced):
        _, tracer, heat, alloc = traced
        tracer.traceRW(alloc.base, 4)
        tracer.advance_epoch()
        e = heat.allocations()[0].epochs[0]
        assert e.channel("cpu_read").sum() == 1
        assert e.channel("cpu_write").sum() == 1

    def test_explicit_site_reaches_the_store(self, traced):
        platform, tracer, heat, alloc = traced
        heat.attribute = True  # even so, the explicit site must win
        site = SourceSite("prog.cu", 12)
        tracer.traceW(alloc.base, 4, site=site)
        tracer.advance_epoch()
        assert heat.allocations()[0].epochs[0].top_sites()[0][0] == site

    def test_epoch_advance_freezes_heat_with_shadow_reset(self, traced):
        _, tracer, heat, alloc = traced
        tracer.traceW(alloc.base, 4)
        tracer.advance_epoch()
        tracer.traceW(alloc.base, 4)
        tracer.advance_epoch()
        assert [e.epoch for e in heat.allocations()[0].epochs] == [0, 1]
        assert heat.epochs_closed == [0, 1]

    def test_no_heat_store_means_no_recording_cost(self):
        tracer = Tracer()
        assert tracer.heat is None  # off by default


class TestInterpPath:
    SRC = """
    int main() {
        double* a;
        trcMallocManaged((void**)&a, 64 * sizeof(double));
        for (int i = 0; i < 64; ++i)
            a[i] = i;
        trcFree(a);
        return 0;
    }
    """

    def test_instrumented_statements_attribute_by_line(self):
        heat = HeatStore(nbuckets=8)
        run_program(self.SRC, tracer=Tracer(heat=heat),
                    source_name="demo.cu")
        heat.flush_current()
        region = heat.allocations()[0].hottest_region()
        sites = [s.label for s, _ in region["sites"]]
        # The assignment statement is line 6 of the source above.
        assert sites == ["demo.cu:6"]


class TestDiagnosticsHotSites:
    def test_trace_print_reports_hot_sites(self, traced):
        _, tracer, heat, alloc = traced
        tracer.traceW(alloc.base, 16, site=SourceSite("app.py", 3))
        result = trace_print(tracer, out=None)
        report = result.named("buf")
        assert report.hot_sites == (("app.py:3", 4),)
        text = format_text(result)
        assert "hot sites: app.py:3 x4" in text

    def test_no_heat_gives_empty_hot_sites(self):
        platform = intel_pascal()
        tracer = Tracer()
        alloc = platform.address_space.allocate(
            64, MemoryKind.MANAGED, label="buf")
        tracer.trc_register(alloc)
        tracer.traceW(alloc.base, 4)
        result = trace_print(tracer, out=None)
        assert result.named("buf").hot_sites == ()
        assert "hot sites" not in format_text(result)


class TestEpochHooks:
    """Every epoch hook is called as ``hook(closed, frozen)``."""

    @staticmethod
    def _touch_in_order(store):
        platform = intel_pascal()
        tracer = Tracer(heat=store)
        allocs = {}
        for label in ("c", "a", "b"):
            allocs[label] = platform.address_space.allocate(
                64 * 4, MemoryKind.MANAGED, label=label)
            tracer.trc_register(allocs[label])
        seen = []
        tracer.epoch_hooks.append(
            lambda closed, frozen: seen.append((closed, list(frozen))))
        for label in ("c", "a", "b"):      # first touch fixes store order
            tracer.traceW(allocs[label].base, 4)
        tracer.advance_epoch()
        for label in ("b", "a"):           # c stays cold in epoch 1
            tracer.traceR(allocs[label].base, 4)
        tracer.advance_epoch()
        tracer.advance_epoch()             # nothing recorded
        return seen

    def test_pairs_arrive_in_store_order(self):
        store = HeatStore(nbuckets=8, attribute=False)
        seen = self._touch_in_order(store)
        assert [(closed, [(h.label, s.epoch) for h, s in frozen])
                for closed, frozen in seen] == [
            (0, [("c", 0), ("a", 0), ("b", 0)]),
            (1, [("a", 1), ("b", 1)]),
            (2, []),
        ]
        # The plain store keeps what it hands out.
        for _, frozen in seen:
            for heat, snap in frozen:
                assert any(e is snap for e in heat.epochs)

    def test_spilling_store_hooks_get_released_snapshots(self):
        from repro.stream.spill import SpillingHeatStore

        store = SpillingHeatStore(nbuckets=8, attribute=False)
        sunk = []
        store.sink = lambda heat, snap: sunk.append(snap)
        seen = self._touch_in_order(store)
        handed = [snap for _, frozen in seen for _, snap in frozen]
        assert len(handed) == 5
        assert all(a is b for a, b in zip(handed, sunk, strict=True))
        assert all(not h.epochs for h in store.allocations())  # released
        assert [s.total for s in handed] == [1] * 5  # one word each

    def test_no_store_hands_no_pairs(self):
        tracer = Tracer()
        seen = []
        tracer.epoch_hooks.append(
            lambda closed, frozen: seen.append((closed, frozen)))
        tracer.advance_epoch()
        assert seen == [(0, [])]
