"""Engine-level tests: breakpoint matching, UM driving, stepping."""

import pytest

from repro.debug import BreakpointTable, DebugEngine, DebugQuit
from repro.memsim import EventKind, MemoryKind

PINGPONG = """
    #pragma xpl replace cudaMallocManaged
    cudaError_t trcMallocManaged(void** p, size_t sz);
    #pragma xpl replace kernel-launch
    void traceKernelLaunch(int g, int b, int s, int st, ...);

    __global__ void bump(int* a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { a[i] = a[i] + 1; }
    }

    int main() {
        int* a;
        cudaMallocManaged((void**)&a, 256);
        for (int i = 0; i < 64; i++) { a[i] = i; }
        bump<<<2, 32>>>(a, 64);
        int s = 0;
        for (int i = 0; i < 64; i++) { s += a[i]; }
    #pragma xpl diagnostic tracePrint(out; a)
        return s;
    }
"""


class TestBreakpointTable:
    def test_line_and_kernel_matching(self):
        bps = BreakpointTable()
        line = bps.add_line(14)
        kern = bps.add_kernel("bump")
        assert bps.match_line(14) is line
        assert bps.match_line(15) is None
        assert bps.match_kernel("bump") is kern
        assert bps.match_kernel("other") is None

    def test_nth_fault_matching(self):
        from repro.memsim import Event, Processor
        bps = BreakpointTable()
        third = bps.add_fault(3)
        ev = Event(EventKind.PAGE_FAULT, 0.0, Processor.GPU, pages=1)
        assert bps.match_event(ev, 2) is None
        assert bps.match_event(ev, 3) is third
        every = bps.add_fault()
        assert bps.match_event(ev, 7) is every

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown anti-pattern"):
            BreakpointTable().add_pattern("nonsense")

    def test_watch_overlap_and_label_resolution(self):
        bps = BreakpointTable()
        bp = bps.add_watch(label="a")
        assert bps.match_watch(0x1000, 4) is None  # unresolved
        bps.resolve_watch_labels("a", 0x1000, 0x1100)
        assert bps.match_watch(0x0FFD, 4) is bp  # straddles the low edge
        assert bps.match_watch(0x10FF, 1) is bp
        assert bps.match_watch(0x1100, 4) is None
        bps.remove(bp.bid)
        assert bps.match_watch(0x1000, 4) is None


class TestEngineDrivesUM:
    def test_managed_accesses_reach_the_driver(self):
        engine = DebugEngine(PINGPONG)
        engine.run()
        kinds = {ev.kind for ev in engine.log}
        assert EventKind.PAGE_FAULT in kinds
        assert EventKind.MIGRATION in kinds

    def test_cause_links_name_interpreted_sites(self):
        engine = DebugEngine(PINGPONG, source_name="pp.cu")
        engine.run()
        sites = {ev.cause.site for ev in engine.log if ev.cause}
        assert any(s.startswith("pp.cu:") for s in sites)
        kernels = {ev.cause.kernel for ev in engine.log if ev.cause}
        assert "bump" in kernels

    def test_stack_allocations_stay_out_of_the_driver(self):
        engine = DebugEngine(PINGPONG)
        engine.run()
        for label in engine.allocs:
            alloc = engine.allocs[label]
            assert alloc.kind is MemoryKind.MANAGED


class TestPauseMachinery:
    def test_line_breakpoint_pauses_with_env(self):
        engine = DebugEngine(PINGPONG)
        stops = []

        def on_pause(eng, stop):
            stops.append(stop)
            return "continue"

        engine.on_pause = on_pause
        engine.breakpoints.add_line(15)  # the CPU init loop line
        engine.run()
        assert stops and all(s.line == 15 for s in stops)
        assert stops[0].reason == "breakpoint"
        # the loop body re-fires the breakpoint every iteration, gdb-style
        assert len(stops) >= 64

    def test_kernel_breakpoint_then_step_carries_thread_coords(self):
        engine = DebugEngine(PINGPONG)
        seen = []

        def on_pause(eng, stop):
            seen.append(stop)
            return "step" if len(seen) < 3 else "continue"

        engine.on_pause = on_pause
        engine.breakpoints.add_kernel("bump")
        engine.run()
        assert seen[0].reason == "kernel"
        # stepping from kernel entry lands inside the kernel body
        assert seen[1].thread == (0, 0)

    def test_nth_fault_pause_is_deferred_but_exact(self):
        engine = DebugEngine(PINGPONG)
        stops = []
        engine.on_pause = lambda e, s: stops.append(s) or "continue"
        engine.breakpoints.add_fault(2)
        engine.run()
        assert len(stops) == 1
        assert stops[0].event.kind is EventKind.PAGE_FAULT

    def test_pattern_breakpoint_fires_at_diagnostic(self):
        engine = DebugEngine(PINGPONG)
        stops = []
        engine.on_pause = lambda e, s: stops.append(s) or "continue"
        engine.breakpoints.add_pattern("alternating")
        engine.run()
        assert len(stops) == 1
        assert stops[0].findings
        assert all(f.name == "a" for f in stops[0].findings)

    def test_quit_unwinds_the_program(self):
        engine = DebugEngine(PINGPONG)
        engine.on_pause = lambda e, s: "quit"
        engine.breakpoints.add_line(14)
        with pytest.raises(DebugQuit):
            engine.run()
        assert not engine.finished

    def test_finish_from_kernel_thread_lands_back_in_main(self):
        engine = DebugEngine(PINGPONG)
        stops = []

        def on_pause(eng, stop):
            stops.append((stop.reason, stop.line, stop.thread,
                          len(eng.interp.call_stack)))
            if len(stops) == 1:
                # drop the breakpoint so only the finish stop follows
                eng.breakpoints.remove(bp.bid)
                return "finish"
            return "continue"

        engine.on_pause = on_pause
        bp = engine.breakpoints.add_line(9)  # inside the kernel body
        engine.run()
        assert stops[0][0] == "breakpoint" and stops[0][2] == (0, 0)
        reason, line, thread, depth = stops[1]
        assert reason == "finish"
        # remaining kernel threads run at full depth; the first shallower
        # statement is back in main, after the launch completes
        assert thread is None and depth == 1 and line > 16


class TestInspection:
    def test_residency_and_heat_after_run(self):
        engine = DebugEngine(PINGPONG)
        engine.run()
        res = engine.residency_lines("a")
        assert res[0].startswith("a: managed, 256 bytes, 1 page(s)")
        heat = engine.heat_lines("a")
        assert heat[0].startswith("a heat")
        assert engine.residency_lines("zzz")[0].startswith(
            "no traced allocation")

    def test_eval_expr_reads_program_state(self):
        engine = DebugEngine(PINGPONG)
        captured = []

        def on_pause(eng, stop):
            captured.append(eng.eval_expr("a[3]"))
            return "continue"

        engine.on_pause = on_pause
        engine.breakpoints.add_line(16)  # after init, at launch
        engine.run()
        assert captured[0] == 3

    def test_explain_matches_shared_chain_renderer(self):
        from repro.causes import render_chain
        engine = DebugEngine(PINGPONG)
        engine.run()
        graph = engine.graph()
        ev = max(graph.events, key=lambda e: (e.cost, e.id))
        expected = render_chain(graph.chain(ev.id))
        lines = engine.explain_lines(str(ev.id))
        assert lines[1:1 + len(expected)] == expected
