"""Golden scripted-session tests: transcripts, determinism, blame parity."""

import hashlib
import io
from pathlib import Path

from repro.causes import render_chain, render_report
from repro.debug import DebugEngine, DebugSession
from repro.debug.cli import main

REPO = Path(__file__).resolve().parents[2]
PATHFINDER = (REPO / "examples" / "pathfinder_pingpong.cu").read_text()

SIMPLE = """
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


def run_script(source, script, *, source_name="prog.cu"):
    """One scripted session over fresh state; returns the transcript."""
    out = io.StringIO()
    engine = DebugEngine(source, source_name=source_name, out=io.StringIO())
    session = DebugSession(engine, out=out, script=script)
    session.interact()
    return out.getvalue()


class TestGoldenSessions:
    def test_nth_fault_breakpoint_session(self):
        text = run_script(SIMPLE, [
            "break fault 2",
            "run",
            "bt",
            "continue",
            "quit",
        ])
        assert "(repro-debug) break fault 2" in text
        assert "breakpoint 1: page fault #2" in text
        assert "breakpoint 1 (page fault #2): page_fault on" in text
        assert "#0  main at prog.cu:" in text
        assert "[program exited with value 2080]" in text

    def test_watchpoint_session(self):
        text = run_script(SIMPLE, [
            "watch a",
            "run",
            "delete 1",
            "continue",
            "quit",
        ])
        # the label binds lazily, then fires on the first traced access
        assert "not traced yet" in text
        assert "watchpoint 1 (watch a): write a+0 (4 B) at prog.cu:15" in text
        assert "deleted breakpoint 1" in text
        assert "[program exited with value 2080]" in text

    def test_pingpong_explain_session(self):
        text = run_script(PATHFINDER, [
            "break pattern ping-pong",
            "run",
            "res src",
            "explain ping-pong",
            "continue",
            "quit",
        ], source_name="pathfinder_pingpong.cu")
        assert "breakpoint 1 (anti-pattern ping-pong) fired at" in text
        assert "alternating CPU/GPU accesses in managed memory: src --" in text
        assert "src: managed, 1024 bytes, 1 page(s)" in text
        assert "cause chain of" in text
        assert "category ping_pong this run:" in text

    def test_commands_before_run_are_rejected(self):
        text = run_script(SIMPLE, ["continue", "run", "quit"])
        assert "the program is not being run -- 'run' starts it" in text
        assert "[program exited with value 2080]" in text


class TestDeterminism:
    def test_scripted_sessions_byte_match(self):
        script = (REPO / "examples" / "debug_pingpong.txt")
        lines = script.read_text().splitlines()
        a = run_script(PATHFINDER, lines, source_name="pathfinder_pingpong.cu")
        b = run_script(PATHFINDER, lines, source_name="pathfinder_pingpong.cu")
        assert a == b
        assert "[program exited with value 15]" in a

    def test_cli_transcripts_byte_match(self, tmp_path):
        cmds = tmp_path / "cmds.txt"
        cmds.write_text("break kernel gather_kernel\nrun\ninfo allocs\n"
                        "continue\nexplain last\nquit\n")
        outs = []
        for name in ("t1.txt", "t2.txt"):
            t = tmp_path / name
            assert main(["--spatter",
                         str(REPO / "examples" / "spatter_indirect.json"),
                         "--script", str(cmds), "--transcript", str(t)]) == 0
            outs.append(t.read_bytes())
        assert outs[0] == outs[1]
        assert b"entering gather_kernel<<<" in outs[0]


#: The spatter session the CI debug job scripts.
SPATTER_SCRIPT = """\
break kernel gather_kernel
watch idx
run
info allocs
delete 2
continue
res data
explain last
continue
quit
"""


class TestPinnedTranscripts:
    """sha256 of the two scripted CLI sessions, byte for byte.

    Determinism alone (two runs agree) would not notice a change that
    alters both runs the same way; these digests pin the exact bytes.
    """

    def _digest(self, tmp_path, argv):
        out = tmp_path / "transcript.txt"
        assert main(argv + ["--transcript", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_pathfinder_pingpong_transcript(self, tmp_path):
        assert self._digest(tmp_path, [
            str(REPO / "examples" / "pathfinder_pingpong.cu"),
            "--script", str(REPO / "examples" / "debug_pingpong.txt"),
        ]) == ("2117fb18a3e9b6f17abbd235f6b1f06b"
               "e6188eed0ffdeb450a426bc21b0307f0")

    def test_spatter_indirect_transcript(self, tmp_path):
        cmds = tmp_path / "cmds.txt"
        cmds.write_text(SPATTER_SCRIPT)
        assert self._digest(tmp_path, [
            "--spatter", str(REPO / "examples" / "spatter_indirect.json"),
            "--script", str(cmds),
        ]) == ("9da3c950127891119b2d1fdecaaa17a3"
               "9fa3ee59d98de3c40d4f1543bc4cc870")


class TestBlameParity:
    def test_explain_chain_is_the_shared_renderer(self):
        engine = DebugEngine(PATHFINDER, source_name="pathfinder_pingpong.cu",
                             out=io.StringIO())
        engine.run()
        graph = engine.graph()
        cands = [e for e in graph.events if graph.category(e) == "ping_pong"]
        assert cands, "pathfinder scenario must produce ping-pong events"
        ev = max(cands, key=lambda e: (e.cost, e.id))
        expected = render_chain(graph.chain(ev.id))
        lines = engine.explain_lines("ping-pong")
        assert lines[1:1 + len(expected)] == expected

    def test_explain_rollup_matches_graph_blame(self):
        from repro.causes.render import format_bytes, format_cost
        engine = DebugEngine(PATHFINDER, source_name="pathfinder_pingpong.cu",
                             out=io.StringIO())
        engine.run()
        rollup = next(r for r in engine.graph().blame()["by_category"]
                      if r["category"] == "ping_pong")
        last = engine.explain_lines("ping-pong")[-1]
        assert last == (
            f"category ping_pong this run: {rollup['events']} event(s),"
            f" {rollup['pages']} page(s),"
            f" {format_bytes(rollup['moved'])} moved,"
            f" {format_cost(rollup['cost'])}")

    def test_blame_command_is_the_repro_why_report(self):
        engine = DebugEngine(PATHFINDER, source_name="pathfinder_pingpong.cu",
                             out=io.StringIO())
        engine.run()
        report = engine.graph().report(workload="pathfinder_pingpong.cu",
                                       platform=engine.platform.name)
        assert engine.blame_text(limit=5) == render_report(report, limit=5)
