"""The debug engine: the instrumented pipeline wired for interactive control.

A :class:`DebugEngine` owns one parse->instrument->interpret pipeline and
threads the interpreter's :class:`~repro.interp.InterpHooks`, the event
log's listeners and the tracer's diagnostic hooks into a single pause
mechanism: when anything matches a breakpoint, the engine calls
``on_pause`` *synchronously on the interpreter's stack* and the front end
(:mod:`repro.debug.repl`) runs its command loop inside that callback.
Whatever resume action the loop returns (``step``/``next``/``continue``/
``finish``) becomes the stepping mode; ``quit`` raises :class:`DebugQuit`
to unwind the whole program.

Driver events (faults, evictions) are recorded while the trace hook
charges an access, so their breakpoints pause **deferred**: the engine
notes a pending stop and pauses at the next hook point -- right after
the faulting access completes, matching how a hardware debugger reports
an asynchronous fault.

Because the interpreter's memory is host-backed, the plain mini-CUDA
pipeline never enters the unified-memory driver.  The engine closes that
gap from its trace hook: the tracer is a stock ``Tracer(batch=False)``
(shadow state exact in program order at every pause point), and every
instrumented access to a *managed* allocation is charged through
:meth:`~repro.cudart.CudaRuntime.record_access` with a blame site naming
the interpreted source line, so the debugger sees the same faults,
migrations and cause links the Python workloads produce -- and
``explain`` agrees with ``repro-why``.  Installed hooks keep every host
function and kernel launch interpreted, so no access escapes the hook.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ..analysis import Finding, detect_anti_patterns
from ..causes import CausalGraph
from ..causes.render import format_bytes, format_cost, render_chain, \
    render_report
from ..heatmap.ansi import render_strip
from ..heatmap.store import HeatStore, SourceSite
from ..interp import Interpreter, InterpHooks
from ..memsim import (
    PAGE_SIZE,
    Allocation,
    Event,
    EventKind,
    MemoryKind,
    Platform,
    Processor,
)
from ..runtime import Tracer
from ..telemetry.events_jsonl import encode_driver_event

__all__ = ["DebugEngine", "DebugQuit", "StopInfo"]

#: Trace wrapper name -> access verb for watchpoint banners.
_RW = {"traceR": "read", "traceW": "write", "traceRW": "rmw"}


class DebugQuit(Exception):
    """Unwinds the interpreted program when the user quits mid-run."""


@dataclass(frozen=True)
class StopInfo:
    """Why and where the engine paused."""

    reason: str  #: ``breakpoint|kernel|event|pattern|watchpoint|step|next|finish``
    line: int
    site: SourceSite
    thread: tuple[int, int] | None  #: (blockIdx.x, threadIdx.x) in kernels
    kernel: str = ""
    bp: object = None          #: the matched Breakpoint, when any
    event: Event | None = None
    findings: tuple[Finding, ...] = ()
    detail: str = ""


class _EngineHooks(InterpHooks):
    """Thin delegation so the interpreter never imports the debugger."""

    __slots__ = ("engine",)

    def __init__(self, engine: "DebugEngine") -> None:
        self.engine = engine

    def on_stmt(self, interp, stmt, env) -> None:
        self.engine._on_stmt(interp, stmt, env)

    def on_trace(self, interp, fn, addr, size, site) -> None:
        self.engine._on_trace(interp, fn, addr, size, site)

    def on_kernel_entry(self, interp, fn, grid, block) -> None:
        self.engine._on_kernel_entry(interp, fn, grid, block)

    def on_alloc(self, interp, alloc) -> None:
        self.engine._on_alloc(alloc)


class DebugEngine:
    """One debuggable run of an instrumented mini-CUDA program."""

    def __init__(self, source: str, *, source_name: str = "prog.cu",
                 platform: Platform | None = None, nbuckets: int = 48,
                 out=None) -> None:
        from ..debug.breakpoints import BreakpointTable
        from ..instrument import instrument, parse

        self.source = source
        self.source_name = source_name
        self._source_lines = source.splitlines()
        unit = parse(source)
        instrument(unit)
        self.heat = HeatStore(nbuckets=nbuckets, attribute=False)
        self.tracer = Tracer(heat=self.heat, batch=False)
        self.interp = Interpreter(unit, platform=platform, tracer=self.tracer,
                                  out=out or io.StringIO(),
                                  source_name=source_name)
        self.platform = self.interp.platform
        self.runtime = self.interp.runtime
        self.log = self.platform.events
        # Cause links on, Python-stack site attribution off: blame sites
        # are the interpreted program's own file:line labels.
        self.platform.um.track_causes = True
        self.platform.um.blame_sites = False
        self.breakpoints = BreakpointTable()
        self.allocs: dict[str, Allocation] = {}
        self.alloc_sites: dict[str, str] = {}
        self.interp.hooks = _EngineHooks(self)
        self.log.add_listener(self._on_event)
        self.tracer.diagnostic_hooks.append(self._on_diagnostic)
        #: ``on_pause(engine, stop) -> resume action`` -- the front end's
        #: command loop.  ``None`` means never pause (free run).
        self.on_pause = None
        #: Entry function ``run()`` executes by default (CLI ``--entry``).
        self.entry = "main"
        self.last_stop: StopInfo | None = None
        self.last_findings: tuple[Finding, ...] = ()
        self.finished = False
        self.running = False
        self.exit_value = None
        self._mode = "continue"
        self._target_depth = 0
        self._pending: StopInfo | None = None
        self._fault_no = 0
        self._env = None

    # ------------------------------------------------------------------ #
    # execution

    def run(self, entry: str | None = None):
        """Execute ``entry`` (default :attr:`entry`) under debugger control;
        returns its value."""
        entry = entry or self.entry
        if self.finished:
            raise RuntimeError("program has already exited")
        self.running = True
        try:
            value = self.interp.run(entry)
        finally:
            self.running = False
        self.finished = True
        self.exit_value = value
        self.tracer.flush_trace()
        return value

    def source_line(self, line: int) -> str:
        """Source text of 1-based ``line`` (empty when out of range)."""
        if 1 <= line <= len(self._source_lines):
            return self._source_lines[line - 1]
        return ""

    # ------------------------------------------------------------------ #
    # hook plumbing

    def _stop(self, reason: str, *, bp=None, event: Event | None = None,
              findings: tuple = (), detail: str = "") -> StopInfo:
        interp = self.interp
        t = interp._thread
        thread = (t.get("blockIdx_x", 0), t.get("threadIdx_x", 0)) if t \
            else None
        kernel = self.runtime._current_kernel \
            if self.runtime._kernel_depth else ""
        return StopInfo(reason=reason, line=interp._line,
                        site=SourceSite(self.source_name, interp._line),
                        thread=thread, kernel=kernel, bp=bp, event=event,
                        findings=tuple(findings), detail=detail)

    def _do_pause(self, stop: StopInfo) -> None:
        self._mode = "continue"
        self.last_stop = stop
        handler = self.on_pause
        if handler is None:
            return
        action = handler(self, stop) or "continue"
        if action == "quit":
            raise DebugQuit()
        if action in ("next", "finish"):
            self._target_depth = len(self.interp.call_stack)
        self._mode = action if action in ("step", "next", "finish") \
            else "continue"

    def _on_stmt(self, interp, stmt, env) -> None:
        self._env = env
        pending = self._pending
        if pending is not None:
            self._pending = None
            self._do_pause(pending)
            return
        bp = self.breakpoints.match_line(interp._line)
        if bp is not None:
            bp.hits += 1
            self._do_pause(self._stop("breakpoint", bp=bp))
            return
        mode = self._mode
        if mode == "continue":
            return
        depth = len(interp.call_stack)
        if mode == "step" \
                or (mode == "next" and depth <= self._target_depth) \
                or (mode == "finish" and depth < self._target_depth):
            self._do_pause(self._stop(mode))

    def _on_trace(self, interp, fn: str, addr: int, size: int, site) -> None:
        # Only MANAGED allocations enter the driver: host memory has no
        # driver involvement, and device memory would fault on the
        # interpreter's CPU-side setup loops.
        block = self.tracer.smt.lookup(addr)
        if block is not None and block.alloc.kind is MemoryKind.MANAGED:
            alloc = block.alloc
            self.runtime.record_access(
                alloc, addr - alloc.base, size, 1, is_write=fn != "traceR",
                indices=None, is_rmw=fn == "traceRW",
                site=site.label if site else "")
        pending = self._pending
        if pending is not None:
            self._pending = None
            self._do_pause(pending)
        bp = self.breakpoints.match_watch(addr, size)
        if bp is not None:
            bp.hits += 1
            rw = _RW.get(fn, fn)
            self._do_pause(self._stop(
                "watchpoint", bp=bp,
                detail=f"{rw} {self.describe_addr(addr)} ({size} B)"))

    def _on_kernel_entry(self, interp, fn, grid: int, block: int) -> None:
        bp = self.breakpoints.match_kernel(fn.name)
        if bp is not None:
            bp.hits += 1
            self._do_pause(self._stop(
                "kernel", bp=bp, detail=f"{fn.name}<<<{grid},{block}>>>"))

    def _on_event(self, ev: Event) -> None:
        if ev.kind is EventKind.PAGE_FAULT:
            self._fault_no += 1
        if self._pending is None:
            bp = self.breakpoints.match_event(ev, self._fault_no)
            if bp is not None:
                bp.hits += 1
                self._pending = self._stop("event", bp=bp, event=ev)

    def _on_diagnostic(self, result) -> None:
        findings = detect_anti_patterns(result, self.tracer)
        self.last_findings = tuple(findings)
        bp, hits = self.breakpoints.match_pattern(findings)
        if bp is not None:
            bp.hits += 1
            self._do_pause(self._stop("pattern", bp=bp,
                                      findings=tuple(hits)))

    def _on_alloc(self, alloc: Allocation) -> None:
        label = alloc.label or f"alloc@{alloc.base:#x}"
        self.allocs[label] = alloc
        self.alloc_sites.setdefault(
            label, SourceSite(self.source_name, self.interp._line).label)
        self.breakpoints.resolve_watch_labels(
            label, alloc.base, alloc.base + alloc.size)

    # ------------------------------------------------------------------ #
    # inspection

    def describe_addr(self, addr: int) -> str:
        """``label+offset`` for a traced address, else hex."""
        block = self.tracer.smt.lookup(addr)
        if block is None:
            return f"{addr:#x}"
        alloc = block.alloc
        label = alloc.label or f"alloc@{alloc.base:#x}"
        return f"{label}+{addr - alloc.base}"

    def find_alloc(self, label: str) -> Allocation | None:
        return self.allocs.get(label)

    def backtrace_lines(self) -> list[str]:
        """gdb-style frames, innermost first, with kernel thread coords."""
        interp = self.interp
        frames = list(interp.call_stack)
        if not frames:
            return ["no frames (program not running)"]
        t = interp._thread
        lines = []
        for k in range(len(frames)):
            name = frames[-1 - k][0]
            line = interp._line if k == 0 else frames[-k][1]
            suffix = ""
            if k == 0 and t:
                suffix = (f"  [blockIdx.x={t.get('blockIdx_x', 0)}"
                          f" threadIdx.x={t.get('threadIdx_x', 0)}]")
            lines.append(f"#{k}  {name} at {self.source_name}:{line}{suffix}")
        return lines

    def residency_lines(self, label: str) -> list[str]:
        """Per-page residency map of one allocation from live UM state."""
        alloc = self.find_alloc(label)
        if alloc is None:
            return [f"no traced allocation {label!r} (see 'info allocs')"]
        npages = -(-alloc.size // PAGE_SIZE)
        head = (f"{label}: {alloc.kind.name.lower()}, {alloc.size} bytes, "
                f"{npages} page(s)")
        if alloc.kind is not MemoryKind.MANAGED:
            return [head + " -- no UM residency (not managed memory)"]
        st = self.platform.um.state_of(alloc)
        cpu = st.present[Processor.CPU]
        gpu = st.present[Processor.GPU]
        both = cpu & gpu
        lines = [head + f"  cpu={int((cpu & ~gpu).sum())}"
                        f" gpu={int((gpu & ~cpu).sum())}"
                        f" both={int(both.sum())}"
                        f" absent={int((~cpu & ~gpu).sum())}"]
        chars = np.where(both, "B", np.where(gpu, "g",
                         np.where(cpu, "c", ".")))
        text = "".join(chars)
        for off in range(0, len(text), 64):
            lines.append(f"  page {off:>4} |{text[off:off + 64]}|")
        lines.append("  legend: c=CPU g=GPU B=both .=absent")
        rm = int(st.read_mostly.sum())
        if rm:
            lines.append(f"  read-mostly pages: {rm}")
        return lines

    def heat_lines(self, label: str, *, color: bool = False,
                   epochs: int = 3) -> list[str]:
        """Heat strips: last closed epochs plus the live accumulator."""
        alloc = self.find_alloc(label)
        if alloc is None:
            return [f"no traced allocation {label!r} (see 'info allocs')"]
        heat = self.heat.peek(alloc)
        if heat is None or not heat.touched:
            return [f"{label}: no heat recorded yet"]
        closed = heat.epochs[-epochs:] if epochs else []
        live = heat.current_heat()
        peak = max([1, int(live.max())]
                   + [int(e.heat.max()) for e in closed])
        lines = [f"{label} heat ({heat.nbuckets} buckets over "
                 f"{heat.nwords} words, peak {peak}/bucket)"]
        for e in closed:
            lines.append(f"  e{e.epoch:<3d} |"
                         f"{render_strip(e.heat, peak, color=color)}|"
                         f" {e.total}")
        lines.append(f"  live |{render_strip(live, peak, color=color)}|"
                     f" {int(live.sum())}")
        top = heat.current_top_sites(3)
        if top:
            lines.append("  live top sites: "
                         + ", ".join(f"{s.label} x{n}" for s, n in top))
        return lines

    def event_lines(self, k: int = 10) -> list[str]:
        evs = list(self.log)[-k:]
        if not evs:
            return ["no driver events recorded"]
        lines = [f"last {len(evs)} of {len(self.log)} driver event(s):"]
        for ev in evs:
            c = ev.cause
            src = (c.site or c.kernel) if c else ""
            lines.append(
                f"  #{ev.id:<4d} {ev.kind.value:<13s} {ev.device.name:<3s}"
                f" pages={ev.pages:<3d} cost={format_cost(ev.cost):<9s}"
                f" {ev.detail}" + (f"  <- {src}" if src else ""))
        return lines

    def alloc_lines(self) -> list[str]:
        if not self.allocs:
            return ["no traced allocations yet"]
        lines = ["traced allocations:"]
        for label, alloc in sorted(self.allocs.items(),
                                   key=lambda kv: kv[1].base):
            site = self.alloc_sites.get(label, "")
            lines.append(f"  {label:<12s} {alloc.kind.name.lower():<8s}"
                         f" {alloc.size:>8d} B  base {alloc.base:#x}"
                         + (f"  ({site})" if site else ""))
        return lines

    def break_lines(self) -> list[str]:
        if not len(self.breakpoints):
            return ["no breakpoints set"]
        lines = ["breakpoints:"]
        for bp in self.breakpoints:
            state = "" if bp.enabled else "  [disabled]"
            lines.append(f"  {bp.bid}: {bp.describe}  hits={bp.hits}{state}")
        return lines

    # ------------------------------------------------------------------ #
    # causal explanations

    def graph(self) -> CausalGraph:
        """A fresh causal graph over the run's events so far."""
        records = [{"type": "alloc", "label": label, "site": site}
                   for label, site in self.alloc_sites.items()]
        records.extend(encode_driver_event(ev) for ev in self.log)
        return CausalGraph.from_records(records)

    def _pick_event(self, graph: CausalGraph, spec: str):
        spec = spec.strip() or "last"
        if spec == "last":
            return graph.events[-1]
        if spec.lstrip("-").isdigit():
            want = int(spec)
            return next((e for e in graph.events if e.id == want), None)
        cat = spec.replace("-", "_")
        cands = [e for e in graph.events if graph.category(e) == cat]
        if not cands:
            cands = [e for e in graph.events if e.kind == cat]
        if not cands:
            cands = [e for e in graph.events if e.alloc == spec]
        if not cands:
            return None
        return max(cands, key=lambda e: (e.cost, e.id))

    def explain_lines(self, spec: str = "last") -> list[str]:
        """Walk one event's cause links back to source lines.

        ``spec`` is an event id, ``last``, an anti-pattern category
        (``ping_pong``/``ping-pong``, ``oversubscription_refault``, ...),
        an event kind, or an allocation label; non-id specs pick the
        costliest matching event.  Chain formatting is the shared
        :func:`~repro.causes.render.render_chain`, byte-identical to the
        ``repro-why`` critical-path table.
        """
        graph = self.graph()
        if not graph.events:
            return ["no driver events to explain"]
        ev = self._pick_event(graph, spec)
        if ev is None:
            return [f"no event matches {spec!r} (try an id from 'events',"
                    " 'last', a category, or an allocation label)"]
        nodes = graph.chain(ev.id)
        total = sum(n["cost"] for n in nodes)
        cat = graph.category(ev)
        lines = [f"event #{ev.id} {ev.kind}: cause chain of {len(nodes)}"
                 f" event(s), {format_cost(total)} along the chain"]
        lines += render_chain(nodes)
        rollup = next((r for r in graph.blame()["by_category"]
                       if r["category"] == cat), None)
        if rollup is not None:
            lines.append(
                f"category {cat} this run: {rollup['events']} event(s),"
                f" {rollup['pages']} page(s),"
                f" {format_bytes(rollup['moved'])} moved,"
                f" {format_cost(rollup['cost'])}")
        return lines

    def blame_text(self, limit: int = 10) -> str:
        """The full ``repro-why``-style blame report for the run so far."""
        report = self.graph().report(workload=self.source_name,
                                     platform=self.platform.name)
        return render_report(report, limit=limit)

    # ------------------------------------------------------------------ #
    # expression evaluation

    def eval_expr(self, text: str):
        """Evaluate a C expression in the paused scope (globals when idle)."""
        from ..instrument.lexer import tokenize
        from ..instrument.parser import Parser

        expr = Parser(tokenize(text)).parse_expression()
        env = self._env if self._env is not None else self.interp.globals
        value, _ = self.interp.eval(expr, env)
        return value
