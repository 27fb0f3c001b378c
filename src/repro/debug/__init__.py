"""``repro-debug``: interactive time-stepped debugging of the pipeline.

A gdb-style REPL over the instrumented mini-CUDA pipeline.  The engine
(:mod:`~repro.debug.engine`) turns the interpreter's hook interface, the
unified-memory event log and the tracer's diagnostic hooks into one pause
mechanism; breakpoints (:mod:`~repro.debug.breakpoints`) cover source
lines, kernel entries, page faults, evictions, named anti-patterns and
address/allocation watchpoints; inspection commands
(:mod:`~repro.debug.commands`) show live per-page residency, heat strips,
driver events and cause-chain explanations that reuse the
:mod:`repro.causes` renderers -- interactive blame matches ``repro-why``
byte for byte.
"""

from .breakpoints import Breakpoint, BreakpointTable, PATTERN_ALIASES
from .engine import DebugEngine, DebugQuit, StopInfo
from .repl import DebugSession

__all__ = [
    "Breakpoint",
    "BreakpointTable",
    "PATTERN_ALIASES",
    "DebugEngine",
    "DebugQuit",
    "StopInfo",
    "DebugSession",
]
