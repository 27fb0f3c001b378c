"""The analysis facade: run all detectors over one diagnostic.

:func:`diagnose` is what workloads and the evaluation harness call at each
``#pragma xpl diagnostic`` point: it computes the diagnostic (with maps),
runs the three anti-pattern detectors (:func:`detect_anti_patterns`,
which the debugger calls on its own diagnostics), and returns both the
structured result and the findings.  :func:`format_findings` renders
them like the advisory lines under the Fig 4 tables.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Sequence

from ..runtime.alloc_data import XplAllocData
from ..runtime.diagnostics import DiagnosticResult, trace_print
from ..runtime.tracer import Tracer

from .alternating import detect_alternating
from .density import detect_low_density
from .patterns import AntiPattern, Finding
from .transfers import detect_unnecessary_transfers

__all__ = ["Diagnosis", "detect_anti_patterns", "diagnose",
           "format_findings"]


@dataclass
class Diagnosis:
    """One diagnostic pass plus its anti-pattern findings."""

    result: DiagnosticResult
    findings: list[Finding]

    def of(self, pattern: AntiPattern) -> list[Finding]:
        """Findings of one pattern."""
        return [f for f in self.findings if f.pattern is pattern]

    def for_allocation(self, name: str) -> list[Finding]:
        """Findings naming one allocation."""
        return [f for f in self.findings if f.name == name]


def detect_anti_patterns(
    result: DiagnosticResult,
    tracer: Tracer,
    *,
    min_transfer_block_words: int = 16,
) -> list[Finding]:
    """The three detectors' findings over one diagnostic (with maps)."""
    return (detect_alternating(result, tracer)
            + detect_low_density(result)
            + detect_unnecessary_transfers(
                result, tracer, min_block_words=min_transfer_block_words))


def diagnose(
    tracer: Tracer,
    descriptors: Sequence[XplAllocData] | None = None,
    out: IO[str] | None = None,
    *,
    min_transfer_block_words: int = 16,
    include_unnamed: bool = False,
    reset: bool = True,
) -> Diagnosis:
    """Run a full diagnostic + anti-pattern analysis epoch."""
    result = trace_print(
        tracer, descriptors, out,
        include_maps=True, include_unnamed=include_unnamed, reset=reset,
    )
    findings = detect_anti_patterns(
        result, tracer, min_transfer_block_words=min_transfer_block_words)
    if out is not None and findings:
        out.write(format_findings(findings))
    return Diagnosis(result=result, findings=findings)


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable advisory block for a set of findings."""
    buf = io.StringIO()
    buf.write(f"--- {len(findings)} anti-pattern finding(s)\n")
    for f in findings:
        buf.write(f"  {f.pattern.value}: {f.name}\n")
        buf.write(f"    {f.detail}\n")
        for r in f.remedies:
            buf.write(f"    remedy: {r}\n")
    return buf.getvalue()
