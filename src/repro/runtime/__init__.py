"""The XPlacer runtime library (paper §III-C).

Shadow memory, the shadow memory table, the Table I tracing API, the
``#pragma xpl diagnostic`` analysis pass, and access-map extraction.
"""

from .access_map import AccessMap, overlap
from .alloc_data import XplAllocData, expand_object
from .diagnostics import (
    DENSITY_THRESHOLD,
    AllocationReport,
    DiagnosticResult,
    trace_print,
)
from .export import (
    epochs_to_csv,
    kernels_to_csv,
    transfers_to_csv,
)
from .flags import WORD_SIZE
from .report import format_text
from .shadow import AccessCounts, ShadowBlock
from .smt import LINEAR_SEARCH_LIMIT, ShadowMemoryTable
from .tracer import AdviceRecord, KernelRecord, Tracer, TransferRecord

__all__ = [
    "AccessMap",
    "overlap",
    "XplAllocData",
    "expand_object",
    "DENSITY_THRESHOLD",
    "AllocationReport",
    "DiagnosticResult",
    "trace_print",
    "WORD_SIZE",
    "epochs_to_csv",
    "kernels_to_csv",
    "transfers_to_csv",
    "format_text",
    "AccessCounts",
    "ShadowBlock",
    "LINEAR_SEARCH_LIMIT",
    "ShadowMemoryTable",
    "AdviceRecord",
    "KernelRecord",
    "Tracer",
    "TransferRecord",
]
