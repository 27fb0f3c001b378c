"""Mini-CUDA source instrumenter: the paper's ROSE-plugin equivalent.

Pipeline: :func:`~repro.instrument.parser.parse` source ->
:func:`~repro.instrument.transform.instrument` the AST ->
:func:`~repro.instrument.unparse.unparse` back to source.  The
instrumented program runs on :mod:`repro.interp` against the simulated
CUDA runtime and the XPlacer tracer.
"""

from .ast_nodes import TranslationUnit
from .errors import FrontendError, LexError, ParseError, TypeError_
from .lexer import tokenize
from .lvalue import AccessMode, Scope, is_heap_lvalue
from .parser import Parser, parse
from .pragmas import XplDiagnostic, XplReplace, parse_xpl_pragma
from .transform import TRACE_FNS, InstrumentationResult, instrument
from .typesys import (
    Array,
    CType,
    Pointer,
    Primitive,
    StructField,
    StructType,
    TypeTable,
)
from .unparse import unparse, unparse_expr


def instrument_source(source: str) -> tuple[str, InstrumentationResult]:
    """One-call pipeline: parse, instrument, unparse.

    Returns the instrumented source plus the instrumentation summary.
    """
    result = instrument(parse(source))
    return unparse(result.unit), result


__all__ = [
    "TranslationUnit",
    "FrontendError", "LexError", "ParseError", "TypeError_",
    "tokenize",
    "AccessMode", "Scope", "is_heap_lvalue",
    "Parser", "parse",
    "XplDiagnostic", "XplReplace", "parse_xpl_pragma",
    "TRACE_FNS", "InstrumentationResult", "instrument", "instrument_source",
    "Array", "CType", "Pointer", "Primitive", "StructField", "StructType",
    "TypeTable",
    "unparse", "unparse_expr",
]
