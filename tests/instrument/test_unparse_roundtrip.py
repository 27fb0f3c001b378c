"""Golden round-trip tests: every bundled workload survives unparse.

The codegen backends lower the *instrumented* AST through the same
traversal shape as :func:`repro.instrument.unparse`, so drift in the
unparser is now load-bearing: a program that does not round-trip would
compile differently from what the tree-walker executes.  These tests pin
parse -> unparse -> parse idempotence (one iteration reaches a fixpoint)
for every bundled mini-CUDA program, raw and instrumented.
"""

import pytest

from repro.instrument import instrument, parse, unparse
from repro.workloads.minicuda import catalog
from repro.workloads.spatter import indirection, to_mini_cuda, uniform_stride


def _sources() -> dict[str, str]:
    srcs = dict(catalog())
    srcs["spatter-scatter-stride"] = to_mini_cuda(
        uniform_stride(8, count=16, kind="scatter"))
    srcs["spatter-scatter-lcg"] = to_mini_cuda(
        indirection(length=256, spread=4096, kind="scatter"))
    return srcs


SOURCES = _sources()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_parse_unparse_parse_idempotent(name):
    """unparse(parse(src)) is a fixpoint of the pipeline."""
    src1 = unparse(parse(SOURCES[name]))
    src2 = unparse(parse(src1))
    assert src1 == src2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_instrumented_round_trip_idempotent(name):
    """The instrumented tree (what codegen consumes) also round-trips."""
    unit = parse(SOURCES[name])
    instrument(unit)
    src1 = unparse(unit)
    src2 = unparse(parse(src1))
    assert src1 == src2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_round_trip_preserves_semantics(name):
    """Re-parsed source runs identically to the original program."""
    from repro.interp import run_program
    from repro.runtime import Tracer

    it_a = run_program(SOURCES[name], tracer=Tracer())
    it_b = run_program(unparse(parse(SOURCES[name])), tracer=Tracer())
    assert it_a.stdout == it_b.stdout
    da, db = it_a.tracer.describe(), it_b.tracer.describe()
    assert da["words_recorded"] == db["words_recorded"]
