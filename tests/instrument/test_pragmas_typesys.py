"""Unit tests for pragma parsing and the C type model."""

import pytest

from repro.instrument import (
    ParseError,
    TypeError_,
    XplDiagnostic,
    XplReplace,
    parse_xpl_pragma,
)
from repro.instrument.typesys import (
    CHAR,
    DOUBLE,
    INT,
    Array,
    Pointer,
    StructType,
    TypeTable,
)


class TestPragmaParsing:
    def test_replace(self):
        p = parse_xpl_pragma("#pragma xpl replace cudaMalloc")
        assert p == XplReplace("cudaMalloc")

    def test_replace_kernel_launch(self):
        p = parse_xpl_pragma("#pragma xpl replace kernel-launch")
        assert p == XplReplace("kernel-launch")

    def test_diagnostic_with_verbatim_and_expanded(self):
        p = parse_xpl_pragma("#pragma xpl diagnostic trcPrn(std::cout; a, z)")
        assert p == XplDiagnostic("trcPrn", ("std::cout",), ("a", "z"))

    def test_diagnostic_without_semicolon(self):
        p = parse_xpl_pragma("#pragma xpl diagnostic dump(out)")
        assert p == XplDiagnostic("dump", ("out",), ())

    def test_non_xpl_pragma_is_none(self):
        assert parse_xpl_pragma("#pragma omp parallel for") is None

    @pytest.mark.parametrize("bad", [
        "#pragma xpl replace",
        "#pragma xpl replace a b",
        "#pragma xpl diagnostic noparens",
        "#pragma xpl frobnicate x",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_xpl_pragma(bad)


class TestTypeModel:
    def test_primitive_sizes_lp64(self):
        t = TypeTable()
        assert t.primitive("char").size == 1
        assert t.primitive("int").size == 4
        assert t.primitive("long").size == 8
        assert t.primitive("double").size == 8
        assert Pointer(INT).size == 8

    def test_struct_natural_alignment(self):
        s = StructType("S")
        s.lay_out([("c", CHAR), ("d", DOUBLE), ("i", INT)])
        assert [f.offset for f in s.fields] == [0, 8, 16]
        assert s.size == 24  # padded to 8-byte alignment
        assert s.align == 8

    def test_empty_struct(self):
        s = StructType("E")
        s.lay_out([])
        assert s.size == 0 and s.complete

    def test_array_geometry(self):
        a = Array(INT, 10)
        assert a.size == 40 and a.align == 4
        assert a.spell() == "int[10]"

    def test_unknown_member_rejected(self):
        s = StructType("S")
        s.lay_out([("x", INT)])
        with pytest.raises(TypeError_):
            s.field_named("y")

    def test_unknown_struct_rejected(self):
        with pytest.raises(TypeError_):
            TypeTable().struct("Nope")

    def test_typedef_roundtrip(self):
        t = TypeTable()
        t.add_typedef("Real", DOUBLE)
        assert t.typedef("Real") is DOUBLE
        assert t.typedef("Missing") is None
