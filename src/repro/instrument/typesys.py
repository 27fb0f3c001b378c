"""C type model: sizes, alignment, struct layout, pointer expansion.

The instrumenter needs types for two jobs the paper describes:

* deciding element sizes (``sizeof(*p)``) for ``XplAllocData`` records in
  diagnostic expansion, including recursing through struct pointer
  members with a type-repetition guard;
* giving the interpreter a concrete memory layout so ``p->field`` and
  ``a[i]`` resolve to simulated addresses.

The model follows LP64: char 1, short 2, int 4, long/size_t/pointers 8,
float 4, double 8; structs use natural alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TypeError_

__all__ = [
    "CType", "Primitive", "Pointer", "Array", "StructType", "StructField",
    "TypeTable", "INT", "CHAR", "FLOAT", "DOUBLE", "LONG", "VOID", "SIZE_T",
]


class CType:
    """Base class of the C type model."""

    size: int
    align: int

    def __repr__(self) -> str:
        return self.spell()

    def spell(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True, repr=False)
class Primitive(CType):
    """A primitive type like ``int`` or ``double``."""

    name: str
    size: int
    is_float: bool = False
    is_signed: bool = True

    @property
    def align(self) -> int:
        return self.size

    def spell(self) -> str:
        return self.name


VOID = Primitive("void", 0)
CHAR = Primitive("char", 1)
SHORT = Primitive("short", 2)
INT = Primitive("int", 4)
UINT = Primitive("unsigned int", 4, is_signed=False)
LONG = Primitive("long", 8)
SIZE_T = Primitive("size_t", 8, is_signed=False)
FLOAT = Primitive("float", 4, is_float=True)
DOUBLE = Primitive("double", 8, is_float=True)
BOOL = Primitive("bool", 1)

_PRIMITIVES = {t.name: t for t in
               (VOID, CHAR, SHORT, INT, UINT, LONG, SIZE_T, FLOAT, DOUBLE, BOOL)}
_PRIMITIVES["cudaError_t"] = INT


@dataclass(frozen=True, repr=False)
class Pointer(CType):
    """``T*``."""

    target: CType

    size: int = 8
    align: int = 8

    def spell(self) -> str:
        return f"{self.target.spell()}*"


@dataclass(frozen=True, repr=False)
class Array(CType):
    """``T[n]``."""

    element: CType
    length: int

    @property
    def size(self) -> int:
        return self.element.size * self.length

    @property
    def align(self) -> int:
        return self.element.align

    def spell(self) -> str:
        return f"{self.element.spell()}[{self.length}]"


@dataclass(frozen=True)
class StructField:
    """One struct member with its computed byte offset."""

    name: str
    type: CType
    offset: int


@dataclass(repr=False)
class StructType(CType):
    """``struct Name { ... }`` with natural-alignment layout."""

    name: str
    fields: list[StructField] = field(default_factory=list)
    size: int = 0
    align: int = 1
    complete: bool = False

    def lay_out(self, members: list[tuple[str, CType]]) -> None:
        """Assign offsets and compute size/alignment."""
        offset = 0
        align = 1
        out: list[StructField] = []
        for name, ctype in members:
            a = max(1, ctype.align)
            offset = -(-offset // a) * a
            out.append(StructField(name, ctype, offset))
            offset += ctype.size
            align = max(align, a)
        self.fields = out
        self.align = align
        self.size = -(-offset // align) * align if offset else 0
        self.complete = True

    def field_named(self, name: str) -> StructField:
        """Look up a member by name."""
        for f in self.fields:
            if f.name == name:
                return f
        raise TypeError_(f"struct {self.name} has no member {name!r}")

    def spell(self) -> str:
        return f"struct {self.name}"


class TypeTable:
    """Named types of one translation unit."""

    def __init__(self) -> None:
        self._structs: dict[str, StructType] = {}
        self._typedefs: dict[str, CType] = {}

    def primitive(self, name: str) -> Primitive:
        """The primitive named ``name`` (raises on unknown)."""
        try:
            return _PRIMITIVES[name]
        except KeyError:
            raise TypeError_(f"unknown primitive type {name!r}") from None

    def struct(self, name: str, *, declare: bool = False) -> StructType:
        """Resolve (or forward-declare) ``struct name``."""
        if name not in self._structs:
            if not declare:
                raise TypeError_(f"unknown struct {name!r}")
            self._structs[name] = StructType(name)
        return self._structs[name]

    def add_typedef(self, name: str, ctype: CType) -> None:
        """Register ``typedef ctype name``."""
        self._typedefs[name] = ctype

    def typedef(self, name: str) -> CType | None:
        """Resolve a typedef name (``None`` if unknown)."""
        return self._typedefs.get(name)

    def pointer_members(self, ctype: CType) -> list[StructField]:
        """Pointer-typed members of a struct (for diagnostic expansion)."""
        if isinstance(ctype, StructType):
            return [f for f in ctype.fields if isinstance(f.type, Pointer)]
        return []
