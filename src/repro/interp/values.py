"""Value model and memory access helpers for the mini-CUDA interpreter.

Every variable lives in simulated memory (host stack allocations for
locals, the CUDA allocators for heap), so *addresses are real*: the
tracing functions inserted by the instrumenter receive the same addresses
the shadow memory table indexes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..instrument.typesys import Array, CType, Pointer, Primitive, StructType
from ..memsim import AddressSpace, Allocation

__all__ = [
    "LValue", "numpy_dtype", "load", "store", "addr_access", "format_printf",
    "ReturnSignal", "BreakSignal", "ContinueSignal", "InterpError",
]


class InterpError(RuntimeError):
    """A runtime failure of the interpreted program.

    When the failure unwinds through ``Interpreter.exec_stmt`` the
    interpreter decorates the exception (once, innermost statement wins)
    with execution context:

    * ``site`` -- the :class:`~repro.heatmap.store.SourceSite` of the
      statement that was executing (``None`` for failures outside
      statement execution);
    * ``thread`` -- ``(blockIdx.x, threadIdx.x)`` when the failure
      happened inside a kernel, else ``None``;
    * ``stack`` -- function names on the interpreter call stack,
      outermost first.

    The original message is preserved as a prefix of ``args[0]``.
    """

    site = None
    thread: tuple[int, int] | None = None
    stack: tuple[str, ...] = ()


class ReturnSignal(Exception):
    """Unwinds a function body on ``return``."""

    def __init__(self, value: Any) -> None:
        self.value = value


class BreakSignal(Exception):
    """Unwinds a loop body on ``break``."""


class ContinueSignal(Exception):
    """Unwinds a loop body on ``continue``."""


class LValue:
    """A typed memory location.

    ``view``/``idx`` optionally carry the location pre-resolved to a typed
    numpy view and element index (set by the interpreter for scalar stack
    cells, whose backing buffer is known at declaration); ``load``/``store``
    then skip the address-space lookup entirely.  Transient lvalues
    (pointer targets, array elements) leave ``view`` as ``None``.
    """

    __slots__ = ("addr", "ctype", "view", "idx")

    def __init__(self, addr: int, ctype: CType,
                 view: np.ndarray | None = None, idx: int = 0) -> None:
        self.addr = addr
        self.ctype = ctype
        self.view = view
        self.idx = idx

    def __repr__(self) -> str:
        return f"LValue(addr={self.addr:#x}, ctype={self.ctype!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LValue):
            return NotImplemented
        return self.addr == other.addr and self.ctype == other.ctype

    def __hash__(self) -> int:
        return hash((self.addr, self.ctype))


#: Pre-built dtypes: every scalar access shares these instances, so the
#: per-access cost is one string-keyed dict probe (``np.dtype(...)``
#: construction dominated the interpreter's load/store profile).
_U64 = np.dtype(np.uint64)
_PRIM_DTYPES: dict[str, np.dtype] = {
    name: np.dtype(t) for name, t in {
        "char": np.int8, "bool": np.uint8, "short": np.int16,
        "int": np.int32, "unsigned int": np.uint32,
        "long": np.int64, "size_t": np.uint64,
        "float": np.float32, "double": np.float64,
    }.items()
}

def numpy_dtype(ctype: CType) -> np.dtype:
    """The numpy dtype used to access a value of ``ctype`` in memory."""
    if isinstance(ctype, Primitive):
        dt = _PRIM_DTYPES.get(ctype.name)
        if dt is not None:
            return dt
    elif isinstance(ctype, Pointer):
        return _U64
    raise InterpError(f"cannot access value of type {ctype.spell()}")


def _typed_view(alloc: Allocation, dt: np.dtype) -> np.ndarray:
    """Whole-buffer view of ``alloc`` as ``dt``, cached on the allocation.

    The backing buffer never moves, so the view stays valid for the
    allocation's lifetime (load/store reject freed allocations before the
    cache is consulted); aligned scalar accesses then cost one index
    instead of a slice + ``.view`` per load/store.
    """
    cache = alloc.__dict__.get("_typed_views")
    if cache is None:
        cache = alloc._typed_views = {}
    view = cache.get(dt.char)
    if view is None:
        usable = (alloc.size // dt.itemsize) * dt.itemsize
        view = cache[dt.char] = alloc.data[:usable].view(dt)
    return view


def load(space: AddressSpace, lv: LValue) -> Any:
    """Read the value at ``lv`` from simulated memory."""
    view = lv.view
    if view is not None:
        # ``.item`` unboxes straight to a Python scalar in one call.
        return view.item(lv.idx)
    return addr_access(space, numpy_dtype(lv.ctype))[0](lv.addr)


def store(space: AddressSpace, lv: LValue, value: Any) -> None:
    """Write ``value`` at ``lv`` in simulated memory."""
    view = lv.view
    if view is None:
        addr_access(space, numpy_dtype(lv.ctype))[1](lv.addr, value)
        return
    dt = view.dtype
    if dt.kind in "iu":
        # C-style wraparound on overflow (pure-int masking: no numpy
        # array round-trip per scalar write).
        bits = dt.itemsize * 8
        iv = int(value) & ((1 << bits) - 1)
        if dt.kind == "i" and iv >= 1 << (bits - 1):
            iv -= 1 << bits
        view[lv.idx] = iv
    else:
        view[lv.idx] = value


def addr_access(space: AddressSpace, dt: np.dtype) -> tuple:
    """``(load(addr), store(addr, value))`` for ``dt`` values anywhere in
    ``space``: the address-keyed path of :func:`load`/:func:`store`, made
    once per space and dtype and bound by the compiled tiers."""
    cache = space.__dict__.get("_addr_access")
    if cache is None:
        cache = space._addr_access = {}
    pair = cache.get(dt.char)
    if pair is None:
        pair = cache[dt.char] = _make_access(space, dt)
    return pair


def _make_access(space: AddressSpace, dt: np.dtype) -> tuple:
    isize = dt.itemsize
    int_kind = dt.kind in "iu"
    bits = isize * 8
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits
    signed = dt.kind == "i"

    def ld(addr):
        alloc = space.find(addr)
        if alloc is None or alloc.data is None:
            _reject(space, addr)
        idx, rem = divmod(addr - alloc.base, isize)
        if rem == 0:
            return _typed_view(alloc, dt).item(idx)
        # unaligned (packed struct field): build the view directly
        raw = alloc.view(dt, offset=addr - alloc.base, count=1)[0]
        return int(raw) if int_kind else float(raw)

    def st(addr, value):
        alloc = space.find(addr)
        if alloc is None or alloc.data is None:
            _reject(space, addr)
        idx, rem = divmod(addr - alloc.base, isize)
        if rem == 0:
            view = _typed_view(alloc, dt)
        else:
            view = alloc.view(dt, offset=addr - alloc.base, count=1)
            idx = 0
        if int_kind:
            iv = int(value) & mask
            if signed and iv >= half:
                iv -= full
            view[idx] = iv
        else:
            view[idx] = value

    return ld, st


def format_printf(args) -> str:
    """The text ``printf(fmt, *rest)`` writes (both execution tiers)."""
    fmt = str(args[0]).replace("\\n", "\n").replace("\\t", "\t")
    fmt = fmt.replace("%d", "{}").replace("%f", "{}").replace("%s", "{}")
    fmt = fmt.replace("%lu", "{}").replace("%g", "{}").replace("%p", "{:#x}")
    return fmt.format(*args[1:])


def _reject(space: AddressSpace, addr: int) -> None:
    """Raise the precise error for an unloadable address."""
    if space.find(addr) is None:
        raise InterpError(f"dereference of invalid address {addr:#x}")
    raise InterpError("interpreted programs need materialized memory")


def sizeof(ctype: CType) -> int:
    """``sizeof`` for the interpreter (arrays and structs included)."""
    return ctype.size
