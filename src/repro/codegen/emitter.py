"""Scalar Python code generation for mini-CUDA kernels and host functions.

Lowers one instrumented :class:`~repro.instrument.ast_nodes.FunctionDef`
to Python source that replicates the tree-walking interpreter's observable
behaviour *exactly* -- same trace-call sequence (addresses, sizes, heat
sites), same value semantics (C wraparound on stores, truncating division),
same ``printf`` output -- while paying none of the per-node dispatch cost.
Kernels lower to a per-thread function (:func:`compile_scalar`); host
functions such as ``main`` lower to one call-level function
(:func:`compile_host`).

The lowering is temp-based: every side-effecting subexpression (trace
calls, heap loads/stores, assignments, ``++``/``--``, short-circuit
operands, ternaries) becomes a statement assigning a ``_tN`` temporary, so
evaluation order is pinned to the interpreter's.  Locals become Python
variables holding *wrapped* values (the value a re-load of the backing
cell would produce), which keeps heap-trip semantics without memory-backed
cells.  Kernels the emitter cannot prove equivalent raise
:class:`CodegenBail` and the launch falls back to the interpreter.

Host lowering keeps every interpreter side effect that reaches an
artifact.  Each executed declaration (and each parameter) still takes a
stack cell through ``Interpreter._alloc_local`` in the interpreter's order,
so host allocation serials do not move; values live in Python locals.
Builtins call ``Interpreter._call_builtin`` (kernel launches go through
``_run_kernel`` and so through the kernel tiers), user functions go
through ``Interpreter._invoke``, and ``return expr`` returns the value
unconverted, like ``ReturnSignal``.  A host function bails to the
interpreter when it

* names a global variable, a struct member, an array or struct local,
  ``new``/``delete``, or a thread builtin;
* takes ``&local`` anywhere but as a direct argument of a builtin call
  (the local is stored to its cell before that call and re-loaded
  after it);
* calls a user function with the wrong arity or aggregate parameters.

The interpreter's current line (``Interpreter._line``) stays a
compile-time constant between statements; host code stores it only where
it stops being one (see :meth:`ScalarEmitter._sync_line`), so callees,
heat sites and error locations see the interpreter's value.  An error
raised in compiled host code is located through
:attr:`CompiledKernel.line_table`.

Compilation is memoized module-wide by a structural AST digest (lines
included -- heat sites depend on them), including *negative* entries so a
bailing function is analyzed once, not once per launch or call.  A host
function's key also covers what it names outside itself (globals and
other functions' signatures); the ``FunctionDef`` objects themselves are
bound per interpreter, never baked into cached code.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import fields as _dataclass_fields

import numpy as np

from ..instrument import ast_nodes as A
from ..instrument.transform import TRACE_FNS
from ..instrument.typesys import (
    Array,
    CType,
    Pointer,
    Primitive,
    StructType,
)
from ..interp.interpreter import alloc_label
from ..interp.values import InterpError, numpy_dtype

__all__ = [
    "GLOBAL",
    "CodegenBail",
    "CompiledKernel",
    "Symbol",
    "compile_host",
    "compile_scalar",
    "kernel_digest",
    "resolve_kernel",
]

_TRACE_NAMES = set(TRACE_FNS.values())

#: Emitted-code name for each bound trace method.
TRACE_PY = {"traceR": "_TRR", "traceW": "_TRW", "traceRW": "_TRX"}

#: Batch kinds for the vectorized executor (matches repro.runtime.batch).
TRACE_KIND = {"traceR": 0, "traceW": 1, "traceRW": 2}

_DIM_BASES = ("threadIdx", "blockIdx", "blockDim", "gridDim")

#: threadIdx.x-style builtins -> emitted parameter name.
DIM_PY = {
    "blockIdx_x": "_bx",
    "threadIdx_x": "_tx",
    "blockDim_x": "_bd",
    "gridDim_x": "_gd",
}


class CodegenBail(Exception):
    """The kernel cannot be compiled by this backend; fall back."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --------------------------------------------------------------------- #
# structural digest (memoization key)

_CTYPES = (Primitive, Pointer, Array, StructType)


def _serialize(obj, out: list) -> None:
    if obj is None:
        out.append("~")
    elif isinstance(obj, A.Node):
        out.append(type(obj).__name__)
        out.append(str(getattr(obj, "line", 0)))
        for f in _dataclass_fields(obj):
            _serialize(getattr(obj, f.name), out)
    elif isinstance(obj, _CTYPES):
        out.append(f"T{obj.spell()}:{obj.size}")
    elif isinstance(obj, (list, tuple)):
        out.append(f"L{len(obj)}")
        for x in obj:
            _serialize(x, out)
    elif isinstance(obj, (set, frozenset)):
        out.append("S" + ",".join(sorted(str(x) for x in obj)))
    else:
        out.append(repr(obj))


def kernel_digest(fn: A.FunctionDef) -> str:
    """Stable structural hash of a kernel (source lines included)."""
    out: list[str] = []
    _serialize(fn, out)
    return hashlib.sha1("\x1f".join(out).encode()).hexdigest()


# --------------------------------------------------------------------- #
# symbol resolution (shared by the scalar and vector emitters)


class Symbol:
    """One kernel-local variable (parameter or declaration)."""

    __slots__ = ("name", "pyname", "ctype", "is_param", "varying")

    def __init__(self, name: str, pyname: str, ctype: CType,
                 is_param: bool = False) -> None:
        self.name = name
        self.pyname = pyname
        self.ctype = ctype
        self.is_param = is_param
        #: Set by the vectorizer's fixpoint: does the value differ by lane?
        self.varying = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Symbol({self.name!r} as {self.pyname}, varying={self.varying})"


class Resolution:
    """Scope-resolved view of one function.

    ``map`` keys ``id(node)`` for every :class:`~ast_nodes.Ident` use and
    :class:`~ast_nodes.VarDecl`/:class:`~ast_nodes.Param` declaration the
    resolver could bind; unresolved identifiers (globals, function names)
    stay unmapped: the kernel emitters bail on them, the host emitter
    looks them up in the unit.  ``addressed`` holds the symbols whose
    address ``&name`` takes.
    """

    __slots__ = ("map", "symbols", "params", "addressed")

    def __init__(self) -> None:
        self.map: dict[int, Symbol] = {}
        self.symbols: list[Symbol] = []
        self.params: list[Symbol] = []
        self.addressed: set[Symbol] = set()


def resolve_kernel(fn: A.FunctionDef) -> Resolution:
    """Bind identifier uses to symbols, mirroring the interpreter's
    environment chain (params scope -> block child scopes; ``for`` gets
    its own init scope; declarations bind before their initializer).
    Serves kernels and host functions alike."""
    res = Resolution()
    used: dict[str, int] = {}
    scopes: list[dict[str, Symbol]] = [{}]

    def mkname(name: str) -> str:
        n = used.get(name, 0) + 1
        used[name] = n
        return f"v_{name}" if n == 1 else f"v_{name}__{n}"

    def declare(name: str, ctype: CType, node, is_param: bool = False) -> Symbol:
        sym = Symbol(name, mkname(name), ctype, is_param)
        scopes[-1][name] = sym
        res.symbols.append(sym)
        res.map[id(node)] = sym
        return sym

    def look(name: str) -> Symbol | None:
        for sc in reversed(scopes):
            sym = sc.get(name)
            if sym is not None:
                return sym
        return None

    def expr(e) -> None:
        if e is None:
            return
        t = type(e)
        if t is A.Ident:
            sym = look(e.name)
            if sym is not None:
                res.map[id(e)] = sym
        elif t is A.Member:
            if not (not e.arrow and isinstance(e.base, A.Ident)
                    and e.base.name in _DIM_BASES):
                expr(e.base)
        elif t is A.Call:
            if not isinstance(e.callee, A.Ident):
                expr(e.callee)
            for a in e.args:
                expr(a)
        elif t is A.Unary:
            expr(e.operand)
            if e.op == "&" and id(e.operand) in res.map:
                res.addressed.add(res.map[id(e.operand)])
        elif t is A.Binary:
            expr(e.left)
            expr(e.right)
        elif t is A.Assign:
            expr(e.value)
            expr(e.target)
        elif t is A.Ternary:
            expr(e.cond)
            expr(e.then)
            expr(e.other)
        elif t is A.Index:
            expr(e.base)
            expr(e.index)
        elif t is A.Cast:
            expr(e.operand)
        elif t is A.SizeofExpr:
            expr(e.operand)
        elif t is A.KernelLaunch:
            expr(e.grid)
            expr(e.block)
            for a in e.args:
                expr(a)
        elif t is A.NewExpr:
            expr(e.count)
            expr(e.init)

    def stmt(s) -> None:
        if s is None:
            return
        t = type(s)
        if t is A.Block:
            scopes.append({})
            for x in s.stmts:
                stmt(x)
            scopes.pop()
        elif t is A.DeclStmt:
            for d in s.decls:
                declare(d.name, d.ctype, d)
                if d.init is not None:
                    expr(d.init)
        elif t is A.ExprStmt:
            expr(s.expr)
        elif t is A.If:
            expr(s.cond)
            stmt(s.then)
            stmt(s.other)
        elif t is A.While:
            expr(s.cond)
            stmt(s.body)
        elif t is A.DoWhile:
            stmt(s.body)
            expr(s.cond)
        elif t is A.For:
            scopes.append({})
            stmt(s.init)
            expr(s.cond)
            stmt(s.body)
            expr(s.step)
            scopes.pop()
        elif t is A.Return:
            expr(s.value)
        # Break/Continue/Pragma/Directive: nothing to resolve

    for p in fn.params:
        res.params.append(declare(p.name, p.ctype, p, is_param=True))
    stmt(fn.body)
    return res


def dtype_key(ctype: CType) -> str:
    """``i4``/``u8``/``f4``-style key for a scalar ctype (pointers are
    ``u8``); raises :class:`CodegenBail` for aggregates."""
    try:
        dt = numpy_dtype(ctype)
    except InterpError:
        raise CodegenBail(f"unsupported value type {ctype.spell()}") from None
    return dt.kind + str(dt.itemsize)


#: dtype key -> numpy dtype (every key the emitters can produce).
DTYPES: dict[str, np.dtype] = {
    "i1": np.dtype(np.int8), "u1": np.dtype(np.uint8),
    "i2": np.dtype(np.int16),
    "i4": np.dtype(np.int32), "u4": np.dtype(np.uint32),
    "i8": np.dtype(np.int64), "u8": np.dtype(np.uint64),
    "f4": np.dtype(np.float32), "f8": np.dtype(np.float64),
}


def _int_wrap(bits: int, signed: bool):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits

    def wrap(v):
        iv = int(v) & mask
        if signed and iv >= half:
            iv -= full
        return iv

    return wrap


def _wrap_f4(v) -> float:
    return float(np.float32(v))


#: dtype key -> scalar store-wrap (the value a reload of a memory cell of
#: that dtype would produce after ``repro.interp.values.store``).
WRAPS = {
    "i1": _int_wrap(8, True), "u1": _int_wrap(8, False),
    "i2": _int_wrap(16, True),
    "i4": _int_wrap(32, True), "u4": _int_wrap(32, False),
    "i8": _int_wrap(64, True), "u8": _int_wrap(64, False),
    "f4": _wrap_f4, "f8": float,
}


# --------------------------------------------------------------------- #
# scalar emitter


class CompiledKernel:
    """A kernel or host function lowered to Python, ready to bind per
    interpreter.

    Host code also carries ``consts`` (the ``_T{i}`` stack-cell types),
    ``funcs`` (names bound as ``_fn_{name}`` to the interpreter's
    ``FunctionDef``s) and ``line_table`` (the source line of each
    generated line, indexed by ``lineno - 1``).
    """

    __slots__ = ("name", "digest", "heat_on", "source", "code", "sites",
                 "param_keys", "consts", "funcs", "line_table")

    def __init__(self, name: str, digest: str, heat_on: bool, source: str,
                 sites: tuple[int, ...], param_keys: tuple[str, ...],
                 consts: tuple[CType, ...] = (), funcs: tuple[str, ...] = (),
                 line_table: tuple[int, ...] = ()) -> None:
        self.name = name
        self.digest = digest
        self.heat_on = heat_on
        self.source = source
        self.sites = sites
        self.param_keys = param_keys
        self.consts = consts
        self.funcs = funcs
        self.line_table = line_table
        self.code = compile(source, f"<codegen:{name}>", "exec")


#: Marks a free name that is a global variable (host mode).
GLOBAL = "<global>"

#: Emitted code that reads a Python local (a C variable).
_READS_LOCAL = re.compile(r"\bv_\w+")


class ScalarEmitter:
    """Emits the per-thread Python function for one kernel or, given
    ``host`` (free name -> ``FunctionDef`` or :data:`GLOBAL`), the
    function for one host function."""

    def __init__(self, fn: A.FunctionDef, res: Resolution,
                 heat_on: bool, host: dict | None = None) -> None:
        self.fn = fn
        self.res = res
        self.heat_on = heat_on
        self.host = host
        self.lines: list[str] = []
        #: Source line of each emitted line (host error locations).
        self.line_of: list[int] = []
        self.depth = 1
        self.ntmp = 0
        self.sites: list[int] = []
        self.cur_line = 0
        self.loop_stack: list[dict] = []
        self.consts: list[CType] = []
        self.funcs: list[str] = []
        #: Host mode: where the interpreter's current line is at this
        #: point -- ``"static"`` (``cur_line``) or ``"interp"`` (what
        #: ``_I._line`` holds at run time, see :meth:`_sync_line`).
        self.line_mode = "static"

    # -- writer helpers ------------------------------------------------- #

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)
        self.line_of.append(self._table_line())

    def _table_line(self) -> int:
        """Line-table entry for code emitted now (-1: ``_I._line``)."""
        return self.cur_line if self.line_mode == "static" else -1

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def bail(self, why: str):
        raise CodegenBail(why)

    def _key(self, ctype: CType) -> str:
        return dtype_key(ctype)

    def _site(self) -> int:
        if self.heat_on and not self.cur_line:
            self.bail("trace without source line (heat attribution)")
        i = len(self.sites)
        self.sites.append(self.cur_line)
        return i

    def _site_code(self) -> str:
        """The heat site of a trace emitted now."""
        if self.host is not None and self.line_mode == "interp":
            return "_SITE()"
        return f"_S{self._site()}"

    def _sync_line(self) -> None:
        """Host mode: make ``_I._line`` the interpreter's line here.

        Host code keeps the line static between statements and stores it
        only where it can stop being a compile-time constant: before a
        call leaves the compiled frame (a callee, builtin or kernel reads
        it; an interpreted one moves it, a compiled one stores its own on
        return), at function exits, and on every path into a control-flow
        merge (branch ends, loop back edges, ``break``/``continue``, and
        ahead of an ``&&``/``||``/``?:`` whose arm calls out, see
        :meth:`_join_arms`).
        """
        if self.host is not None and self.line_mode == "static":
            self.w(f"_I._line = {self.cur_line}")
            self.line_mode = "interp"

    def _join_arms(self, mark: int, entry: str, synced: bool) -> None:
        """Host mode: after a conditional expression (``&&``, ``||``,
        ``?:``) whose code starts at ``mark``.  When an arm synced the
        line, the paths that skip that arm must see the same ``_I._line``:
        sync once before the condition branches."""
        if synced and entry == "static":
            self.lines.insert(mark, "    " * self.depth
                              + f"_I._line = {self.cur_line}")
            self.line_of.insert(mark, self.cur_line)
            self.line_mode = "interp"

    def _discard(self, code: str) -> None:
        """An unused value (host mode): still evaluated when it may raise,
        as the interpreter evaluates it (``x / 0;``)."""
        if self.host is not None and "(" in code:
            self.w(code)

    def _func(self, name: str) -> str:
        if name not in self.funcs:
            self.funcs.append(name)
        return f"_fn_{name}"

    def _alloc_cell(self, sym: Symbol) -> None:
        """The stack cell the interpreter would allocate for ``sym``
        (kept as ``_c_<pyname>`` when its address is taken)."""
        if sym.ctype not in self.consts:
            self.consts.append(sym.ctype)
        call = f"_AL({sym.name!r}, _T{self.consts.index(sym.ctype)})"
        if sym in self.res.addressed:
            call = f"_c_{sym.pyname} = {call}"
        self.w(call)

    # -- entry ----------------------------------------------------------- #

    def emit(self) -> CompiledKernel:
        fn = self.fn
        param_keys = []
        for sym in self.res.params:
            param_keys.append(self._key(sym.ctype))
        if self.host is not None:
            return self._emit_host(param_keys)
        self.stmt(fn.body)
        if not self.lines:
            self.w("pass")
        params = "".join(f", {s.pyname}" for s in self.res.params)
        header = f"def _kernel(_bx, _tx, _bd, _gd{params}):"
        source = header + "\n" + "\n".join(self.lines) + "\n"
        return CompiledKernel(fn.name, kernel_digest(fn), self.heat_on,
                              source, tuple(self.sites), tuple(param_keys))

    def _emit_host(self, param_keys: list[str]) -> CompiledKernel:
        fn = self.fn
        for sym, key in zip(self.res.params, param_keys):
            self._alloc_cell(sym)
            self.w(f"{sym.pyname} = _w_{key}({sym.pyname})")
        self.stmt(fn.body)
        self._sync_line()
        if not self.lines:
            self.w("pass")
        params = ", ".join(s.pyname for s in self.res.params)
        source = f"def _host({params}):\n" + "\n".join(self.lines) + "\n"
        return CompiledKernel(fn.name, kernel_digest(fn), self.heat_on,
                              source, tuple(self.sites), tuple(param_keys),
                              tuple(self.consts), tuple(self.funcs),
                              (0, *self.line_of))

    # -- statements ------------------------------------------------------ #

    def stmt(self, s: A.Stmt) -> None:
        if s.line:
            self.cur_line = s.line
            self.line_mode = "static"
        t = type(s)
        if t is A.Block:
            for x in s.stmts:
                self.stmt(x)
        elif t is A.ExprStmt:
            self._discard(self.expr(s.expr)[0])
        elif t is A.DeclStmt:
            self.decl(s)
        elif t is A.If:
            self.stmt_if(s)
        elif t is A.While:
            self.stmt_while(s)
        elif t is A.DoWhile:
            self.stmt_do_while(s)
        elif t is A.For:
            self.stmt_for(s)
        elif t is A.Return:
            code = self.expr(s.value)[0] if s.value is not None else "None"
            self._sync_line()
            # Host functions return the value unconverted (ReturnSignal).
            self.w(f"return {code}" if self.host is not None else "return")
        elif t is A.Break:
            self.emit_break()
        elif t is A.Continue:
            self.emit_continue()
        elif t in (A.Pragma, A.Directive):
            pass
        else:
            self.bail(f"cannot compile {t.__name__}")

    def decl(self, s: A.DeclStmt) -> None:
        for d in s.decls:
            sym = self.res.map.get(id(d))
            if sym is None:
                self.bail(f"unresolved declaration {d.name!r}")
            if isinstance(d.ctype, (StructType, Array)):
                self.bail("aggregate local variable")
            key = self._key(d.ctype)
            zero = f"{sym.pyname} = " + ("0.0" if key[0] == "f" else "0")
            if self.host is not None:
                self._alloc_cell(sym)
            if d.init is None:
                self.w(zero)
                continue
            if any(self.res.map.get(id(n)) is sym for n in _walk(d.init)):
                self.w(zero)  # its own initializer sees the fresh cell
            code, _ = self.expr(d.init)
            self.w(f"{sym.pyname} = _w_{key}({code})")

    def _indented(self, body_fn) -> None:
        self.depth += 1
        mark = len(self.lines)
        body_fn()
        if len(self.lines) == mark:
            self.w("pass")
        self.depth -= 1

    def _branch(self, s: A.Stmt | None, entry: tuple[str, int]) -> None:
        """One arm of an ``if``: entered in the ``if``'s line state, left
        with ``_I._line`` synced (host mode)."""
        self.line_mode, self.cur_line = entry
        if s is not None:
            self.stmt(s)
        self._sync_line()

    def stmt_if(self, s: A.If) -> None:
        cond, _ = self.expr(s.cond)
        self.w(f"if {cond}:")
        entry = (self.line_mode, self.cur_line)
        self._indented(lambda: self._branch(s.then, entry))
        # Host code syncs the line on the fall-through path too.
        if s.other is not None or (self.host is not None
                                   and entry[0] == "static"):
            self.w("else:")
            self._indented(lambda: self._branch(s.other, entry))

    def _loop_body(self, body: A.Stmt) -> None:
        self.stmt(body)
        self._sync_line()

    def _check_loop_expr(self, e) -> None:
        """Heat sites are compile-time line constants; the interpreter's
        line at loop-condition/step evaluation is the *last executed body
        statement's* line, which is iteration-dependent.  Bail rather than
        mis-attribute (host code reads the line from ``_I._line``)."""
        if self.heat_on and self.host is None and e is not None \
                and _has_trace_call(e):
            self.bail("traced access in loop condition/step")

    def stmt_while(self, s: A.While) -> None:
        self._check_loop_expr(s.cond)
        self._sync_line()
        self.w("while True:")
        self.depth += 1
        cond, _ = self.expr(s.cond)
        self.w(f"if not {cond}:")
        self.depth += 1
        self.w("break")
        self.depth -= 1
        self.loop_stack.append({"break": "break", "continue": "continue"})
        self._loop_body(s.body)
        self.loop_stack.pop()
        self.depth -= 1

    def stmt_do_while(self, s: A.DoWhile) -> None:
        self._check_loop_expr(s.cond)
        self._sync_line()
        self.w("while True:")
        self.depth += 1
        self._tail_loop_body(s.body)
        cond, _ = self.expr(s.cond)
        self.w(f"if not {cond}:")
        self.depth += 1
        self.w("break")
        self.depth -= 1
        self.depth -= 1

    def stmt_for(self, s: A.For) -> None:
        self._check_loop_expr(s.cond)
        self._check_loop_expr(s.step)
        if s.init is not None:
            self.stmt(s.init)
        self._sync_line()
        self.w("while True:")
        self.depth += 1
        if s.cond is not None:
            cond, _ = self.expr(s.cond)
            self.w(f"if not {cond}:")
            self.depth += 1
            self.w("break")
            self.depth -= 1
        self._tail_loop_body(s.body)
        if s.step is not None:
            self.expr(s.step)
        self.depth -= 1

    def _tail_loop_body(self, body: A.Stmt) -> None:
        """Loop body whose ``continue`` must fall through to trailing
        statements (the ``for`` step / ``do-while`` condition): wrap in a
        run-once inner loop so ``continue`` lowers to ``break``."""
        has_break, has_continue = _scan_break_continue(body)
        if not has_continue:
            self.loop_stack.append({"break": "break", "continue": None})
            self._loop_body(body)
            self.loop_stack.pop()
            return
        flag = self.tmp() if has_break else None
        if flag is not None:
            self.w(f"{flag} = 0")
        once = self.tmp()
        self.w(f"for {once} in (0,):")
        self.depth += 1
        mark = len(self.lines)
        self.loop_stack.append({"break": flag or "break", "continue": "break"})
        self._loop_body(body)
        self.loop_stack.pop()
        if len(self.lines) == mark:
            self.w("pass")
        self.depth -= 1
        if flag is not None:
            self.w(f"if {flag}:")
            self.depth += 1
            self.w("break")
            self.depth -= 1

    def emit_break(self) -> None:
        if not self.loop_stack:
            self.bail("break outside loop")
        self._sync_line()
        kind = self.loop_stack[-1]["break"]
        if kind == "break":
            self.w("break")
        else:  # flag variable: exit the run-once wrapper, then the loop
            self.w(f"{kind} = 1")
            self.w("break")

    def emit_continue(self) -> None:
        if not self.loop_stack:
            self.bail("continue outside loop")
        self._sync_line()
        kind = self.loop_stack[-1]["continue"]
        if kind is None:
            self.bail("continue outside loop")
        self.w(kind)

    # -- expressions ----------------------------------------------------- #

    def expr(self, e: A.Expr) -> tuple[str, CType | None]:
        t = type(e)
        if t is A.IntLit:
            return repr(e.value), None
        if t is A.FloatLit:
            return repr(e.value), None
        if t is A.BoolLit:
            return str(int(e.value)), None
        if t is A.NullLit:
            return "0", None
        if t is A.CharLit:
            body = e.text[1:-1].encode().decode("unicode_escape")
            return str(ord(body)), None
        if t is A.StringLit:
            return repr(e.text[1:-1]), None
        if t is A.Ident:
            return self.e_ident(e)
        if t is A.Member:
            return self.e_member(e)
        if t is A.Index:
            return self.e_place(e)
        if t is A.Unary:
            return self.e_unary(e)
        if t is A.Binary:
            return self.e_binary(e)
        if t is A.Assign:
            return self.e_assign(e)
        if t is A.Ternary:
            return self.e_ternary(e)
        if t is A.Call:
            return self.e_call(e)
        if t is A.Cast:
            return self.e_cast(e)
        if t is A.SizeofType:
            return str(e.ctype.size), None
        if self.host is not None:
            if t is A.KernelLaunch:
                return self.e_launch(e)
            if t is A.SizeofExpr:
                return self.e_sizeof(e)
            if t is A.Raw:  # verbatim diagnostic arguments
                return repr(e.text), None
        return self.bail(f"cannot compile {t.__name__} expression")

    def _operands(self, exprs, cells: list | None = None) -> list:
        """Lower ``exprs`` left to right to ``(code, ctype)`` pairs.

        Codes are pure but evaluated late, so an earlier code that reads a
        local is hoisted into a temp when a later operand emits statements
        (which may reassign the local): values are those of the
        interpreter's left-to-right evaluation.  With ``cells``, ``&local``
        operands lower to their stack cell's address and the symbols are
        appended to ``cells``.
        """
        out: list = []
        ends: list[int] = []
        for e in exprs:
            start = len(self.lines)
            pair = self._cell_address(e, cells) if cells is not None else None
            if pair is None:
                pair = self.expr(e)
            if len(self.lines) > start:
                indent = "    " * self.depth
                for i in reversed(range(len(out))):
                    code, ct = out[i]
                    if _READS_LOCAL.search(code):
                        t = self.tmp()
                        self.lines.insert(ends[i], f"{indent}{t} = {code}")
                        self.line_of.insert(ends[i], self._table_line())
                        out[i] = (t, ct)
            out.append(pair)
            ends.append(len(self.lines))
        return out

    def _cell_address(self, e: A.Expr, cells: list):
        """``[(T*)]&local`` as a builtin-call argument: the address of
        its stack cell (``None`` for any other operand)."""
        while type(e) is A.Cast and isinstance(e.ctype, Pointer):
            e = e.operand
        if not (type(e) is A.Unary and e.op == "&"
                and type(e.operand) is A.Ident):
            return None
        sym = self.res.map.get(id(e.operand))
        if sym is None:
            self.bail(f"address of non-local {e.operand.name!r}")
        cells.append(sym)
        return f"_c_{sym.pyname}.addr", Pointer(sym.ctype)

    def e_ident(self, e: A.Ident) -> tuple[str, CType | None]:
        sym = self.res.map.get(id(e))
        if sym is None and self.host is not None:
            target = self.host.get(e.name)
            if isinstance(target, A.FunctionDef):
                return self._func(e.name), None
            if target is GLOBAL:
                self.bail(f"global variable {e.name!r}")
        if sym is None:
            self.bail(f"unresolved identifier {e.name!r}")
        if isinstance(sym.ctype, (StructType, Array)):
            self.bail("aggregate-typed identifier")
        return sym.pyname, sym.ctype

    def e_member(self, e: A.Member) -> tuple[str, CType | None]:
        if not e.arrow and isinstance(e.base, A.Ident) \
                and e.base.name in _DIM_BASES:
            if self.host is not None:
                self.bail(f"{e.base.name}.{e.name} outside a kernel")
            py = DIM_PY.get(f"{e.base.name}_{e.name}")
            if py is None:
                self.bail(f"{e.base.name}.{e.name} (only .x is modeled)")
            return py, None
        return self.bail("struct member access")

    def e_place(self, e: A.Expr) -> tuple[str, CType | None]:
        """Untraced heap read (``a[i]`` / ``*p`` outside instrumentation)."""
        addr, ct = self.addr_of(e)
        key = self._key(ct)
        t = self.tmp()
        self.w(f"{t} = _ld_{key}({addr})")
        return t, ct

    def e_unary(self, e: A.Unary) -> tuple[str, CType | None]:
        op = e.op
        if op == "&":
            if self.host is None or type(e.operand) is A.Ident:
                return self.bail("address-of")
            addr, ct = self.addr_of(e.operand)
            return addr, Pointer(ct)
        if op == "*":
            return self.e_place(e)
        if op in ("++", "--"):
            return self.e_incdec(e)
        code, ct = self.expr(e.operand)
        if op == "-":
            return f"(-{code})", ct
        if op == "+":
            return code, ct
        if op == "!":
            return f"int(not {code})", None
        if op == "~":
            return f"(~int({code}))", ct
        return self.bail(f"unary operator {op!r}")

    def e_incdec(self, e: A.Unary) -> tuple[str, CType | None]:
        sign = "+" if e.op == "++" else "-"
        target = e.operand
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            ct = sym.ctype
            key = self._key(ct)
            step = ct.target.size if isinstance(ct, Pointer) else 1
            old = None
            if not e.prefix:
                old = self.tmp()
                self.w(f"{old} = {sym.pyname}")
            new = self.tmp()
            self.w(f"{new} = {sym.pyname} {sign} {step}")
            self.w(f"{sym.pyname} = _w_{key}({new})")
            return (new if e.prefix else old), ct
        addr, ct = self.addr_of(target)
        key = self._key(ct)
        step = ct.target.size if isinstance(ct, Pointer) else 1
        old = self.tmp()
        self.w(f"{old} = _ld_{key}({addr})")
        new = self.tmp()
        self.w(f"{new} = {old} {sign} {step}")
        self.w(f"_st_{key}({addr}, {new})")
        return (new if e.prefix else old), ct

    def e_binary(self, e: A.Binary) -> tuple[str, CType | None]:
        op = e.op
        if op == ",":
            self._discard(self.expr(e.left)[0])
            return self.expr(e.right)
        if op == "&&":
            lc, _ = self.expr(e.left)
            t = self.tmp()
            mark, entry = len(self.lines), self.line_mode
            self.w(f"if {lc}:")
            self.depth += 1
            rc, _ = self.expr(e.right)
            self.w(f"{t} = int(bool({rc}))")
            self.depth -= 1
            self.w("else:")
            self.depth += 1
            self.w(f"{t} = 0")
            self.depth -= 1
            self._join_arms(mark, entry, self.line_mode != entry)
            return t, None
        if op == "||":
            lc, _ = self.expr(e.left)
            t = self.tmp()
            mark, entry = len(self.lines), self.line_mode
            self.w(f"if {lc}:")
            self.depth += 1
            self.w(f"{t} = 1")
            self.depth -= 1
            self.w("else:")
            self.depth += 1
            rc, _ = self.expr(e.right)
            self.w(f"{t} = int(bool({rc}))")
            self.depth -= 1
            self._join_arms(mark, entry, self.line_mode != entry)
            return t, None
        (lc, lt), (rc, rt) = self._operands((e.left, e.right))
        ltp = isinstance(lt, Pointer)
        rtp = isinstance(rt, Pointer)
        if ltp and op in ("+", "-") and not rtp:
            return f"({lc} {op} {rc} * {lt.target.size})", lt
        if rtp and op == "+":
            return f"({rc} + {lc} * {rt.target.size})", rt
        if ltp and rtp and op == "-":
            return f"(({lc} - {rc}) // {lt.target.size})", None
        code = self._binop(op, lc, rc)
        return code, (lt if ltp else (lt if lt is not None else rt))

    _CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")
    _BIT_OPS = ("&", "|", "^", "<<", ">>")

    def _binop(self, op: str, a: str, b: str) -> str:
        if op in ("+", "-", "*"):
            return f"({a} {op} {b})"
        if op == "/":
            return f"_cdiv({a}, {b})"
        if op == "%":
            return f"_cmod({a}, {b})"
        if op in self._CMP_OPS:
            return f"int({a} {op} {b})"
        if op in self._BIT_OPS:
            return f"(int({a}) {op} int({b}))"
        return self.bail(f"binary operator {op!r}")

    def e_assign(self, e: A.Assign) -> tuple[str, CType | None]:
        vc, _ = self.expr(e.value)
        tv = self.tmp()
        self.w(f"{tv} = {vc}")
        target = e.target
        if isinstance(target, A.Ident):
            sym = self.res.map.get(id(target))
            if sym is None:
                self.bail(f"unresolved identifier {target.name!r}")
            ct = sym.ctype
            key = self._key(ct)
            if e.op == "=":
                new = tv
            else:
                op = e.op[:-1]
                val = tv
                if isinstance(ct, Pointer) and op in ("+", "-"):
                    val = f"({tv} * {ct.target.size})"
                new = self.tmp()
                self.w(f"{new} = {self._binop(op, sym.pyname, val)}")
            self.w(f"{sym.pyname} = _w_{key}({new})")
            return new, ct
        addr, ct = self.addr_of(target)
        key = self._key(ct)
        if e.op == "=":
            new = tv
        else:
            op = e.op[:-1]
            old = self.tmp()
            self.w(f"{old} = _ld_{key}({addr})")
            val = tv
            if isinstance(ct, Pointer) and op in ("+", "-"):
                val = f"({tv} * {ct.target.size})"
            new = self.tmp()
            self.w(f"{new} = {self._binop(op, old, val)}")
        self.w(f"_st_{key}({addr}, {new})")
        return new, ct

    def e_ternary(self, e: A.Ternary) -> tuple[str, CType | None]:
        cc, _ = self.expr(e.cond)
        t = self.tmp()
        mark, entry = len(self.lines), self.line_mode
        self.w(f"if {cc}:")
        self.depth += 1
        tc, tt = self.expr(e.then)
        self.w(f"{t} = {tc}")
        self.depth -= 1
        synced = self.line_mode != entry
        self.line_mode = entry
        self.w("else:")
        self.depth += 1
        oc, ot = self.expr(e.other)
        self.w(f"{t} = {oc}")
        self.depth -= 1
        self._join_arms(mark, entry, synced or self.line_mode != entry)
        ttp = isinstance(tt, Pointer)
        otp = isinstance(ot, Pointer)
        if ttp != otp:
            self.bail("ternary mixing pointer and non-pointer")
        if ttp and tt.target.size != ot.target.size:
            self.bail("ternary mixing pointer target sizes")
        return t, (tt if tt is not None else ot)

    def e_cast(self, e: A.Cast) -> tuple[str, CType | None]:
        code, _ = self.expr(e.operand)
        if isinstance(e.ctype, Pointer):
            return f"int({code})", e.ctype
        if isinstance(e.ctype, Primitive) and not e.ctype.is_float:
            return f"int({code})", e.ctype
        return f"float({code})", e.ctype

    def e_call(self, e: A.Call) -> tuple[str, CType | None]:
        if not isinstance(e.callee, A.Ident):
            return self.bail("indirect call")
        name = e.callee.name
        if name in _TRACE_NAMES:
            addr, ct = self.addr_of(e)
            key = self._key(ct)
            t = self.tmp()
            self.w(f"{t} = _ld_{key}({addr})")
            return t, ct
        target = self.host.get(name) if self.host is not None else None
        if isinstance(target, A.FunctionDef) and target.body is not None:
            return self.e_host_call(e, target)
        if target is GLOBAL:
            return self.bail(f"call to global variable {name!r}")
        if name == "printf":
            args = [c for c, _ in self._operands(e.args)]
            self.w(f"_printf({', '.join(args)})")
            return "0", None
        if self.host is None:
            return self.bail(f"call to {name!r} inside kernel")
        if name == "XplAllocData":
            if len(e.args) < 3:
                self.bail("XplAllocData needs three arguments")
            args = [c for c, _ in self._operands(e.args[:3])]
            t = self.tmp()
            self.w(f"{t} = _XAD({', '.join(args)})")
            return t, None
        cells: list[Symbol] = []
        args = [c for c, _ in self._operands(e.args, cells)]
        for sym in cells:  # the builtin reads and writes the real cell
            self.w(f"_SC(_c_{sym.pyname}, {sym.pyname})")
        t = self.tmp()
        self._sync_line()
        self.w(f"{t} = _CB({name!r}, [{', '.join(args)}], "
               f"{alloc_label(e.args)!r})")
        for sym in cells:
            self.w(f"{sym.pyname} = _LC(_c_{sym.pyname})")
        return t, None

    def e_host_call(self, e: A.Call, target: A.FunctionDef):
        """A call to a user function (host mode): through ``_invoke``."""
        if len(e.args) != len(target.params):
            self.bail(f"call to {target.name!r} with the wrong arity")
        for p in target.params:
            self._key(p.ctype)
        args = [c for c, _ in self._operands(e.args)]
        t = self.tmp()
        self._sync_line()
        self.w(f"{t} = _INV({self._func(target.name)}, [{', '.join(args)}])")
        return t, target.return_type

    def e_sizeof(self, e: A.SizeofExpr) -> tuple[str, None]:
        """``sizeof(x)`` / ``sizeof(*p)`` on scalar locals (host mode).
        The interpreter evaluates the operand, so ``*p`` still loads, and a
        failed load is reported as an untyped ``sizeof``."""
        op = e.operand
        deref = type(op) is A.Unary and op.op == "*"
        sym = self.res.map.get(id(op.operand if deref else op))
        if sym is None or (deref and not isinstance(sym.ctype, Pointer)):
            return self.bail("sizeof of a non-local expression")
        ct = sym.ctype.target if deref else sym.ctype
        key = self._key(ct)
        if not deref:
            return str(ct.size), None
        t = self.tmp()
        self.w(f"{t} = _SZ(_ld_{key}, int({sym.pyname}), {ct.size})")
        return t, None

    def e_launch(self, e: A.KernelLaunch) -> tuple[str, None]:
        """``kernel<<<grid, block>>>(args)`` (host mode)."""
        kernel = e.kernel
        target = (self.host.get(kernel.name)
                  if isinstance(kernel, A.Ident) else None)
        if not isinstance(target, A.FunctionDef) or target.body is None:
            self.bail("launch of an undefined kernel")
        grid = self.tmp()
        self.w(f"{grid} = int({self.expr(e.grid)[0]})")
        block = self.tmp()
        self.w(f"{block} = int({self.expr(e.block)[0]})")
        args = [c for c, _ in self._operands(e.args)]
        self._sync_line()
        self.w(f"_RK({self._func(kernel.name)}, {grid}, {block}, "
               f"[{', '.join(args)}])")
        return "None", None

    # -- lvalue addresses ------------------------------------------------ #

    def addr_of(self, e: A.Expr) -> tuple[str, CType]:
        """Lower an lvalue to its address code, firing any trace wrapper
        exactly where the interpreter's ``lvalue()`` would."""
        t = type(e)
        if t is A.Call:
            if not (isinstance(e.callee, A.Ident)
                    and e.callee.name in _TRACE_NAMES):
                self.bail("call is not an l-value")
            addr, ct = self.addr_of(e.args[0])
            ta = self.tmp()
            self.w(f"{ta} = {addr}")
            size = max(1, ct.size)
            trace = TRACE_PY[e.callee.name]
            if self.heat_on:
                self.w(f"{trace}({ta}, {size}, {self._site_code()})")
            else:
                self.w(f"{trace}({ta}, {size})")
            return ta, ct
        if t is A.Index:
            (bc, bt), (ic, it) = self._operands((e.base, e.index))
            if not isinstance(bt, Pointer):
                self.bail("indexing a non-pointer value")
            return (f"({_as_int(bc, bt)} + {_as_int(ic, it)}"
                    f" * {bt.target.size})"), bt.target
        if t is A.Unary and e.op == "*":
            oc, ot = self.expr(e.operand)
            if not isinstance(ot, Pointer):
                self.bail("dereference of statically non-pointer value")
            return _as_int(oc, ot), ot.target
        if t is A.Cast:
            return self.addr_of(e.operand)
        return self.bail(f"unsupported l-value {t.__name__}")


#: Codes whose value is already a Python int when typed integral: an
#: integer literal, or a local (locals hold their type's wrapped value).
_INT_CODE = re.compile(r"(?:v_\w+|\d+)$")


def _as_int(code: str, ctype: CType | None) -> str:
    """``int(code)``, or ``code`` where that is already an int."""
    if _INT_CODE.match(code) and (
            code[0] != "v" or isinstance(ctype, Pointer)
            or (isinstance(ctype, Primitive) and not ctype.is_float)):
        return code
    return f"int({code})"


def _walk(node):
    """Every AST node in ``node`` (itself included)."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, A.Node):
            yield n
            stack.extend(getattr(n, f.name) for f in _dataclass_fields(n))
        elif isinstance(n, (list, tuple)):
            stack.extend(n)


def identifiers(fn: A.FunctionDef) -> set[str]:
    """Every identifier ``fn`` mentions (locals, globals, callees)."""
    return {n.name for n in _walk(fn) if type(n) is A.Ident}


def _has_trace_call(e) -> bool:
    """Does this expression contain an instrumented trace wrapper?"""
    t = type(e)
    if t is A.Call:
        if isinstance(e.callee, A.Ident) and e.callee.name in _TRACE_NAMES:
            return True
        return any(_has_trace_call(a) for a in e.args)
    if t is A.Unary:
        return _has_trace_call(e.operand)
    if t is A.Binary:
        return _has_trace_call(e.left) or _has_trace_call(e.right)
    if t is A.Assign:
        return _has_trace_call(e.target) or _has_trace_call(e.value)
    if t is A.Ternary:
        return (_has_trace_call(e.cond) or _has_trace_call(e.then)
                or _has_trace_call(e.other))
    if t is A.Index:
        return _has_trace_call(e.base) or _has_trace_call(e.index)
    if t is A.Cast:
        return _has_trace_call(e.operand)
    return False


def _scan_break_continue(s) -> tuple[bool, bool]:
    """(has_break, has_continue) at this loop's own level (nested loops
    consume their own break/continue)."""
    t = type(s)
    if t in (A.While, A.DoWhile, A.For):
        return False, False
    if t is A.Break:
        return True, False
    if t is A.Continue:
        return False, True
    if t is A.Block:
        hb = hc = False
        for x in s.stmts:
            b, c = _scan_break_continue(x)
            hb |= b
            hc |= c
        return hb, hc
    if t is A.If:
        hb, hc = _scan_break_continue(s.then)
        if s.other is not None:
            b, c = _scan_break_continue(s.other)
            hb |= b
            hc |= c
        return hb, hc
    return False, False


# --------------------------------------------------------------------- #
# memoized compilation

#: (digest, heat_on) -> CompiledKernel or the CodegenBail that stopped it.
_SCALAR_CACHE: dict[tuple[str, bool], CompiledKernel | CodegenBail] = {}


def _memoized(key: tuple, build) -> CompiledKernel:
    hit = _SCALAR_CACHE.get(key)
    if hit is not None:
        if isinstance(hit, CodegenBail):
            raise hit
        return hit
    try:
        compiled = build()
    except CodegenBail as bail:
        _SCALAR_CACHE[key] = bail
        raise
    _SCALAR_CACHE[key] = compiled
    return compiled


def compile_scalar(fn: A.FunctionDef, heat_on: bool) -> CompiledKernel:
    """Compile (or fetch) the scalar lowering of ``fn``.

    Raises :class:`CodegenBail` (cached, so repeated launches of an
    uncompilable kernel pay one analysis, not one per launch).
    """
    def build() -> CompiledKernel:
        if fn.body is None:
            raise CodegenBail("kernel without a body")
        return ScalarEmitter(fn, resolve_kernel(fn), bool(heat_on)).emit()

    return _memoized((kernel_digest(fn), bool(heat_on)), build)


def _name_key(target) -> str:
    """What host code compiled against a free name depends on."""
    if target is GLOBAL:
        return GLOBAL
    out = [str(target.body is not None), str(target.is_kernel)]
    _serialize([target.return_type, [p.ctype for p in target.params]], out)
    return "\x1f".join(out)


def compile_host(fn: A.FunctionDef, heat_on: bool,
                 names: dict) -> CompiledKernel:
    """Compile (or fetch) the host lowering of ``fn``.

    ``names`` maps the free names ``fn`` mentions to the unit's
    ``FunctionDef`` or :data:`GLOBAL`; their signatures are part of the
    cache key.  Raises :class:`CodegenBail` (cached like
    :func:`compile_scalar`'s).
    """
    context = tuple(sorted((n, _name_key(t)) for n, t in names.items()))
    return _memoized(
        (kernel_digest(fn), bool(heat_on), context),
        lambda: ScalarEmitter(fn, resolve_kernel(fn), bool(heat_on),
                              host=names).emit())
