"""Backend selection, per-launch drivers for compiled kernels, and the
binding of compiled host functions.

The interpreter calls :func:`run_compiled` from inside
``runtime.launch`` (so launch events fire exactly once regardless of
which tier ends up executing).  The ladder, most- to least-optimized:

``codegen-vec``
    One numpy pass over the whole grid (:mod:`.vectorize` +
    :mod:`.gridexec`); requires a provably data-parallel kernel.
    Bails fall to the scalar tier after restoring any half-written
    values.
``codegen``
    The per-thread compiled function (:mod:`.emitter`), looping
    ``grid x block`` in Python but with zero AST dispatch.
``interp``
    The tree-walking oracle; always available.

Every dropped tier counts as one *fallback* on the tracer
(:meth:`Tracer.note_launch`), so reports can attribute fidelity numbers
to the backend that actually produced them.  Installed interpreter
hooks (the debugger) keep every launch interpreted: ``_run_kernel``
never calls :func:`run_compiled` while hooks are set.

Host functions (``main`` and its helpers) have one compiled tier, the
scalar emitter's host mode.  ``Interpreter._invoke`` asks
:func:`bind_host` for a function's body once per interpreter when the
backend is not ``interp``, no hooks are installed (the debugger) and
no kernel thread or interpreted host frame is active.  The bound code
calls back into the interpreter for everything with a side effect
beyond its own locals -- ``_alloc_local`` for each stack cell,
``_call_builtin`` for builtins (kernel launches reach
:func:`run_compiled` through ``_run_kernel``, so launch counts are
unchanged), ``_invoke`` for user functions -- so both tiers share one
semantics.  A bail (see :mod:`.emitter`) leaves the function
interpreted and records the reason in ``Interpreter.host_bails``.
"""

from __future__ import annotations

from functools import partial

from ..heatmap.store import SourceSite
from ..interp.interpreter import UNTYPED_SIZEOF, _cdiv, _cmod, alloc_data
from ..interp.values import InterpError, addr_access, format_printf, load, store
from .emitter import (
    DTYPES,
    GLOBAL,
    WRAPS,
    CodegenBail,
    compile_host,
    compile_scalar,
    identifiers,
)
from .gridexec import VecBail, VecRun
from .vectorize import compile_vec

__all__ = [
    "BACKENDS",
    "bind_host",
    "host_error_line",
    "run_compiled",
]

#: Selectable backends (``auto`` = vectorize when provable, else
#: codegen, else interp).
BACKENDS = ("auto", "interp", "codegen", "codegen-vec")


# --------------------------------------------------------------------- #
# binding: emitted code -> a function closed over one interpreter


def _make_printf(out):
    def _printf(*args):
        out.write(format_printf(args))

    return _printf


def _base_globals(interp) -> dict:
    g = {"__builtins__": {}, "int": int, "float": float, "bool": bool}
    fns = interp._trace_fns
    g["_TRR"] = fns["traceR"]
    g["_TRW"] = fns["traceW"]
    g["_TRX"] = fns["traceRW"]
    g["_cdiv"] = _cdiv
    g["_cmod"] = _cmod
    g["_printf"] = _make_printf(interp.out)
    space = interp._space
    for key, dt in DTYPES.items():
        g[f"_w_{key}"] = WRAPS[key]
        g[f"_ld_{key}"], g[f"_st_{key}"] = addr_access(space, dt)
    return g


def _sizeof_load(ld, addr, size):
    try:
        ld(addr)
    except InterpError:
        raise InterpError(UNTYPED_SIZEOF) from None
    return size


def _host_globals(interp, ck) -> dict:
    space = interp._space
    g = {"_I": interp, "_AL": interp._alloc_local,
         "_CB": interp._call_builtin, "_INV": interp._invoke,
         "_RK": interp._run_kernel, "_LC": partial(load, space),
         "_SC": partial(store, space), "_XAD": partial(alloc_data, space),
         "_SZ": _sizeof_load,
         "_SITE": lambda: SourceSite(interp.source_name, interp._line)}
    for i, ctype in enumerate(ck.consts):
        g[f"_T{i}"] = ctype
    for name in ck.funcs:
        g[f"_fn_{name}"] = interp.functions[name]
    return g


def _exec(interp, ck, heat_on: bool, host: bool):
    """``exec`` compiled code into fresh interpreter-bound globals."""
    g = _base_globals(interp)
    if heat_on:
        for i, line in enumerate(ck.sites):
            g[f"_S{i}"] = SourceSite(interp.source_name, line)
    if host:
        g.update(_host_globals(interp, ck))
    exec(ck.code, g)
    return g["_host" if host else "_kernel"]


def _bind(interp, ck, kind: str):
    """The kernel function of ``ck`` bound to ``interp`` once; repeated
    launches reuse it."""
    cache = interp.__dict__.setdefault("_codegen_bound", {})
    key = (ck.digest, kind)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _exec(interp, ck, kind == "scalar-heat", False)
    return hit


def bind_host(interp, fn, heat_on: bool):
    """The compiled body of host function ``fn`` bound to ``interp``, or
    ``None`` for kernels and bails (the reason lands in
    ``interp.host_bails``).  Called once per function and heat setting;
    ``Interpreter._host_body`` keeps the result."""
    if fn.is_kernel or fn.body is None:
        return None
    names = {}
    for name in identifiers(fn):
        if interp.globals.lookup(name) is not None:
            names[name] = GLOBAL
        elif name in interp.functions:
            names[name] = interp.functions[name]
    try:
        ck = compile_host(fn, heat_on, names)
    except CodegenBail as bail:
        interp.host_bails[fn.name] = bail.reason
        return None
    host = _exec(interp, ck, heat_on, True)
    host.line_table = ck.line_table
    return host


def host_error_line(host, exc: InterpError) -> int:
    """Source line of the statement the bound host function ``host`` ran
    when it raised ``exc``: its own frame's line in the traceback, mapped
    through the emitter's line table (-1: the interpreter's ``_line``)."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is host.__code__:
            return host.line_table[tb.tb_lineno - 1]
        tb = tb.tb_next
    return 0


# --------------------------------------------------------------------- #
# per-launch drivers


def _check_args(interp, fn, args) -> None:
    if len(args) != len(fn.params):
        raise InterpError(
            f"{fn.name} expects {len(fn.params)} arguments, got {len(args)}")


def _run_scalar(interp, fn, grid, block, args, heat_on) -> None:
    ck = compile_scalar(fn, heat_on)  # CodegenBail propagates to the ladder
    kfn = _bind(interp, ck, "scalar-heat" if heat_on else "scalar")
    _check_args(interp, fn, args)
    wargs = [WRAPS[k](v) for k, v in zip(ck.param_keys, args)]
    thread = {"blockIdx_x": 0, "threadIdx_x": 0,
              "blockDim_x": block, "gridDim_x": grid}
    interp.call_stack.append((fn.name, interp._line))
    interp._thread = thread
    try:
        for b in range(grid):
            thread["blockIdx_x"] = b
            for t in range(block):
                thread["threadIdx_x"] = t
                kfn(b, t, block, grid, *wargs)
    except InterpError as exc:
        interp._decorate_error(exc)
        raise
    finally:
        interp.call_stack.pop()
        interp._thread = {}


def _run_vec(interp, fn, grid, block, args, heat_on) -> bool:
    """One vectorized launch; ``False`` means bail (values restored)."""
    ck = compile_vec(fn)  # CodegenBail propagates to the ladder
    if heat_on and (ck.loop_trace or 0 in ck.sites):
        raise CodegenBail("heat attribution needs per-statement lines")
    _check_args(interp, fn, args)
    wargs = [WRAPS[k](v) for k, v in zip(ck.param_keys, args)]
    kfn = _bind(interp, ck, "vec")
    sites = None
    if heat_on:
        sites = tuple(SourceSite(interp.source_name, ln) for ln in ck.sites)
    vr = VecRun(interp, grid, block, sites)
    try:
        kfn(vr, vr.bx, vr.tx, block, grid, *wargs)
        vr.finish()
    except Exception:
        # VecBail, or a numpy-level error the interpreter would raise
        # per-thread (division by zero, invalid address): restore values
        # and let a per-thread tier reproduce it authentically.
        vr.restore()
        return False
    return True


def run_compiled(interp, fn, grid: int, block: int, args,
                 interp_body) -> None:
    """Execute one kernel launch via the best available backend.

    ``interp_body`` is a zero-argument callable running the tree-walking
    grid loop (the final fallback).  Must be called *inside* the
    runtime's ``launch`` context.
    """
    mode = interp.backend
    tracer = interp.tracer
    heat_on = tracer.heat is not None
    fallbacks = 0
    if mode in ("auto", "codegen-vec"):
        try:
            if _run_vec(interp, fn, grid, block, args, heat_on):
                tracer.note_launch("codegen-vec", fallbacks)
                return
            fallbacks += 1
        except (CodegenBail, VecBail):
            fallbacks += 1
    try:
        _run_scalar(interp, fn, grid, block, args, heat_on)
        tracer.note_launch("codegen", fallbacks)
        return
    except CodegenBail:
        fallbacks += 1
    interp_body()
    tracer.note_launch("interp", fallbacks)
