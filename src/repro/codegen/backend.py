"""Backend selection and per-launch drivers for compiled kernels.

The interpreter calls :func:`run_compiled` from inside
``runtime.launch`` (so launch events fire exactly once regardless of
which tier ends up executing).  The ladder, most- to least-optimized:

``codegen-vec``
    One numpy pass over the whole grid (:mod:`.vectorize` +
    :mod:`.gridexec`); requires a stock tracer and a provably
    data-parallel kernel.  Bails fall to the scalar tier after
    restoring any half-written values.
``codegen``
    The per-thread compiled function (:mod:`.emitter`), looping
    ``grid x block`` in Python but with zero AST dispatch.
``interp``
    The tree-walking oracle; always available.

Every dropped tier counts as one *fallback* on the tracer
(:meth:`Tracer.note_launch`), so reports can attribute fidelity numbers
to the backend that actually produced them.  Custom tracer subclasses
that override the ``trace*`` methods disable the compiled tiers
entirely -- the emitted code binds the base implementations, and
silently skipping an override would change observable behaviour.
"""

from __future__ import annotations

from ..heatmap.store import SourceSite
from ..interp.interpreter import _cdiv, _cmod
from ..interp.values import InterpError, _reject, _typed_view
from ..runtime.tracer import Tracer
from .emitter import DTYPES, WRAPS, CodegenBail, compile_scalar
from .gridexec import VecBail, VecRun
from .vectorize import compile_vec

__all__ = [
    "BACKENDS",
    "default_backend",
    "run_compiled",
    "set_default_backend",
]

#: Selectable backends (``auto`` = vectorize when provable, else
#: codegen, else interp).
BACKENDS = ("auto", "interp", "codegen", "codegen-vec")

_DEFAULT = "interp"


def default_backend() -> str:
    """The library-wide default backend for new interpreters."""
    return _DEFAULT


def set_default_backend(name: str) -> None:
    """Set the default backend (CLIs pass their ``--backend`` here)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}")
    global _DEFAULT
    _DEFAULT = name


# --------------------------------------------------------------------- #
# binding: emitted code -> a function closed over one interpreter


def _make_ld(space, dt):
    isize = dt.itemsize
    int_kind = dt.kind in "iu"

    def ld(addr):
        alloc = space.find(addr)
        if alloc is None or alloc.data is None:
            _reject(space, addr)
        idx, rem = divmod(addr - alloc.base, isize)
        if rem == 0:
            return _typed_view(alloc, dt).item(idx)
        raw = alloc.view(dt, offset=addr - alloc.base, count=1)[0]
        return int(raw) if int_kind else float(raw)

    return ld


def _make_st(space, dt):
    isize = dt.itemsize
    int_kind = dt.kind in "iu"
    bits = isize * 8
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits
    signed = dt.kind == "i"

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

    return st


def _make_printf(out):
    def _printf(*args):
        fmt = str(args[0]).replace("\\n", "\n").replace("\\t", "\t")
        fmt = fmt.replace("%d", "{}").replace("%f", "{}").replace("%s", "{}")
        fmt = fmt.replace("%lu", "{}").replace("%g", "{}").replace(
            "%p", "{:#x}")
        out.write(fmt.format(*args[1:]))
        return 0

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
        g[f"_ld_{key}"] = _make_ld(space, dt)
        g[f"_st_{key}"] = _make_st(space, dt)
    return g


def _bind(interp, ck, kind: str):
    """``exec`` a compiled kernel into interpreter-bound globals once;
    repeated launches reuse the bound function."""
    cache = interp.__dict__.setdefault("_codegen_bound", {})
    key = (ck.digest, kind)
    hit = cache.get(key)
    if hit is not None:
        return hit
    g = _base_globals(interp)
    if kind == "scalar-heat":
        for i, line in enumerate(ck.sites):
            g[f"_S{i}"] = SourceSite(interp.source_name, line)
    exec(ck.code, g)
    fn = cache[key] = g["_kernel"]
    return fn


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


def _tracer_eligible(tracer) -> bool:
    t = type(tracer)
    return (t.traceR is Tracer.traceR
            and t.traceW is Tracer.traceW
            and t.traceRW is Tracer.traceRW)


def run_compiled(interp, fn, grid: int, block: int, args,
                 interp_body) -> None:
    """Execute one kernel launch via the best available backend.

    ``interp_body`` is a zero-argument callable running the tree-walking
    grid loop (the final fallback).  Must be called *inside* the
    runtime's ``launch`` context.
    """
    mode = interp.backend
    tracer = interp.tracer
    eligible = _tracer_eligible(tracer)
    heat_on = tracer.heat is not None
    fallbacks = 0
    if mode in ("auto", "codegen-vec"):
        if eligible:
            try:
                if _run_vec(interp, fn, grid, block, args, heat_on):
                    tracer.note_launch("codegen-vec", fallbacks)
                    return
                fallbacks += 1
            except (CodegenBail, VecBail):
                fallbacks += 1
        elif mode == "codegen-vec":
            # Explicitly requested but unavailable (a tracer subclass
            # overriding the trace hooks): record the drop.
            fallbacks += 1
    if eligible:
        try:
            _run_scalar(interp, fn, grid, block, args, heat_on)
            tracer.note_launch("codegen", fallbacks)
            return
        except CodegenBail:
            fallbacks += 1
    else:
        fallbacks += 1
    interp_body()
    tracer.note_launch("interp", fallbacks)
