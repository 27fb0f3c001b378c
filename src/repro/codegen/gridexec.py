"""Whole-grid vectorized execution support for compiled kernels.

:class:`VecRun` is the runtime object the vectorized emitter
(:mod:`repro.codegen.vectorize`) generates calls against.  One instance
covers one kernel *launch*: every thread of the grid advances in
lockstep as a lane of int64/float64 numpy arrays, heap accesses become
gathers/scatters, and each traced access is recorded as a *plan* (the
word indices it touched, per lane).  When the kernel body finishes,
:meth:`finish` first proves the launch free of cross-thread data
dependence (:meth:`_check`) and only then applies the batched shadow and
heat updates — all-or-nothing, so a late bail can fall back to the
scalar backend with no half-applied instrumentation.

Values, unlike instrumentation, are applied immediately (scatters write
through to the allocation payloads); :meth:`restore` reverts them from
pre-write snapshots when the run bails.
"""

from __future__ import annotations

import numpy as np

from ..interp.values import _typed_view
from .emitter import DTYPES

__all__ = ["VecBail", "VecRun"]


class VecBail(Exception):
    """Raised when a launch cannot be proven safe to vectorize."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: Access kinds, matching ``repro.codegen.emitter.TRACE_KIND``.
_READ, _WRITE, _RMW = 0, 1, 2


class _Res:
    """One resolved (per-launch) heap access: lanes -> elements/words."""

    __slots__ = ("kind", "dt", "alloc", "elem", "words", "lanes", "lane0",
                 "count", "site_i", "traced", "wmin", "wmax", "_uniq")

    def __init__(self, kind, dt, alloc, elem, words, lanes, lane0, count,
                 site_i, traced):
        self.kind = kind
        self.dt = dt
        self.alloc = alloc
        self.elem = elem        # element index per active lane
        self.words = words      # shadow word index per touched word
        self.lanes = lanes      # lane id per entry of ``words``
        self.lane0 = lane0      # lane id per entry of ``elem``
        self.count = count      # number of active lanes
        self.site_i = site_i
        self.traced = traced
        self.wmin = int(words.min())
        self.wmax = int(words.max())
        self._uniq = None

    @property
    def uniq(self) -> np.ndarray:
        if self._uniq is None:
            self._uniq = np.unique(self.words)
        return self._uniq


class VecRun:
    """Per-launch state for one vectorized kernel execution."""

    def __init__(self, interp, grid: int, block: int, sites) -> None:
        self.interp = interp
        self.tracer = interp.tracer
        self.space = interp._space
        self.n = grid * block
        self.bx = np.repeat(np.arange(grid, dtype=np.int64), block)
        self.tx = np.tile(np.arange(block, dtype=np.int64), grid)
        self.sites = sites
        self.plans: list[_Res] = []
        self._snapshots: dict[int, tuple] = {}
        self._finished = False

    # -- lane helpers ---------------------------------------------------

    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def truthy(self, x):
        x = np.asarray(x)
        if x.dtype == bool:
            return x
        return x != 0

    def asint(self, x):
        """C integer conversion: bool -> 0/1, float -> trunc toward zero."""
        x = np.asarray(x)
        if x.dtype == bool:
            return x.astype(np.int64)
        if x.dtype.kind == "f":
            return np.trunc(x).astype(np.int64)
        return x.astype(np.int64, copy=False)

    def lnot(self, x):
        return ~self.truthy(x)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def sel(self, mask, new, old):
        """Masked local update: keep ``old`` on inactive lanes."""
        if mask is None:
            return new
        return np.where(mask, new, old)

    def _div_operands(self, a, b, m):
        a_ = np.asarray(a)
        b_ = np.asarray(b)
        bz = np.asarray(b_ == 0)
        if bz.ndim == 0:
            active_zero = bool(bz) and (m is None or bool(np.any(m)))
        elif m is None:
            active_zero = bool(np.any(bz))
        else:
            active_zero = bool(np.any(bz & m))
        if active_zero:
            # The interpreter raises per-thread; reproduce it there.
            raise VecBail("division by zero on an active lane")
        safe = np.where(bz, 1, b_) if bz.ndim or bool(bz) else b_
        isf = a_.dtype.kind == "f" or b_.dtype.kind == "f"
        return a_, safe, isf

    def div(self, a, b, m):
        """C division semantics (truncation toward zero for integers)."""
        a_, safe, isf = self._div_operands(a, b, m)
        if isf:
            return np.asarray(a_, dtype=np.float64) / np.asarray(
                safe, dtype=np.float64)
        ai = self.asint(a_)
        bi = self.asint(safe)
        q = np.abs(ai) // np.abs(bi)
        return np.where((ai >= 0) == (bi >= 0), q, -q)

    def mod(self, a, b, m):
        """C remainder: ``a - cdiv(a, b) * b``."""
        a_, safe, isf = self._div_operands(a, b, m)
        if isf:
            af = np.asarray(a_, dtype=np.float64)
            bf = np.asarray(safe, dtype=np.float64)
            return af - np.trunc(af / bf) * bf
        ai = self.asint(a_)
        bi = self.asint(safe)
        q = np.abs(ai) // np.abs(bi)
        q = np.where((ai >= 0) == (bi >= 0), q, -q)
        return ai - q * bi

    # -- value wraps (vector analogues of the ``_w_*`` scalar wraps) ----

    def _wi(self, x, bits, signed):
        v = self.asint(x)
        if bits >= 64:
            return v
        v = v & ((1 << bits) - 1)
        if signed:
            v = np.where(v >= (1 << (bits - 1)), v - (1 << bits), v)
        return v

    def w_i4(self, x):
        return self._wi(x, 32, True)

    def w_u4(self, x):
        return self._wi(x, 32, False)

    def w_u8(self, x):
        # Pointers ride in int64 lanes; valid programs never go negative.
        return self.asint(x)

    def w_f4(self, x):
        return np.asarray(x, dtype=np.float64).astype(
            np.float32).astype(np.float64)

    def w_f8(self, x):
        return np.asarray(x, dtype=np.float64)

    # -- heap access ----------------------------------------------------

    def _lanes_of(self, m, count):
        if m is None:
            return np.arange(self.n, dtype=np.int64)
        return np.nonzero(m)[0]

    def _resolve(self, key, addr, m, kind, site_i, traced):
        dt = DTYPES[key]
        size = dt.itemsize
        count = self.n if m is None else int(np.count_nonzero(m))
        if count == 0:
            return None
        lane0 = self._lanes_of(m, count)
        a = np.asarray(addr)
        if a.ndim == 0:
            act = np.full(count, int(a), dtype=np.int64)
        else:
            if a.dtype.kind not in "iu":
                raise VecBail("non-integer address expression")
            act = a[lane0].astype(np.int64, copy=False)
        amin = int(act.min())
        amax = int(act.max())
        alloc = self.space.find(amin)
        if alloc is None or alloc.data is None:
            raise VecBail("address outside materialized allocations")
        if amax + size > alloc.base + alloc.size:
            raise VecBail("access range spans allocations")
        offs = act - alloc.base
        if size > 1 and (offs % size).any():
            raise VecBail("unaligned access")
        elem = offs // size
        if size <= 4:
            words = offs >> 2
            lanes = lane0
        else:
            wpl = size // 4
            words = ((offs >> 2)[:, None]
                     + np.arange(wpl, dtype=np.int64)).reshape(-1)
            lanes = np.repeat(lane0, wpl)
        return _Res(kind, dt, alloc, elem, words, lanes, lane0, count,
                    site_i, traced)

    def _zeros(self, key):
        if DTYPES[key].kind == "f":
            return np.zeros(self.n, dtype=np.float64)
        return np.zeros(self.n, dtype=np.int64)

    def _gather(self, res):
        view = _typed_view(res.alloc, res.dt)
        act = view[res.elem]
        if res.dt.kind == "f":
            act = act.astype(np.float64)
            out = np.zeros(self.n, dtype=np.float64)
        else:
            act = act.astype(np.int64)
            out = np.zeros(self.n, dtype=np.int64)
        if res.count == self.n:
            return act if act.shape == out.shape else out
        out[res.lane0] = act
        return out

    def _scatter(self, res, vals):
        key = id(res.alloc)
        if key not in self._snapshots:
            self._snapshots[key] = (res.alloc, res.alloc.data.copy())
        v = np.asarray(vals)
        if v.ndim == 0:
            act = np.full(res.count, v.item())
        else:
            act = v[res.lane0]
        dt = res.dt
        if dt.kind == "f":
            out = np.asarray(act, dtype=np.float64)
        else:
            iv = self.asint(act)
            bits = dt.itemsize * 8
            if bits < 64:
                iv = iv & ((1 << bits) - 1)
                if dt.kind == "i":
                    iv = np.where(iv >= (1 << (bits - 1)),
                                  iv - (1 << bits), iv)
            out = iv
        view = _typed_view(res.alloc, dt)
        elem = res.elem
        if elem.size != np.unique(elem).size:
            # Duplicate targets: make last-wins explicit (numpy leaves the
            # order of duplicate fancy assignments unspecified).
            _, first = np.unique(elem[::-1], return_index=True)
            pos = elem.size - 1 - first
            view[elem[pos]] = out[pos]
        else:
            view[elem] = out

    def rd(self, key, site_i, addr, m):
        res = self._resolve(key, addr, m, _READ, site_i, True)
        if res is None:
            return self._zeros(key)
        self.plans.append(res)
        return self._gather(res)

    def wr(self, key, site_i, addr, m, vals):
        res = self._resolve(key, addr, m, _WRITE, site_i, True)
        if res is None:
            return
        self.plans.append(res)
        self._scatter(res, vals)

    def rmw(self, key, site_i, addr, m):
        res = self._resolve(key, addr, m, _RMW, site_i, True)
        if res is None:
            return None, self._zeros(key)
        self.plans.append(res)
        return res, self._gather(res)

    def commit(self, res, m, vals):
        if res is None:
            return
        self._scatter(res, vals)

    def ld(self, key, addr, m):
        res = self._resolve(key, addr, m, _READ, None, False)
        if res is None:
            return self._zeros(key)
        self.plans.append(res)
        return self._gather(res)

    def st(self, key, addr, m, vals):
        res = self._resolve(key, addr, m, _WRITE, None, False)
        if res is None:
            return
        self.plans.append(res)
        self._scatter(res, vals)

    # -- safety + application -------------------------------------------

    def _check(self) -> None:
        """Prove the launch free of cross-thread data dependence.

        Grouped per allocation; all-read groups are trivially safe.  For
        any overlapping pair involving a write, the plans must touch
        identical words from identical lanes AND each word must belong to
        a single lane — then per-word event order equals any per-thread
        serialization, which is what the scalar oracle produces.
        """
        groups: dict[int, list[_Res]] = {}
        for p in self.plans:
            groups.setdefault(id(p.alloc), []).append(p)
        for group in groups.values():
            if all(p.kind == _READ for p in group):
                continue
            for i, p in enumerate(group):
                if p.kind == _RMW and p.uniq.size != p.words.size:
                    raise VecBail("read-modify-write with colliding words")
                for q in group[i + 1:]:
                    if p.kind == _READ and q.kind == _READ:
                        continue
                    if p.wmax < q.wmin or q.wmax < p.wmin:
                        continue
                    if np.intersect1d(p.uniq, q.uniq).size == 0:
                        continue
                    identical = (p.words.size == q.words.size
                                 and np.array_equal(p.words, q.words)
                                 and np.array_equal(p.lanes, q.lanes))
                    if not identical:
                        raise VecBail("cross-thread data dependence")
                    if p.uniq.size != p.words.size:
                        raise VecBail("colliding words across lanes")

    def finish(self) -> None:
        """Validate the launch, then apply batched shadow/heat updates."""
        if self._finished:
            return
        self._finished = True
        self._check()
        tracer = self.tracer
        if tracer is None:
            return
        tracer.flush_trace()
        proc = tracer.current_proc
        heat = tracer.heat
        smt = tracer.smt
        sites = self.sites
        for p in self.plans:
            if not p.traced:
                continue
            block = smt.lookup(p.alloc.base)
            if block is None:
                continue
            tracer._apply_words(block, proc, p.kind, p.words)
            if heat is not None:
                site = (sites[p.site_i]
                        if p.site_i is not None and sites else None)
                if p.kind != _WRITE:
                    heat.record(p.alloc, proc, is_write=False,
                                idx=p.words, site=site, n=p.count)
                if p.kind != _READ:
                    heat.record(p.alloc, proc, is_write=True,
                                idx=p.words, site=site, n=p.count)

    def restore(self) -> None:
        """Revert every scattered allocation to its pre-launch payload."""
        for alloc, payload in self._snapshots.values():
            if alloc.data is not None:
                alloc.data[:] = payload
