"""Spatter-style gather/scatter workload generator.

Spatter (Lavin et al., "Evaluating Gather and Scatter Performance on
CPUs and GPUs") drives memory systems with *pattern specs*: a base index
pattern applied ``count`` times at stride ``delta``, as a gather (sparse
read, dense write) or scatter (dense read, sparse write).  This module
reproduces that spec format over the simulated runtime:

* :class:`SpatterSpec` -- the JSON-compatible pattern description, plus
  builders for the three canonical families the paper sweeps: uniform
  stride, mostly-stride-1 (unit stride with a periodic jump) and
  indirection (pseudo-random indices read through an index buffer);
* :class:`SpatterWorkload` -- runs a spec against a
  :class:`~repro.workloads.base.Session` with full tracing, so shadow
  maps show exactly the sparse footprints the pattern implies;
* :func:`to_mini_cuda` -- emits the equivalent instrumentable mini-CUDA
  program, the bridge into ``repro-debug`` and the interpreter pipeline.

Index generation is a hand-rolled LCG, not :mod:`random` -- specs must
be bit-reproducible across sessions for deterministic transcripts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..analysis import Diagnosis, diagnose
from ..runtime import XplAllocData
from .base import Session, WorkloadRun

__all__ = ["SpatterSpec", "SpatterWorkload", "to_mini_cuda",
           "uniform_stride", "mostly_stride_1", "indirection"]

_BLOCK = 32

#: glibc's LCG constants; any fixed full-period choice works.
_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 1 << 31


def _lcg_indices(n: int, bound: int, seed: int) -> np.ndarray:
    """``n`` deterministic pseudo-random indices in ``[0, bound)``."""
    out = np.empty(n, np.int64)
    x = (seed * 2 + 1) % _LCG_M
    for i in range(n):
        x = (_LCG_A * x + _LCG_C) % _LCG_M
        out[i] = (x >> 7) % bound
    return out


@dataclass(frozen=True)
class SpatterSpec:
    """One gather/scatter pattern spec (Spatter JSON compatible).

    The flattened index stream is ``pattern[j] + i * delta`` for each
    application ``i`` in ``range(count)`` -- exactly Spatter's semantics.
    """

    name: str
    kind: str                      #: ``gather`` | ``scatter``
    pattern: tuple[int, ...]
    delta: int
    count: int
    iterations: int = 2            #: kernel launches per run
    indirect: bool = False         #: indices read through a traced buffer
    seed: int = 1                  #: LCG seed (indirection patterns)

    def __post_init__(self) -> None:
        if self.kind not in ("gather", "scatter"):
            raise ValueError(f"kind must be gather|scatter, got {self.kind!r}")
        if not self.pattern or self.count < 1 or self.delta < 0:
            raise ValueError("pattern must be non-empty with count >= 1")
        if any(p < 0 for p in self.pattern):
            raise ValueError("pattern indices must be non-negative")

    # ------------------------------------------------------------------ #
    # geometry

    def flat_indices(self) -> np.ndarray:
        """The full index stream, one element per traced sparse access."""
        pat = np.asarray(self.pattern, np.int64)
        return (np.arange(self.count, dtype=np.int64)[:, None] * self.delta
                + pat).ravel()

    @property
    def n(self) -> int:
        """Accesses per kernel (length of the flat index stream)."""
        return self.count * len(self.pattern)

    @property
    def data_length(self) -> int:
        """Elements the sparse side must hold (max index + 1)."""
        return int(self.flat_indices().max()) + 1

    # ------------------------------------------------------------------ #
    # JSON

    @classmethod
    def from_json(cls, text: str) -> "SpatterSpec":
        """Parse a spec from JSON (accepts Spatter's ``kernel`` key too)."""
        raw = json.loads(text)
        if isinstance(raw, list):  # Spatter files hold a list of specs
            raw = raw[0]
        if "pattern" not in raw:
            raise ValueError("missing key 'pattern'")
        kind = str(raw.get("kind", raw.get("kernel", "gather"))).lower()
        return cls(
            name=str(raw.get("name", kind)),
            kind=kind,
            pattern=tuple(int(p) for p in raw["pattern"]),
            delta=int(raw.get("delta", len(raw["pattern"]))),
            count=int(raw.get("count", 1)),
            iterations=int(raw.get("iterations", 2)),
            indirect=bool(raw.get("indirect", False)),
            seed=int(raw.get("seed", 1)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SpatterSpec":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name, "kind": self.kind,
            "pattern": list(self.pattern), "delta": self.delta,
            "count": self.count, "iterations": self.iterations,
            "indirect": self.indirect, "seed": self.seed,
        }, indent=2) + "\n"


# ---------------------------------------------------------------------- #
# canonical pattern families


def uniform_stride(stride: int, *, length: int = 8, count: int = 16,
                   kind: str = "gather") -> SpatterSpec:
    """Spatter's UNIFORM family: ``[0, s, 2s, ...]`` applied back to back."""
    pattern = tuple(i * stride for i in range(length))
    return SpatterSpec(name=f"uniform-{stride}", kind=kind, pattern=pattern,
                       delta=length * stride, count=count)


def mostly_stride_1(*, length: int = 16, jump: int = 64,
                    count: int = 16, kind: str = "gather") -> SpatterSpec:
    """Unit stride with one periodic jump outlier per pattern window.

    Models the "mostly stride-1" access shape: dense runs a prefetcher
    loves, punctured by one far access that drags in an extra page.
    """
    pattern = tuple(range(length - 1)) + (length - 1 + jump,)
    return SpatterSpec(name=f"ms1-{jump}", kind=kind, pattern=pattern,
                       delta=length + jump, count=count)


def indirection(*, length: int = 64, spread: int = 4096,
                count: int = 1, seed: int = 1,
                kind: str = "gather") -> SpatterSpec:
    """LCG-generated indirection pattern read through an index buffer."""
    pattern = tuple(int(v) for v in _lcg_indices(length, spread, seed))
    return SpatterSpec(name=f"indirect-{seed}", kind=kind, pattern=pattern,
                       delta=0, count=count, indirect=True, seed=seed)


# ---------------------------------------------------------------------- #
# simulated-runtime workload


class SpatterWorkload:
    """Run one :class:`SpatterSpec` against the simulated runtime.

    Three managed allocations mirror Spatter's buffers: ``data`` (the
    sparse side), ``idx`` (the index stream) and ``res`` (the dense
    side).  Each iteration launches one gather/scatter kernel, then the
    CPU touches the dense side -- the host half of the pipeline that
    makes placement interesting (and, for alternating touches, visible
    to the anti-pattern detectors).
    """

    def __init__(self, session: Session, spec: SpatterSpec) -> None:
        self.session = session
        self.spec = spec
        self.flat = spec.flat_indices()
        n = spec.n
        rt = session.runtime
        self.data = rt.malloc_managed(4 * spec.data_length, label="data")
        self.idx = rt.malloc_managed(4 * n, label="idx")
        self.res = rt.malloc_managed(4 * n, label="res")
        self.diagnoses: list[Diagnosis] = []

    @property
    def variant(self) -> str:
        kind = self.spec.kind
        return f"{kind}-indirect" if self.spec.indirect else kind

    def descriptors(self) -> list[XplAllocData]:
        return [
            XplAllocData(self.data.addr, "data", 4, self.data.alloc),
            XplAllocData(self.idx.addr, "idx", 4, self.idx.alloc),
            XplAllocData(self.res.addr, "res", 4, self.res.alloc),
        ]

    # ------------------------------------------------------------------ #

    def _gather_kernel(self, ctx, data, idx, res, n: int) -> None:
        if self.spec.indirect:
            idx.read(0, n)  # the indirection load itself is traced
        vals = data.gather(self.flat)
        res.write(0, vals, hi=n)

    def _scatter_kernel(self, ctx, data, idx, res, n: int) -> None:
        if self.spec.indirect:
            idx.read(0, n)
        vals = res.read(0, n)
        data.scatter(self.flat, vals)

    def run(self) -> WorkloadRun:
        spec = self.spec
        rt = self.session.runtime
        start = self.session.platform.clock.now
        n = spec.n
        data_v = self.data.typed(np.int32)
        idx_v = self.idx.typed(np.int32)
        res_v = self.res.typed(np.int32)

        # Host-side setup: all three buffers are born on the CPU.
        idx_v.write(0, self.flat.astype(np.int32), hi=n)
        if rt.materialize:
            data_v.write(0, np.arange(spec.data_length, dtype=np.int32))
        else:
            data_v.write(0, None, hi=spec.data_length)
        res_v.fill(0, 0, n)

        kernel = self._gather_kernel if spec.kind == "gather" \
            else self._scatter_kernel
        grid = max(1, -(-n // _BLOCK))
        for _ in range(spec.iterations):
            rt.launch(kernel, grid, _BLOCK, data_v, idx_v, res_v, n,
                      name=f"{spec.kind}_kernel", work=n,
                      ops_per_element=1.0)
            # The CPU consumes (gather) or refreshes (scatter) the dense
            # side between launches.
            if spec.kind == "gather":
                res_v.rmw(0, n, lambda v: v + 1)
            else:
                res_v.write(0, None, hi=n)

        if self.session.tracer is not None:
            self.diagnoses.append(diagnose(self.session.tracer,
                                           self.descriptors()))
        touched = np.unique(self.flat)
        return WorkloadRun(
            name="spatter",
            variant=f"{self.variant}:{spec.name}",
            platform=self.session.platform.name,
            sim_time=self.session.platform.clock.now - start,
            diagnoses=self.diagnoses,
            stats={
                "pattern_length": len(spec.pattern),
                "delta": spec.delta, "count": spec.count,
                "accesses_per_kernel": n,
                "iterations": spec.iterations,
                "data_elements": spec.data_length,
                "footprint_density": len(touched) / spec.data_length,
                **self.session.platform.events.summary(),
            },
        )


# ---------------------------------------------------------------------- #
# mini-CUDA emission

#: Largest index stream :func:`to_mini_cuda` embeds as literal statements.
_MAX_EMBED = 512


def to_mini_cuda(spec: SpatterSpec) -> str:
    """The spec as an instrumentable mini-CUDA program.

    The index stream is embedded as literal ``idx[k] = v;`` statements so
    the generated program is self-contained and byte-deterministic; the
    kernel performs the gather/scatter through the index buffer exactly
    like Spatter's CUDA backend.  Debuggable end to end with
    ``repro-debug --spatter spec.json``.
    """
    flat = spec.flat_indices()
    n = len(flat)
    if n > _MAX_EMBED:
        raise ValueError(
            f"pattern expands to {n} accesses; at most {_MAX_EMBED} can be"
            " embedded as a mini-CUDA program (shrink count/pattern)")
    grid = max(1, -(-n // _BLOCK))
    if spec.kind == "gather":
        body = "res[i] = data[idx[i]];"
        host_loop = "s += res[i];"
    else:
        body = "data[idx[i]] = res[i];"
        host_loop = "res[i] = i; s += data[idx[i]];"
    idx_lines = "\n".join(f"    idx[{k}] = {int(v)};"
                          for k, v in enumerate(flat))
    return f"""\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);

__global__ void {spec.kind}_kernel(int* data, int* idx, int* res, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{ {body} }}
}}

int main() {{
    int* data;
    int* idx;
    int* res;
    cudaMallocManaged((void**)&data, {4 * spec.data_length});
    cudaMallocManaged((void**)&idx, {4 * n});
    cudaMallocManaged((void**)&res, {4 * n});
    for (int i = 0; i < {spec.data_length}; i++) {{ data[i] = i; }}
{idx_lines}
    int s = 0;
    {spec.kind}_kernel<<<{grid}, {_BLOCK}>>>(data, idx, res, {n});
    for (int i = 0; i < {n}; i++) {{ {host_loop} }}
    {spec.kind}_kernel<<<{grid}, {_BLOCK}>>>(data, idx, res, {n});
#pragma xpl diagnostic tracePrint(out; data, idx, res)
    return s;
}}
"""
