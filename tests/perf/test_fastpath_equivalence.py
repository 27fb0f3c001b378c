"""Differential equivalence: the fast paths change nothing observable.

The PR-5 optimisations (UM-driver resident fast path, trace batching,
interpreter dispatch) are pure performance work -- every diagnostic
counter (``Tracer.describe()`` included), transfer record, driver event
and simulated cost must be bit-identical with the fast paths on and off.
These tests run real workloads and randomized access sequences both ways
and compare the complete observable state.
"""

import numpy as np
import pytest

from repro.interp import run_program
from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.runtime import Tracer, trace_print
from repro.workloads.base import make_session
from repro.workloads.minicuda import CATALOG
from repro.workloads.rodinia import Gaussian
from repro.workloads.smithwaterman import SmithWaterman


def _session(fast: bool):
    """A fresh session with both fast paths either on (default) or off."""
    session = make_session("intel-pascal")
    session.platform.um.fast_path = fast
    if not fast:
        session.tracer.batcher = None  # per-call shadow updates
    return session


def _fingerprint(session):
    """Everything observable about a finished traced run."""
    result = trace_print(session.tracer, reset=False)
    reports = {
        r.name: (r.counts, r.alternating, r.density_pct, r.freed)
        for r in result.reports
    }
    log = session.platform.events
    transfers = [(t.alloc.label, t.offset, t.nbytes, t.direction, t.epoch)
                 for t in session.tracer.transfers]
    return {
        "reports": reports,
        "transfers": transfers,
        "kernels": session.tracer.kernels,
        "event_counts": dict(log.counts),
        "event_pages": dict(log.pages),
        "event_bytes": dict(log.bytes),
        "sim_time": session.sim_time,
    }


@pytest.mark.parametrize("workload", ["smithwaterman", "gaussian"])
def test_workload_equivalence(workload):
    """SW + one Rodinia workload: identical diagnostics, transfers, cost."""
    prints = []
    for fast in (True, False):
        session = _session(fast)
        if workload == "smithwaterman":
            SmithWaterman(session, 48).run()
        else:
            Gaussian(session, size=24).run()
        prints.append(_fingerprint(session))
    on, off = prints
    assert on["reports"] == off["reports"]
    assert on["transfers"] == off["transfers"]
    assert on["kernels"] == off["kernels"]
    assert on["event_counts"] == off["event_counts"]
    assert on["event_pages"] == off["event_pages"]
    assert on["event_bytes"] == off["event_bytes"]
    assert on["sim_time"] == pytest.approx(off["sim_time"], rel=0, abs=0.0)


_MINI_CUDA = """
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);

__global__ void sweep(int* a, int* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        for (int k = 0; k < 4; k++) {
            b[i] = b[i] + a[i] + k;
        }
    }
}

int main() {
    int n = 256;
    int* a;
    int* b;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    cudaMallocManaged((void**)&b, n * sizeof(int));
    for (int i = 0; i < n; i++) { a[i] = i; b[i] = 0; }
    sweep<<<4, 64>>>(a, b, n);
    cudaDeviceSynchronize();
    tracePrint(XplAllocData(a, "a", n * 4), XplAllocData(b, "b", n * 4));
    for (int i = 0; i < n; i++) { a[i] = b[i] - 1; }
    tracePrint(XplAllocData(a, "a", n * 4), XplAllocData(b, "b", n * 4));
    return 0;
}
"""


def test_instrumented_source_diagnostics_bit_identical():
    """Batched vs unbatched mini-CUDA runs print byte-identical reports
    and count the same traced words (the sweep above and catalogue
    ``mc-pathfinder``, whose spans merge across threads)."""
    for source in (_MINI_CUDA, CATALOG["mc-pathfinder"]()):
        outs = []
        for batch in (True, False):
            interp = run_program(source, tracer=Tracer(batch=batch))
            outs.append((interp.stdout, interp.tracer.describe()))
        assert outs[0] == outs[1]
        assert "access density" in outs[0][0]


def _replay(batch: bool, seed: int):
    """Drive a tracer with a deterministic random access sequence."""
    space = AddressSpace()
    allocs = [space.allocate(2 * 4096, MemoryKind.MANAGED, label="x"),
              space.allocate(3 * 4096, MemoryKind.MANAGED, label="y")]
    tracer = Tracer(batch=batch)
    for alloc in allocs:
        tracer.trc_register(alloc)
    rng = np.random.default_rng(seed)
    snapshots = []
    for _ in range(600):
        alloc = allocs[int(rng.integers(len(allocs)))]
        proc = Processor.GPU if rng.integers(2) else Processor.CPU
        kind = int(rng.integers(3))  # 0=read 1=write 2=rmw
        nwords = alloc.size // 4
        if rng.integers(8) == 0:  # scattered access
            idx = rng.integers(nwords, size=int(rng.integers(1, 16)))
            tracer.on_access(proc, alloc, 0, 4, len(idx),
                             is_write=kind == 1, indices=idx,
                             is_rmw=kind == 2)
        else:  # span access
            lo = int(rng.integers(nwords))
            hi = lo + 1 + int(rng.integers(min(64, nwords - lo)))
            tracer.on_access(proc, alloc, lo * 4, 4, hi - lo,
                             is_write=kind == 1, indices=None,
                             is_rmw=kind == 2)
        if rng.integers(50) == 0:  # mid-run diagnostic (advances the epoch)
            result = trace_print(tracer)
            snapshots.append(([(r.name, r.counts, r.alternating)
                               for r in result.reports], tracer.describe()))
    result = trace_print(tracer)
    snapshots.append(([(r.name, r.counts, r.alternating)
                       for r in result.reports], tracer.describe()))
    return snapshots


@pytest.mark.parametrize("seed", [3, 11, 2026])
def test_randomized_sequences_equivalent(seed):
    """Random read/write/RMW interleavings: batched == unbatched."""
    assert _replay(True, seed) == _replay(False, seed)
