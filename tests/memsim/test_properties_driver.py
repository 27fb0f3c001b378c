"""Property-based tests for the unified-memory driver and helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    PAGE_SIZE,
    AddressSpace,
    EventLog,
    MemoryKind,
    Processor,
    SimClock,
    UnifiedMemoryDriver,
    contiguous_runs,
    pcie3,
)

CPU, GPU = Processor.CPU, Processor.GPU
NPAGES = 12


def make_driver(gpu_pages=1024):
    drv = UnifiedMemoryDriver(pcie3(), gpu_pages * PAGE_SIZE,
                              SimClock(), EventLog())
    space = AddressSpace()
    alloc = space.allocate(NPAGES * PAGE_SIZE, MemoryKind.MANAGED,
                           materialize=False)
    drv.register(alloc)
    return drv, alloc


#: One driver step: (actor, lo, span, is_write) or an advice toggle.
accesses = st.tuples(
    st.sampled_from([CPU, GPU]),
    st.integers(0, NPAGES - 1),
    st.integers(1, 5),
    st.booleans(),
)
advice = st.sampled_from(["rm_on", "rm_off", "pref_cpu", "pref_none", "ab_gpu"])
steps = st.lists(st.one_of(accesses, advice), max_size=30)


class TestDriverInvariants:
    @given(steps)
    @settings(max_examples=60, deadline=None)
    def test_state_machine_invariants(self, sequence):
        drv, alloc = make_driver()
        st_ = drv.state_of(alloc)
        total_cost = 0.0
        for step in sequence:
            if isinstance(step, str):
                if step == "rm_on":
                    drv.set_read_mostly(alloc, 0, NPAGES, True)
                elif step == "rm_off":
                    drv.set_read_mostly(alloc, 0, NPAGES, False)
                elif step == "pref_cpu":
                    drv.set_preferred_location(alloc, 0, NPAGES, CPU)
                elif step == "pref_none":
                    drv.set_preferred_location(alloc, 0, NPAGES, None)
                else:
                    drv.set_accessed_by(alloc, 0, NPAGES, GPU, True)
                continue
            proc, lo, span, is_write = step
            hi = min(NPAGES, lo + span)
            out = drv.access(alloc, lo, hi, proc, is_write=is_write)
            total_cost += out.cost
            # Costs are never negative.
            assert out.cost >= 0.0

            # Pages touched by this access are now present at the accessor
            # or mapped for it (remote service).
            window = slice(lo, hi)
            served = st_.present[proc, window] | st_.mapped[proc, window]
            assert served.all()

            # Without ReadMostly, a page has at most one valid copy.
            both = st_.present[CPU] & st_.present[GPU]
            assert (~both | st_.read_mostly).all()

            # A written page either lives solely at the writer, or stays
            # home and is written through an established remote mapping
            # (the PreferredLocation semantics).
            if is_write:
                sole = st_.sole_copy_on(proc)[window]
                remote = (st_.present[proc.other, window]
                          & st_.mapped[proc, window])
                assert (sole | remote).all()

            # Residency accounting matches the state matrix.
            assert drv.gpu_pages_in_use == int(st_.present[GPU].sum())
        assert total_cost >= 0.0

    @given(steps)
    @settings(max_examples=30, deadline=None)
    def test_capacity_respected_under_pressure(self, sequence):
        drv, alloc = make_driver(gpu_pages=4)
        for step in sequence:
            if isinstance(step, str):
                continue
            proc, lo, span, is_write = step
            hi = min(NPAGES, lo + span)
            if proc is GPU and hi - lo > 4:
                hi = lo + 4  # single accesses larger than memory can't fit
            drv.access(alloc, lo, hi, proc, is_write=is_write)
            assert drv.gpu_pages_in_use <= 4


class TestContiguousRuns:
    @given(st.lists(st.integers(0, 100), max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_runs_partition_the_index_set(self, raw):
        idx = np.array(sorted(raw), dtype=np.int64)
        runs = contiguous_runs(idx)
        rebuilt = [i for a, b in runs for i in range(a, b)]
        assert rebuilt == sorted(raw)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_runs_are_maximal_and_disjoint(self, raw):
        idx = np.array(sorted(raw), dtype=np.int64)
        runs = contiguous_runs(idx)
        for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
            assert b1 < a2  # disjoint AND non-adjacent (maximality)


class TestAddressSpaceProperties:
    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_allocations_never_overlap_and_lookup_agrees(self, sizes):
        space = AddressSpace()
        allocs = [space.allocate(s, MemoryKind.MANAGED, materialize=False)
                  for s in sizes]
        spans = sorted((a.base, a.end) for a in allocs)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for a in allocs:
            assert space.find(a.base) is a
            assert space.find(a.end - 1) is a
