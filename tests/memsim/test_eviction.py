"""Eviction under oversubscription: LRU order, mappings, event shape.

Focused coverage of :meth:`UnifiedMemoryDriver._ensure_capacity` beyond
the smoke assertions in ``test_unified_memory.py``: which pages get
picked (global LRU), what survives (AccessedBy mappings), and what the
EVICTION event reports (page counts, bytes, costs, cause links).
"""

import numpy as np

from repro.memsim import (
    PAGE_SIZE,
    AddressSpace,
    EventKind,
    EventLog,
    MemoryKind,
    Processor,
    SimClock,
    UMCostParams,
    UnifiedMemoryDriver,
    pcie3,
)

CPU, GPU = Processor.CPU, Processor.GPU


def make_driver(gpu_pages=8, block=2):
    params = UMCostParams(eviction_block_pages=block)
    clock = SimClock()
    log = EventLog()
    drv = UnifiedMemoryDriver(pcie3(), gpu_pages * PAGE_SIZE, clock, log,
                              params)
    return drv, AddressSpace(), log


def managed(space, drv, npages=4, label="a"):
    alloc = space.allocate(npages * PAGE_SIZE, MemoryKind.MANAGED,
                           label=label, materialize=False)
    drv.register(alloc)
    return alloc


class TestLruOrder:
    def test_least_recently_used_allocation_is_evicted_first(self):
        drv, space, log = make_driver(gpu_pages=8, block=2)
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=4, label="b")
        c = managed(space, drv, npages=2, label="c")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.access(b, 0, 4, GPU, is_write=True)   # 8 resident: full
        drv.access(a, 0, 4, GPU, is_write=False)  # refresh a: b is now LRU
        drv.access(c, 0, 2, GPU, is_write=True)   # needs room for 2
        st_a, st_b = drv.state_of(a), drv.state_of(b)
        assert st_a.present[GPU].all(), "recently used pages must survive"
        assert int(st_b.present[GPU].sum()) <= 2, "LRU alloc takes the hit"
        assert drv.gpu_pages_in_use <= 8

    def test_eviction_is_block_granular(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=1, label="b")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.access(b, 0, 1, GPU, is_write=True)   # 1 page over capacity
        # The whole aligned 4-page block around the LRU page is written
        # back, not just the single page needed.
        assert log.pages[EventKind.EVICTION] == 4
        assert not drv.state_of(a).present[GPU].any()

    def test_evicted_pages_live_on_host_and_stay_mapped_there(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=4, label="b")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.access(b, 0, 4, GPU, is_write=True)
        st_a = drv.state_of(a)
        assert st_a.present[CPU].all()
        assert st_a.mapped[CPU].all()


class TestAccessedByAcrossEviction:
    def test_accessed_by_mapping_survives_eviction(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.set_accessed_by(a, 0, 4, GPU, True)
        b = managed(space, drv, npages=4, label="b")
        drv.access(b, 0, 4, GPU, is_write=True)   # evicts a
        st_a = drv.state_of(a)
        assert not st_a.present[GPU].any()
        assert st_a.mapped[GPU].all(), "AccessedBy pins the mapping"
        # The retained mapping turns the re-access into a remote access
        # instead of a migration storm.
        out = drv.access(a, 0, 4, GPU, is_write=False, nbytes=256)
        assert out.remote_bytes == 256
        assert out.migrated_pages == 0

    def test_without_accessed_by_the_mapping_is_dropped(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        drv.access(a, 0, 4, GPU, is_write=True)
        b = managed(space, drv, npages=4, label="b")
        drv.access(b, 0, 4, GPU, is_write=True)   # evicts a
        st_a = drv.state_of(a)
        assert not st_a.mapped[GPU].any()
        out = drv.access(a, 0, 4, GPU, is_write=False)
        assert out.migrated_pages == 4


class TestEvictionEvent:
    def test_event_reports_pages_bytes_and_batch_cost(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=4, label="b")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.access(b, 0, 4, GPU, is_write=True)
        evictions = [e for e in log if e.kind is EventKind.EVICTION]
        assert len(evictions) == 1
        ev = evictions[0]
        assert ev.pages == 4
        assert ev.nbytes == 4 * PAGE_SIZE
        expected = (drv.params.eviction_service
                    + drv.link.transfer_time(4 * PAGE_SIZE))
        assert ev.cost == expected
        assert log.costs[EventKind.EVICTION] == expected

    def test_eviction_advances_the_clock(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=4, label="b")
        drv.access(a, 0, 4, GPU, is_write=True)
        before = drv.clock.now
        drv.access(b, 0, 4, GPU, is_write=True)
        assert drv.clock.now > before

    def test_refault_after_eviction_names_the_eviction_as_parent(self):
        drv, space, log = make_driver(gpu_pages=4, block=4)
        drv.track_causes = True
        a = managed(space, drv, npages=4, label="a")
        b = managed(space, drv, npages=4, label="b")
        drv.access(a, 0, 4, GPU, is_write=True)
        drv.access(b, 0, 4, GPU, is_write=True)   # evicts a
        eviction = [e for e in log if e.kind is EventKind.EVICTION][-1]
        drv.access(a, 0, 4, GPU, is_write=False)  # oversubscription refault
        refault = [e for e in log if e.kind is EventKind.PAGE_FAULT][-1]
        assert refault.cause is not None
        assert refault.cause.parent == eviction.id

    def test_oversubscribed_faults_pay_the_pressure_factor(self):
        def fault_cost(ballast_pages):
            drv, space, log = make_driver(gpu_pages=4, block=4)
            if ballast_pages:
                # Registered-but-untouched footprint: pushes the GPU-
                # visible total past device memory without evicting.
                managed(space, drv, npages=ballast_pages, label="ballast")
            a = managed(space, drv, npages=4, label="a")
            drv.access(a, 0, 4, CPU, is_write=True)
            return drv.access(a, 0, 4, GPU, is_write=False).cost

        roomy = fault_cost(0)        # visible footprint == capacity
        pressured = fault_cost(4)    # visible footprint 2x capacity
        assert pressured > roomy
