"""EventLog retention, ids, the per-kind index and ring-buffer mode."""

from repro.memsim import Event, EventKind, EventLog, Processor

CPU = Processor.CPU


def ev(kind=EventKind.PAGE_FAULT, pages=1, cost=1e-6):
    return Event(kind, 0.0, CPU, pages=pages, cost=cost)


class TestIds:
    def test_record_assigns_sequential_ids(self):
        log = EventLog()
        ids = [log.record(ev()).id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_clear_resets_the_id_sequence(self):
        log = EventLog()
        log.record(ev())
        log.clear()
        assert log.record(ev()).id == 0


class TestOfKindIndex:
    def test_of_kind_returns_only_that_kind_in_order(self):
        log = EventLog()
        f1 = log.record(ev(EventKind.PAGE_FAULT))
        m1 = log.record(ev(EventKind.MIGRATION))
        f2 = log.record(ev(EventKind.PAGE_FAULT))
        assert log.of_kind(EventKind.PAGE_FAULT) == [f1, f2]
        assert log.of_kind(EventKind.MIGRATION) == [m1]
        assert log.of_kind(EventKind.EVICTION) == []

    def test_of_kind_matches_linear_scan(self):
        log = EventLog()
        kinds = [EventKind.PAGE_FAULT, EventKind.MIGRATION,
                 EventKind.EVICTION, EventKind.PAGE_FAULT,
                 EventKind.MIGRATION, EventKind.PAGE_FAULT]
        for k in kinds:
            log.record(ev(k))
        for k in set(kinds):
            assert log.of_kind(k) == [e for e in log if e.kind == k]


class TestRetention:
    def test_capacity_without_ring_keeps_the_oldest_window(self):
        log = EventLog(capacity=3)
        recorded = [log.record(ev()) for _ in range(5)]
        assert list(log) == recorded[:3]
        assert log.of_kind(EventKind.PAGE_FAULT) == recorded[:3]
        # Aggregates still cover the full run.
        assert len(log) == 5
        assert log.counts[EventKind.PAGE_FAULT] == 5

    def test_ring_keeps_the_newest_window(self):
        log = EventLog(capacity=3, ring=True)
        recorded = [log.record(ev()) for _ in range(5)]
        assert list(log) == recorded[-3:]
        assert log.of_kind(EventKind.PAGE_FAULT) == recorded[-3:]
        assert len(log) == 5

    def test_ring_index_is_bounded_per_kind(self):
        log = EventLog(capacity=2, ring=True)
        for _ in range(4):
            log.record(ev(EventKind.PAGE_FAULT))
            log.record(ev(EventKind.MIGRATION))
        assert [e.id for e in log.of_kind(EventKind.PAGE_FAULT)] == [4, 6]
        assert [e.id for e in log.of_kind(EventKind.MIGRATION)] == [5, 7]

    def test_summary_counters_unaffected_by_retention(self):
        bounded = EventLog(capacity=1, ring=True)
        unbounded = EventLog()
        for log in (bounded, unbounded):
            for _ in range(4):
                log.record(ev(EventKind.MIGRATION, pages=2, cost=1e-6))
        assert bounded.summary() == unbounded.summary()
