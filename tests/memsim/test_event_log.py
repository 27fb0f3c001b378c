"""EventLog retention (the newest window) and ids."""

from repro.memsim import Event, EventKind, EventLog, Processor

CPU = Processor.CPU


def ev(kind=EventKind.PAGE_FAULT, pages=1, cost=1e-6):
    return Event(kind, 0.0, CPU, pages=pages, cost=cost)


class TestIds:
    def test_record_assigns_sequential_ids(self):
        log = EventLog()
        ids = [log.record(ev()).id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]


class TestRetention:
    def test_ring_keeps_the_newest_window(self):
        log = EventLog(capacity=3)
        recorded = [log.record(ev()) for _ in range(5)]
        assert list(log) == recorded[-3:]
        # Aggregates still cover the full run.
        assert len(log) == 5
        assert log.counts[EventKind.PAGE_FAULT] == 5

    def test_summary_counters_unaffected_by_retention(self):
        bounded = EventLog(capacity=1)
        unbounded = EventLog()
        for log in (bounded, unbounded):
            for _ in range(4):
                log.record(ev(EventKind.MIGRATION, pages=2, cost=1e-6))
        assert bounded.summary() == unbounded.summary()
