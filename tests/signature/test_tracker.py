"""Live phase tracking: markers in the event log with cause links."""

import pytest

from repro.heatmap.store import HeatStore
from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.memsim.events import EventKind, EventLog
from repro.runtime import Tracer
from repro.signature.tracker import PhaseTracker

WORDS = 1024


def _run(tracker, *, epochs_a=3, epochs_b=3):
    """Drive a tracer through two access-pattern regimes."""
    space = AddressSpace()
    alloc = space.allocate(WORDS * 4, MemoryKind.MANAGED, label="m")
    tracer = tracker._tracer or Tracer()
    tracer.trc_register(alloc)
    for e in range(epochs_a + epochs_b):
        if e < epochs_a:  # regime A: dense GPU read
            tracer.on_access(Processor.GPU, alloc, 0, 4, WORDS,
                             is_write=False, indices=None, is_rmw=False)
        else:             # regime B: sparse CPU write, far end
            tracer.on_access(Processor.CPU, alloc, (WORDS - 64) * 4, 4, 64,
                             is_write=True, indices=None, is_rmw=False)
        tracer.advance_epoch()
    return tracer


def _tracked(log=None):
    tracer = Tracer()
    tracer.heat = HeatStore(nbuckets=32, attribute=False)
    tracker = PhaseTracker(log=log).attach(tracer)
    return tracker


class TestPhaseEvents:
    def test_markers_and_cause_chain(self):
        log = EventLog()
        tracker = _tracked(log)
        _run(tracker)
        tracker.finish()
        events = [e for e in log if e.kind is EventKind.PHASE]
        details = [e.detail.split()[0] for e in events]
        assert details == ["phase_begin", "phase_end", "phase_begin",
                           "phase_end"]
        begin0, end0, begin1, end1 = events
        assert "phase=0" in begin0.detail and "phase=1" in begin1.detail
        # phase_end's parent is its begin; next begin's parent is that end.
        assert end0.cause.parent == begin0.id
        assert begin1.cause.parent == end0.id
        assert end1.cause.parent == begin1.id
        assert begin0.cause.parent == -1
        assert all(e.cause.api == "phase" for e in events)

    def test_no_log_still_tracks(self):
        tracker = _tracked(log=None)
        _run(tracker)
        phases = tracker.finish()
        assert len(phases) == 2
        assert tracker.changes == 1

    def test_rollup_shape(self):
        tracker = _tracked(EventLog())
        _run(tracker)
        roll = tracker.rollup()
        assert roll == {"current": 1, "epoch": 5, "changes": 1}

    def test_finish_is_idempotent(self):
        log = EventLog()
        tracker = _tracked(log)
        _run(tracker)
        a = tracker.finish()
        n = sum(1 for e in log if e.kind is EventKind.PHASE)
        assert tracker.finish() == a
        assert sum(1 for e in log if e.kind is EventKind.PHASE) == n

    def test_detach_stops_tracking(self):
        tracker = _tracked(EventLog())
        tracer = tracker._tracer
        tracker.detach()
        assert not tracer.epoch_hooks

    def test_empty_epochs_emit_nothing(self):
        log = EventLog()
        tracker = _tracked(log)
        tracker._tracer.advance_epoch()
        tracker._tracer.advance_epoch()
        tracker.finish()
        assert not [e for e in log if e.kind is EventKind.PHASE]


class TestWordCounter:
    def test_describe_counts_words(self):
        tracer = Tracer()
        space = AddressSpace()
        alloc = space.allocate(WORDS * 4, MemoryKind.MANAGED, label="m")
        tracer.trc_register(alloc)
        tracer.on_access(Processor.GPU, alloc, 0, 4, WORDS,
                         is_write=False, indices=None, is_rmw=False)
        tracer.advance_epoch()
        assert tracer.describe()["words_recorded"] == WORDS


class TestLiveMatchesOffline:
    """Through the one run path, the live tracker and the signature built
    from the finished store detect the same phases."""

    @pytest.mark.parametrize("workload, phases", [("sw", 5),
                                                  ("pathfinder", 3)])
    def test_execute_phases_match_signature(self, workload, phases,
                                            tmp_path):
        from repro.signature.vector import signature_from_store
        from repro.workloads.run import RunSpec, execute

        done = execute(RunSpec(workload, "pcie", tmp_path, buckets=64))
        live = [p.to_dict() for p in done.tracker.detector.phases]
        assert len(live) == phases
        assert live == signature_from_store(done.store).phases
