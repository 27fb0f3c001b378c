"""``Tracer.describe()`` word and epoch counters pinned on every Session workload.

Every shadow word a workload presents is recorded, so the counter is a
fixed property of the workload.  The values were captured with heat
recording on, after a final diagnostic (which flushes the pending
coalesced interval into the count).  ``per_iteration=True`` diagnoses
every iteration, which adds epochs but never words; the epoch counts pin
which workloads have a per-iteration variant.
"""

import pytest

from repro.analysis import diagnose
from repro.heatmap.store import HeatStore
from repro.workloads.base import make_session
from repro.workloads.registry import PER_ITERATION, WORKLOADS

WORDS_RECORDED = {
    "backprop": 504187,
    "cfd": 405504,
    "gaussian": 284702,
    "lud": 272414,
    "lulesh": 721533,
    "nn": 24576,
    "pathfinder": 737280,
    "pathfinder-opt": 737280,
    "spatter-indirect": 68085,
    "spatter-stride": 8185,
    "sw": 277827,
    "sw-advised": 277827,
    "sw-rotated": 168002,
}

#: ``describe()["epoch"]`` after the run: (per_iteration=False, True).
EPOCHS = {
    "backprop": (1, 1),
    "cfd": (1, 1),
    "gaussian": (1, 1),
    "lud": (1, 5),
    "lulesh": (1, 7),
    "nn": (1, 1),
    "pathfinder": (1, 6),
    "pathfinder-opt": (1, 1),
    "spatter-indirect": (2, 2),
    "spatter-stride": (2, 2),
    "sw": (1, 384),
    "sw-advised": (1, 1),
    "sw-rotated": (1, 384),
}


def _describe(workload: str, per_iteration: bool) -> dict:
    session = make_session("intel-pascal")
    session.tracer.heat = HeatStore()
    WORKLOADS[workload](session, per_iteration=per_iteration)
    diagnose(session.tracer, include_unnamed=True)
    return session.tracer.describe()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_words_recorded(workload):
    epochs = []
    for per_iteration in (False, True):
        d = _describe(workload, per_iteration)
        assert d["words_recorded"] == WORDS_RECORDED[workload]
        epochs.append(d["epoch"])
    assert tuple(epochs) == EPOCHS[workload]
    assert (epochs[0] != epochs[1]) == (workload in PER_ITERATION)
