"""``Tracer.describe()["words_recorded"]`` pinned on every Session workload.

Every shadow word a workload presents is recorded, so the counter is a
fixed property of the workload.  The values were captured with heat
recording on, after a final diagnostic (which flushes the pending
coalesced interval into the count).
"""

import pytest

from repro.analysis import diagnose
from repro.heatmap.store import HeatStore
from repro.telemetry.cli import WORKLOADS
from repro.workloads.base import make_session

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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_words_recorded(workload):
    session = make_session("intel-pascal")
    session.tracer.heat = HeatStore()
    WORKLOADS[workload](session)
    diagnose(session.tracer, include_unnamed=True)
    assert (session.tracer.describe()["words_recorded"]
            == WORDS_RECORDED[workload])
