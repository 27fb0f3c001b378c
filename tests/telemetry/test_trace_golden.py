"""``repro-trace`` artifacts are pinned byte for byte.

The benchmark digest reads only simulated-behaviour records of
``events.jsonl``; it hashes neither ``metrics.prom`` nor
``timeline.json``.  These digests cover all three files for three
workloads that take different paths through the access funnel:

* ``sw-advised`` -- remote accesses through ``cudaMemAdviseSetAccessedBy``
  (the UM driver's slow path on every wavefront);
* ``lulesh`` -- unsorted gather/scatter indices, page faults and
  migrations;
* ``spatter-indirect`` -- a random indirect gather.

None of the three evicts on ``pcie``, so eviction output is not pinned here.

A digest changes only when the simulated run, the telemetry it emits or
the package version in the run manifest changes; regenerate the constants
deliberately, never to make a speed change pass.
"""

import hashlib

import pytest

from repro.telemetry.cli import main

GOLDEN = {
    "sw-advised": {
        "events.jsonl": "232bb19fd134fd6f5b955b440d6b8b42"
                        "bbe55fd491982f7af48e95ed25c17f3e",
        "metrics.prom": "99e1e8348402cdc68e0795560a612deb"
                        "75a174bd03c4bf779f80bfa5ad066f51",
        "timeline.json": "8047f2d1db89e4c370cbaa7bb5e8f2199"
                         "e68abb76ef18ff6ce1a57b98e7ac1fb",
    },
    "lulesh": {
        "events.jsonl": "b50f64a7128fe4935c191e09f363834b"
                        "f0311b5e735cf8ba50628f68d6cc4240",
        "metrics.prom": "81b5ea444db2056537c99dfc347109b2"
                        "ba9e8fb65ae42d7eefafc71f3a3d6f12",
        "timeline.json": "bdac1ca67944bd91fa8947f111e165f0"
                         "bc5cc4880a0b24c74a8f72c8c2d9ceeb",
    },
    "spatter-indirect": {
        "events.jsonl": "8939fab305c74d5d4239af07994dd3cc"
                        "84e14232c4df59b690e0cba478ce32d0",
        "metrics.prom": "b40a5d8719529a70c6e3d159dbb397ba"
                        "f9bfc7ba2e655f954c70d828bb1ad77b",
        "timeline.json": "3ff2a253e6c60a98d1ab3a4902640aba"
                         "6e5019f79c236099206b6016253dcf56",
    },
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_trace_artifacts_are_byte_identical(workload, tmp_path, capsys):
    assert main(["--workload", workload, "--platform", "pcie",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[workload]}
    assert digests == GOLDEN[workload]
