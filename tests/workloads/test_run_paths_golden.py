"""The five workload-running commands are pinned byte for byte.

One command per run path, each at a small size:

* ``repro-report --why`` -- heat, causes, live phases, signature, HTML;
* ``repro-why run`` -- causal provenance with source-site blame;
* ``repro-sig compute`` -- heat without attribution, offline phases;
* ``repro-agg run`` -- ring-retained event log spilled to a segment log;
* ``repro-trace`` on a mini-CUDA program -- the interpreter's tracer.

Every file a command writes is pinned, and so is its stdout with the
output directory replaced by ``<OUT>``.  ``heat.npz`` is pinned by its
arrays (name, dtype, shape, bytes) rather than by its zip container.

A digest changes only when a run path's behaviour or output changes;
regenerate the constants deliberately, never to make a refactor pass.
"""

import hashlib

import numpy as np
import pytest

from repro.causes.cli import main as why_main
from repro.heatmap.cli import main as report_main
from repro.signature.cli import main as sig_main
from repro.stream.cli import main as agg_main
from repro.telemetry.cli import main as trace_main

#: golden name -> (entry point, arguments before ``--out``).
RUNS = {
    "report": (report_main, ["--workload", "pathfinder", "--platform", "pcie",
                             "--why"]),
    "why": (why_main, ["run", "--workload", "pathfinder"]),
    "sig": (sig_main, ["compute", "--workload", "lud"]),
    "agg": (agg_main, ["run", "--workload", "pathfinder",
                       "--log-capacity", "64"]),
    "trace": (trace_main, ["--workload", "mc-stencil"]),
}

GOLDEN = {
    "agg": {
        "stdout": "7d2b2a487c7f2b9e7b4425ea2b60e9f2"
                  "2f0f41c9f0f99196d4bc614989bb3d8c",
        "manifest.json": "c84023dcd619f7a2dd355c59b9756fbf"
                         "5f0d46d7837098868144b28370c6048a",
        "segments.log": "e28feeb3b5343b4b4057d8c853c8606c"
                        "6000fd8ddf3519b0808bdc67ade62efa",
    },
    "report": {
        "stdout": "ddcca1a824d7862b5d7ef062f6373492"
                  "5c335b666e07071d69b5e6b5afc76b83",
        "causes.json": "7b6d7f6c19c10184cf2c3708c356076d"
                       "b9428a84a3a07ddc7d8b41276e13f790",
        "events.jsonl": "98ef70ee801fe2e96a6a200498b08943"
                        "cbd0cf56308d469e10aa8a89b573eb70",
        "heat.csv": "8845ee3244f664a01b7144f8e3a50438"
                    "76c6d186e2096c22dc318bd7c9822419",
        "heat.npz": "1c0962806b626f9743e28b79f42b19fa"
                    "efa8bfe36e9f8d3a7fef30947b0f066e",
        "metrics.prom": "bc33260c46521d14599adda9c3d10e17"
                        "f4e754d008e3ee482c4bebd8857feec1",
        "report.html": "baf0f2b069bed0a0aca47e3488d1054e"
                       "1ee9042678f22ef5b8dd00ed564d3120",
        "signature.json": "5d62a84ce74d68d7d2fa43ec73847223"
                          "77d61c957492fd28c37a7250269b3ddf",
        "timeline.json": "7ca0f5f30d9ce6faa2d8b4ccc9d293b5"
                         "da06e76791bcb7310c8c98462f0e6b04",
    },
    "sig": {
        "stdout": "19763c05d610ae1864de50ff22c02653"
                  "106e55911f070d676073429ee758029b",
        "signature.json": "4b2a297671df838f5e77782e807b0322"
                          "794c2ccbf168170fc7e3a09bc0ff8af5",
    },
    "trace": {
        "stdout": "6cc8a21739e7d9056fe59940502b11a3"
                  "8394c0825be36e603e05f966d4995f40",
        "events.jsonl": "23d8f45146dd220be341398063ec7e36"
                        "79caa590a1852881df55d37c9d1a822a",
        "metrics.prom": "17fd2a866ce366b0e4724f86903135cc"
                        "8af0ac16cad83ca71749fd7a12bdf48e",
        "timeline.json": "11469394b90d7e912c66deb265617fff"
                         "4f7c33eceef644388812bdca2c21473e",
    },
    "why": {
        "stdout": "cde7669cad93cac4d8fbe1b71a29daf2"
                  "1845b6e6f3f9c4e242f49eac07f74886",
        "causes.json": "127aca67e9aa306e662d7d20ac8c7c1b"
                       "3235a9eb9759221f9b18a84af04fdb2d",
        "events.jsonl": "7877494a40da25186eb4abd1ddc5a2c6"
                        "f0ba43b4fdc66177cb0aa2232d247643",
        "metrics.prom": "4af8e37abdb2fb2f4d46b6657670ae7c"
                        "e9c591466f31edd98be531c48c2dae01",
        "timeline.json": "40fd740f4e4acd3540696f3ef0663eda"
                         "f2ce4885e0f03bca28323daa29f22bb2",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npz_digest(path) -> str:
    h = hashlib.sha256()
    with np.load(path) as npz:
        for name in sorted(npz.files):
            arr = npz[name]
            h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def digests(name: str, out, capsys) -> dict[str, str]:
    """Run ``name`` into ``out``; digest its stdout and every artifact."""
    entry, argv = RUNS[name]
    assert entry([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<OUT>")
    found = {"stdout": _sha(stdout.encode())}
    for path in sorted(out.iterdir()):
        found[path.name] = (_npz_digest(path) if path.suffix == ".npz"
                            else _sha(path.read_bytes()))
    return found


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_path_output_is_byte_identical(name, tmp_path, capsys):
    assert digests(name, tmp_path / "out", capsys) == GOLDEN[name]
