"""``xplacer-eval`` output is pinned byte for byte.

* the stdout of every fast experiment run through the CLI;
* fig6 and fig9 at reduced sizes, called through ``EXPERIMENTS``;
* tab3 ``--quick`` row labels (its columns are wall times);
* the ``--telemetry-dir`` bundles of fig7 and tab2, and fig7's
  ``--telemetry-dir --report`` bundle, with stdout normalised to ``<OUT>``;
* ``--why DIR fig11``'s ``why_diff.json``.

``heat.npz`` is pinned by its arrays (name, dtype, shape, bytes) rather
than by its zip container.  A digest changes only when an experiment's
behaviour or output changes; regenerate the constants deliberately,
never to make a refactor pass.
"""

import hashlib

import numpy as np
import pytest

from repro.evalx import EXPERIMENTS
from repro.evalx.runner import main

#: experiment id -> sha256 of ``xplacer-eval <id>`` stdout.
STDOUT = {
    "fig10": "583f60d58f33e0f7c0864fb5d3be4a01"
             "c363068c20f830a0312155a294fe8629",
    "fig11": "d541ef430bf780cad52bc65caacceaf2"
             "fc7adfa335e4d6cb1b705699193a537e",
    "fig4": "42d0dc17e88b753b1af5c15ac9a2ce95"
            "dc53ec2e70c8c407c161ab0c8d6cf675",
    "fig5": "5683e18d4ec6ea76cd786ad024815699"
            "6eff53f88d0aeb2a4d4019b6a63a866e",
    "fig7": "dd79e504b9601fbe5e1a7a22086a2e04"
            "036bd8b0345a2c392c5ac3368c2ac793",
    "fig8": "dbac0408d3b6d47fe3c23bd01fb85e35"
            "0439acf863b69fb572073f369ddd9e32",
    "spatter": "589f8e04a76c703485b4641bbf72d23b"
               "f503ab7afb079f160c8e48b19803170f",
    "tab2": "2a7415c87af3ae4f1133ddeb4310b312"
            "654a53a74347fab5e2a65433423c344b",
}

#: experiment id -> (keyword arguments, sha256 of ``str(result)`` and
#: ``repr(result.rows)``).
REDUCED = {
    "fig6": ({"sizes": (8,), "iterations": 2},
             "3dfaa344e56933cd3876cee6ff431cef"
             "e1f5387c055559b0e9d935f0d2830c79"),
    "fig9": ({"scale": 100},
             "63bf40112471e9674b4472c3135367b2"
             "ff101402de3d20c8e14e33686e930f38"),
}

TAB3_QUICK_LABELS = [
    "LULESH 2 (size=8)",
    "LULESH 2 (size=16)",
    "Smith-Waterman (200x200)",
    "Backprop",
    "Gaussian",
]

#: bundle name -> (arguments before the telemetry directory, digests of
#: stdout and of every file written under ``DIR/<id>``).
BUNDLES = {
    "fig7": (["fig7", "--telemetry-dir"], {
        "fig7/events.jsonl": "3b45d9498ae3d50b043e10f407b1b3bc"
                             "c6a3798441e55f2e7f7dec7fc9f56ff3",
        "fig7/metrics.prom": "1d9498ab970e6bcf256b5a52233853df"
                             "4945f15f5d1ee097f0a91e1ee3aa7705",
        "fig7/timeline.json": "b868dafd1add4e907d53f7cbe8955a14"
                              "f840558932a74895e27d4895dad2165b",
        "stdout": "33099fde5703fc00ec1616b89cd20e2d"
                  "df4950b3b304c940ab7d2a8a13bb985e",
    }),
    "fig7-report": (["fig7", "--report", "--telemetry-dir"], {
        "fig7/events.jsonl": "3b45d9498ae3d50b043e10f407b1b3bc"
                             "c6a3798441e55f2e7f7dec7fc9f56ff3",
        "fig7/heat.csv": "4158d4708053f0823eaf4d643c652f48"
                         "10074e1b0e9289250e7eaec7fe125f35",
        "fig7/heat.npz": "229412d36703cf1886e88680de37daa6"
                         "4dd02f1c1aa5c7a1e5e2105375bab115",
        "fig7/metrics.prom": "1d9498ab970e6bcf256b5a52233853df"
                             "4945f15f5d1ee097f0a91e1ee3aa7705",
        "fig7/report.html": "a73032834556dac8d25cfb30b7d863d6"
                            "6044af1411a0155f0cca567e7d0dbf94",
        "fig7/timeline.json": "b868dafd1add4e907d53f7cbe8955a14"
                              "f840558932a74895e27d4895dad2165b",
        "stdout": "33099fde5703fc00ec1616b89cd20e2d"
                  "df4950b3b304c940ab7d2a8a13bb985e",
    }),
    "tab2": (["tab2", "--telemetry-dir"], {
        "stdout": "4858c51ee3ab37f3d3e97ec4946c02f3"
                  "3acc99a2a72bab1907dc5a186c3ba4f5",
        "tab2/events.jsonl": "7170db8d03a01fd209c33d4a5d82f617"
                             "a5df613cf59be66bb54901840cd625e5",
        "tab2/metrics.prom": "4b8ddb1a39e9503dfcb9e242526833de"
                             "7014de75126959e73a6b881f4fd13208",
        "tab2/timeline.json": "027756c2600e3237147f1b9efcac7eb0"
                              "ce216b32033b8c3343ff0d82ea61aa9b",
    }),
}

WHY_DIFF_FIG11 = ("d9118abd62479b292d6c0791352c54d8"
                  "6cc2d8975bbfd69ca7ca9f69e1d541c0")


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


def bundle_digests(name: str, out, capsys) -> dict[str, str]:
    """Run bundle ``name`` into ``out``; digest stdout and every file."""
    argv, _ = BUNDLES[name]
    assert main([*argv, str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<OUT>")
    found = {"stdout": _sha(stdout.encode())}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        key = str(path.relative_to(out))
        found[key] = (_npz_digest(path) if path.suffix == ".npz"
                      else _sha(path.read_bytes()))
    return found


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_experiment_stdout_is_byte_identical(name, capsys):
    assert main([name]) == 0
    assert _sha(capsys.readouterr().out.encode()) == STDOUT[name]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_experiment_is_byte_identical(name):
    kwargs, expected = REDUCED[name]
    result = EXPERIMENTS[name](**kwargs)
    assert _sha(f"{result}\n{result.rows!r}".encode()) == expected


def test_tab3_quick_rows():
    result = EXPERIMENTS["tab3"](quick=True, repeats=1)
    assert [r["benchmark"] for r in result.rows] == TAB3_QUICK_LABELS
    for row in result.rows:
        assert set(row) == {"benchmark", "plain_s", "traced_s", "overhead_x"}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_telemetry_bundle_is_byte_identical(name, tmp_path, capsys):
    assert bundle_digests(name, tmp_path / "out", capsys) == BUNDLES[name][1]


def test_why_diff_is_byte_identical(tmp_path, capsys):
    assert main(["--why", str(tmp_path), "fig11"]) == 0
    diff = (tmp_path / "fig11" / "why_diff.json").read_bytes()
    assert _sha(diff) == WHY_DIFF_FIG11
