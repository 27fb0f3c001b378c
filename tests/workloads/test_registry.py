"""The workload registry: names, aliases, ``--list`` text, located errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.memsim import PLATFORMS
from repro.workloads.registry import (
    PLATFORM_ALIASES,
    UnknownNameError,
    resolve_platform,
    resolve_workload,
)

_SRC = str(Path(repro.__file__).resolve().parents[1])

_WORKLOADS_LINE = (
    "workloads: backprop, cfd, gaussian, lud, lulesh, nn, pathfinder, "
    "pathfinder-opt, spatter-indirect, spatter-stride, sw, sw-advised, "
    "sw-rotated\n")
_PLATFORMS_LINE = (
    "platforms: intel-pascal->intel-pascal, intel-volta->intel-volta, "
    "nvlink->power9-volta, pcie->intel-pascal, pcie-pascal->intel-pascal, "
    "pcie-volta->intel-volta, power9-volta->power9-volta\n")

#: ``--list`` stdout of each command, pinned byte for byte.
LISTINGS = {
    "repro.telemetry": ([], _WORKLOADS_LINE
                        + "mini-cuda: mc-lulesh, mc-pathfinder, mc-spatter-lcg,"
                          " mc-spatter-stride, mc-stencil\n"
                        + _PLATFORMS_LINE),
    "repro.heatmap": ([], _WORKLOADS_LINE
                      + "per-iteration heat: lud, lulesh, pathfinder, sw,"
                        " sw-rotated\n"
                      + _PLATFORMS_LINE),
    "repro.causes": (["run"], _WORKLOADS_LINE + _PLATFORMS_LINE),
}

#: module, subcommand and the arguments each workload-running CLI needs.
COMMANDS = {
    "repro-trace": ("repro.telemetry", []),
    "repro-report": ("repro.heatmap", []),
    "repro-why run": ("repro.causes", ["run"]),
    "repro-agg run": ("repro.stream", ["run"]),
    "repro-sig compute": ("repro.signature", ["compute"]),
}


def _cli(module: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_aliases_cover_every_preset():
    assert set(PLATFORM_ALIASES.values()) == set(PLATFORMS)
    for name in PLATFORMS:
        assert resolve_platform(name) == name


@pytest.mark.parametrize("resolve, kind", [(resolve_platform, "platform"),
                                           (resolve_workload, "workload")])
def test_unknown_name_message(resolve, kind):
    with pytest.raises(UnknownNameError) as info:
        resolve("bogus")
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"unknown {kind} 'bogus'; known: ")


@pytest.mark.parametrize("module", sorted(LISTINGS))
def test_list_output_pinned(module):
    argv, expected = LISTINGS[module]
    done = _cli(module, [*argv, "--list"])
    assert done.returncode == 0
    assert done.stdout == expected


@pytest.mark.parametrize("bad", ["workload", "platform"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_name_is_a_located_error(command, bad, tmp_path):
    module, sub = COMMANDS[command]
    names = {"workload": "sw", "platform": "pcie", bad: "no-such-name"}
    out = tmp_path / "out"
    done = _cli(module, [*sub, "--workload", names["workload"],
                         "--platform", names["platform"], "--out", str(out)])
    assert done.returncode == 2
    assert "no-such-name" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
