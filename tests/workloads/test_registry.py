"""The workload registry: names, aliases, ``--list`` text, located errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.heatmap.store import HeatStore
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
    assert done.stderr.startswith(f"unknown {bad} 'no-such-name'; known: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


#: (command, flag) for every count flag a command takes.
COUNT_FLAGS = [("repro-report", "--buckets"),
               ("repro-sig compute", "--buckets"),
               ("repro-agg run", "--buckets"),
               ("repro-agg run", "--log-capacity"),
               ("repro-agg run", "--watermark"),
               ("repro-why run", "--limit"),
               ("repro-why diff", "--limit")]

#: module and arguments (besides the bad flag and ``--out``) of each
#: command in :data:`BAD_FLAGS`; ``{npz}`` is a valid ``heat.npz``.
FLAG_COMMANDS = {
    **{command: (module, [*sub, "--workload", "pathfinder"])
       for command, (module, sub) in COMMANDS.items()},
    "repro-why diff": ("repro.causes", ["diff", "run-a", "run-b"]),
    "repro-sig compute --npz": ("repro.signature",
                                ["compute", "--npz", "{npz}"]),
}


def _bad(command, flag, value, message):
    return pytest.param(command, flag, value, message,
                        id=f"{command}-{flag}-{value}")


#: (command, flag, bad value, expected stderr) -- every one exits 2.
BAD_FLAGS = [
    *(_bad(command, flag, value,
           f"argument {flag}: '{value}' is not a positive integer")
      for command, flag in COUNT_FLAGS for value in ("0", "-3", "many")),
    _bad("repro-sig compute --npz", "--platform", "no-such",
         "unknown platform 'no-such'; known: "),
    _bad("repro-report", "--epoch", "-1",
         "argument --epoch: -1 is not an epoch number (>= 0)"),
    _bad("repro-report", "--epoch", "2", "--epoch requires --ansi"),
]


@pytest.fixture(scope="module")
def heat_npz(tmp_path_factory):
    return HeatStore().to_npz(tmp_path_factory.mktemp("npz") / "heat.npz")


@pytest.mark.parametrize("command, flag, value, message", BAD_FLAGS)
def test_counts_must_be_positive(command, flag, value, message, heat_npz,
                                 tmp_path):
    module, argv = FLAG_COMMANDS[command]
    out = tmp_path / "out"
    done = _cli(module, [*(a.format(npz=heat_npz) for a in argv),
                         flag, value, "--out", str(out)])
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


#: (flag, bad value, expected stderr) for ``repro-top``, which tails
#: directories and so takes no ``--out``; every one exits 2.
TOP_BAD_FLAGS = [
    *(pytest.param(flag, value,
                   f"argument {flag}: '{value}' is not a positive integer",
                   id=f"repro-top-{flag}-{value}")
      for flag in ("--frames", "--width") for value in ("0", "-3", "many")),
    *(pytest.param("--interval", value,
                   f"argument --interval: '{value}' is not a non-negative "
                   "number", id=f"repro-top---interval-{value}")
      for value in ("-1", "nan", "soon")),
]


@pytest.mark.parametrize("flag, value, message", TOP_BAD_FLAGS)
def test_top_rejects_bad_values(flag, value, message, tmp_path):
    done = _cli("repro.stream.top", [str(tmp_path), "--frames", "1",
                                     "--interval", "0", flag, value])
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


#: (module, arguments, expected stderr) for the count flags of commands
#: outside :data:`FLAG_COMMANDS`; ``{out}`` is a path none may create.
#: Argument parsing rejects each before any file is read, so
#: ``prog.cu`` need not exist.  Every one exits 2 with no output.
OTHER_BAD_FLAGS = [
    pytest.param(module, [*argv, flag, value],
                 f"argument {flag}: '{value}' is not a positive integer",
                 id=f"{command}-{flag}-{value}")
    for command, module, argv, flag in (
        ("repro-trace-overhead", "repro.telemetry.overhead", [],
         "--repeats"),
        ("repro-debug", "repro.debug", ["prog.cu", "--dump-source"],
         "--gpu-mem"),
        ("repro-debug", "repro.debug", ["prog.cu", "--dump-source"],
         "--buckets"),
        ("repro-agg split", "repro.stream", ["split", "{out}", "--out",
                                             "{out}"], "-k"),
    )
    for value in ("0", "-5", "many")
]


#: (module, arguments, expected stderr) for ``repro-sig match --k`` and
#: the similarity and change thresholds of ``repro-sig`` and ``repro-why
#: diff``; argument parsing rejects each before any file is read.
SIG_BAD_FLAGS = [
    *(pytest.param("repro.signature",
                   ["match", "q.json", "--index", "{out}", "--k", value],
                   f"argument --k: '{value}' is not a positive integer",
                   id=f"repro-sig match---k-{value}")
      for value in ("0", "-2", "many")),
    *(pytest.param(module, [*argv, flag, value],
                   f"argument {flag}: '{value}' is not a non-negative "
                   "number", id=f"{command}-{flag}-{value}")
      for command, module, argv, flag in (
          ("repro-sig match", "repro.signature",
           ["match", "q.json", "--index", "{out}"], "--threshold"),
          ("repro-sig compare", "repro.signature",
           ["compare", "a.json", "b.json"], "--fail-below"),
          ("repro-sig compare", "repro.signature",
           ["compare", "a.json", "b.json"], "--fail-above"),
          ("repro-sig compute", "repro.signature",
           ["compute", "--workload", "pathfinder", "--out", "{out}"],
           "--phase-threshold"),
          ("repro-why diff", "repro.causes",
           ["diff", "run-a", "run-b", "--out", "{out}"], "--threshold"),
      )
      for value in ("-1", "nan", "high")),
]


@pytest.mark.parametrize("module, argv, message",
                         OTHER_BAD_FLAGS + SIG_BAD_FLAGS)
def test_other_counts_must_be_positive(module, argv, message, tmp_path):
    out = tmp_path / "out"
    done = _cli(module, [a.format(out=out) for a in argv])
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not out.exists()


#: ``repro-sig`` arguments naming an input that is missing or cannot be
#: read, and the path its one ``error:`` line names.  ``{sig}`` is a
#: valid signature, ``{junk}`` a file that is neither JSON nor NPZ,
#: ``{db}`` an index whose ``index.json`` is damaged, and ``{out}`` a
#: path no command may create.  None of the inputs may change.
UNREADABLE_INPUTS = [
    pytest.param(["compare", "{out}/a.json", "{sig}"], "{out}/a.json",
                 id="compare-missing-a"),
    pytest.param(["compare", "{sig}", "{out}"], "{out}",
                 id="compare-missing-b"),
    pytest.param(["compare", "{sig}", "{junk}"], "{junk}",
                 id="compare-junk"),
    pytest.param(["match", "{out}/q.json", "--index", "{out}",
                  "--add", "x"], "{out}/q.json", id="match-missing-query"),
    pytest.param(["match", "{sig}", "--index", "{db}", "--add", "x"],
                 "{db}/index.json", id="match-damaged-index"),
    pytest.param(["match", "{sig}", "--index", "{junk}", "--add", "x"],
                 "{junk}", id="match-index-is-a-file"),
    pytest.param(["compute", "--npz", "{out}/heat.npz", "--out", "{out}"],
                 "{out}/heat.npz", id="compute-missing-npz"),
    pytest.param(["compute", "--npz", "{junk}", "--out", "{out}"],
                 "{junk}", id="compute-junk-npz"),
]


@pytest.mark.parametrize("argv, where", UNREADABLE_INPUTS)
def test_sig_unreadable_input_is_one_error_line(argv, where, tmp_path):
    from repro.signature.vector import RunSignature

    paths = {"out": tmp_path / "out", "sig": tmp_path / "sig.json",
             "junk": tmp_path / "junk.bin", "db": tmp_path / "db"}
    RunSignature(workload="w").save(paths["sig"])
    paths["junk"].write_bytes(b"not json, not a zip archive\n")
    (paths["db"]).mkdir()
    (paths["db"] / "index.json").write_text("{")
    done = _cli("repro.signature", [a.format(**paths) for a in argv])
    assert done.returncode == 2
    assert done.stderr.startswith(
        f"error: cannot read {where.format(**paths)}: ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == ""
    assert not paths["out"].exists()
    assert sorted(p.name for p in paths["db"].iterdir()) == ["index.json"]
    assert (paths["db"] / "index.json").read_text() == "{"
    assert paths["junk"].read_bytes() == b"not json, not a zip archive\n"


_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: ``repro-debug`` arguments naming input it cannot use, and the start of
#: its one stderr line.  ``{cu}`` is a valid program, ``{bad}`` one that
#: does not parse, ``{trunc}`` a cut-off and ``{nokey}`` an incomplete
#: Spatter spec; ``{out}`` is a path no run may create.  Every run
#: without a ``--transcript`` of its own asks for one in an existing
#: directory, and none may create it.
DEBUG_BAD_INPUTS = [
    pytest.param(["{out}/prog.cu"],
                 "error: cannot read {out}/prog.cu: No such file or directory",
                 id="missing-source"),
    pytest.param(["{cu}", "--script", "{out}/cmds.txt"],
                 "error: cannot read {out}/cmds.txt: No such file or "
                 "directory", id="missing-script"),
    pytest.param(["--spatter", "{out}/spec.json"],
                 "error: cannot read {out}/spec.json: No such file or "
                 "directory", id="missing-spatter"),
    pytest.param(["{cu}", "--transcript", "{out}/nodir/t.txt"],
                 "error: cannot write {out}/nodir/t.txt: No such file or "
                 "directory", id="transcript-dir-missing"),
    pytest.param(["{bad}"],
                 "error: {bad}: expected ';', found '}}' at 1:23",
                 id="parse-error"),
    pytest.param(["--spatter", "{trunc}"], "error: cannot read {trunc}: ",
                 id="truncated-spatter"),
    pytest.param(["--spatter", "{nokey}"],
                 "error: cannot read {nokey}: missing key 'pattern'",
                 id="spatter-missing-key"),
    pytest.param(["{cu}", "--platform", "no-such"],
                 "unknown platform 'no-such'; known: ", id="unknown-platform"),
]


@pytest.mark.parametrize("argv, message", DEBUG_BAD_INPUTS)
def test_debug_bad_input_is_one_error_line(argv, message, tmp_path):
    paths = {"out": tmp_path / "out", "bad": tmp_path / "bad.cu",
             "trunc": tmp_path / "trunc.json",
             "nokey": tmp_path / "nokey.json",
             "cu": _EXAMPLES / "pathfinder_pingpong.cu"}
    paths["bad"].write_text("int main() { return 0 }\n")
    paths["trunc"].write_text('{"kind": "gather", "pattern": [0, 1')
    paths["nokey"].write_text('{"kind": "gather"}')
    transcript = tmp_path / "t.txt"
    argv = [a.format(**paths) for a in argv]
    if "--transcript" not in argv:
        argv += ["--transcript", str(transcript)]
    done = _cli("repro.debug", argv)
    assert done.returncode == 2
    assert done.stderr.startswith(message.format(**paths))
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not paths["out"].exists()
    assert not transcript.exists()


def test_debug_without_gpu_mem_keeps_the_preset():
    from repro.debug.cli import _build_platform

    assert _build_platform("pcie", None).gpu.memory_bytes == \
        PLATFORMS["intel-pascal"]().gpu.memory_bytes
    assert _build_platform("pcie", 1 << 20).gpu.memory_bytes == 1 << 20


def test_report_epoch_never_closed_names_the_closed_range(tmp_path):
    done = _cli("repro.heatmap", ["--workload", "pathfinder", "--out",
                                  str(tmp_path / "out"), "--ansi",
                                  "--epoch", "999"])
    assert done.returncode == 2
    assert done.stderr == ("error: --epoch 999 was never closed "
                           "(closed epochs: 0-5)\n")
    assert done.stdout == ""
