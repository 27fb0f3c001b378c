"""``repro-debug``: the interactive mini-CUDA debugger command line.

::

    repro-debug prog.cu                         # interactive session
    repro-debug prog.cu --script cmds.txt       # deterministic scripted run
    repro-debug --spatter pattern.json --script cmds.txt --transcript t.txt

Scripted sessions echo every prompt+command into the output, and the
whole pipeline is simulated (no wall clock, no randomness), so two runs
of the same script produce byte-identical transcripts -- the property CI
asserts.

Bad input -- a file that cannot be read, a Spatter spec that is not one,
a source the front end rejects, a transcript that cannot be written, an
unknown platform -- exits 2 with one stderr line and writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..heatmap.ansi import supports_color
from ..instrument.errors import FrontendError
from ..memsim import PLATFORMS
from ..workloads.registry import (BadInput, UnknownNameError,
                                   positive_int, reading, resolve_platform)
from .engine import DebugEngine
from .repl import DebugSession

__all__ = ["main"]


def _build_platform(name: str, gpu_mem: int | None):
    factory = PLATFORMS[resolve_platform(name)]
    if gpu_mem is not None:
        return factory(gpu_memory_bytes=gpu_mem)
    return factory()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-debug",
        description="Interactive time-stepped debugger over the instrumented"
                    " mini-CUDA pipeline: breakpoints on lines, kernels, page"
                    " faults, evictions and anti-patterns; live residency and"
                    " heat inspection; cause-link explanations.")
    parser.add_argument("source", nargs="?",
                        help="mini-CUDA source file to debug")
    parser.add_argument("--spatter", metavar="SPEC",
                        help="generate the program from a Spatter gather/"
                             "scatter pattern spec (JSON) instead of SOURCE")
    parser.add_argument("--script", metavar="FILE",
                        help="read debugger commands from FILE"
                             " (non-interactive; '#' lines are comments)")
    parser.add_argument("--transcript", metavar="FILE",
                        help="write the session transcript to FILE instead"
                             " of stdout")
    parser.add_argument("--platform", default="intel-pascal",
                        help="platform preset or alias (default:"
                             " intel-pascal; aliases: pcie, pcie-volta,"
                             " nvlink)")
    parser.add_argument("--entry", default="main",
                        help="entry function (default: main)")
    parser.add_argument("--gpu-mem", type=positive_int, metavar="BYTES",
                        help="override GPU memory size (small values force"
                             " eviction pressure)")
    parser.add_argument("--buckets", type=positive_int, default=48,
                        help="heat buckets per allocation (default: 48)")
    parser.add_argument("--dump-source", action="store_true",
                        help="print the (generated) program and exit")
    args = parser.parse_args(argv)
    if not (args.spatter or args.source):
        parser.error("either SOURCE or --spatter is required")
    try:
        return _debug(args)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


def _debug(args: argparse.Namespace) -> int:
    if args.spatter:
        from ..workloads.spatter import SpatterSpec, to_mini_cuda
        with reading(args.spatter):
            spec = SpatterSpec.load(args.spatter)
        source = to_mini_cuda(spec)
        source_name = f"spatter-{spec.name}.cu"
        where = args.spatter
    else:
        with reading(args.source):
            source = Path(args.source).read_text()
        source_name = Path(args.source).name
        where = args.source
    if args.dump_source:
        sys.stdout.write(source)
        return 0

    platform = _build_platform(args.platform, args.gpu_mem)
    try:
        engine = DebugEngine(source, source_name=source_name,
                             platform=platform, nbuckets=args.buckets)
    except FrontendError as exc:
        raise BadInput(f"{where}: {exc}") from None
    engine.entry = args.entry

    script = None
    if args.script:
        with reading(args.script):
            script = Path(args.script).read_text().splitlines()
    sink = None
    out = sys.stdout
    if args.transcript:
        with reading(args.transcript, "write"):
            sink = open(args.transcript, "w")
        out = sink
    color = False if (script or sink) else supports_color(out)
    session = DebugSession(engine, out=out, script=script, color=color)
    try:
        session.interact()
    finally:
        if sink is not None:
            sink.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
