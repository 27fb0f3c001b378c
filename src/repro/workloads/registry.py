"""The one table of Session workloads and platform names.

Every command that replays a workload (``repro-trace``, ``repro-report``,
``repro-why run``, ``repro-agg run``, ``repro-sig compute``) and the
overhead harness look names up here, so a workload has one size and a
bad name gets one error message everywhere::

    runner = resolve_workload("sw")
    run = runner(make_session(resolve_platform("pcie")), per_iteration=True)

Those commands also share their common arguments and their handling
(:func:`add_run_arguments`, :func:`run_command`).  Runners import their
workload lazily, so importing this module costs no more than importing
the package.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from contextlib import contextmanager
from typing import Callable, Iterable

from ..memsim import PLATFORMS
from .base import Session, WorkloadRun

__all__ = ["PLATFORM_ALIASES", "WORKLOADS", "PER_ITERATION", "Runner",
           "UnknownNameError", "BadInput", "reading", "resolve_platform",
           "resolve_workload", "listing", "positive_int",
           "add_run_arguments", "run_command"]

#: Friendly platform spellings accepted by ``--platform``, plus every
#: preset under its own name.
PLATFORM_ALIASES = {
    "pcie": "intel-pascal",
    "pcie-pascal": "intel-pascal",
    "pcie-volta": "intel-volta",
    "nvlink": "power9-volta",
    **{name: name for name in PLATFORMS},
}

Runner = Callable[..., WorkloadRun]


def _pathfinder(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import Pathfinder
    return Pathfinder(session, cols=8192, rows=40, pyramid_height=8,
                      diagnose_each_iteration=per_iteration).run()


def _pathfinder_opt(session: Session, per_iteration: bool = False
                    ) -> WorkloadRun:
    from .rodinia import OverlappedPathfinder
    return OverlappedPathfinder(session, cols=8192, rows=40,
                                pyramid_height=8).run()


def _lulesh(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .lulesh import Lulesh
    return Lulesh(session, 8, diagnose_each_step=per_iteration).run(6)


def _sw(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .smithwaterman import SmithWaterman
    return SmithWaterman(session, 192,
                         diagnose_each_iteration=per_iteration).run()


def _sw_rotated(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .smithwaterman import RotatedSmithWaterman
    return RotatedSmithWaterman(session, 192,
                                diagnose_each_iteration=per_iteration).run()


def _sw_advised(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .smithwaterman import AdvisedSmithWaterman
    return AdvisedSmithWaterman(session, 192).run()


def _backprop(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import Backprop
    return Backprop(session, input_size=4096).run()


def _cfd(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import Cfd
    return Cfd(session, cells=2048).run()


def _gaussian(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import Gaussian
    return Gaussian(session, size=64).run()


def _lud(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import Lud
    return Lud(session, size=64, diagnose_each_iteration=per_iteration).run()


def _nn(session: Session, per_iteration: bool = False) -> WorkloadRun:
    from .rodinia import NearestNeighbor
    return NearestNeighbor(session, records=4096).run()


def _spatter_stride(session: Session, per_iteration: bool = False
                    ) -> WorkloadRun:
    from .spatter import SpatterWorkload, uniform_stride
    return SpatterWorkload(session, uniform_stride(8, count=64)).run()


def _spatter_indirect(session: Session, per_iteration: bool = False
                      ) -> WorkloadRun:
    from .spatter import SpatterWorkload, indirection
    return SpatterWorkload(session, indirection(length=256,
                                                spread=65536)).run()


#: name -> ``runner(session, per_iteration=False)`` at diagnosis-friendly
#: sizes.  ``per_iteration=True`` diagnoses every iteration, so each one
#: freezes its own heat epoch (the temporal axis of ``repro-report``); it
#: only changes the workloads in :data:`PER_ITERATION`.
WORKLOADS: dict[str, Runner] = {
    "pathfinder": _pathfinder,
    "pathfinder-opt": _pathfinder_opt,
    "lulesh": _lulesh,
    "sw": _sw,
    "sw-rotated": _sw_rotated,
    "sw-advised": _sw_advised,
    "backprop": _backprop,
    "cfd": _cfd,
    "gaussian": _gaussian,
    "lud": _lud,
    "nn": _nn,
    "spatter-stride": _spatter_stride,
    "spatter-indirect": _spatter_indirect,
}

#: Workloads whose runner honours ``per_iteration``.  The rest diagnose
#: once at the end, so their heatmap is a single epoch row; that includes
#: ``sw-advised`` and ``pathfinder-opt``, whose classes take the flag.
PER_ITERATION = frozenset({"pathfinder", "lulesh", "sw", "sw-rotated", "lud"})


class UnknownNameError(ValueError):
    """A ``--workload`` or ``--platform`` name the registry does not know."""


class BadInput(Exception):
    """An input file a command cannot use: it prints ``error: `` and
    this message on one line, and exits 2."""


#: What reading (or creating) a missing or damaged input file raises.
_READ_ERRORS = (OSError, ValueError, LookupError, TypeError,
                AttributeError, zipfile.BadZipFile)


@contextmanager
def reading(path, verb: str = "read"):
    """Turn a failure to read (or, with ``verb="write"``, create)
    ``path`` into one :class:`BadInput` naming the file."""
    try:
        yield
    except _READ_ERRORS as exc:
        where = getattr(exc, "filename", None) or path
        if isinstance(exc, KeyError):  # str() would quote the message
            reason = exc.args[0]
        else:
            reason = getattr(exc, "strerror", None) or str(exc)
        raise BadInput(f"cannot {verb} {where}: {reason}") from None


def _unknown(kind: str, name: str, known: Iterable[str]) -> UnknownNameError:
    return UnknownNameError(f"unknown {kind} {name!r}; known: "
                            + ", ".join(sorted(known)))


def resolve_platform(name: str) -> str:
    """The preset name behind platform ``name`` (a preset or an alias)."""
    try:
        return PLATFORM_ALIASES[name]
    except KeyError:
        raise _unknown("platform", name, PLATFORM_ALIASES) from None


def resolve_workload(name: str) -> Runner:
    """The runner registered as ``name``."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise _unknown("workload", name, WORKLOADS) from None


def listing(*extra: tuple[str, Iterable[str]]) -> str:
    """The ``--list`` text: workloads, ``extra`` (label, names) lines,
    then the platform aliases."""
    platforms = [f"{alias}->{name}"
                 for alias, name in sorted(PLATFORM_ALIASES.items())]
    lines = [("workloads", sorted(WORKLOADS)), *extra,
             ("platforms", platforms)]
    return "".join(f"{label}: {', '.join(names)}\n" for label, names in lines)


def positive_int(text: str) -> int:
    """``argparse`` type for counts and sizes: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return value


def non_negative(text: str) -> float:
    """``argparse`` type for intervals: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative number")
    return value


def add_run_arguments(parser: argparse.ArgumentParser, *,
                      workload: str | None = "pathfinder",
                      out: str = "run directory for the artifacts",
                      out_metavar: str = "DIR", footprint: bool = True,
                      buckets: bool = False,
                      list_extra: tuple[tuple[str, Iterable[str]], ...]
                      | None = None) -> None:
    """Add the arguments every workload-running command shares.

    ``--workload``, ``--platform`` and ``--out``; ``--footprint`` and
    ``--buckets`` when asked for.  With ``list_extra`` (the extra
    ``--list`` lines) the command also takes ``--list`` and ``--out`` is
    required only without it; :func:`run_command` does both checks.
    """
    parser.add_argument("--workload", default=workload,
                        help="workload to replay"
                        + (f" (default: {workload})" if workload else ""))
    parser.add_argument("--platform", default="pcie",
                        help="platform preset or alias (default: pcie): "
                             + ", ".join(sorted(PLATFORM_ALIASES)))
    parser.add_argument("--out", metavar=out_metavar,
                        required=list_extra is None,
                        help=out if list_extra is None
                        else f"{out} (required unless --list)")
    if footprint:
        parser.add_argument("--footprint", action="store_true",
                            help="footprint-only allocations (no numpy "
                                 "backing)")
    if buckets:
        parser.add_argument("--buckets", type=positive_int, default=64,
                            help="word buckets per allocation (default: 64)")
    if list_extra is not None:
        parser.add_argument("--list", action="store_true",
                            help="list workloads and platform aliases, "
                                 "then exit")
    parser.set_defaults(run_parser=parser, list_extra=list_extra)


def run_command(args: argparse.Namespace,
                command: Callable[[argparse.Namespace], int | None]) -> int:
    """Run ``command(args)`` for a parser set up by
    :func:`add_run_arguments`; returns the exit status.

    ``--list`` prints the listing instead; a missing ``--out`` is an
    argparse error; a bad workload or platform name prints the
    registry's message and exits 2.
    """
    if getattr(args, "list", False):
        print(listing(*args.list_extra), end="")
        return 0
    if args.out is None:
        args.run_parser.error("--out is required (unless --list)")
    try:
        return command(args) or 0
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
