"""The one table of Session workloads and platform names.

Every command that replays a workload (``repro-trace``, ``repro-report``,
``repro-why run``, ``repro-agg run``, ``repro-sig compute``) and the
overhead harness look names up here, so a workload has one size and a
bad name gets one error message everywhere::

    runner = resolve_workload("sw")
    run = runner(make_session(resolve_platform("pcie")), per_iteration=True)

Runners import their workload lazily, so importing this module costs no
more than importing the package.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..memsim import PLATFORMS
from .base import Session, WorkloadRun

__all__ = ["PLATFORM_ALIASES", "WORKLOADS", "PER_ITERATION", "Runner",
           "UnknownNameError", "resolve_platform", "resolve_workload",
           "listing"]

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
