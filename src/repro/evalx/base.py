"""Experiment scaffolding for the evaluation harness.

Every paper artifact (figure or table) has one experiment function that
regenerates it.  Experiments return an :class:`ExperimentResult` holding
both machine-readable rows and the formatted text the CLI prints; the
``benchmarks/`` suite wraps the same functions in pytest-benchmark cases.
Every session an experiment opens comes from the ``make_session`` factory
it is handed, so a caller that observes runs passes its own factory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..workloads.base import Session, make_session

__all__ = ["ExperimentResult", "EXPERIMENTS", "experiment"]


@dataclass
class ExperimentResult:
    """Output of one experiment."""

    name: str
    title: str
    rows: list[dict] = field(default_factory=list)
    text: str = ""

    def __str__(self) -> str:
        header = f"== {self.name}: {self.title} =="
        return f"{header}\n{self.text}"


#: Registry: experiment id (fig4..fig11, tab2, tab3) -> callable.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(name: str, title: str):
    """Register an experiment function under ``name``.

    The registered callable hands ``fn`` a fresh result and the session
    factory as ``make_session`` (default:
    :func:`~repro.workloads.base.make_session`).
    """

    def wrap(fn):
        def run(*, make_session: Callable[..., Session] = make_session,
                **kwargs) -> ExperimentResult:
            return fn(ExperimentResult(name=name, title=title),
                      make_session=make_session, **kwargs)

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        run.title = title
        EXPERIMENTS[name] = run
        return run

    return wrap
