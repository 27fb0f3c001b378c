"""Process-wide active recorder (deliberately import-light).

:func:`repro.workloads.base.make_session` consults this module so that a
recorder installed by ``xplacer-eval --telemetry-dir`` is attached to
every session the figure drivers create, without any workload knowing
about telemetry.  The workload commands attach their observers through
:func:`repro.workloads.run.execute` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import TelemetryRecorder

__all__ = ["install", "uninstall", "current_recorder"]

_active: "TelemetryRecorder | None" = None


def install(recorder: "TelemetryRecorder") -> "TelemetryRecorder":
    """Make ``recorder`` the process-wide active recorder; returns it."""
    global _active
    _active = recorder
    return recorder


def uninstall() -> None:
    """Clear the active recorder (sessions stop auto-attaching)."""
    global _active
    _active = None


def current_recorder() -> "TelemetryRecorder | None":
    """The active recorder, or ``None``."""
    return _active
