"""Source-line attribution: who made this access?

Two attribution paths feed :class:`~repro.heatmap.store.SourceSite`:

* **Instrumented path** -- the mini-CUDA interpreter threads the current
  statement's ``file:line`` straight into ``traceR``/``traceW``/``traceRW``
  (no stack inspection needed; the instrumenter knows the source).
* **Native path** -- Python workloads access memory through
  :class:`~repro.cudart.memory.ArrayView`; :func:`caller_site` walks the
  interpreter stack past the simulator's own frames to the first workload
  frame, exactly like a statistical profiler attributes a leaf sample.

Frame walking only runs while a heat store is attached (heat recording is
off by default), so the untraced hot path never pays for it.
"""

from __future__ import annotations

import sys
from types import FrameType

from .store import SourceSite

__all__ = ["caller_site", "site_from_frame", "SKIP_MODULES"]

#: Module prefixes treated as simulator internals: the attribution walk
#: skips frames whose module starts with any of these.  ``repro.workloads``
#: is deliberately absent -- workload code is exactly what we attribute to.
SKIP_MODULES = (
    "repro.heatmap",
    "repro.runtime",
    "repro.cudart",
    "repro.memsim",
    "repro.telemetry",
    "repro.causes",
)


def _shorten(path: str) -> str:
    """Last two path components -- stable, readable, environment-free."""
    parts = path.replace("\\", "/").rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else path


#: Per-code-object "belongs to a skipped module" memo.  A workload loop
#: walks the same frames millions of times; the module-name prefix test
#: only needs to run once per code object.  Only populated for the default
#: skip list (custom lists fall back to the direct test).
_SKIP_CACHE: dict = {}

#: Frames :func:`caller_site` inspects before giving up.
_MAX_DEPTH = 40

#: (code, line) -> SourceSite memo; sites repeat for every access a given
#: source line makes, so construction and path shortening run once.
_SITE_CACHE: dict = {}


def site_from_frame(frame: FrameType) -> SourceSite:
    """A :class:`SourceSite` naming ``frame``'s current line."""
    code = frame.f_code
    key = (code, frame.f_lineno)
    site = _SITE_CACHE.get(key)
    if site is None:
        site = _SITE_CACHE[key] = SourceSite(
            _shorten(code.co_filename), frame.f_lineno, code.co_name)
    return site


def caller_site(skip: tuple[str, ...] = SKIP_MODULES) -> SourceSite | None:
    """The first stack frame outside the simulator, as a source site.

    Returns ``None`` when every frame within ``_MAX_DEPTH`` belongs to a
    skipped module (e.g. a synthetic access issued by the simulator
    itself).
    """
    frame: FrameType | None = sys._getframe(1)
    cache = _SKIP_CACHE if skip is SKIP_MODULES else None
    for _ in range(_MAX_DEPTH):
        if frame is None:
            return None
        if cache is not None:
            skipped = cache.get(frame.f_code)
            if skipped is None:
                mod = frame.f_globals.get("__name__", "")
                skipped = cache[frame.f_code] = mod.startswith(skip)
        else:
            mod = frame.f_globals.get("__name__", "")
            skipped = mod.startswith(skip)
        if not skipped:
            return site_from_frame(frame)
        frame = frame.f_back
    return None
