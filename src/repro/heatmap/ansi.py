"""Terminal heatmap renderer: intensity ramps with epoch scrubbing.

Each allocation renders as one strip per epoch -- a row of cells whose
intensity encodes combined access heat for that word bucket.  With color
enabled the ramp is a single-hue blue background ramp (256-color);
without (``NO_COLOR``, pipes, dumb terminals) it degrades to a pure
ASCII density ramp with no escape sequences at all.
"""

from __future__ import annotations

import io
import os
import sys
from typing import IO

import numpy as np

from .store import AllocationHeat, HeatStore

__all__ = ["render_alloc", "render_store", "render_strip", "supports_color"]

#: ASCII density ramp, low to high (space = untouched).
ASCII_RAMP = " .:-=+*#%@"

#: 256-color xterm background indices, one hue (blue), dark to bright.
ANSI_RAMP = (17, 18, 19, 20, 26, 32, 38, 44, 50, 87)

_RESET = "\x1b[0m"


def supports_color(stream: IO[str] | None = None) -> bool:
    """Honour ``NO_COLOR`` and only color real terminals."""
    if "NO_COLOR" in os.environ:
        return False
    stream = stream if stream is not None else sys.stdout
    return bool(getattr(stream, "isatty", lambda: False)())


def _levels(row: np.ndarray, peak: int, nlevels: int) -> np.ndarray:
    """Map counts to ramp levels 0..nlevels-1 (sqrt scale, 0 = no heat)."""
    if peak <= 0:
        return np.zeros(len(row), np.int64)
    scaled = np.sqrt(row / peak)
    lev = np.ceil(scaled * (nlevels - 1)).astype(np.int64)
    return np.clip(lev, 0, nlevels - 1)


def render_strip(row: np.ndarray, peak: int, *, color: bool = False) -> str:
    """One bucket row as an intensity strip (public single-row renderer).

    The strip the epoch rows of :func:`render_alloc` use, exposed for
    consumers that render live (not yet frozen) heat -- the interactive
    debugger's ``heat`` command and the stream monitor.
    """
    if color:
        lev = _levels(row, peak, len(ANSI_RAMP) + 1)
        cells = [f"\x1b[48;5;{ANSI_RAMP[v - 1]}m \x1b[49m" if v else " "
                 for v in lev]
        return "".join(cells) + _RESET
    lev = _levels(row, peak, len(ASCII_RAMP))
    return "".join(ASCII_RAMP[v] for v in lev)


def render_alloc(heat: AllocationHeat, *, color: bool = False,
                 epoch: int | None = None, sites: int = 3) -> str:
    """Render one allocation's heat strips (one row per epoch).

    :param epoch: only render this epoch number (scrubbing); ``None``
        renders the full history.
    :param sites: hottest-region attribution lines to append (0 = none).
    """
    out = io.StringIO()
    mat = heat.matrix()
    peak = int(mat.max()) if mat.size else 0
    out.write(f"{heat.label}  ({heat.size} bytes, {heat.nwords} words, "
              f"{heat.nbuckets} buckets, peak {peak})\n")
    for e in heat.epochs:
        if epoch is not None and e.epoch != epoch:
            continue
        strip = render_strip(e.heat, peak, color=color)
        out.write(f"  e{e.epoch:<4d}|{strip}| {e.total}\n")
    if sites:
        region = heat.hottest_region(k_sites=sites)
        if region is not None and region["sites"]:
            where = (f"epoch {region['epoch']}, words "
                     f"[{region['word_lo']},{region['word_hi']})")
            out.write(f"  hottest {where}:\n")
            for site, n in region["sites"]:
                out.write(f"    {site.label}  x{n}\n")
    return out.getvalue()


def render_store(store: HeatStore, *, color: bool | None = None,
                 epoch: int | None = None, sites: int = 3) -> str:
    """Render every touched allocation in ``store``.

    :param color: force color on/off; ``None`` auto-detects via
        :func:`supports_color`.
    """
    if color is None:
        color = supports_color()
    allocs = store.allocations()
    out = io.StringIO()
    head = f"=== temporal heatmap: {len(allocs)} allocation(s), " \
           f"{len(store.epochs_closed)} epoch(s)"
    if epoch is not None:
        head += f" [showing epoch {epoch}]"
    out.write(head + " ===\n")
    for heat in allocs:
        out.write(render_alloc(heat, color=color, epoch=epoch, sites=sites))
        out.write("\n")
    return out.getvalue()
