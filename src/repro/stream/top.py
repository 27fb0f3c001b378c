"""``repro-top``: live terminal monitor over stream directories.

Tails the manifests and segment logs of one or more shard stream
directories and redraws a compact dashboard every interval::

    repro-top /tmp/run/shard-* --interval 1

Panels:

* **run header** -- workload/platform, shards seen, complete flags;
* **counters** -- events spilled/dropped, segments, epochs, the driver's
  headline summary (faults, migrated/evicted pages, transfer bytes);
* **residency & rates** -- GPU pages in use, simulated time, and the
  fault/migration *rates* over the last refresh window;
* **heat strips** -- each allocation's latest spilled epoch as an
  intensity strip (same ramps as the ``--ansi`` report renderer);
* **drill-down** (``--alloc LABEL``) -- that allocation's recent epochs.

Everything is read-side only and crash-tolerant: each refresh reads
only the log bytes appended since the last complete frame, a torn tail
frame (the producer died or is mid-write) is retried on the next
refresh, and a directory with no manifest yet renders as "waiting".
A directory this build cannot read -- a manifest of another stream
version, or one without ``segments.log`` beside it -- ends the monitor
with one ``error:`` line and exit status 1.  Scripted mode (``--frames N
--interval 0``) renders N frames and exits -- that is what the tests and
CI drive.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..heatmap.ansi import render_strip, supports_color
from ..workloads.registry import non_negative, positive_int

from .segments import (
    IncompatibleStreamError,
    TruncatedSegmentError,
    load_manifest,
    read_segment,
    shard_frames,
)

__all__ = ["Monitor", "main"]

_CLEAR = "\x1b[H\x1b[2J"

#: Rollup summary keys shown in the counters panel, with short labels.
_SUMMARY_ROWS = (
    ("fault_groups", "faults"),
    ("migrated_pages", "migrated pg"),
    ("evicted_pages", "evicted pg"),
    ("duplicated_pages", "dup pg"),
    ("invalidations", "invalidations"),
    ("transfer_bytes", "memcpy B"),
    ("remote_accesses", "remote"),
)


def _fmt(v: float) -> str:
    v = float(v)
    if abs(v) >= 1e9:
        return f"{v / 1e9:.1f}B"
    if abs(v) >= 1e6:
        return f"{v / 1e6:.1f}M"
    if abs(v) >= 1e4:
        return f"{v / 1e3:.1f}K"
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:.4g}"


def _strip(row: np.ndarray, peak: int, color: bool, width: int) -> str:
    """One heat vector as a fixed-width intensity strip."""
    if len(row) > width:
        # Fold buckets down to the display width (sum preserves heat).
        edges = (np.arange(width + 1) * len(row)) // width
        row = np.add.reduceat(row, edges[:-1])
        peak = max(peak, int(row.max()) if row.size else 0)
    return render_strip(row, peak, color=color)


class _ShardView:
    """Read-side state of one stream directory between frames."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.manifest: dict[str, Any] | None = None
        #: Latest heat vector and epoch per allocation label.
        self.heat: dict[str, tuple[int, np.ndarray]] = {}
        #: label -> [(epoch, vector), ...] recent history (drill-down).
        self.history: dict[str, list[tuple[int, np.ndarray]]] = {}
        #: Frames consumed so far, and where the next one starts.
        self.frames_read = 0
        self._cursor = 0

    def refresh(self, *, history_depth: int = 8) -> None:
        """Re-read the manifest and any frames appended since last time."""
        # The manifest is written by temp + rename after the log exists,
        # so only its absence is transient; anything else is raised.
        try:
            self.manifest = load_manifest(self.path)
        except FileNotFoundError:
            self.manifest = None
            return
        # Only bytes past the last complete frame are read; a torn tail
        # frame (mid-write) is not returned, so the next refresh retries it.
        frames, self._cursor, _ = shard_frames(self.path, self._cursor)
        for where, frame in frames:
            self.frames_read += 1
            try:
                records = read_segment(frame, where)
            except TruncatedSegmentError:
                continue  # complete but corrupt: it will not heal
            for rec in records:
                if rec.get("type") != "heat_epoch":
                    continue
                label = rec["label"]
                vec = np.asarray(rec["counts"], np.int64).sum(axis=0)
                epoch = int(rec["epoch"])
                known = self.heat.get(label)
                if known is None or epoch >= known[0]:
                    self.heat[label] = (epoch, vec)
                hist = self.history.setdefault(label, [])
                hist.append((epoch, vec))
                del hist[:-history_depth]

    @property
    def rollup(self) -> Mapping[str, Any]:
        return (self.manifest or {}).get("rollup", {})


class Monitor:
    """Renders dashboard frames over N stream directories."""

    def __init__(self, dirs, *, color: bool = False, width: int = 48,
                 alloc: str | None = None, history_depth: int = 8) -> None:
        self.views = [_ShardView(Path(d)) for d in dirs]
        self.color = color
        self.width = max(8, width)
        self.alloc = alloc
        self.history_depth = history_depth
        self._prev: dict[str, float] = {}
        self.frames_rendered = 0

    # ------------------------------------------------------------------ #
    # aggregation

    def _totals(self) -> dict[str, float]:
        """Sum the tailed rollups across shards (plus rate deltas)."""
        totals: dict[str, float] = {
            "events_spilled": 0, "events_dropped": 0, "segments": 0,
            "epochs_closed": 0, "heat_records": 0,
            "gpu_pages_in_use": 0, "sim_time": 0.0,
        }
        for key, _ in _SUMMARY_ROWS:
            totals[key] = 0
        for view in self.views:
            r = view.rollup
            for key in ("events_spilled", "events_dropped", "segments",
                        "epochs_closed", "heat_records", "gpu_pages_in_use"):
                totals[key] += float(r.get(key, 0))
            totals["sim_time"] = max(totals["sim_time"],
                                     float(r.get("sim_time", 0.0)))
            summary = r.get("summary", {})
            for key, _ in _SUMMARY_ROWS:
                totals[key] += float(summary.get(key, 0))
        return totals

    # ------------------------------------------------------------------ #
    # rendering

    def render_frame(self) -> str:
        """Refresh every shard and render one dashboard frame."""
        for view in self.views:
            view.refresh(history_depth=self.history_depth)
        totals = self._totals()
        lines: list[str] = []
        lines.extend(self._header_lines())
        lines.extend(self._counter_lines(totals))
        lines.extend(self._heat_lines())
        if self.alloc is not None:
            lines.extend(self._drilldown_lines(self.alloc))
        self._prev = totals
        self.frames_rendered += 1
        return "\n".join(lines) + "\n"

    def _header_lines(self) -> list[str]:
        workload = platform = ""
        complete = 0
        for view in self.views:
            m = view.manifest or {}
            workload = workload or m.get("workload", "")
            platform = platform or m.get("platform", "")
            complete += 1 if m.get("complete") else 0
        head = (f"repro-top — {workload or '?'} on {platform or '?'} — "
                f"{len(self.views)} shard(s), {complete} complete")
        lines = [head, "=" * min(len(head), self.width + 30)]
        for view in self.views:
            m = view.manifest
            if m is None:
                lines.append(f"  {view.path}: waiting for manifest")
            else:
                state = "done" if m.get("complete") else "live"
                lines.append(
                    f"  {m.get('shard', view.path.name):12s} {state:4s}  "
                    f"{view.frames_read} segment(s)")
        return lines

    def _counter_lines(self, totals: dict[str, float]) -> list[str]:
        phase = None
        for view in self.views:
            p = view.rollup.get("phase")
            # The freshest shard (highest closed epoch) owns the live view.
            if p and (phase is None or p.get("epoch", -1)
                      > phase.get("epoch", -1)):
                phase = p
        dt = totals["sim_time"] - self._prev.get("sim_time", 0.0)
        parts = [
            f"events {_fmt(totals['events_spilled'])}",
            f"dropped {_fmt(totals['events_dropped'])}",
            f"segments {_fmt(totals['segments'])}",
            f"epochs {_fmt(totals['epochs_closed'])}",
        ]
        lines = ["", "counters   " + "  ".join(parts)]
        parts = [f"{label} {_fmt(totals[key])}"
                 for key, label in _SUMMARY_ROWS if totals[key]]
        if parts:
            lines.append("driver     " + "  ".join(parts))
        rate_parts = [f"sim time {totals['sim_time']:.4g}s",
                      f"gpu pages {_fmt(totals['gpu_pages_in_use'])}"]
        if dt > 0:
            for key, label in (("fault_groups", "faults/s"),
                               ("migrated_pages", "migr pg/s")):
                delta = totals[key] - self._prev.get(key, 0.0)
                if delta >= 0:
                    rate_parts.append(f"{label} {_fmt(delta / dt)}")
        lines.append("residency  " + "  ".join(rate_parts))
        if phase:
            lines.append(
                f"phase      #{phase.get('current', 0)} "
                f"(epoch {phase.get('epoch', -1)}, "
                f"{phase.get('changes', 0)} change(s))")
        if totals["events_dropped"]:
            lines.append(f"!! {_fmt(totals['events_dropped'])} event(s) "
                         "dropped from retention (no spill sink)")
        return lines

    def _merged_heat(self) -> dict[str, tuple[int, np.ndarray]]:
        """Latest epoch per label, heat summed across shards at that epoch."""
        merged: dict[str, tuple[int, np.ndarray]] = {}
        for view in self.views:
            for label, (epoch, vec) in view.heat.items():
                known = merged.get(label)
                if known is None or epoch > known[0]:
                    merged[label] = (epoch, vec.copy())
                elif epoch == known[0] and len(vec) == len(known[1]):
                    merged[label] = (epoch, known[1] + vec)
        return merged

    def _heat_lines(self) -> list[str]:
        merged = self._merged_heat()
        if not merged:
            return ["", "heat       (no spilled epochs yet)"]
        lines = ["", "heat       latest spilled epoch per allocation"]
        peak = max(int(vec.max()) for _, vec in merged.values()) or 1
        for label in sorted(merged):
            epoch, vec = merged[label]
            lines.append(f"  {label[:14]:14s} e{epoch:<3d} "
                         f"|{_strip(vec, peak, self.color, self.width)}| "
                         f"{_fmt(int(vec.sum()))}")
        return lines

    def _drilldown_lines(self, label: str) -> list[str]:
        rows: dict[int, np.ndarray] = {}
        for view in self.views:
            for epoch, vec in view.history.get(label, ()):
                cur = rows.get(epoch)
                rows[epoch] = cur + vec if cur is not None \
                    and len(cur) == len(vec) else vec.copy()
        lines = ["", f"drill-down {label}"]
        if not rows:
            lines.append("  (no heat spilled for this allocation)")
            return lines
        peak = max(int(v.max()) for v in rows.values()) or 1
        for epoch in sorted(rows)[-self.history_depth:]:
            vec = rows[epoch]
            lines.append(f"  e{epoch:<4d}|"
                         f"{_strip(vec, peak, self.color, self.width)}| "
                         f"{_fmt(int(vec.sum()))}")
        return lines


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-top`` / ``python -m repro.stream.top``."""
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Live terminal monitor over streaming run directories "
                    "(tails segment manifests + spilled heat).")
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="stream (shard) directories to tail")
    parser.add_argument("--interval", type=non_negative, default=1.0,
                        help="seconds between refreshes (default: 1)")
    parser.add_argument("--frames", type=positive_int, default=None,
                        help="render N frames then exit (scripted mode; "
                             "default: run until interrupted)")
    parser.add_argument("--alloc", metavar="LABEL",
                        help="drill into one allocation's recent epochs")
    parser.add_argument("--width", type=positive_int, default=48,
                        help="heat strip width in cells (default: 48)")
    parser.add_argument("--no-color", action="store_true",
                        help="force the plain ASCII ramp")
    parser.add_argument("--no-clear", action="store_true",
                        help="do not clear the screen between frames")
    args = parser.parse_args(argv)

    color = False if args.no_color else supports_color()
    monitor = Monitor(args.dirs, color=color, width=args.width,
                      alloc=args.alloc)
    clear = not args.no_clear and args.frames is None
    try:
        while True:
            frame = monitor.render_frame()
            sys.stdout.write((_CLEAR if clear else "") + frame)
            sys.stdout.flush()
            if args.frames is not None \
                    and monitor.frames_rendered >= args.frames:
                break
            if all((v.manifest or {}).get("complete")
                   for v in monitor.views) and args.frames is None:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except (IncompatibleStreamError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
