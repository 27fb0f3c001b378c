"""On-disk epoch segments: one append-only log per shard, plus a manifest.

A **stream directory** is the durable form of one shard of a running
simulation::

    <dir>/
      manifest.json     # written at open, every MANIFEST_EVERY segments
                        # and at finalize, always by temp + rename
      segments.log      # every segment, one framed JSONL block after another

Each segment is a *frame* of JSONL lines appended to ``segments.log``
and flushed as one write, so a tailing reader sees whole frames or a
torn tail:

* a ``segment_header`` record: segment index, shard, stream version and
  ``bytes``, the byte length of the payload lines that follow;
* the payload records, one per line;
* a ``segment_trailer`` record carrying the payload record count and a
  CRC-32 over every preceding byte of the frame.

Readers cut the log at the header lengths and verify each frame
(:func:`read_segment`).  A complete frame whose header, CRC or record
count fails is skipped with a warning naming the log, the frame index
and its byte offset; the scan resumes at the next frame.  When a header
is unreadable, or the log ends inside a frame -- the writer died
mid-segment -- the rest of the log is a *truncated tail*: a warning, or
:class:`TruncatedSegmentError` under ``strict``.

Payload record types (all also JSON, one per line):

* ``alloc_meta`` -- geometry of one traced allocation (label, base,
  serial, size, words, buckets); written once per shard before any of
  its heat.
* ``heat_epoch`` -- one allocation's frozen epoch heat: the ``(4,
  nbuckets)`` channel counts plus per-site bucket vectors.
* ``driver_event`` -- one UM-driver event, same shape as the telemetry
  JSONL stream (:func:`repro.telemetry.events_jsonl.encode_driver_event`)
  so causal tooling reads both unchanged.
* ``alloc`` -- allocation-site provenance passthrough (feeds the causal
  blame tables).

The manifest is the summary: identity, completeness, one ``{offset,
bytes, records, ...}`` entry per frame and the live rollup counters
``repro-top`` shows.  It is rewritten only every :data:`MANIFEST_EVERY`
segments, so its segment list may lag the log; readers always scan the
log itself.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..canonjson import dumps

__all__ = [
    "STREAM_VERSION",
    "LOG_NAME",
    "MANIFEST_NAME",
    "MANIFEST_EVERY",
    "TruncatedSegmentError",
    "IncompatibleStreamError",
    "SegmentWriter",
    "read_segment",
    "shard_frames",
    "iter_shard_records",
    "load_manifest",
    "write_manifest",
]

#: Bumped whenever the segment/manifest shapes change incompatibly.
#: Version 2 replaced per-segment files with ``segments.log``.
STREAM_VERSION = 2

LOG_NAME = "segments.log"
MANIFEST_NAME = "manifest.json"

#: Segments between manifest rewrites (besides open and finalize).
MANIFEST_EVERY = 64


class TruncatedSegmentError(RuntimeError):
    """A segment frame is incomplete or fails its checks."""


class IncompatibleStreamError(RuntimeError):
    """A stream directory's version cannot be read by this build."""


def _dumps(record: Mapping[str, Any]) -> str:
    # Compact separators keep segments small; sort_keys keeps them
    # byte-deterministic for a given record sequence.
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def write_manifest(dir_path: str | Path, manifest: Mapping[str, Any]) -> Path:
    """Atomically (re)write ``manifest.json`` in ``dir_path``."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    target = dir_path / MANIFEST_NAME
    tmp = dir_path / (MANIFEST_NAME + ".tmp")
    tmp.write_text(dumps(manifest, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, target)
    return target


def load_manifest(dir_path: str | Path) -> dict[str, Any]:
    """Load and version-check a stream directory's manifest."""
    path = Path(dir_path) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"{dir_path} has no {MANIFEST_NAME} "
                                "(not a stream directory?)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IncompatibleStreamError(f"{path}: unreadable manifest: {exc}")
    version = manifest.get("stream_version") \
        if isinstance(manifest, dict) else None
    if version != STREAM_VERSION:
        raise IncompatibleStreamError(
            f"{path}: stream_version {version!r} is not {STREAM_VERSION}, "
            "the only version this build reads")
    return manifest


class SegmentWriter:
    """Appends framed segments to a shard's log, manifest on a cadence.

    :param out_dir: stream directory (created if missing).
    :param shard: shard identity recorded in headers and the manifest.
    :param workload: workload name for the manifest.
    :param platform: platform preset name for the manifest.
    :param config: free-form run configuration block.
    """

    def __init__(self, out_dir: str | Path, *, shard: str = "shard-0",
                 workload: str = "", platform: str = "",
                 config: Mapping[str, Any] | None = None) -> None:
        self.dir = Path(out_dir)
        self.shard = shard
        self.workload = workload
        self.platform = platform
        self.config = dict(config or {})
        self.segments: list[dict[str, Any]] = []
        self.rollup: dict[str, Any] = {}
        self.complete = False
        self.dir.mkdir(parents=True, exist_ok=True)
        # The log exists before the manifest does, so a manifest without
        # a log beside it is never a stream still being opened.
        self._log = (self.dir / LOG_NAME).open("wb")
        self._offset = 0
        self._sync_manifest()

    # ------------------------------------------------------------------ #
    # writing

    def write_segment(self, records: list[Mapping[str, Any]], *,
                      rollup: Mapping[str, Any] | None = None
                      ) -> dict[str, Any]:
        """Append one framed segment to the log; returns its manifest entry.

        :param records: payload records (each needs a ``type`` field).
        :param rollup: live run summary to publish with the next manifest
            (counters, residency, epoch cursor) for tailing monitors.
        """
        epochs: list[int] = []
        n_events = n_heat = 0
        lines = []
        for rec in records:
            rtype = rec.get("type")
            if rtype is None:
                raise ValueError("every segment record needs a 'type' field")
            if rtype == "heat_epoch":
                n_heat += 1
                epochs.append(int(rec["epoch"]))
            elif rtype == "driver_event":
                n_events += 1
            lines.append(_dumps(rec) + "\n")
        payload = "".join(lines).encode("utf-8")
        header = {"type": "segment_header", "segment": len(self.segments),
                  "bytes": len(payload), "shard": self.shard,
                  "stream_version": STREAM_VERSION}
        body = (_dumps(header) + "\n").encode("utf-8") + payload
        trailer = {"type": "segment_trailer", "records": len(records),
                   "crc32": zlib.crc32(body)}
        frame = body + (_dumps(trailer) + "\n").encode("utf-8")
        self._log.write(frame)
        self._log.flush()
        entry = {"offset": self._offset, "bytes": len(frame),
                 "records": len(records), "events": n_events,
                 "heat_epochs": n_heat}
        if epochs:
            entry["epoch_lo"] = min(epochs)
            entry["epoch_hi"] = max(epochs)
        self._offset += len(frame)
        self.segments.append(entry)
        if rollup is not None:
            self.rollup = dict(rollup)
        if len(self.segments) % MANIFEST_EVERY == 0:
            self._sync_manifest()
        return entry

    def finalize(self, rollup: Mapping[str, Any] | None = None) -> Path:
        """Mark the stream complete (no more segments will follow)."""
        if rollup is not None:
            self.rollup = dict(rollup)
        self.complete = True
        self._log.close()
        return self._sync_manifest()

    def _sync_manifest(self) -> Path:
        return write_manifest(self.dir, self.manifest())

    def manifest(self) -> dict[str, Any]:
        """The manifest dict as it would be written right now."""
        return {
            "type": "stream_manifest",
            "stream_version": STREAM_VERSION,
            "shard": self.shard,
            "workload": self.workload,
            "platform": self.platform,
            "config": self.config,
            "seq": len(self.segments),
            "complete": self.complete,
            "segments": list(self.segments),
            "rollup": dict(self.rollup),
        }


# ---------------------------------------------------------------------- #
# reading

def read_segment(frame: bytes, where: str = "segment") -> list[dict[str, Any]]:
    """Parse one frame's payload records, verifying the frame.

    ``where`` names the frame in error messages.  Raises
    :class:`TruncatedSegmentError` when the trailer is missing, the CRC
    does not match, the header is not a header, or the record count
    disagrees.
    """
    if not frame.endswith(b"\n"):
        raise TruncatedSegmentError(f"{where}: unterminated final line")
    cut = frame.rfind(b"\n", 0, len(frame) - 1) + 1
    if cut == 0:
        raise TruncatedSegmentError(f"{where}: no trailer record")
    try:
        trailer = json.loads(frame[cut:])
    except ValueError as exc:
        raise TruncatedSegmentError(f"{where}: unparseable trailer: {exc}")
    if not isinstance(trailer, dict) \
            or trailer.get("type") != "segment_trailer":
        raise TruncatedSegmentError(f"{where}: last record is not a trailer")
    body = memoryview(frame)[:cut]
    crc = zlib.crc32(body)
    if crc != trailer.get("crc32"):
        raise TruncatedSegmentError(
            f"{where}: checksum mismatch (crc32 {crc} != recorded "
            f"{trailer.get('crc32')})")
    head = frame.index(b"\n") + 1
    try:
        header = json.loads(frame[:head])
        # Payload lines are compact JSON (no raw newlines), so they parse
        # as one array in a single decoder call.
        records = json.loads(b"[" + frame[head:cut - 1].replace(b"\n", b",")
                             + b"]") if cut > head else []
    except ValueError as exc:
        raise TruncatedSegmentError(f"{where}: corrupt record: {exc}")
    if not isinstance(header, dict) \
            or header.get("type") != "segment_header":
        raise TruncatedSegmentError(f"{where}: missing segment header")
    if len(records) != trailer.get("records"):
        raise TruncatedSegmentError(
            f"{where}: {len(records)} payload records != trailer count "
            f"{trailer.get('records')}")
    return records


def _payload_length(line: bytes) -> int | None:
    try:
        header = json.loads(line)
    except ValueError:
        return None
    n = header.get("bytes") if isinstance(header, dict) else None
    return n if isinstance(n, int) and n >= 0 else None


def shard_frames(dir_path: str | Path, start: int = 0
                 ) -> tuple[list[tuple[str, bytes]], int, str]:
    """Cut a shard's complete frames from cursor ``start`` on, unverified.

    Returns ``(frames, cursor, tail)``: ``(where, frame bytes)`` for each
    complete frame, where ``where`` names the log, the frame index
    (counted from ``start``) and its byte offset; the cursor to resume
    from; and a description of the truncated tail after that cursor
    (``""`` when the log ends on a frame boundary).  Pass the returned
    cursor back in to tail a live log.  A directory without
    ``segments.log`` raises :class:`FileNotFoundError` naming the log.
    """
    log = Path(dir_path) / LOG_NAME
    try:
        with log.open("rb") as fh:
            fh.seek(start)
            data = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{dir_path} has no {LOG_NAME} "
                                "(not a stream shard?)") from None
    frames: list[tuple[str, bytes]] = []
    pos, end, reason = 0, len(data), ""
    while pos < end:
        head = data.find(b"\n", pos) + 1
        n = _payload_length(data[pos:head]) if head else None
        if n is None:
            reason = "unreadable frame header" if head \
                else "unterminated frame header"
            break
        stop = data.find(b"\n", head + n) + 1 if head + n < end else 0
        if not stop:
            reason = "no trailer record" if head + n <= end \
                else "payload cut off"
            break
        frames.append((f"{log} frame {len(frames)} at byte {start + pos}",
                       data[pos:stop]))
        pos = stop
    tail = "" if pos == end else (
        f"truncated tail of {log} from frame {len(frames)} at "
        f"byte {start + pos}: {reason} ({end - pos} byte(s) unread)")
    return frames, start + pos, tail


def iter_shard_records(
    dir_path: str | Path, *,
    strict: bool = False,
    warn: Callable[[str], None] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield every payload record of a shard directory, in segment order.

    Corrupt frames and a truncated tail (crashed writes) raise
    :class:`TruncatedSegmentError` in ``strict`` mode; otherwise they are
    skipped after calling ``warn`` with a message, so a merge survives a
    shard that died mid-run with only the damaged frames lost.
    """
    frames, _, tail = shard_frames(dir_path)
    for where, frame in frames:
        try:
            records = read_segment(frame, where)
        except TruncatedSegmentError as exc:
            if strict:
                raise
            if warn is not None:
                warn(f"skipping corrupt segment: {exc}")
            continue
        yield from records
    if tail:
        if strict:
            raise TruncatedSegmentError(tail)
        if warn is not None:
            warn(f"skipping {tail}")
