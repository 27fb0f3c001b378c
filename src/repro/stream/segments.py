"""On-disk epoch segments with a versioned, atomically updated manifest.

A **stream directory** is the durable form of one shard of a running
simulation::

    <dir>/
      manifest.json           # rewritten atomically after every segment
      segments/seg-00000.jsonl
      segments/seg-00001.jsonl
      ...

Each segment is a JSONL file framed for crash detection: the first line
is a ``segment_header`` record, the last a ``segment_trailer`` carrying
the payload record count and a CRC-32 over every preceding byte.  A file
whose trailer is missing or does not verify is *truncated* -- the writer
died mid-segment -- and readers skip it with a warning instead of
corrupting a merge.

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
* ``sampling`` -- the tracer's sampling stride and estimated fidelity.

The manifest is the tail-able summary: ``repro-top`` watches it for new
segments and rollup counters; ``repro-agg`` uses it for identity and
completeness.  It is always written to a temp file and renamed into
place, so a reader never observes a half-written manifest.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..canonjson import Encoded, dumps

__all__ = [
    "STREAM_VERSION",
    "SEGMENT_DIR",
    "MANIFEST_NAME",
    "TruncatedSegmentError",
    "IncompatibleStreamError",
    "SegmentWriter",
    "read_segment",
    "iter_shard_records",
    "load_manifest",
    "write_manifest",
    "segment_files",
]

#: Bumped whenever the segment/manifest shapes change incompatibly.
STREAM_VERSION = 1

SEGMENT_DIR = "segments"
MANIFEST_NAME = "manifest.json"


class TruncatedSegmentError(RuntimeError):
    """A segment file is incomplete (missing/failed trailer): crashed write."""


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
    manifest = json.loads(path.read_text(encoding="utf-8"))
    version = manifest.get("stream_version")
    if not isinstance(version, int) or version < 1 or version > STREAM_VERSION:
        raise IncompatibleStreamError(
            f"{path}: stream_version {version!r} is outside the supported "
            f"range [1, {STREAM_VERSION}]")
    return manifest


def segment_files(dir_path: str | Path) -> list[Path]:
    """Segment files actually on disk, in write order.

    Globbed rather than read from the manifest: a crash can leave a
    final, truncated segment that never made it into the manifest, and
    readers must still *detect* it (and warn) rather than silently skip.
    """
    seg_dir = Path(dir_path) / SEGMENT_DIR
    if not seg_dir.is_dir():
        return []
    return sorted(p for p in seg_dir.iterdir()
                  if p.name.startswith("seg-") and p.suffix == ".jsonl")


class SegmentWriter:
    """Appends framed segments to a stream directory, manifest in step.

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
        # Entry texts encoded once at their manifest depth, spliced on sync.
        self._segment_texts: list[Encoded] = []
        self.rollup: dict[str, Any] = {}
        self.complete = False
        (self.dir / SEGMENT_DIR).mkdir(parents=True, exist_ok=True)
        self._sync_manifest()

    # ------------------------------------------------------------------ #
    # writing

    def write_segment(self, records: list[Mapping[str, Any]], *,
                      rollup: Mapping[str, Any] | None = None) -> Path:
        """Write one framed segment and fold it into the manifest.

        :param records: payload records (each needs a ``type`` field).
        :param rollup: live run summary to publish in the manifest
            (counters, residency, epoch cursor) for tailing monitors.
        """
        index = len(self.segments)
        name = f"seg-{index:05d}.jsonl"
        path = self.dir / SEGMENT_DIR / name
        header = {"type": "segment_header", "segment": index,
                  "shard": self.shard, "stream_version": STREAM_VERSION}
        lines = [_dumps(header)]
        epochs: list[int] = []
        n_events = n_heat = 0
        for rec in records:
            rtype = rec.get("type")
            if rtype is None:
                raise ValueError("every segment record needs a 'type' field")
            if rtype == "heat_epoch":
                n_heat += 1
                epochs.append(int(rec["epoch"]))
            elif rtype == "driver_event":
                n_events += 1
            lines.append(_dumps(rec))
        payload = "".join(line + "\n" for line in lines)
        trailer = {"type": "segment_trailer", "records": len(records),
                   "crc32": zlib.crc32(payload.encode("utf-8"))}
        path.write_text(payload + _dumps(trailer) + "\n", encoding="utf-8")
        entry = {"file": f"{SEGMENT_DIR}/{name}", "records": len(records),
                 "events": n_events, "heat_epochs": n_heat}
        if epochs:
            entry["epoch_lo"] = min(epochs)
            entry["epoch_hi"] = max(epochs)
        self.segments.append(entry)
        self._segment_texts.append(Encoded(
            dumps(entry, indent=1, sort_keys=True, level=2)))
        if rollup is not None:
            self.rollup = dict(rollup)
        self._sync_manifest()
        return path

    def publish_rollup(self, rollup: Mapping[str, Any]) -> Path:
        """Update the manifest rollup without writing a segment."""
        self.rollup = dict(rollup)
        return self._sync_manifest()

    def finalize(self, rollup: Mapping[str, Any] | None = None) -> Path:
        """Mark the stream complete (no more segments will follow)."""
        if rollup is not None:
            self.rollup = dict(rollup)
        self.complete = True
        return self._sync_manifest()

    def _sync_manifest(self) -> Path:
        return write_manifest(self.dir, dict(self.manifest(),
                                             segments=self._segment_texts))

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

def read_segment(path: str | Path) -> list[dict[str, Any]]:
    """Parse one segment's payload records, verifying the frame.

    Raises :class:`TruncatedSegmentError` when the trailer is missing,
    the CRC does not match, or the record count disagrees -- the three
    signatures of a writer that died mid-segment.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise TruncatedSegmentError(f"{path}: unterminated final line")
    lines = text.splitlines()
    if len(lines) < 2:
        raise TruncatedSegmentError(f"{path}: no trailer record")
    try:
        trailer = json.loads(lines[-1])
    except ValueError as exc:
        raise TruncatedSegmentError(f"{path}: unparseable trailer: {exc}")
    if trailer.get("type") != "segment_trailer":
        raise TruncatedSegmentError(f"{path}: last record is not a trailer")
    payload = "".join(line + "\n" for line in lines[:-1])
    crc = zlib.crc32(payload.encode("utf-8"))
    if crc != trailer.get("crc32"):
        raise TruncatedSegmentError(
            f"{path}: checksum mismatch (crc32 {crc} != recorded "
            f"{trailer.get('crc32')})")
    try:
        records = [json.loads(line) for line in lines[1:-1]]
    except ValueError as exc:
        raise TruncatedSegmentError(f"{path}: corrupt payload record: {exc}")
    header = json.loads(lines[0]) if lines else {}
    if header.get("type") != "segment_header":
        raise TruncatedSegmentError(f"{path}: missing segment header")
    if len(records) != trailer.get("records"):
        raise TruncatedSegmentError(
            f"{path}: {len(records)} payload records != trailer count "
            f"{trailer.get('records')}")
    return records


def iter_shard_records(
    dir_path: str | Path, *,
    strict: bool = False,
    warn: Callable[[str], None] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield every payload record of a shard directory, in segment order.

    Truncated segments (crashed writes) raise in ``strict`` mode;
    otherwise they are skipped after calling ``warn`` with a message, so
    a merge survives a shard that died mid-run with only the final
    partial segment lost.
    """
    for path in segment_files(dir_path):
        try:
            records = read_segment(path)
        except TruncatedSegmentError as exc:
            if strict:
                raise
            if warn is not None:
                warn(f"skipping truncated segment: {exc}")
            continue
        yield from records
