"""Structured event streaming: one JSON object per line.

The JSONL stream is the machine-readable companion of the human-oriented
timeline: every driver event, tracer record and per-epoch diagnostic is
appended as it happens, so a run can be post-processed (or tailed) without
any repro imports.  The first record of every stream is a **run manifest**
describing the platform preset, workload, configuration and package
version -- the provenance block that makes an ``events.jsonl`` file
self-describing.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Any, Mapping

from .. import __version__
from ..memsim import Event, Platform

__all__ = [
    "JsonlWriter",
    "StringJsonl",
    "run_manifest",
    "encode_driver_event",
    "read_jsonl",
    "SCHEMA_VERSION",
]

#: Bumped whenever record shapes change incompatibly.
#: v2: driver events carry a stable ``id`` and an optional ``cause``
#: provenance block (site/kernel/api/alloc/parent).
SCHEMA_VERSION = 2


def run_manifest(
    platform: Platform | None = None,
    *,
    workload: str = "",
    config: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the manifest record that must lead every stream."""
    manifest: dict[str, Any] = {
        "type": "manifest",
        "schema_version": SCHEMA_VERSION,
        "package": "repro",
        "version": __version__,
        "workload": workload,
        "config": dict(config or {}),
    }
    if platform is not None:
        manifest["platform"] = {
            "name": platform.name,
            "cpu": platform.cpu.name,
            "gpu": platform.gpu.name,
            "gpu_memory_bytes": platform.gpu.memory_bytes,
            "link": platform.link.name,
            "link_bandwidth": platform.link.bandwidth,
            "link_coherent": platform.link.coherent,
        }
    return manifest


def encode_driver_event(event: Event) -> dict[str, Any]:
    """A :class:`~repro.memsim.Event` as a flat JSONL record.

    The ``cause`` block is only present on events recorded with causal
    tracking enabled, so plain traced streams stay compact.
    """
    record: dict[str, Any] = {
        "type": "driver_event",
        "id": event.id,
        "kind": event.kind.value,
        "t": event.time,
        "proc": event.device.name,
        "pages": event.pages,
        "bytes": event.nbytes,
        "cost": event.cost,
        "detail": event.detail,
    }
    if event.cause is not None:
        c = event.cause
        record["cause"] = {
            "site": c.site,
            "kernel": c.kernel,
            "api": c.api,
            "alloc": c.alloc,
            "parent": c.parent,
        }
    return record


class JsonlWriter:
    """Append-only JSONL sink over a file path or text stream.

    The writer enforces the manifest-first protocol: the first record
    written must be a manifest (``type: "manifest"``), matching what the
    CLI consumers and the acceptance tests expect.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: IO[str] = path.open("w", encoding="utf-8")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self.records = 0

    def write(self, record: Mapping[str, Any]) -> None:
        """Append one record (a JSON-serialisable mapping)."""
        if "type" not in record:
            raise ValueError("every JSONL record needs a 'type' field")
        if self.records == 0 and record["type"] != "manifest":
            raise ValueError("the first JSONL record must be the run manifest")
        self._stream.write(_ENCODER.encode(record) + "\n")
        self.records += 1

    def close(self) -> None:
        """Flush and (for path targets) close the underlying stream."""
        self._stream.flush()
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _default(obj: Any) -> Any:
    """Last-resort encoder: enums by value, numpy scalars by item."""
    value = getattr(obj, "value", None)
    if value is not None and isinstance(value, (str, int, float)):
        return value
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


#: One encoder for every record: ``json.dumps(record, default=_default)``
#: would build a fresh :class:`json.JSONEncoder` per call.
_ENCODER = json.JSONEncoder(default=_default)


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load every record of a JSONL file (test/analysis helper)."""
    out: list[dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class StringJsonl(JsonlWriter):
    """In-memory JSONL sink (tests, ``--stdout`` streaming)."""

    def __init__(self) -> None:
        super().__init__(io.StringIO())

    def getvalue(self) -> str:
        """The stream content so far."""
        assert isinstance(self._stream, io.StringIO)
        return self._stream.getvalue()
