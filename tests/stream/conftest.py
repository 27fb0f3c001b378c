"""Stream directories this build must refuse to read.

Each is built from one finished pathfinder run and is session-scoped:
the readers under test never write into their input.
"""

import shutil

import pytest

from repro.stream.merge import merge_shards
from repro.stream.segments import (LOG_NAME, load_manifest, shard_frames,
                                   write_manifest)
from repro.stream.shard import run_streaming


def _version_1(run, out):
    """``run`` in the version 1 layout: one file per frame, no log."""
    (out / "segments").mkdir(parents=True)
    frames, _, _ = shard_frames(run)
    for i, (_, frame) in enumerate(frames):
        (out / "segments" / f"seg-{i:05d}.jsonl").write_bytes(frame)
    write_manifest(out, dict(load_manifest(run), stream_version=1))


def _without_log(run, out):
    """A complete version 2 shard whose ``segments.log`` is gone."""
    shutil.copytree(run, out)
    (out / LOG_NAME).unlink()


def _merged_bundle(run, out):
    """A ``repro-agg merge`` output directory (a manifest, no log)."""
    merge_shards([run]).write(out)


UNREADABLE = {"version-1": _version_1, "no-log": _without_log,
              "merged-bundle": _merged_bundle}


@pytest.fixture(scope="session")
def unreadable_dirs(tmp_path_factory):
    """``{name: directory}`` for each entry of :data:`UNREADABLE`."""
    base = tmp_path_factory.mktemp("unreadable")
    run_streaming("pathfinder", "pcie", base / "run", log_capacity=64)
    dirs = {}
    for name, build in UNREADABLE.items():
        build(base / "run", base / name)
        dirs[name] = base / name
    return dirs
