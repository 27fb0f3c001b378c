"""Streamed-trace parity: spill, shard x4, merge -- per backend.

The spill-and-merge pipeline consumes the runtime event log and heat
epochs, both of which the compiled backends must reproduce exactly.  A
streamed run is the harshest consumer: every driver event, heat epoch,
and allocation record lands in the shard's segment log in order, so one
byte of drift anywhere in the launch pipeline shows up as a log diff.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.instrument import instrument, parse
from repro.interp.interpreter import Interpreter
from repro.memsim import PLATFORMS
from repro.runtime import Tracer
from repro.stream.merge import merge_shards
from repro.stream.segments import LOG_NAME
from repro.stream.shard import split_stream
from repro.stream.spill import SpillingHeatStore, StreamSpiller
from repro.workloads.minicuda import CATALOG

BACKENDS = ("interp", "codegen", "codegen-vec")
WORKLOAD = "mc-spatter-lcg"  # scattered heat + phases: the hard case


def _streamed_run(backend: str, out_dir) -> dict:
    """One streamed run of ``WORKLOAD`` under ``backend``."""
    heat = SpillingHeatStore(nbuckets=64)
    tracer = Tracer(heat=heat)
    unit = parse(CATALOG[WORKLOAD]())
    instrument(unit)
    interp = Interpreter(unit, platform=PLATFORMS["intel-pascal"](),
                         tracer=tracer, source_name=f"{WORKLOAD}.cu",
                         backend=backend)
    spiller = StreamSpiller(out_dir, shard="shard-0", workload=WORKLOAD,
                            platform="intel-pascal",
                            config={"backend": backend})
    # The interpreter is not a Session, but the spiller only needs the
    # same three wires a Session exposes.
    shim = SimpleNamespace(platform=interp.runtime.platform,
                           runtime=interp.runtime, tracer=interp.tracer)
    spiller.attach(shim)
    interp.run("main")
    manifest = spiller.close()
    if backend == "codegen-vec":
        info = interp.tracer.backend_info()
        assert info["fallbacks"] == 0, f"vectorizer fell back: {info}"
    return manifest


def _manifest_no_backend(manifest: dict) -> str:
    m = json.loads(json.dumps(manifest))
    m.get("config", {}).pop("backend", None)
    return json.dumps(m, sort_keys=True)


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    root = tmp_path_factory.mktemp("streams")
    out = {}
    for backend in BACKENDS:
        stream_dir = root / backend
        manifest = _streamed_run(backend, stream_dir)
        out[backend] = (stream_dir, manifest)
    return out


def test_streamed_segments_byte_identical(streams):
    ref_dir, ref_manifest = streams["interp"]
    ref_log = (ref_dir / LOG_NAME).read_bytes()
    assert ref_log  # the run actually streamed something
    for backend in ("codegen", "codegen-vec"):
        stream_dir, manifest = streams[backend]
        log = (stream_dir / LOG_NAME).read_bytes()
        assert log == ref_log, f"{backend} segment drift"
        assert (_manifest_no_backend(manifest)
                == _manifest_no_backend(ref_manifest))


def test_four_shard_merge_identical(streams, tmp_path):
    """split x4 -> merge: heat store, events, and summary all agree."""
    merged = {}
    for backend, (stream_dir, _) in streams.items():
        shards = split_stream(stream_dir, tmp_path / backend, 4)
        assert len(shards) == 4
        merged[backend] = merge_shards(shards)

    ref = merged["interp"]
    for backend in ("codegen", "codegen-vec"):
        run = merged[backend]
        assert not run.warnings and not ref.warnings
        assert run.summary == ref.summary
        assert len(run.events) == len(ref.events)
        heats = {label: heat for label, heat in _heat_items(run.store)}
        for label, heat in _heat_items(ref.store):
            other = heats.pop(label)
            assert len(other.epochs) == len(heat.epochs)
            for a, b in zip(heat.epochs, other.epochs):
                assert a.epoch == b.epoch and a.total == b.total
                assert np.array_equal(a.counts, b.counts)
        assert not heats


def _heat_items(store):
    return sorted((h.label, h) for h in store.allocations())
