"""Tests for the TelemetryRecorder: wiring, fan-out, and artifacts."""

import json

import numpy as np
import pytest

from repro.cudart import CudaRuntime, cudaMemcpyKind
from repro.memsim import PAGE_SIZE, intel_pascal
from repro.runtime import Tracer
from repro.telemetry import JsonlWriter, StringJsonl, TelemetryRecorder
from repro.telemetry import recorder as recorder_mod
from repro.workloads.base import make_session

H2D = cudaMemcpyKind.cudaMemcpyHostToDevice


@pytest.fixture
def rig():
    rt = CudaRuntime(intel_pascal())
    rec = TelemetryRecorder(jsonl=StringJsonl())
    rec.attach(rt)
    return rt, rec


def _fault_once(rt):
    """One managed allocation CPU-written then GPU-read: faults + migration."""
    v = rt.malloc_managed(4 * PAGE_SIZE, label="v").typed(np.float32)
    v.write(0, np.zeros(len(v), np.float32))
    rt.launch(lambda ctx, d: d.read(0, len(d)), 8, 128, v, name="reader")
    return v


class TestMetricsFanout:
    def test_fault_and_migration_counters(self, rig):
        rt, rec = rig
        _fault_once(rt)
        assert rec.metrics.counter("page_fault_groups_total"
                                   ).value(proc="GPU") >= 1
        assert rec.metrics.counter("migrated_pages_total"
                                   ).value(proc="GPU") == 4
        assert rec.metrics.counter("kernel_launches_total"
                                   ).value(kernel="reader") == 1

    def test_headline_series_exist_before_any_event(self):
        rec = TelemetryRecorder()
        text = rec.metrics.to_prometheus()
        for family in ("page_fault_groups_total", "migrated_pages_total",
                       "evicted_pages_total", "transfer_bytes_total"):
            assert f"xplacer_{family} 0" in text

    def test_memcpy_counted_as_transfer_bytes(self, rig):
        rt, rec = rig
        d = rt.malloc(4 * 100)
        rt.memcpy(d, np.arange(100, dtype=np.int32), 400, H2D)
        assert rec.metrics.counter("transfer_bytes_total"
                                   ).value(direction="H2D") == 400


class TestTimelineFanout:
    def test_kernel_span_lands_on_gpu_track(self, rig):
        rt, rec = rig
        _fault_once(rt)
        events = rec.timeline.to_dict()["traceEvents"]
        spans = [e for e in events if e.get("cat") == "kernel"]
        assert any(e["name"] == "reader" and e["ph"] == "X" for e in spans)

    def test_migration_span_and_fault_instant(self, rig):
        rt, rec = rig
        _fault_once(rt)
        events = rec.timeline.to_dict()["traceEvents"]
        assert any(e["name"] == "migration" and e["ph"] == "X" for e in events)
        assert any(e["name"] == "page_fault" and e["ph"] == "i" for e in events)

    def test_event_cap_drops_instead_of_growing(self, monkeypatch):
        monkeypatch.setattr(recorder_mod, "MAX_TIMELINE_EVENTS", 5)
        rt = CudaRuntime(intel_pascal())
        rec = TelemetryRecorder()
        rec.attach(rt)
        baseline = len(rec.timeline)  # process/track metadata from attach
        _fault_once(rt)
        _fault_once(rt)
        assert len(rec.timeline) == baseline  # every span/instant dropped
        assert rec.dropped_timeline_events > 0


class TestJsonlFanout:
    def test_manifest_is_first_record(self, rig):
        rt, rec = rig
        _fault_once(rt)
        lines = rec.jsonl.getvalue().splitlines()
        first = json.loads(lines[0])
        assert first["type"] == "manifest"
        assert first["platform"]["name"] == "intel-pascal"
        types = {json.loads(l)["type"] for l in lines[1:]}
        assert "driver_event" in types
        assert "kernel" in types


class TestLifecycle:
    def test_detach_unwires_everything(self, rig):
        rt, rec = rig
        rec.detach()
        assert not rec.attached
        assert rec not in rt.observers
        assert rt.platform.um.metrics_hook is None
        before = rec.metrics.counter("page_fault_groups_total").value(proc="GPU")
        _fault_once(rt)
        after = rec.metrics.counter("page_fault_groups_total").value(proc="GPU")
        assert after == before

    def test_epoch_hook_follows_tracer(self):
        rt = CudaRuntime(intel_pascal())
        tracer = Tracer().attach(rt)
        rec = TelemetryRecorder()
        rec.attach(rt, tracer)
        tracer.advance_epoch()
        assert rec.metrics.counter("epochs_total").value() == 1
        rec.detach()
        assert tracer.epoch_hooks == []
        tracer.advance_epoch()
        assert rec.metrics.counter("epochs_total").value() == 1

    def test_multi_session_tracks(self):
        rec = TelemetryRecorder()
        rt1 = CudaRuntime(intel_pascal())
        rt2 = CudaRuntime(intel_pascal())
        rec.attach(rt1)
        rec.attach(rt2)
        _fault_once(rt2)
        names = [e["args"]["name"] for e in rec.timeline.to_dict()["traceEvents"]
                 if e["name"] == "process_name"]
        assert len(names) == 2
        rec.detach(rt1)
        assert rec.attached

    def test_recording_sessions_attach_the_recorder(self):
        from repro.evalx.runner import recording_sessions

        rec = TelemetryRecorder()
        session = recording_sessions(rec)("intel-pascal", materialize=False)
        assert rec.attached
        assert rec in session.runtime.observers
        assert session.tracer.epoch_hooks
        plain = make_session("intel-pascal", materialize=False)
        assert rec not in plain.runtime.observers
        rec.detach()
        assert rec not in session.runtime.observers


class TestFlush:
    def test_flush_writes_all_artifacts(self, tmp_path):
        rt = CudaRuntime(intel_pascal())
        rec = TelemetryRecorder(jsonl=JsonlWriter(tmp_path / "events.jsonl"))
        rec.attach(rt)
        _fault_once(rt)
        rec.detach()
        paths = rec.flush(tmp_path)
        doc = json.loads(paths["timeline"].read_text())
        assert doc["traceEvents"]
        prom = paths["metrics"].read_text()
        assert "xplacer_sim_time_seconds" in prom
        assert "xplacer_link_transfer_bytes" in prom
        assert (tmp_path / "events.jsonl").stat().st_size > 0
