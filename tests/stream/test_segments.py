"""Segment framing: round-trips, crash detection, manifest versioning."""

import json

import pytest

from repro.stream.segments import (
    MANIFEST_NAME,
    STREAM_VERSION,
    IncompatibleStreamError,
    SegmentWriter,
    TruncatedSegmentError,
    iter_shard_records,
    load_manifest,
    read_segment,
    segment_files,
    write_manifest,
)

RECORDS = [
    {"type": "driver_event", "id": 0, "kind": "page_fault", "t": 0.1},
    {"type": "heat_epoch", "epoch": 2, "label": "m", "counts": [[1, 2]]},
    {"type": "alloc", "label": "m", "base": 4096},
]


@pytest.fixture
def stream(tmp_path):
    return SegmentWriter(tmp_path, shard="s0", workload="wl", platform="pcie")


class TestWriterReader:
    def test_round_trip(self, stream, tmp_path):
        path = stream.write_segment(RECORDS)
        assert read_segment(path) == RECORDS

    def test_segments_are_numbered_and_ordered(self, stream, tmp_path):
        stream.write_segment(RECORDS)
        stream.write_segment(RECORDS[:1])
        files = segment_files(tmp_path)
        assert [p.name for p in files] == ["seg-00000.jsonl", "seg-00001.jsonl"]

    def test_manifest_tracks_segments_and_rollup(self, stream, tmp_path):
        stream.write_segment(RECORDS, rollup={"events_spilled": 1})
        manifest = load_manifest(tmp_path)
        assert manifest["shard"] == "s0"
        assert manifest["workload"] == "wl"
        assert manifest["complete"] is False
        entry = manifest["segments"][0]
        assert entry["records"] == 3
        assert entry["events"] == 1
        assert entry["heat_epochs"] == 1
        assert entry["epoch_lo"] == entry["epoch_hi"] == 2
        assert manifest["rollup"]["events_spilled"] == 1

    def test_finalize_marks_complete(self, stream, tmp_path):
        stream.write_segment(RECORDS)
        stream.finalize({"events_spilled": 9})
        manifest = load_manifest(tmp_path)
        assert manifest["complete"] is True
        assert manifest["rollup"]["events_spilled"] == 9

    def test_record_without_type_rejected(self, stream):
        with pytest.raises(ValueError, match="type"):
            stream.write_segment([{"id": 1}])


class TestCrashDetection:
    def _segment(self, stream):
        return stream.write_segment(RECORDS)

    def test_chopped_file_is_truncated(self, stream):
        path = self._segment(stream)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedSegmentError):
            read_segment(path)

    def test_missing_trailer_is_truncated(self, stream):
        path = self._segment(stream)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TruncatedSegmentError, match="trailer"):
            read_segment(path)

    def test_bitflip_fails_crc(self, stream):
        path = self._segment(stream)
        text = path.read_text().replace("page_fault", "page_vault", 1)
        path.write_text(text)
        with pytest.raises(TruncatedSegmentError, match="checksum"):
            read_segment(path)

    def test_wrong_record_count_detected(self, stream):
        path = self._segment(stream)
        lines = path.read_text().splitlines()
        trailer = json.loads(lines[-1])
        trailer["records"] = 99
        # Recompute a valid CRC so only the count disagrees.
        import zlib

        payload = "".join(line + "\n" for line in lines[:-1])
        trailer["crc32"] = zlib.crc32(payload.encode())
        path.write_text(payload + json.dumps(trailer) + "\n")
        with pytest.raises(TruncatedSegmentError, match="payload records"):
            read_segment(path)

    def test_iter_skips_truncated_with_warning(self, stream, tmp_path):
        self._segment(stream)
        bad = stream.write_segment(RECORDS[:1])
        bad.write_bytes(bad.read_bytes()[:10])
        warnings = []
        records = list(iter_shard_records(tmp_path, warn=warnings.append))
        assert records == RECORDS
        assert len(warnings) == 1 and "truncated" in warnings[0]

    def test_iter_strict_raises(self, stream, tmp_path):
        path = self._segment(stream)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TruncatedSegmentError):
            list(iter_shard_records(tmp_path, strict=True))


class TestManifest:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": STREAM_VERSION})
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()
        assert load_manifest(tmp_path)["stream_version"] == STREAM_VERSION

    def test_future_version_rejected(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": STREAM_VERSION + 1})
        with pytest.raises(IncompatibleStreamError):
            load_manifest(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nowhere")

    def test_every_rewrite_equals_the_indent_encoding(self, tmp_path):
        """Spliced segment entries must give the exact canonical bytes."""
        writer = SegmentWriter(tmp_path, shard="s0", workload="wl",
                               platform="pcie",
                               config={"nested": {"k": [1, {"x": None}]}})
        path = tmp_path / MANIFEST_NAME

        def expected():
            return json.dumps(writer.manifest(), indent=1,
                              sort_keys=True) + "\n"

        assert path.read_text() == expected()
        for i in range(5):
            records = RECORDS[: 1 + i % 3]
            rollup = {"seq": i, "residency": {"m": [i, 0.5]},
                      "label": 'q"\u00e9'} if i % 2 else None
            writer.write_segment(records, rollup=rollup)
            assert path.read_text() == expected()
            assert load_manifest(tmp_path) == writer.manifest()
        writer.publish_rollup({"events_spilled": 3})
        assert path.read_text() == expected()
        writer.finalize({"events_spilled": 4, "empty": {}})
        assert path.read_text() == expected()
        assert len(writer.manifest()["segments"]) == 5
        assert [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")] == []

    def test_unlisted_crashed_segment_still_detected(self, stream, tmp_path):
        """A crash can leave a segment the manifest never saw."""
        stream.write_segment(RECORDS)
        orphan = tmp_path / "segments" / "seg-00001.jsonl"
        orphan.write_text('{"type":"segment_header"}\n{"type":"driver')
        warnings = []
        list(iter_shard_records(tmp_path, warn=warnings.append))
        assert len(warnings) == 1
