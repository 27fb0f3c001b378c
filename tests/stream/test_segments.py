"""Segment log framing: round-trips, crash detection, manifest versioning."""

import json
import zlib

import pytest

from repro.stream.segments import (
    LOG_NAME,
    MANIFEST_EVERY,
    MANIFEST_NAME,
    STREAM_VERSION,
    IncompatibleStreamError,
    SegmentWriter,
    TruncatedSegmentError,
    iter_shard_records,
    load_manifest,
    read_segment,
    shard_frames,
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


def _frame_bytes(tmp_path, entry):
    data = (tmp_path / LOG_NAME).read_bytes()
    return data[entry["offset"]:entry["offset"] + entry["bytes"]]


def _records(tmp_path, **kwargs):
    return list(iter_shard_records(tmp_path, **kwargs))


class TestWriterReader:
    def test_round_trip(self, stream, tmp_path):
        entry = stream.write_segment(RECORDS)
        assert read_segment(_frame_bytes(tmp_path, entry)) == RECORDS
        assert _records(tmp_path, strict=True) == RECORDS

    def test_segments_are_numbered_and_ordered(self, stream, tmp_path):
        first = stream.write_segment(RECORDS)
        second = stream.write_segment(RECORDS[:1])
        assert first["offset"] == 0
        assert second["offset"] == first["bytes"]
        frames, cursor, tail = shard_frames(tmp_path)
        assert cursor == first["bytes"] + second["bytes"] and tail == ""
        assert [json.loads(frame.split(b"\n", 1)[0])["segment"]
                for _, frame in frames] == [0, 1]
        assert frames[0][0] == f"{tmp_path / LOG_NAME} frame 0 at byte 0"
        assert frames[1][0].endswith(f"frame 1 at byte {first['bytes']}")

    def test_header_records_payload_length(self, stream, tmp_path):
        entry = stream.write_segment(RECORDS)
        lines = _frame_bytes(tmp_path, entry).split(b"\n")
        header = json.loads(lines[0])
        assert header["bytes"] == sum(len(line) + 1 for line in lines[1:-2])
        assert header["stream_version"] == STREAM_VERSION == 2

    def test_manifest_tracks_segments_and_rollup(self, stream, tmp_path):
        stream.write_segment(RECORDS, rollup={"events_spilled": 1})
        manifest = stream.manifest()
        assert manifest["shard"] == "s0"
        assert manifest["workload"] == "wl"
        assert manifest["complete"] is False
        entry = manifest["segments"][0]
        assert entry["offset"] == 0
        assert entry["bytes"] == (tmp_path / LOG_NAME).stat().st_size
        assert entry["records"] == 3
        assert entry["events"] == 1
        assert entry["heat_epochs"] == 1
        assert entry["epoch_lo"] == entry["epoch_hi"] == 2
        assert manifest["rollup"]["events_spilled"] == 1

    def test_manifest_written_at_open_cadence_and_finalize(self, stream,
                                                          tmp_path):
        assert load_manifest(tmp_path)["seq"] == 0
        for i in range(MANIFEST_EVERY - 1):
            stream.write_segment(RECORDS[:1], rollup={"i": i})
        assert load_manifest(tmp_path)["seq"] == 0  # not rewritten yet
        stream.write_segment(RECORDS[:1], rollup={"i": MANIFEST_EVERY})
        on_disk = load_manifest(tmp_path)
        assert on_disk["seq"] == MANIFEST_EVERY
        assert on_disk["rollup"] == {"i": MANIFEST_EVERY}
        stream.write_segment(RECORDS[:1])
        assert load_manifest(tmp_path)["seq"] == MANIFEST_EVERY
        stream.finalize()
        assert load_manifest(tmp_path) == stream.manifest()
        assert load_manifest(tmp_path)["seq"] == MANIFEST_EVERY + 1

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
    """Crashed and corrupted frames inside ``segments.log``."""

    def _log(self, stream, tmp_path, n=1):
        """``n`` frames of RECORDS, the stream finalized; the log path."""
        entries = [stream.write_segment(RECORDS) for _ in range(n)]
        stream.finalize()
        return tmp_path / LOG_NAME, entries

    def test_chopped_file_is_truncated(self, stream, tmp_path):
        log, _ = self._log(stream, tmp_path)
        data = log.read_bytes()
        log.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedSegmentError,
                           match="truncated tail .* frame 0 at byte 0"):
            _records(tmp_path, strict=True)

    def test_missing_trailer_is_truncated(self, stream, tmp_path):
        log, _ = self._log(stream, tmp_path)
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TruncatedSegmentError, match="trailer"):
            _records(tmp_path, strict=True)

    def test_bitflip_fails_crc(self, stream, tmp_path):
        log, _ = self._log(stream, tmp_path)
        log.write_text(log.read_text().replace("page_fault", "page_vault", 1))
        with pytest.raises(TruncatedSegmentError, match="checksum"):
            _records(tmp_path, strict=True)

    def test_wrong_record_count_detected(self, stream, tmp_path):
        log, _ = self._log(stream, tmp_path)
        lines = log.read_text().splitlines()
        trailer = json.loads(lines[-1])
        trailer["records"] = 99
        # Recompute a valid CRC so only the count disagrees.
        body = "".join(line + "\n" for line in lines[:-1])
        trailer["crc32"] = zlib.crc32(body.encode())
        log.write_text(body + json.dumps(trailer) + "\n")
        with pytest.raises(TruncatedSegmentError, match="payload records"):
            _records(tmp_path, strict=True)

    def test_iter_skips_truncated_with_warning(self, stream, tmp_path):
        log, entries = self._log(stream, tmp_path, n=2)
        log.write_bytes(log.read_bytes()[: entries[1]["offset"] + 10])
        warnings = []
        assert _records(tmp_path, warn=warnings.append) == RECORDS
        assert len(warnings) == 1 and "truncated" in warnings[0]
        assert f"frame 1 at byte {entries[1]['offset']}" in warnings[0]

    def test_iter_strict_raises(self, stream, tmp_path):
        log, _ = self._log(stream, tmp_path)
        log.write_bytes(log.read_bytes()[:10])
        with pytest.raises(TruncatedSegmentError):
            _records(tmp_path, strict=True)

    def test_corrupt_middle_frame_skipped_later_frames_merge(self, stream,
                                                            tmp_path):
        log, entries = self._log(stream, tmp_path, n=3)
        data = bytearray(log.read_bytes())
        at = data.index(b"page_fault", entries[1]["offset"])
        data[at:at + 10] = b"page_vault"
        log.write_bytes(bytes(data))
        warnings = []
        assert _records(tmp_path, warn=warnings.append) == RECORDS * 2
        assert len(warnings) == 1
        assert "checksum" in warnings[0]
        assert f"{log} frame 1 at byte {entries[1]['offset']}" in warnings[0]
        with pytest.raises(TruncatedSegmentError, match="frame 1"):
            _records(tmp_path, strict=True)

    def test_garbled_length_ends_scan_as_truncated_tail(self, stream,
                                                       tmp_path):
        log, entries = self._log(stream, tmp_path, n=3)
        data = bytearray(log.read_bytes())
        at = data.index(b'"bytes":', entries[1]["offset"]) + len('"bytes":')
        data[at] = ord("x")
        log.write_bytes(bytes(data))
        warnings = []
        assert _records(tmp_path, warn=warnings.append) == RECORDS
        assert warnings == [
            f"skipping truncated tail of {log} from frame 1 at byte "
            f"{entries[1]['offset']}: unreadable frame header "
            f"({len(data) - entries[1]['offset']} byte(s) unread)"]


class TestManifest:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": STREAM_VERSION})
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()
        assert load_manifest(tmp_path)["stream_version"] == STREAM_VERSION

    def test_future_version_rejected(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": STREAM_VERSION + 1})
        with pytest.raises(IncompatibleStreamError):
            load_manifest(tmp_path)

    def test_only_version_2_reads_1_and_3_rejected(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": 2})
        assert load_manifest(tmp_path)["stream_version"] == 2
        for version in (1, 3):
            write_manifest(tmp_path, {"stream_version": version})
            with pytest.raises(IncompatibleStreamError,
                               match=f"stream_version {version} is not 2"):
                load_manifest(tmp_path)

    def test_missing_log_names_the_log(self, tmp_path):
        write_manifest(tmp_path, {"stream_version": STREAM_VERSION})
        with pytest.raises(FileNotFoundError,
                           match=f"{tmp_path} has no {LOG_NAME}"):
            list(iter_shard_records(tmp_path))

    def test_unreadable_manifest_names_the_file(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"stream_version": ')
        with pytest.raises(IncompatibleStreamError, match=MANIFEST_NAME):
            load_manifest(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nowhere")

    def test_every_rewrite_equals_the_indent_encoding(self, tmp_path):
        """Every manifest written is the canonical indent=1 encoding."""
        writer = SegmentWriter(tmp_path, shard="s0", workload="wl",
                               platform="pcie",
                               config={"nested": {"k": [1, {"x": None}]}})
        path = tmp_path / MANIFEST_NAME

        def expected():
            return json.dumps(writer.manifest(), indent=1,
                              sort_keys=True) + "\n"

        assert path.read_text() == expected()
        for i in range(2 * MANIFEST_EVERY):
            records = RECORDS[: 1 + i % 3]
            rollup = {"seq": i, "residency": {"m": [i, 0.5]},
                      "label": 'q"é'} if i % 2 else None
            writer.write_segment(records, rollup=rollup)
            if (i + 1) % MANIFEST_EVERY == 0:
                assert path.read_text() == expected()
                assert load_manifest(tmp_path) == writer.manifest()
        writer.finalize({"events_spilled": 4, "empty": {}})
        assert path.read_text() == expected()
        assert len(writer.manifest()["segments"]) == 2 * MANIFEST_EVERY
        assert [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")] == []

    def test_unlisted_crashed_segment_still_detected(self, stream, tmp_path):
        """A crash can leave a frame the manifest never saw."""
        stream.write_segment(RECORDS)
        with (tmp_path / LOG_NAME).open("ab") as fh:
            fh.write(b'{"bytes":400,"type":"segment_header"}\n{"type":"driver')
        assert load_manifest(tmp_path)["segments"] == []
        warnings = []
        assert _records(tmp_path, warn=warnings.append) == RECORDS
        assert len(warnings) == 1 and "payload cut off" in warnings[0]
