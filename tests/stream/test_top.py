"""repro-top: scripted-mode rendering over live and finished shards."""

import hashlib

import pytest

from repro.stream.segments import LOG_NAME, SegmentWriter, load_manifest
from repro.stream.shard import run_streaming, split_stream
from repro.stream.top import Monitor, main


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    base = tmp_path_factory.mktemp("top")
    run_streaming("pathfinder", "pcie", base / "whole", log_capacity=64)
    return [str(p) for p in split_stream(base / "whole", base, 2)]


class TestMonitor:
    def test_frame_has_all_panels(self, shards):
        frame = Monitor(shards, color=False).render_frame()
        assert "repro-top — pathfinder on intel-pascal — 2 shard(s)" in frame
        assert "2 complete" in frame
        assert "counters" in frame and "events" in frame
        assert "driver" in frame
        assert "residency" in frame and "sim time" in frame
        assert "heat       latest spilled epoch per allocation" in frame

    def test_heat_strips_use_ascii_ramp_without_color(self, shards):
        frame = Monitor(shards, color=False, width=16).render_frame()
        strip_rows = [l for l in frame.splitlines()
                      if "|" in l and l.lstrip().startswith("gpu")]
        assert strip_rows  # pathfinder allocations render strips
        assert "\x1b[" not in frame  # no ANSI without color

    def test_color_mode_emits_ansi(self, shards):
        frame = Monitor(shards, color=True).render_frame()
        assert "\x1b[48;5;" in frame

    def test_drilldown_panel(self, shards):
        monitor = Monitor(shards, color=False, alloc="gpuWall")
        frame = monitor.render_frame()
        assert "drill-down gpuWall" in frame
        assert any(l.lstrip().startswith("e") and "|" in l
                   for l in frame.splitlines())
        monitor = Monitor(shards, color=False, alloc="nope")
        assert "(no heat spilled for this allocation)" \
            in monitor.render_frame()

    def test_waiting_for_missing_manifest(self, tmp_path):
        frame = Monitor([tmp_path / "nothing"]).render_frame()
        assert "waiting for manifest" in frame
        assert "0 complete" in frame

    def test_truncated_tail_segment_tolerated(self, shards, tmp_path):
        import shutil

        live = tmp_path / "live"
        shutil.copytree(shards[0], live)
        last = load_manifest(live)["segments"][-1]
        log = live / LOG_NAME
        log.write_bytes(log.read_bytes()[: last["offset"] + 25])
        monitor = Monitor([live])
        frame = monitor.render_frame()  # must not raise
        assert "repro-top" in frame
        view = monitor.views[0]
        assert view._cursor == last["offset"]  # torn frame not consumed
        assert view.frames_read == len(load_manifest(live)["segments"]) - 1

    def test_incremental_tailing_only_reads_new_segments(self, tmp_path):
        writer = SegmentWriter(tmp_path, shard="s", workload="w",
                               platform="p")
        first = writer.write_segment([
            {"type": "alloc_meta", "label": "x", "base": 0, "serial": 0,
             "size": 64, "nwords": 16, "nbuckets": 4},
            {"type": "heat_epoch", "label": "x", "base": 0, "serial": 0,
             "epoch": 0, "counts": [[1, 0, 0, 0]] * 6, "sites": []},
        ])
        monitor = Monitor([tmp_path], color=False)
        monitor.render_frame()
        view = monitor.views[0]
        assert view.heat["x"][0] == 0
        assert view._cursor == first["bytes"]
        # Appended between two refreshes; the manifest still lists none.
        second = writer.write_segment([
            {"type": "heat_epoch", "label": "x", "base": 0, "serial": 0,
             "epoch": 1, "counts": [[0, 5, 0, 0]] * 6, "sites": []},
        ])
        assert load_manifest(tmp_path)["segments"] == []
        monitor.render_frame()
        epoch, vec = view.heat["x"]
        assert epoch == 1 and vec[1] == 30
        assert view.frames_read == 2
        assert view._cursor == second["offset"] + second["bytes"]
        assert [e for e, _ in view.history["x"]] == [0, 1]  # each read once

    def test_torn_tail_frame_is_retried_not_lost(self, tmp_path):
        writer = SegmentWriter(tmp_path, shard="s", workload="w",
                               platform="p")
        records = [
            {"type": "alloc_meta", "label": "x", "base": 0, "serial": 0,
             "size": 64, "nwords": 16, "nbuckets": 4},
            {"type": "heat_epoch", "label": "x", "base": 0, "serial": 0,
             "epoch": 0, "counts": [[2, 0, 0, 0]] * 6, "sites": []},
        ]
        entry = writer.write_segment(records)
        writer.finalize()
        log = tmp_path / LOG_NAME
        whole = log.read_bytes()
        monitor = Monitor([tmp_path], color=False)
        for cut in (10, entry["bytes"] - 3):  # mid-header, mid-trailer
            log.write_bytes(whole[:cut])
            monitor.render_frame()
            assert monitor.views[0].frames_read == 0
            assert monitor.views[0]._cursor == 0
            assert "x" not in monitor.views[0].heat
        log.write_bytes(whole)
        monitor.render_frame()
        assert monitor.views[0].frames_read == 1
        assert monitor.views[0].heat["x"][0] == 0

    def test_dropped_warning_row(self, tmp_path):
        writer = SegmentWriter(tmp_path, shard="s", workload="w",
                               platform="p")
        writer.write_segment([{"type": "epoch", "epoch": 0, "t": 0.1}])
        writer.finalize({"events_spilled": 3, "events_dropped": 7})
        frame = Monitor([tmp_path]).render_frame()
        assert "7 event(s) dropped from retention" in frame


class TestMainScripted:
    def test_frames_mode_renders_and_exits(self, shards, capsys):
        rc = main(shards + ["--frames", "2", "--interval", "0",
                            "--no-color", "--no-clear",
                            "--alloc", "gpuWall"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("repro-top —") == 2
        assert "drill-down gpuWall" in out
        assert "\x1b[H\x1b[2J" not in out  # scripted mode never clears

    def test_auto_exit_when_all_shards_complete(self, shards, capsys):
        rc = main(shards + ["--interval", "0", "--no-color", "--no-clear"])
        assert rc == 0
        assert capsys.readouterr().out.count("repro-top —") == 1

    @pytest.mark.parametrize("name", ["version-1", "no-log", "merged-bundle"])
    def test_unreadable_directory_is_an_error(self, unreadable_dirs, shards,
                                              name, capsys):
        """One located ``error:`` line and exit 1, no frame drawn."""
        src = unreadable_dirs[name]
        assert main([shards[0], str(src), "--frames", "1", "--interval", "0",
                     "--no-color", "--no-clear"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(src) in lines[0]
        assert captured.out == ""


@pytest.fixture(scope="module")
def four_shards(tmp_path_factory):
    base = tmp_path_factory.mktemp("top4")
    run_streaming("pathfinder", "pcie", base / "whole", log_capacity=64)
    return [str(p) for p in split_stream(base / "whole", base, 4)]


class TestPinnedFrames:
    """sha256 of two drill-down frames over a 4-way pathfinder split.

    The strips fold 64 buckets into the 48-cell default width, so the
    digests cover the fold and both ramps byte for byte.
    """

    def test_ascii_frames(self, four_shards, capsys):
        assert main(four_shards + ["--frames", "2", "--interval", "0",
                                   "--no-color", "--no-clear",
                                   "--alloc", "gpuWall"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "4cbff941ee0c56fc4e3d70784b468f8c"
            "711df7b02565be90309317a5b297fa4d")

    def test_color_frames(self, four_shards):
        monitor = Monitor(four_shards, color=True, alloc="gpuWall")
        out = (monitor.render_frame() + monitor.render_frame()).encode()
        assert hashlib.sha256(out).hexdigest() == (
            "3638040787286c60414a427c9ce1b77f"
            "43e95bc06276a1aca8f91a55886bea2d")
