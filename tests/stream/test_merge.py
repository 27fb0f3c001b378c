"""Merge algebra goldens: split-and-remerge byte-matches the single run."""

import json
from pathlib import Path

import pytest

from repro.heatmap.store import HeatStore
from repro.stream.merge import merge_shards
from repro.stream.segments import (TruncatedSegmentError, load_manifest,
                                   segment_files)
from repro.stream.shard import run_streaming, split_stream
from repro.telemetry.events_jsonl import encode_driver_event
from repro.workloads.base import make_session
from repro.workloads.registry import WORKLOADS

K = 4

#: A pathfinder stream written by ``repro-agg run --platform pcie
#: --sample 4 --log-capacity 64`` before shadow sampling was removed: six
#: segments, a ``sampling`` record in the last one, and ``rollup.sampling``
#: plus ``config.sample`` in the manifest.
LEGACY = Path(__file__).parent / "data" / "legacy-sampled-pathfinder"


@pytest.fixture(scope="module")
def lulesh_stream(tmp_path_factory):
    """One streaming LULESH run (ring small enough to force spilling)."""
    out = tmp_path_factory.mktemp("stream") / "whole"
    result = run_streaming("lulesh", "pcie", out, log_capacity=32)
    return out, result


@pytest.fixture(scope="module")
def lulesh_shards(lulesh_stream, tmp_path_factory):
    src, _ = lulesh_stream
    base = tmp_path_factory.mktemp("shards")
    return split_stream(src, base, K)


@pytest.fixture(scope="module")
def merged_whole(lulesh_stream):
    src, _ = lulesh_stream
    return merge_shards([src])


@pytest.fixture(scope="module")
def merged_sharded(lulesh_shards):
    return merge_shards(lulesh_shards)


class TestGoldenSplitRemerge:
    """repro-agg over K shards must byte-match the single-process run."""

    def test_streaming_forced_spills(self, lulesh_stream):
        _, result = lulesh_stream
        rollup = result["manifest"]["rollup"]
        assert rollup["events_spilled"] > 32  # ring was really overflowed
        assert rollup["events_dropped"] == 0

    def test_events_identical_ids_preserved(self, merged_whole, merged_sharded):
        assert merged_sharded.events == merged_whole.events
        assert not merged_sharded.ids_rebased
        ids = [ev["id"] for ev in merged_sharded.events]
        assert ids == sorted(ids)

    def test_heat_csv_byte_identical(self, merged_whole, merged_sharded):
        assert merged_sharded.store.to_csv() == merged_whole.store.to_csv()

    def test_epochs_and_summary_identical(self, merged_whole, merged_sharded):
        assert merged_sharded.store.epochs_closed \
            == merged_whole.store.epochs_closed
        assert merged_sharded.summary == merged_whole.summary

    def test_causes_json_byte_identical(self, merged_whole, merged_sharded):
        a = json.dumps(merged_whole.causes_report(), indent=2)
        b = json.dumps(merged_sharded.causes_report(), indent=2)
        assert a == b

    def test_metrics_identical_modulo_shard_count(self, merged_whole,
                                                  merged_sharded):
        def lines(run):
            return [line for line
                    in run._registry().to_prometheus().splitlines()
                    if "merged_shards" not in line]
        assert lines(merged_sharded) == lines(merged_whole)

    def test_merge_is_order_independent(self, lulesh_shards, merged_sharded):
        reversed_merge = merge_shards(list(reversed(lulesh_shards)))
        assert reversed_merge.events == merged_sharded.events
        assert reversed_merge.store.to_csv() == merged_sharded.store.to_csv()

    def test_written_bundle_feeds_existing_renderers(self, merged_sharded,
                                                     tmp_path):
        paths = merged_sharded.write(tmp_path / "out")
        for key in ("manifest", "events", "heat_csv", "heat_npz",
                    "metrics", "causes", "report"):
            assert paths[key].exists(), key
        first = json.loads(paths["events"].read_text().splitlines()[0])
        assert first["type"] == "manifest"  # repro-why-consumable stream
        causes = json.loads(paths["causes"].read_text())
        assert causes["type"] == "causes_report" and causes["totals"]
        html = paths["report"].read_text()
        assert "streamed run" in html and "4 shard(s)" in html

    def test_repro_why_rebuilds_identical_causes_from_merged_jsonl(
            self, merged_sharded, tmp_path):
        """The merged events.jsonl feeds the repro-why pipeline unchanged."""
        from repro.causes.capture import build_report as build_from_dir

        merged_sharded.write(tmp_path / "out", report=False)
        rebuilt = build_from_dir(tmp_path / "out")
        assert rebuilt == merged_sharded.causes_report()


class TestStreamingEqualsInMemory:
    """The spilled stream reconstructs the plain in-memory run exactly."""

    @pytest.fixture(scope="class")
    def in_memory(self):
        from repro.signature.tracker import PhaseTracker

        session = make_session("intel-pascal", trace=True)
        session.platform.um.track_causes = True
        heat = HeatStore(nbuckets=64, attribute=True)
        session.tracer.heat = heat
        # Streaming runs track phases by default; the in-memory reference
        # must emit the same markers for the event streams to match.
        tracker = PhaseTracker(
            log=session.platform.events,
            clock=lambda: session.platform.clock.now,
        ).attach(session.tracer, heat)
        WORKLOADS["lulesh"](session, per_iteration=True)
        tracker.finish()
        return session, heat

    def test_events_identical(self, in_memory, merged_whole):
        session, _ = in_memory
        plain = [encode_driver_event(e) for e in session.platform.events]
        assert merged_whole.events == plain

    def test_heat_identical(self, in_memory, merged_whole):
        _, heat = in_memory
        assert merged_whole.store.to_csv() == heat.to_csv()
        assert merged_whole.store.epochs_closed == heat.epochs_closed

    def test_summary_matches_event_log(self, in_memory, merged_whole):
        session, _ = in_memory
        expect = session.platform.events.summary()
        got = merged_whole.summary
        for key, value in expect.items():
            if key == "memory_time":  # float summation order differs
                assert got[key] == pytest.approx(value, rel=1e-9)
            else:
                assert got[key] == value, key


class TestCrashedShard:
    def _chop(self, shards, tmp_path):
        import shutil

        broken = []
        for i, shard in enumerate(shards):
            dst = tmp_path / f"c{i}"
            shutil.copytree(shard, dst)
            broken.append(dst)
        victim = segment_files(broken[-1])[-1]
        data = victim.read_bytes()
        victim.write_bytes(data[: int(len(data) * 0.7)])
        return broken

    def test_truncated_segment_skipped_with_warning(self, lulesh_shards,
                                                    merged_sharded, tmp_path):
        broken = self._chop(lulesh_shards, tmp_path)
        warned = []
        merged = merge_shards(broken, on_warning=warned.append)
        assert any("truncated" in w for w in merged.warnings)
        assert merged.warnings == warned
        # Only that segment's slice is lost; everything else survives.
        lost = len(merged_sharded.events) - len(merged.events)
        assert 0 < lost <= 64
        assert merged.store.allocations()  # heat from intact shards intact

    def test_strict_mode_raises(self, lulesh_shards, tmp_path):
        broken = self._chop(lulesh_shards, tmp_path)
        with pytest.raises(TruncatedSegmentError):
            merge_shards(broken, strict=True)


class TestIndependentRuns:
    """Overlapping id spaces: rebase + cause-link remap."""

    @pytest.fixture(scope="class")
    def two_runs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("indep")
        a = run_streaming("pathfinder", "pcie", base / "a", shard="proc-a")
        b = run_streaming("pathfinder", "pcie", base / "b", shard="proc-b")
        merged = merge_shards([base / "a", base / "b"])
        return a, b, merged

    def test_ids_rebased_to_one_sequence(self, two_runs):
        _, _, merged = two_runs
        assert merged.ids_rebased
        assert any("rebasing" in w for w in merged.warnings)
        assert [ev["id"] for ev in merged.events] \
            == list(range(len(merged.events)))

    def test_events_ordered_by_time(self, two_runs):
        _, _, merged = two_runs
        times = [ev["t"] for ev in merged.events]
        assert times == sorted(times)

    def test_cause_parents_remapped_validly(self, two_runs):
        _, _, merged = two_runs
        ids = {ev["id"] for ev in merged.events}
        for ev in merged.events:
            cause = ev.get("cause")
            if cause and cause.get("parent", -1) >= 0:
                assert cause["parent"] in ids
                assert cause["parent"] < ev["id"]  # causes precede effects

    def test_counters_are_the_sum_of_both_runs(self, two_runs):
        a, b, merged = two_runs
        sa = a["manifest"]["rollup"]["summary"]
        sb = b["manifest"]["rollup"]["summary"]
        for key in ("fault_groups", "migrated_pages", "transfer_bytes",
                    "remote_accesses"):
            assert merged.summary[key] == sa[key] + sb[key], key


class TestLegacySampledShard:
    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("legacy")
        run_streaming("pathfinder", "pcie", base / "dense", log_capacity=64)
        warned = []
        merge_shards([LEGACY], on_warning=warned.append).write(base / "legacy")
        merge_shards([base / "dense"]).write(base / "dense-merged")
        return base / "legacy", base / "dense-merged", warned

    def test_one_warning_names_shard_and_stride(self, bundles):
        _, _, warned = bundles
        assert warned == ["shard shard-0 was traced with shadow sampling "
                          "(stride 4); its diagnoses were sampled estimates"]

    @pytest.mark.parametrize("name",
                             ["heat.csv", "causes.json", "signature.json"])
    def test_artifacts_match_dense_merge(self, bundles, name):
        legacy, dense, _ = bundles
        assert (legacy / name).read_bytes() == (dense / name).read_bytes()

    def test_warning_is_the_only_report_trace(self, bundles):
        legacy, _, _ = bundles
        html = (legacy / "report.html").read_text()
        assert html.count("sampled estimates") == 1  # the warning line
        assert "sampled tracing" not in html  # no sampling banner
        assert "sampling" not in json.loads(
            (legacy / "manifest.json").read_text())["rollup"]

    def test_manifest_and_top_accept_fixture(self, capsys):
        from repro.stream.top import main

        assert load_manifest(LEGACY)["config"]["sample"] == 4
        assert main([str(LEGACY), "--frames", "1", "--interval", "0",
                     "--no-clear", "--no-color"]) == 0
        assert "pathfinder on intel-pascal" in capsys.readouterr().out

    def test_cli_merge_prints_warning(self, tmp_path, capsys):
        from repro.stream.cli import main

        assert main(["merge", str(LEGACY), "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: shard shard-0 was traced with shadow "
                         "sampling (stride 4)") == 1


class TestCli:
    def test_run_split_merge_round_trip(self, tmp_path, capsys):
        from repro.stream.cli import main

        assert main(["run", "--workload", "pathfinder", "--platform", "pcie",
                     "--out", str(tmp_path / "run"),
                     "--log-capacity", "64"]) == 0
        assert main(["split", str(tmp_path / "run"),
                     "--out", str(tmp_path / "shards"), "-k", "2"]) == 0
        assert main(["merge", str(tmp_path / "shards" / "shard-0"),
                     str(tmp_path / "shards" / "shard-1"),
                     "--out", str(tmp_path / "merged")]) == 0
        assert (tmp_path / "merged" / "report.html").exists()
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out

    def test_merge_strict_fails_on_truncation(self, tmp_path):
        from repro.stream.cli import main

        main(["run", "--workload", "pathfinder", "--platform", "pcie",
              "--out", str(tmp_path / "run"), "--log-capacity", "64"])
        victim = segment_files(tmp_path / "run")[-1]
        victim.write_bytes(victim.read_bytes()[:40])
        assert main(["merge", str(tmp_path / "run"),
                     "--out", str(tmp_path / "m"), "--strict"]) == 1
