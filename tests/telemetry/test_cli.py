"""End-to-end tests for the ``repro-trace`` CLI."""

import json

import pytest

from repro.telemetry import read_jsonl
from repro.telemetry.cli import main, run_traced
from repro.workloads.registry import PLATFORM_ALIASES, WORKLOADS, UnknownNameError


class TestRunTraced:
    def test_emits_all_three_artifacts(self, tmp_path):
        paths = run_traced("pathfinder", "intel-pascal", tmp_path,
                           materialize=False)
        doc = json.loads(paths["timeline"].read_text())
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev

        records = read_jsonl(paths["events"])
        assert records, "events.jsonl must not be empty"
        assert records[0]["type"] == "manifest"
        assert records[0]["workload"] == "pathfinder"
        assert any(r["type"] == "kernel" for r in records)
        assert any(r["type"] == "diagnosis" for r in records)

        prom = paths["metrics"].read_text()
        for family in ("page_fault", "migrated_pages", "evicted_pages",
                       "transfer_bytes"):
            assert family in prom, f"metrics.prom missing {family} series"

    def test_managed_workload_produces_fault_series(self, tmp_path):
        paths = run_traced("lulesh", "power9-volta", tmp_path,
                           materialize=False)
        prom = paths["metrics"].read_text()
        line = next(l for l in prom.splitlines()
                    if l.startswith("xplacer_page_fault_groups_total{"))
        assert float(line.rsplit(" ", 1)[1]) > 0

    def test_context_left_clean_even_on_failure(self, tmp_path):
        with pytest.raises(UnknownNameError):
            run_traced("no-such-workload", "intel-pascal", tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_cli_happy_path(self, tmp_path, capsys):
        rc = main(["--workload", "sw", "--platform", "pcie",
                   "--out", str(tmp_path), "--footprint"])
        assert rc == 0
        assert (tmp_path / "timeline.json").exists()
        assert (tmp_path / "events.jsonl").exists()
        assert (tmp_path / "metrics.prom").exists()
        out = capsys.readouterr().out
        assert "timeline.json" in out

    def test_unknown_platform_rejected(self, tmp_path, capsys):
        rc = main(["--workload", "sw", "--platform", "vax",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown platform 'vax'; known: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out

    def test_aliases_cover_paper_platforms(self):
        assert PLATFORM_ALIASES["pcie"] == "intel-pascal"
        assert PLATFORM_ALIASES["nvlink"] == "power9-volta"
