"""Tests for the instrumentation-overhead harness (paper Table III shape)."""

from repro.telemetry.overhead import CONFIGS, format_rows, measure_overhead


class TestMeasureOverhead:
    def test_reports_at_least_two_workloads(self):
        rows = measure_overhead(("sw", "lulesh"), repeats=1)
        assert len(rows) == 2
        assert [row["workload"] for row in rows] == ["sw", "lulesh"]
        for row in rows:
            for config in CONFIGS:
                assert row[f"{config}_s"] > 0
            # Instrumented runs do strictly more work; allow generous
            # noise margins rather than asserting exact ordering.
            assert row["telemetry_x"] > 0.5
            assert row["traced_x"] > 0.5
            assert row["heat_x"] > 0.5
            # Heat recording rides the traced path; its marginal cost
            # must stay well under the 2x acceptance bar.
            assert row["heat_vs_traced_x"] < 2.0
            for key in ("causes_x", "causes_no_sites_x", "signature_x"):
                assert row[key] > 0.5

    def test_disabled_telemetry_is_cheap(self):
        # Acceptance bound: attach+detach must leave the hot path alone
        # (<2x of a never-attached run, and that's already generous).
        (row,) = measure_overhead(("sw",), repeats=3)
        assert row["detached_x"] < 2.0

    def test_format_rows_renders_table(self):
        rows = [{
            "workload": "sw", "plain_s": 0.1, "traced_s": 0.2,
            "telemetry_s": 0.3, "heat_s": 0.25, "detached_s": 0.11,
            "causes_s": 0.36, "causes_no_sites_s": 0.33,
            "heat_no_sites_s": 0.22, "signature_s": 0.23,
            "traced_x": 2.0, "telemetry_x": 3.0, "heat_x": 2.5,
            "heat_vs_traced_x": 1.25, "detached_x": 1.1,
            "causes_x": 1.2, "causes_no_sites_x": 1.1, "signature_x": 1.05,
        }]
        text = format_rows(rows)
        assert "sw" in text
        assert "3.0x" in text
        assert "average telemetry overhead" in text
        assert "average heat overhead vs traced" in text
        assert "1.25x" in text
        assert "average causal overhead vs telemetry        1.20x" in text
        assert "average signature overhead vs heat          1.05x" in text
