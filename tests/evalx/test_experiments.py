"""Tests for the evaluation harness (fast experiments + CLI plumbing)."""

import pytest

from repro.evalx import EXPERIMENTS, fig4, fig5, fig7, fig8, fig10, tab2
from repro.evalx.figures import sw_scaled
from repro.evalx.runner import main


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "tab2", "tab3", "spatter",
        }

    def test_experiments_carry_titles(self):
        for fn in EXPERIMENTS.values():
            assert fn.title


class TestFastExperiments:
    def test_fig4_rows_match_paper(self):
        result = fig4()
        dom = next(r for r in result.rows if r["name"] == "dom")
        assert (dom["C"], dom["G"]) == (27, 0)
        assert dom["alternating"] == 18
        assert "write counts" in result.text

    def test_fig5_has_all_six_panels_plus_overlap(self):
        result = fig5()
        panels = {r["panel"] for r in result.rows}
        assert panels == {"a", "b", "c", "d", "e", "f", "overlap"}

    def test_fig7_boundary_only(self):
        result = fig7()
        b = next(r for r in result.rows if r["panel"] == "b")
        assert b["touched"] == 31

    def test_fig8_diagonals(self):
        result = fig8()
        a = next(r for r in result.rows if r["panel"] == "a")
        assert a["diagonals"] == [8]

    def test_fig10_fifths(self):
        result = fig10()
        d = next(r for r in result.rows if r["panel"] == "d")
        assert d["pct"] == pytest.approx(20, abs=2)

    def test_tab2_all_benchmarks_match(self):
        result = tab2()
        assert all(r["matches_paper"] for r in result.rows)

    def test_sw_scaling_keeps_the_crossover(self):
        sizes, mem = sw_scaled(10)
        h_p_bytes = 2 * 4 * (sizes[-1] + 1) ** 2
        assert h_p_bytes > mem            # 46000-equivalent exceeds
        h_p_bytes_fit = 2 * 4 * (sizes[-2] + 1) ** 2
        assert h_p_bytes_fit < mem        # 45000-equivalent fits


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "tab3" in out

    def test_unknown_id_rejected(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_without_telemetry_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--report", "fig4"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--report requires --telemetry-dir" in err
        assert "Traceback" not in err

    def test_runs_named_experiment(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "boundary" in out
