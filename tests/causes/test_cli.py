"""repro-why command line: exit codes and JSON output."""

import json

from repro.causes.cli import main


class TestRun:
    def test_json_run_succeeds_and_prints_a_report(self, tmp_path, capsys):
        rc = main(["run", "--workload", "sw", "--platform", "pcie",
                   "--out", str(tmp_path / "run"), "--footprint", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "causes_report"
        assert report["totals"]["events"] > 0

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--workload", "nope", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown workload 'nope'; known: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_platform_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--platform", "abacus", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown platform 'abacus'; known: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_is_required(self, capsys):
        assert main(["run"]) == 2

    def test_list_exits_0(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sw-advised" in out
        assert "pcie" in out


class TestDiff:
    def test_self_diff_exits_0(self, sw_run, sw_run_again, capsys):
        rc = main(["diff", str(sw_run), str(sw_run_again)])
        assert rc == 0
        assert "verdict" in capsys.readouterr().out

    def test_json_and_out_file(self, sw_run, sw_run_again, tmp_path, capsys):
        out = tmp_path / "diff.json"
        rc = main(["diff", str(sw_run), str(sw_run_again),
                   "--json", "--out", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed

    def test_missing_run_exits_2(self, sw_run, tmp_path, capsys):
        rc = main(["diff", str(sw_run), str(tmp_path / "missing")])
        assert rc == 2
        assert "events.jsonl" in capsys.readouterr().err

    def test_fail_on_regression(self, sw_run, sw_advised_run, capsys):
        # On PCIe the advised variant trades migrations for per-iteration
        # remote accesses: moved bytes collapse but total simulated cost
        # regresses -- exactly what --fail-on-regression must catch.
        rc = main(["diff", str(sw_run), str(sw_advised_run), "--json",
                   "--fail-on-regression"])
        captured = json.loads(capsys.readouterr().out)
        if captured["summary"]["verdict"] == "regression":
            assert rc == 1
        else:
            assert rc == 0

    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        assert "repro-why" in capsys.readouterr().out
