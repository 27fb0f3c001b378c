"""Tests for the CLI's CSV export path."""

import csv
import io
import re

from repro.analysis import diagnose
from repro.evalx.base import ExperimentResult
from repro.evalx.runner import main, rows_to_csv
from repro.heatmap.store import HeatStore
from repro.workloads.base import make_session
from repro.workloads.rodinia import (
    Backprop,
    Cfd,
    Gaussian,
    Lud,
    NearestNeighbor,
    Pathfinder,
)

#: tab2's sessions in the order it opens them: (app, arguments, whether
#: the app diagnoses each iteration itself).
TAB2_SESSIONS = [
    (Backprop, {"input_size": 8192}, False),
    (Cfd, {"cells": 2048}, False),
    (Gaussian, {"size": 64}, False),
    (Lud, {"size": 64}, False),
    (NearestNeighbor, {"records": 4096}, False),
    (Pathfinder, {"cols": 2048, "rows": 26, "pyramid_height": 5,
                  "diagnose_each_iteration": True}, True),
]


def _single_session_heat(app_cls, kwargs, per_iteration) -> str:
    """``heat.csv`` of one tab2 case run alone in a fresh session."""
    session = make_session(trace=True, materialize=True)
    session.tracer.heat = store = HeatStore()
    app_cls(session, **kwargs).run()
    if not per_iteration:
        diagnose(session.tracer, include_unnamed=True)
    store.flush_current()
    return store.to_csv()


class TestRowsToCsv:
    def test_simple_rows(self):
        r = ExperimentResult("x", "t", rows=[
            {"a": 1, "b": 2.5}, {"a": 3, "b": 0.125},
        ])
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(r))))
        assert parsed[0]["a"] == "1"
        assert parsed[1]["b"] == "0.125"

    def test_heterogeneous_keys_merged(self):
        r = ExperimentResult("x", "t", rows=[{"a": 1}, {"a": 2, "b": 3}])
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(r))))
        assert parsed[0]["b"] == ""
        assert parsed[1]["b"] == "3"

    def test_sequences_joined(self):
        r = ExperimentResult("x", "t", rows=[{"diags": [7, 6]}])
        assert "6;7" in rows_to_csv(r)

    def test_empty_rows(self):
        assert rows_to_csv(ExperimentResult("x", "t")) == ""


class TestCliCsvFlag:
    def test_writes_per_experiment_files(self, tmp_path, capsys):
        assert main(["fig7", "--csv", str(tmp_path)]) == 0
        content = (tmp_path / "fig7.csv").read_text()
        parsed = list(csv.DictReader(io.StringIO(content)))
        panels = {row["panel"] for row in parsed}
        assert panels == {"a", "b"}


class TestTelemetryDir:
    def test_writes_per_experiment_artifacts(self, tmp_path, capsys):
        assert main(["fig7", "--telemetry-dir", str(tmp_path)]) == 0
        exp_dir = tmp_path / "fig7"
        for artifact in ("timeline.json", "events.jsonl", "metrics.prom"):
            assert (exp_dir / artifact).stat().st_size > 0

    def test_report_keeps_each_traced_session_apart(self, tmp_path, capsys):
        assert main(["spatter", "tab2", "--telemetry-dir", str(tmp_path),
                     "--report"]) == 0
        # spatter's signature pass (sessions 6-10) swaps in its own
        # heat stores, so only its first five sessions record heat here.
        assert sorted(p.name for p in (tmp_path / "spatter").iterdir()
                      if p.is_dir()) == [f"session-{n}" for n in range(1, 6)]
        tab2_dir = tmp_path / "tab2"
        assert not (tab2_dir / "heat.csv").exists()
        records = 0
        for n, case in enumerate(TAB2_SESSIONS, start=1):
            session_dir = tab2_dir / f"session-{n}"
            assert (session_dir / "report.html").stat().st_size > 0
            heat_csv = (session_dir / "heat.csv").read_text()
            assert heat_csv == _single_session_heat(*case)
            records += len({row["allocation"] for row in
                            csv.DictReader(io.StringIO(heat_csv))})
        assert records == 17

    def test_session_reports_name_their_platform_not_experiment_metrics(
            self, tmp_path, capsys):
        assert main(["tab2", "--telemetry-dir", str(tmp_path),
                     "--report"]) == 0
        tab2_dir = tmp_path / "tab2"
        platform = make_session(trace=False).platform.name
        for n in range(1, len(TAB2_SESSIONS) + 1):
            html = (tab2_dir / f"session-{n}" / "report.html").read_text()
            assert f"<h1>XPlacer run report — tab2 on {platform}</h1>" in html
            # Experiment-wide metrics stay in DIR/<id>/metrics.prom only.
            assert "kernel launches" not in html
            assert "full metrics table" not in html
        assert "kernel_launches_total" in \
            (tab2_dir / "metrics.prom").read_text()

    def test_session_report_artifact_links_resolve(self, tmp_path, capsys):
        assert main(["tab2", "--telemetry-dir", str(tmp_path),
                     "--report"]) == 0
        for n in range(1, len(TAB2_SESSIONS) + 1):
            session_dir = tmp_path / "tab2" / f"session-{n}"
            html = (session_dir / "report.html").read_text()
            listed = html.split("Artifacts: ", 1)[1].split(".</div>", 1)[0]
            names = re.findall(r"<code>([^<]+)</code>", listed)
            assert names == ["heat.csv", "heat.npz", "../timeline.json",
                             "../events.jsonl", "../metrics.prom"]
            for name in names:
                assert (session_dir / name).is_file(), name
