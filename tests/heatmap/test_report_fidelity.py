"""Report fidelity satellites: sampling provenance, artifact size bounds,
and heat strips that drop no number the heat archive keeps."""

import html
import json
import re

import numpy as np
import pytest

from repro.heatmap import html as report_html
from repro.heatmap.cli import run_report


@pytest.fixture(scope="module")
def lulesh_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("lulesh-report")
    return run_report("lulesh", "pcie", out, why=True), out


@pytest.fixture(scope="module")
def sw_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("sw-report")
    return run_report("sw", "pcie", out, why=True), out


class TestArtifactSizes:
    """Size regression guard for the bundled LULESH and SW reports.

    Bounds are ~1.5x the current artifact sizes: a change that bloats the
    inline SVG/CSS, goes back to one element per heat cell, or switches
    the NPZ off compression trips them.
    """

    def test_report_html_stays_bundled_but_bounded(self, lulesh_report):
        paths, _ = lulesh_report
        size = paths["report"].stat().st_size
        assert size < 450_000, f"report.html grew to {size} bytes"
        assert size > 100_000  # still genuinely self-contained

    def test_sw_report_html_is_bounded(self, sw_report):
        paths, _ = sw_report
        size = paths["report"].stat().st_size
        assert size < 1_800_000, f"report.html grew to {size} bytes"

    def test_npz_is_compressed(self, lulesh_report):
        paths, _ = lulesh_report
        npz_size = paths["heat_npz"].stat().st_size
        assert npz_size < 128_000, f"heat.npz grew to {npz_size} bytes"
        # Compression must beat the textual CSV by a wide margin.
        assert npz_size * 4 < paths["heat_csv"].stat().st_size
        with np.load(paths["heat_npz"]) as npz:
            raw = sum(npz[k].nbytes for k in npz.files)
        assert npz_size < raw  # savez_compressed, not savez

    def test_npz_round_trips_the_store(self, lulesh_report):
        paths, _ = lulesh_report
        store = paths["store"]
        with np.load(paths["heat_npz"]) as npz:
            labels = [str(x) for x in npz["labels"]]
            assert labels == [h.label for h in store.allocations()]
            total = sum(int(npz[f"a{i}_counts"].sum())
                        for i in range(len(labels)))
        assert total == store.total


class TestSamplingProvenance:
    def test_dense_run_has_no_sampling_artifacts(self, lulesh_report):
        paths, out = lulesh_report
        assert "sampled tracing" not in paths["report"].read_text()
        types = {json.loads(line)["type"] for line
                 in (out / "events.jsonl").read_text().splitlines()}
        assert "sampling" not in types


_STEP_X = report_html._CELL_W + report_html._GAP
_STEP_Y = report_html._CELL_H + report_html._GAP
_ROW = re.compile(
    r"<g><title>epoch (\d+): (\d+) of \d+ buckets heated; hottest bucket "
    r"(\d+), words \[(\d+),(\d+)\): cpu r/w (\d+)/(\d+), gpu r/w "
    r"(\d+)/(\d+)(?: — top site ([^<]*))?</title>(.*?)</g>")
_RUN = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="14" '
                  r'rx="2" fill="var\(--h(\d+)\)"/>')


def _strips(text: str) -> list[tuple[str, str]]:
    """``(allocation label, heat-strip SVG body)`` in report order.

    Labels repeat when an allocation is freed and another takes its name,
    so strips pair with ``heat.npz`` allocations by position.
    """
    strips = []
    for chunk in text.split('aria-label="temporal heatmap of ')[1:]:
        label, _, body = chunk.partition('">')
        strips.append((html.unescape(label), body[:body.index("</svg>")]))
    return strips


@pytest.mark.parametrize("bundle", ["lulesh_report", "sw_report"])
class TestStripsDropNoNumber:
    """Run-merged strips and row summaries against ``heat.npz``/``heat.csv``."""

    def test_runs_expand_to_every_heated_cell(self, bundle, request):
        paths, _ = request.getfixturevalue(bundle)
        strips = _strips(paths["report"].read_text())
        ramp = len(report_html._SEQ_RAMP)
        with np.load(paths["heat_npz"]) as npz:
            labels = [str(x) for x in npz["labels"]]
            assert [label for label, _ in strips] == labels
            for i, (label, svg) in enumerate(strips):
                epochs = npz[f"a{i}_epochs"].tolist()
                heat = npz[f"a{i}_counts"].sum(axis=1)
                peak = heat.max()
                want = sorted(
                    (epochs[e], b, int(np.clip(np.ceil(np.sqrt(
                        heat[e, b] / peak) * (ramp - 1)) + 1, 1, ramp)))
                    for e, b in zip(*np.nonzero(heat)))
                got = []
                rows = list(_ROW.finditer(svg))
                assert len(rows) == len(epochs)
                for row in rows:
                    for x, y, w, lev in _RUN.findall(row[11]):
                        epoch = epochs[int(y) // _STEP_Y]
                        assert epoch == int(row[1])
                        first = (int(x) - report_html._GUTTER) // _STEP_X
                        n = (int(w) + report_html._GAP) // _STEP_X
                        got.extend((epoch, b, int(lev))
                                   for b in range(first, first + n))
                assert sorted(got) == want, label

    def test_row_summaries_match_hottest_csv_rows(self, bundle, request):
        paths, _ = request.getfixturevalue(bundle)
        csv_rows = iter(paths["heat_csv"].read_text().splitlines()[1:])
        with np.load(paths["heat_npz"]) as npz:
            heated = [int(npz[f"a{i}_counts"].any(axis=1).sum())
                      for i in range(len(npz["labels"]))]
        for (label, svg), n in zip(_strips(paths["report"].read_text()),
                                   heated, strict=True):
            # This allocation's CSV rows, grouped by epoch.
            by_epoch: dict[int, list] = {}
            for _ in range(n):
                name, epoch, b, lo, hi, *counts, site = \
                    next(csv_rows).split(",")
                assert name == label
                by_epoch.setdefault(int(epoch), []).append(
                    (int(b), int(lo), int(hi), [int(c) for c in counts],
                     site))
            rows = list(_ROW.finditer(svg))
            assert [int(row[1]) for row in rows] == list(by_epoch)
            for row in rows:
                cells = by_epoch[int(row[1])]
                assert int(row[2]) == len(cells)
                hottest = min(cells, key=lambda c: (-sum(c[3]), c[0]))
                summary = (int(row[3]), int(row[4]), int(row[5]),
                           [int(c) for c in row.groups()[5:9]],
                           html.unescape(row[10] or ""))
                assert summary == hottest, (label, row[1])
        assert next(csv_rows, None) is None
