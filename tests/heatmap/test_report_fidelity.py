"""Report fidelity satellites: sampling provenance + artifact size bounds."""

import json

import numpy as np
import pytest

from repro.heatmap.cli import run_report


@pytest.fixture(scope="module")
def lulesh_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("lulesh-report")
    return run_report("lulesh", "pcie", out, why=True), out


class TestArtifactSizes:
    """Size regression guard for the bundled LULESH report.

    Bounds are ~1.5x the current artifact sizes: a change that bloats the
    inline SVG/CSS or switches the NPZ off compression trips them.
    """

    def test_report_html_stays_bundled_but_bounded(self, lulesh_report):
        paths, _ = lulesh_report
        size = paths["report"].stat().st_size
        assert size < 5_000_000, f"report.html grew to {size} bytes"
        assert size > 100_000  # still genuinely self-contained

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
