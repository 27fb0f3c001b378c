"""HTML report: self-containment, heat cells, overlays, escaping."""

import re

import pytest

from repro.analysis.patterns import AntiPattern, Finding
from repro.heatmap.html import build_report
from repro.heatmap.store import HeatStore, SourceSite
from repro.memsim import AddressSpace, MemoryKind, Processor


class _FakeDiagnosis:
    def __init__(self, findings):
        self.findings = findings


@pytest.fixture
def store():
    space = AddressSpace()
    alloc = space.allocate(64 * 4, MemoryKind.MANAGED, label="grid")
    s = HeatStore(nbuckets=8, attribute=False)
    s.record(alloc, Processor.GPU, is_write=True, lo=0, hi=32,
             site=SourceSite("k.cu", 5))
    s.record(alloc, Processor.CPU, is_write=False, lo=0, hi=8)
    s.advance_epoch(0)
    return s


def _finding(store, pattern=AntiPattern.ALTERNATING_ACCESS):
    alloc = store.allocations()[0]
    return Finding(pattern=pattern, name=alloc.label, alloc=None,
                   metric=1.0, detail="<detail & marks>",
                   remedies=("use cudaMemAdvise",), epoch=0,
                   ranges=((0, 16),))


class TestBuildReport:
    def test_self_contained_no_external_resources(self, store):
        html = build_report(workload="w", platform="p", store=store)
        # The Perfetto link is the one allowed external *href*; no
        # scripts, images or stylesheets may be fetched.
        stripped = html.replace("https://ui.perfetto.dev", "")
        assert "http" not in stripped
        assert "<script" not in html
        assert "<img" not in html

    def test_heat_cells_and_tooltips(self, store):
        html = build_report(workload="w", platform="p", store=store)
        cells = re.findall(r'fill="var\(--h(\d+)\)"', html)
        assert cells, "no heat cells rendered"
        assert all(1 <= int(c) <= 13 for c in cells)
        assert "<title>" in html  # native tooltips
        assert "cpu r/w" in html

    def test_anti_pattern_overlay_and_groups(self, store):
        html = build_report(workload="w", platform="p", store=store,
                            diagnoses=[_FakeDiagnosis([_finding(store)])])
        # Overlay rect outlines the finding's region in the status color.
        assert 'stroke="#d03b3b"' in html
        # All three pattern groups are always listed (with counts).
        assert "alternating access" in html
        assert "low access density" in html
        assert "unnecessary transfers" in html
        assert "no findings" in html  # the two empty groups say so

    def test_ranged_overlay_uses_heat_bucket_boundaries(self):
        # 3 words in 2 buckets: fair division puts word 0 in bucket 0 and
        # words 1-2 in bucket 1, so a finding on word 1 must outline the
        # bucket-1 heat cell (word*nbuckets//nwords would say bucket 0).
        space = AddressSpace()
        alloc = space.allocate(3 * 4, MemoryKind.MANAGED, label="odd")
        s = HeatStore(nbuckets=2, attribute=False)
        s.record(alloc, Processor.GPU, is_write=True, lo=1, hi=2)
        s.advance_epoch(0)
        heat = s.allocations()[0]
        assert heat.bucket_word_range(1) == (1, 3)
        finding = Finding(pattern=AntiPattern.UNNECESSARY_TRANSFER_IN,
                          name="odd", alloc=None, metric=1.0, detail="d",
                          epoch=0, ranges=((1, 2),))
        html = build_report(workload="w", platform="p", store=s,
                            diagnoses=[_FakeDiagnosis([finding])])
        cells = re.findall(r'<rect x="(\d+)" y="0" width="10"', html)
        overlays = re.findall(r'<rect x="(\d+)" y="-1" width="(\d+)"', html)
        assert len(cells) == 1 and len(overlays) == 1
        assert int(overlays[0][0]) == int(cells[0]) - 1
        assert overlays[0][1] == "12"  # exactly one cell wide

    def test_finding_detail_is_escaped(self, store):
        html = build_report(workload="w", platform="p", store=store,
                            diagnoses=[_FakeDiagnosis([_finding(store)])])
        assert "<detail & marks>" not in html
        assert "&lt;detail &amp; marks&gt;" in html

    def test_attribution_and_metrics_render(self, store):
        metrics = {"xplacer_kernel_launches_total": {"": 3.0},
                   "xplacer_sim_time_seconds": {'{session="1"}': 0.5}}
        html = build_report(workload="w", platform="p", store=store,
                            metrics=metrics)
        assert "top sites:" in html
        assert "k.cu:5" in html
        assert "kernel launches" in html
        assert "xplacer_kernel_launches_total" in html

    def test_dark_mode_reverses_the_ramp(self, store):
        html = build_report(workload="w", platform="p", store=store)
        assert "prefers-color-scheme: dark" in html
        light = re.search(r"--h1: (#\w+);", html).group(1)
        # In the dark block the same variable takes the ramp's other end.
        dark_block = html.split("prefers-color-scheme: dark", 1)[1]
        dark = re.search(r"--h1: (#\w+);", dark_block).group(1)
        assert light != dark

    def test_empty_store_reports_gracefully(self):
        html = build_report(workload="w", platform="p",
                            store=HeatStore(attribute=False))
        assert "no heat recorded" in html


class TestBanners:
    def test_no_banner_by_default(self, store):
        html = build_report(workload="w", platform="p", store=store)
        assert 'class="banner' not in html

    def test_dropped_events_warning_banner(self, store):
        html = build_report(workload="w", platform="p", store=store,
                            stream={"events_dropped": 12})
        assert '<div class="banner warn">' in html
        assert "12 driver event(s) dropped" in html
        assert "repro-agg run" in html  # remediation points at streaming

    def test_streamed_run_banner_with_merge_warnings(self, store):
        html = build_report(workload="w", platform="p", store=store,
                            stream={"merged_from": ["a", "b", "c"],
                                    "events_spilled": 400,
                                    "warnings": ["skipping truncated <seg>"]})
        assert "merged from 3 shard(s)" in html
        assert "400 event(s) spilled to disk" in html
        assert "skipping truncated &lt;seg&gt;" in html  # escaped

    def test_sampling_banner(self, store):
        html = build_report(workload="w", platform="p", store=store,
                            sampling={"sample": 8, "effective_rate": 0.125,
                                      "estimated_fidelity": 0.85})
        assert "sampled tracing: 1-in-8 words" in html
        assert "effective rate 0.125" in html
        assert "estimated fidelity 0.85" in html
