"""Array-at-a-time heat writers byte-match the per-cell reference loops.

``HeatStore.to_csv`` computes each bucket's top site once per epoch,
and the report's SVG heat strips find their runs of equal level for all
epochs at once; both emit whole rows from numpy arrays.
Straightforward per-cell loops live on here, and only here, as the
oracle: a CSV row per heated bucket, and for the strips a level per
heated cell, merged afterwards into runs of equal level under one row
summary.  The writers must match them byte for byte on real runs, on a
stream-merged store, and on hand-built epochs that exercise the
attribution edge cases (ties, unsorted site dicts, ``<other>``
overflow, heat without a site, labels that need escaping).
"""

import io

import numpy as np
import pytest

from repro.analysis import diagnose
from repro.analysis.patterns import AntiPattern, Finding
from repro.heatmap import html
from repro.heatmap import store as store_mod
from repro.heatmap.store import (
    CHANNELS,
    OTHER_SITE,
    AllocationHeat,
    EpochHeat,
    HeatStore,
    SourceSite,
)
from repro.stream.merge import merge_shards
from repro.stream.shard import run_streaming, split_stream
from repro.workloads.base import make_session
from repro.workloads.registry import WORKLOADS, resolve_platform

# ---------------------------------------------------------------------- #
# oracle: the per-cell writers


def _oracle_csv(store: HeatStore) -> str:
    out = io.StringIO()
    out.write("allocation,epoch,bucket,word_lo,word_hi,"
              + ",".join(CHANNELS) + ",top_site\n")
    for heat in store.allocations():
        for e in heat.epochs:
            tops = {}
            for site, vec in e.sites.items():
                for b in np.flatnonzero(vec):
                    cur = tops.get(int(b))
                    if cur is None or vec[b] > cur[1] or \
                            (vec[b] == cur[1] and site < cur[0]):
                        tops[int(b)] = (site, int(vec[b]))
            for b in range(heat.nbuckets):
                if not e.counts[:, b].any():
                    continue
                lo, hi = heat.bucket_word_range(b)
                vals = ",".join(str(int(v)) for v in e.counts[:, b])
                site = tops.get(b)
                out.write(f"{heat.label},{e.epoch},{b},{lo},{hi},{vals},"
                          f"{site[0].label if site else ''}\n")
    return out.getvalue()


def _oracle_level(value: int, peak: int) -> int:
    if peak <= 0 or value <= 0:
        return 0
    lev = int(np.ceil(np.sqrt(value / peak) * (len(html._SEQ_RAMP) - 1)))
    return max(1, min(lev + 1, len(html._SEQ_RAMP)))


def _oracle_svg(heat: AllocationHeat, findings_index: dict) -> str:
    esc = html._esc
    cell_w, cell_h, gap, gutter = (html._CELL_W, html._CELL_H, html._GAP,
                                   html._GUTTER)
    mat = heat.matrix()
    peak = int(mat.max()) if mat.size else 0
    step_x, step_y = cell_w + gap, cell_h + gap
    width = gutter + heat.nbuckets * step_x
    height = len(heat.epochs) * step_y + 18
    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="temporal heatmap of {esc(heat.label)}">']
    for ei, e in enumerate(heat.epochs):
        y = ei * step_y
        parts.append(f'<text x="{gutter - 8}" y="{y + cell_h - 3}" '
                     f'text-anchor="end">e{e.epoch}</text>')
        hot = e.heat
        cells = [(b, _oracle_level(int(hot[b]), peak))
                 for b in range(heat.nbuckets) if hot[b] > 0]
        runs: list[list[int]] = []  # [first bucket, stop bucket, level]
        for b, lev in cells:
            if runs and runs[-1][1] == b and runs[-1][2] == lev:
                runs[-1][1] = b + 1
            else:
                runs.append([b, b + 1, lev])
        if cells:
            row_peak = max(hot[b] for b, _ in cells)
            hb = min(b for b, _ in cells if hot[b] == row_peak)
            lo, hi = heat.bucket_word_range(hb)
            tip = (f"epoch {e.epoch}: {len(cells)} of {heat.nbuckets} "
                   f"buckets heated; hottest bucket {hb}, words [{lo},{hi}): "
                   f"cpu r/w {int(e.counts[0, hb])}/{int(e.counts[1, hb])}, "
                   f"gpu r/w {int(e.counts[2, hb])}/{int(e.counts[3, hb])}")
            top = e.top_sites(1, hb, hb + 1)
            if top:
                tip += f" — top site {top[0][0].label}"
            parts.append(f"<g><title>{esc(tip)}</title>")
            parts.extend(
                f'<rect x="{gutter + b0 * step_x}" y="{y}" '
                f'width="{(b1 - b0) * step_x - gap}" height="{cell_h}" '
                f'rx="2" fill="var(--h{lev})"/>'
                for b0, b1, lev in runs)
            parts.append("</g>")
        for f in findings_index.get((heat.label, e.epoch), ()):
            color, icon, label = html.PATTERN_STYLE.get(
                f.pattern.name, ("#fab219", "●", f.pattern.name))
            spans = [(0, heat.nbuckets)]
            if f.ranges:
                spans = [(int(heat.bucket_of(lo)),
                          int(heat.bucket_of(max(lo, hi - 1))) + 1)
                         for lo, hi in f.ranges]
            for blo, bhi in spans:
                parts.append(
                    f'<rect x="{gutter + blo * step_x - 1}" y="{y - 1}" '
                    f'width="{(bhi - blo) * step_x - gap + 2}" '
                    f'height="{cell_h + 2}" rx="3" fill="none" '
                    f'stroke="{color}" stroke-width="2">'
                    f'<title>{esc(f"{icon} {label}: {f.detail}")}'
                    f'</title></rect>')
    axis_y = len(heat.epochs) * step_y + 12
    parts.append(f'<text x="{gutter}" y="{axis_y}">word 0</text>')
    parts.append(f'<text x="{width - 2}" y="{axis_y}" text-anchor="end">'
                 f'word {heat.nwords}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _assert_parity(store: HeatStore, diagnoses=()) -> None:
    assert store.to_csv() == _oracle_csv(store)
    index = html._findings_by_alloc_epoch(diagnoses)
    for heat in store.allocations():
        assert html._alloc_svg(heat, index) == _oracle_svg(heat, index), \
            heat.label


# ---------------------------------------------------------------------- #
# real runs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_catalogue_workload_writers_match_oracle(workload):
    session = make_session(resolve_platform("pcie"), trace=True,
                           materialize=False)
    store = session.tracer.heat = HeatStore()
    run = WORKLOADS[workload](session, per_iteration=True)
    diagnoses = [*run.diagnoses,
                 diagnose(session.tracer, include_unnamed=True)]
    store.flush_current()
    assert store.allocations(), "run recorded no heat"
    _assert_parity(store, diagnoses)


def test_stream_merged_store_writers_match_oracle(tmp_path):
    whole = tmp_path / "whole"
    run_streaming("pathfinder", "pcie", whole, log_capacity=32)
    shards = split_stream(whole, tmp_path / "shards", 3)
    store = merge_shards(shards).store
    assert store.allocations()
    _assert_parity(store)


# ---------------------------------------------------------------------- #
# hand-built epochs

_NASTY = SourceSite('<dir>/a&b"c".cu', 7, 'f<T>&"x"')


def _epoch(epoch, counts, sites):
    return EpochHeat(epoch=epoch, counts=np.array(counts, np.int64),
                     sites={s: np.array(v, np.int64) for s, v in sites})


@pytest.fixture
def hand_store(monkeypatch):
    monkeypatch.setattr(store_mod, "MAX_SITES", 2)
    store = HeatStore(nbuckets=4, attribute=False)
    heat = store.adopt(AllocationHeat.from_meta("h<&>", base=4096, serial=1,
                                                size=4 * 10, nbuckets=4))
    lo, hi = SourceSite("a.cu", 1), SourceSite("z.cu", 9)
    counts = [[3, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 5], [0, 0, 1, 0]]
    heat.epochs.extend([
        # tie in bucket 0 between two sites, dict in reverse-sorted order
        _epoch(0, counts, [(hi, [2, 0, 1, 0]), (lo, [2, 1, 0, 0])]),
        # bucket 3 has heat but no site; bucket 2 goes to the escaped label
        _epoch(1, counts, [(_NASTY, [0, 0, 3, 0]), (lo, [1, 0, 2, 0])]),
        # no sites at all
        _epoch(2, counts, []),
    ])
    # <other> overflow through the live accumulator
    over = store.adopt(AllocationHeat.from_meta("over", base=8192, serial=2,
                                                size=4 * 9, nbuckets=4))
    for i, (a, b) in enumerate(((0, 9), (2, 5), (3, 8), (6, 9))):
        over.add(i % 4, a, b, site=SourceSite("s.cu", 10 - i))
    over.add(2, 0, 0, idx=np.array([1, 4, 4, 8]),
             site=SourceSite("s.cu", 99))
    over.freeze(3)
    store.epochs_closed = [0, 1, 2, 3]
    return store


def test_hand_built_epochs_match_oracle(hand_store):
    heat = hand_store.allocations()[0]
    over = hand_store.allocations()[1]
    assert OTHER_SITE in over.epochs[0].sites
    finding = Finding(pattern=AntiPattern.UNNECESSARY_TRANSFER_IN,
                      name=heat.label, alloc=None, metric=1.0,
                      detail='<d & "q">', epoch=1, ranges=((1, 3), (7, 10)))
    _assert_parity(hand_store, [type("D", (), {"findings": [finding]})()])


def test_bucket_top_sites_edge_cases(hand_store):
    e0, e1, e2 = hand_store.allocations()[0].epochs
    sites, index, count = e0.bucket_top_sites()
    assert sites == sorted(sites)
    # bucket 0: tie 2/2 -> smallest site; bucket 3: heat, no site
    assert sites[index[0]] == SourceSite("a.cu", 1)
    assert index.tolist()[3] == -1 and count.tolist() == [2, 1, 1, 0]
    sites, index, _ = e1.bucket_top_sites()
    assert sites[index[2]] == _NASTY
    sites, index, count = e2.bucket_top_sites()
    assert sites == [] and index.tolist() == [-1] * 4
    assert count.tolist() == [0] * 4


def test_escaped_labels_render_once_escaped(hand_store):
    heat = hand_store.allocations()[0]
    # Buckets 2 and 3 tie for hottest: the row summary names bucket 2,
    # whose top site needs escaping.
    heat.epochs.append(_epoch(3, [[0, 0, 4, 0], [0, 0, 0, 4], [0] * 4,
                                  [0] * 4], [(_NASTY, [0, 0, 4, 0])]))
    out = html._alloc_svg(heat, {})
    assert ("<g><title>epoch 3: 2 of 4 buckets heated; hottest bucket 2, "
            "words [5,7): cpu r/w 4/0, gpu r/w 0/0 — top site "
            "&lt;dir&gt;/a&amp;b&quot;c&quot;.cu:7") in out
    assert _NASTY.label not in out
