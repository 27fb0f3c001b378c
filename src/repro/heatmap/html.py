"""Self-contained single-file HTML run reports.

:func:`build_report` turns one traced run -- heat store, anti-pattern
diagnoses, metrics snapshot -- into a single HTML string with zero
external resources: inline CSS, inline SVG heat strips, native
``<title>`` tooltips and ``<details>`` table views.  One artifact answers
*what happened, where, when, and why is it slow*.

Rendering is deterministic by construction: no timestamps, no random
ids, every collection sorted or insertion-ordered by the (deterministic)
simulation -- a fixed run produces byte-identical HTML.

Visual system: heat is a *sequential* encoding, so cells use a single
blue ramp (light step = near zero, receding into the surface; the dark
theme re-steps the same hue for the dark surface).  Anti-pattern
overlays use the reserved status palette and always pair color with an
icon + label, never color alone.
"""

from __future__ import annotations

import html as _html
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .store import AllocationHeat, HeatStore

__all__ = ["build_report", "PATTERN_STYLE"]

#: Single-hue sequential ramp (blue 100..700), light-mode order.  The
#: dark theme reverses it so "near zero" still recedes into the surface.
_SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Anti-pattern category -> (status color, icon, short label).  Status
#: colors are the reserved palette -- fixed across themes, never reused
#: for data series -- and always ship with the icon + label.
PATTERN_STYLE: dict[str, tuple[str, str, str]] = {
    "ALTERNATING_ACCESS": ("#d03b3b", "▲", "alternating access"),
    "LOW_ACCESS_DENSITY": ("#ec835a", "◆", "low access density"),
    "UNNECESSARY_TRANSFER_IN": ("#fab219", "●", "unnecessary transfer"),
    "TRANSFER_OVERWRITTEN": ("#fab219", "●", "unnecessary transfer"),
    "UNNECESSARY_TRANSFER_OUT": ("#fab219", "●", "unnecessary transfer"),
    "UNUSED_ALLOCATION": ("#fab219", "●", "unnecessary transfer"),
}

#: The paper's three anti-pattern groups, in report order.
_GROUPS = (
    ("alternating access", "▲", "#d03b3b",
     ("ALTERNATING_ACCESS",)),
    ("low access density", "◆", "#ec835a",
     ("LOW_ACCESS_DENSITY",)),
    ("unnecessary transfers", "●", "#fab219",
     ("UNNECESSARY_TRANSFER_IN", "TRANSFER_OVERWRITTEN",
      "UNNECESSARY_TRANSFER_OUT", "UNUSED_ALLOCATION")),
)

_CELL_W, _CELL_H, _GAP, _GUTTER = 10, 14, 2, 48

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px 32px 48px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b;
  --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
"""
_CSS_RAMP_LIGHT = "".join(
    f"  --h{i + 1}: {c};\n" for i, c in enumerate(_SEQ_RAMP))
_CSS_RAMP_DARK = "".join(
    f"  --h{i + 1}: {c};\n" for i, c in enumerate(reversed(_SEQ_RAMP)))
_CSS2 = """}
@media (prefers-color-scheme: dark) {
  body {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff;
    --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
""" + _CSS_RAMP_DARK + """  }
}
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
h3 { font-size: 14px; margin: 20px 0 6px; }
.sub { color: var(--ink-2); font-size: 13px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 20px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 24px; font-weight: 600; margin-top: 2px; }
figure { margin: 0 0 24px; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; padding: 14px 16px; }
figcaption { font-size: 13px; font-weight: 600; margin-bottom: 8px; }
figcaption small { color: var(--muted); font-weight: 400; }
.sites { font-size: 12px; color: var(--ink-2); margin-top: 8px; }
.sites code { font-family: ui-monospace, monospace; }
.legend { display: flex; align-items: center; gap: 6px;
  font-size: 11px; color: var(--muted); margin-top: 10px; }
.legend .swatch { width: 14px; height: 10px; border-radius: 2px; }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
th, td { padding: 3px 10px; text-align: right;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
td:first-child, th:first-child { text-align: left;
  font-family: ui-monospace, monospace; }
details summary { cursor: pointer; font-size: 12px; color: var(--ink-2); }
.finding { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 8px 14px; margin: 6px 0; font-size: 13px; }
.finding .icon { font-size: 11px; margin-right: 6px; }
.finding .detail { color: var(--ink-2); font-size: 12px; margin-top: 2px; }
.finding .remedy { color: var(--muted); font-size: 12px; margin-top: 2px; }
.banner { border: 1px solid var(--border); border-left: 4px solid var(--h8);
  border-radius: 6px; background: var(--surface); padding: 8px 14px;
  margin: 10px 0; font-size: 13px; }
.banner.warn { border-left-color: #d03b3b; }
.banner .why { color: var(--ink-2); font-size: 12px; margin-top: 2px; }
.none { color: var(--muted); font-size: 13px; }
a { color: var(--h8); }
footer { margin-top: 40px; font-size: 11px; color: var(--muted); }
svg text { fill: var(--muted); font-size: 10px;
  font-family: system-ui, sans-serif; }
"""


def _esc(text: Any) -> str:
    return _html.escape(str(text), quote=True)


def _fmt(v: float) -> str:
    """Compact human number (1,284 / 12.9K / 4.2M)."""
    v = float(v)
    if abs(v) >= 1e9:
        return f"{v / 1e9:.1f}B"
    if abs(v) >= 1e6:
        return f"{v / 1e6:.1f}M"
    if abs(v) >= 1e4:
        return f"{v / 1e3:.1f}K"
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:.4g}"


def _metric_total(metrics: Mapping[str, Mapping[str, float]] | None,
                  suffix: str) -> float | None:
    if not metrics:
        return None
    for name, series in metrics.items():
        if name.endswith(suffix):
            return sum(series.values())
    return None


def _findings_by_alloc_epoch(diagnoses: Sequence[Any]):
    """Index findings as ``(alloc name, epoch) -> [finding, ...]``."""
    index: dict[tuple[str, int], list] = {}
    for diag in diagnoses:
        for f in getattr(diag, "findings", ()):
            index.setdefault((f.name, f.epoch), []).append(f)
    return index


def _alloc_svg(heat: AllocationHeat, findings_index: dict) -> str:
    """One allocation's temporal heat strip as inline SVG."""
    epochs = heat.epochs
    # All epochs' heated cells at once: epoch i owns [bounds[i], bounds[i+1]).
    stacked = heat.epoch_counts()
    ei, buckets = np.nonzero(stacked.any(axis=1))
    bounds = np.searchsorted(ei, np.arange(len(epochs) + 1)).tolist()
    counts = stacked[ei, :, buckets]
    hot = counts.sum(axis=1)
    peak = int(hot.max()) if hot.size else 0
    # Ramp level 1..len(_SEQ_RAMP), sqrt scale (counts exact in f64).
    levels = np.clip(np.ceil(np.sqrt(hot / peak) * (len(_SEQ_RAMP) - 1)) + 1,
                     1, len(_SEQ_RAMP)).astype(np.int64).tolist()
    buckets, counts = buckets.tolist(), counts.tolist()
    step_x, step_y = _CELL_W + _GAP, _CELL_H + _GAP
    width = _GUTTER + heat.nbuckets * step_x
    height = len(epochs) * step_y + 18
    words = [f", words [{lo},{hi}): cpu r/w "
             for lo, hi in zip(heat._starts.tolist(), heat._ends.tolist())]
    site_tips = {s: f" — top site {_esc(s.label)}"
                 for s in {s for e in epochs for s in e.sites}}
    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="temporal heatmap of {_esc(heat.label)}">']
    for ei, e in enumerate(epochs):
        y = ei * step_y
        parts.append(f'<text x="{_GUTTER - 8}" y="{y + _CELL_H - 3}" '
                     f'text-anchor="end">e{e.epoch}</text>')
        sites, top, _ = e.bucket_top_sites()
        tops = top.tolist()
        tips = [site_tips[s] for s in sites] + [""]  # [-1]: no site
        lo, hi = bounds[ei], bounds[ei + 1]
        parts.extend(
            f'<rect x="{_GUTTER + b * step_x}" y="{y}" width="{_CELL_W}" '
            f'height="{_CELL_H}" rx="2" fill="var(--h{lev})">'
            f"<title>epoch {e.epoch}{words[b]}{c0}/{c1}, "
            f"gpu r/w {c2}/{c3}{tips[tops[b]]}</title></rect>"
            for b, lev, (c0, c1, c2, c3) in zip(
                buckets[lo:hi], levels[lo:hi], counts[lo:hi]))
        # Anti-pattern overlays: status-colored outline over the epoch
        # row region the finding fired on (icon + label ride the list
        # below -- never color alone).
        for f in findings_index.get((heat.label, e.epoch), ()):
            color, icon, label = PATTERN_STYLE.get(
                f.pattern.name, ("#fab219", "●", f.pattern.name))
            spans = [(0, heat.nbuckets)]
            if f.ranges:
                spans = [(int(heat.bucket_of(lo)),
                          int(heat.bucket_of(max(lo, hi - 1))) + 1)
                         for lo, hi in f.ranges]
            for blo, bhi in spans:
                x = _GUTTER + blo * step_x - 1
                w = (bhi - blo) * step_x - _GAP + 2
                parts.append(
                    f'<rect x="{x}" y="{y - 1}" width="{w}" '
                    f'height="{_CELL_H + 2}" rx="3" fill="none" '
                    f'stroke="{color}" stroke-width="2">'
                    f'<title>{_esc(f"{icon} {label}: {f.detail}")}'
                    f'</title></rect>')
    axis_y = len(epochs) * step_y + 12
    parts.append(f'<text x="{_GUTTER}" y="{axis_y}">word 0</text>')
    parts.append(f'<text x="{width - 2}" y="{axis_y}" text-anchor="end">'
                 f'word {heat.nwords}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _alloc_table(heat: AllocationHeat) -> str:
    """Per-epoch channel totals -- the table view of the strip."""
    rows = ["<table><tr><th>epoch</th><th>cpu reads</th><th>cpu writes</th>"
            "<th>gpu reads</th><th>gpu writes</th><th>total</th></tr>"]
    for e, sums in zip(heat.epochs,
                       heat.epoch_counts().sum(axis=2).tolist()):
        rows.append(
            "<tr><td>e{}</td>{}<td>{}</td></tr>".format(
                e.epoch,
                "".join(f"<td>{s:,}</td>" for s in sums),
                f"{sum(sums):,}"))
    rows.append("</table>")
    return "".join(rows)


def _alloc_figure(heat: AllocationHeat, findings_index: dict) -> str:
    region = heat.hottest_region()
    sites_html = ""
    if region is not None:
        where = (f"epoch {region['epoch']}, words "
                 f"[{region['word_lo']},{region['word_hi']})")
        if region["sites"]:
            listed = ", ".join(
                f"<code>{_esc(s.label)}</code> ×{n:,}"
                for s, n in region["sites"])
            sites_html = (f'<div class="sites">hottest region ({_esc(where)})'
                          f' &mdash; top sites: {listed}</div>')
        else:
            sites_html = (f'<div class="sites">hottest region: '
                          f'{_esc(where)}</div>')
    legend = (
        '<div class="legend"><span>0</span>'
        + "".join(f'<span class="swatch" style="background:var(--h{i})">'
                  '</span>'
                  for i in range(1, len(_SEQ_RAMP) + 1, 3))
        + f"<span>peak {_fmt(region['peak'] if region else 0)}"
          " word-accesses / bucket (√ scale)</span></div>")
    # One join: chained + would copy the multi-megabyte strip each time.
    return "".join((
        "<figure>"
        f"<figcaption>{_esc(heat.label)} "
        f"<small>{heat.size:,} bytes &middot; {heat.nwords:,} words &middot; "
        f"{len(heat.epochs)} epoch(s)</small></figcaption>",
        _alloc_svg(heat, findings_index), sites_html, legend,
        "<details><summary>table view</summary>", _alloc_table(heat),
        "</details></figure>"))


def _findings_section(diagnoses: Sequence[Any]) -> str:
    all_findings = [f for d in diagnoses for f in getattr(d, "findings", ())]
    parts = ["<h2>Anti-pattern diagnoses</h2>"]
    for label, icon, color, patterns in _GROUPS:
        group = [f for f in all_findings if f.pattern.name in patterns]
        parts.append(f'<h3><span style="color:{color}">{icon}</span> '
                     f'{_esc(label)} <small>({len(group)})</small></h3>')
        if not group:
            parts.append('<div class="none">no findings</div>')
            continue
        for f in sorted(group, key=lambda f: (f.epoch, f.name,
                                              f.pattern.name)):
            remedy = (f'<div class="remedy">remedy: {_esc(f.remedies[0])}'
                      '</div>' if f.remedies else "")
            parts.append(
                f'<div class="finding">'
                f'<span class="icon" style="color:{color}">{icon}</span>'
                f'<strong>{_esc(f.name)}</strong> &middot; epoch {f.epoch}'
                f'<div class="detail">{_esc(f.detail)}</div>{remedy}</div>')
    return "".join(parts)


def _blame_table(rows: Sequence[Mapping[str, Any]], key: str,
                 limit: int = 10) -> str:
    from ..causes.render import format_bytes, format_cost

    out = [f"<table><tr><th>{_esc(key)}</th><th>events</th><th>pages</th>"
           "<th>bytes</th><th>moved</th><th>cost</th></tr>"]
    for r in rows[:limit]:
        out.append(
            f"<tr><td>{_esc(r[key])}</td><td>{r['events']:,}</td>"
            f"<td>{r['pages']:,}</td><td>{_esc(format_bytes(r['bytes']))}</td>"
            f"<td>{_esc(format_bytes(r.get('moved', 0)))}</td>"
            f"<td>{_esc(format_cost(r['cost']))}</td></tr>")
    out.append("</table>")
    return "".join(out)


def _causes_section(causes: Mapping[str, Any] | None) -> str:
    """Causal blame + critical path (from a ``repro.causes`` report)."""
    if not causes:
        return ""
    from ..causes.render import format_bytes, format_cost

    t = causes.get("totals", {})
    parts = [
        "<h2>Causal blame</h2>",
        f'<div class="sub">{t.get("events", 0):,} driver events &middot; '
        f'{_esc(format_bytes(t.get("moved", 0)))} moved across the link '
        f'&middot; {_esc(format_cost(t.get("cost", 0.0)))} attributed '
        "driver cost</div>",
    ]
    for title, key_name, rows_key in (
        ("by source site", "site", "by_site"),
        ("by allocation", "alloc", "by_alloc"),
        ("by anti-pattern category", "category", "by_category"),
        ("by kernel", "kernel", "by_kernel"),
        ("by phase", "phase", "by_phase"),
    ):
        rows = causes.get(rows_key, [])
        if not rows:
            continue
        parts.append(f"<h3>{_esc(title)}</h3>")
        parts.append(_blame_table(rows, key_name))
    cp = causes.get("critical_path", {})
    if cp.get("events"):
        parts.append(
            f"<h3>critical path</h3>"
            f'<div class="sub">{_esc(format_cost(cp.get("cost", 0.0)))} over '
            f'{cp.get("length", 0)} causally linked events</div>')
        parts.append(
            "<details><summary>path events</summary><table>"
            "<tr><th>event</th><th>kind</th><th>category</th><th>pages</th>"
            "<th>cost</th><th>alloc</th><th>site / kernel</th></tr>"
            + "".join(
                f"<tr><td>#{n['id']}</td><td>{_esc(n['kind'])}</td>"
                f"<td>{_esc(n['category'])}</td><td>{n['pages']:,}</td>"
                f"<td>{_esc(format_cost(n['cost']))}</td>"
                f"<td>{_esc(n['alloc'] or '-')}</td>"
                f"<td>{_esc(n['site'] or n['kernel'] or '-')}</td></tr>"
                for n in cp["events"])
            + "</table></details>")
    return "".join(parts)


def _metrics_section(metrics: Mapping[str, Mapping[str, float]] | None) -> str:
    if not metrics:
        return ""
    rows = ["<h2>Metrics</h2>",
            "<details><summary>full metrics table "
            f"({sum(len(s) for s in metrics.values())} series)</summary>",
            "<table><tr><th>series</th><th>value</th></tr>"]
    for name in sorted(metrics):
        for labels in sorted(metrics[name]):
            value = metrics[name][labels]
            rows.append(f"<tr><td>{_esc(name + labels)}</td>"
                        f"<td>{_fmt(value)}</td></tr>")
    rows.append("</table></details>")
    return "".join(rows)


def _tiles(store: HeatStore,
           metrics: Mapping[str, Mapping[str, float]] | None,
           stats: Mapping[str, Any] | None) -> str:
    tiles: list[tuple[str, str]] = []
    sim = (stats or {}).get("sim_time")
    if sim is None:
        sim = _metric_total(metrics, "sim_time_seconds")
    if sim is not None:
        tiles.append(("simulated time", f"{float(sim):.4g}s"))
    for label, suffix in (
        ("kernel launches", "kernel_launches_total"),
        ("fault groups", "page_fault_groups_total"),
        ("migrated pages", "migrated_pages_total"),
        ("memcpy bytes", "transfer_bytes_total"),
    ):
        v = _metric_total(metrics, suffix)
        if v is not None:
            tiles.append((label, _fmt(v)))
    tiles.append(("heat records", _fmt(store.records)))
    return ('<div class="tiles">'
            + "".join(f'<div class="tile"><div class="label">{_esc(l)}</div>'
                      f'<div class="value">{_esc(v)}</div></div>'
                      for l, v in tiles)
            + "</div>")


def _banners(stream: Mapping[str, Any] | None,
             sampling: Mapping[str, Any] | None,
             backend: Mapping[str, Any] | None = None) -> str:
    """Fidelity banners: data loss, spill/merge provenance, sampling,
    execution backend attribution."""
    parts: list[str] = []
    if backend:
        launches = backend.get("launches") or {}
        counts = ", ".join(f"{k} ×{launches[k]}" for k in sorted(launches))
        fallbacks = int(backend.get("fallbacks", 0))
        fb_html = ""
        if fallbacks:
            fb_html = (f'<div class="why">{fallbacks} backend tier '
                       "fallback(s): some launches ran on a slower tier "
                       "(unvectorizable control flow or unsupported "
                       "constructs); results are still exact.</div>")
        parts.append(
            '<div class="banner">execution backend '
            f'<strong>{_esc(str(backend.get("backend", "")))}</strong>'
            + (f" ({counts})" if counts else "") + "." + fb_html
            + "</div>")
    dropped = int((stream or {}).get("events_dropped", 0))
    if dropped:
        parts.append(
            '<div class="banner warn">&#9888; '
            f"<strong>{dropped:,} driver event(s) dropped</strong> from "
            "retention without a spill sink."
            '<div class="why">aggregate counters cover the full run, but '
            "the event stream and causal blame are missing those events; "
            "re-run with streaming spill (repro-agg run) or a larger "
            "event-log capacity.</div></div>")
    if stream:
        merged_from = stream.get("merged_from") or ()
        spilled = int(stream.get("events_spilled", 0))
        bits = []
        if merged_from:
            bits.append(f"merged from {len(merged_from)} shard(s)")
        if spilled:
            bits.append(f"{spilled:,} event(s) spilled to disk")
        if bits:
            warnings = stream.get("warnings") or ()
            warn_html = "".join(
                f'<div class="why">&#9888; {_esc(w)}</div>'
                for w in warnings)
            parts.append('<div class="banner">streamed run: '
                         + ", ".join(bits) + "." + warn_html + "</div>")
    if sampling:
        mode = str(sampling.get("mode", ""))
        label = ("adaptive (signature-guided) sampled tracing: steady-state "
                 "1-in-" if mode == "auto" else "sampled tracing: 1-in-")
        measured = sampling.get("measured_rate")
        measured_html = (f", measured rate {measured}"
                         if measured is not None else "")
        parts.append(
            f'<div class="banner">{label}'
            f'{int(sampling.get("sample", 1))} words '
            f'(effective rate {sampling.get("effective_rate")}'
            f'{measured_html}, '
            f'estimated fidelity {sampling.get("estimated_fidelity")}).'
            '<div class="why">heat counts and diagnostics are scaled '
            "estimates; dense runs are exact"
            + ("; phase transitions traced at full rate." if mode == "auto"
               else ".") + "</div></div>")
    return "".join(parts)


#: Phase lane fill ramp (alternating, from the sequential ramp).
_PHASE_FILLS = ("var(--h3)", "var(--h7)", "var(--h5)", "var(--h9)")


def _phases_section(phases: Sequence[Mapping[str, Any]] | None) -> str:
    """The phase lane: detected access-pattern phases over the epoch axis."""
    if not phases:
        return ""
    lo = min(int(p["start_epoch"]) for p in phases)
    hi = max(int(p["end_epoch"]) for p in phases)
    span = hi - lo + 1
    step_x = _CELL_W + _GAP
    width = _GUTTER + span * step_x
    lane_h = _CELL_H + 6
    parts = ["<h2>Access-pattern phases</h2>",
             f'<div class="sub">{len(phases)} phase(s) detected by online '
             "change-point segmentation of the per-epoch access-pattern "
             "vectors (cosine distance to the running phase centroid)</div>",
             "<figure><figcaption>phase lane "
             f"<small>epochs e{lo}&ndash;e{hi}</small></figcaption>",
             f'<svg width="{width}" height="{lane_h + 18}" '
             f'viewBox="0 0 {width} {lane_h + 18}" role="img" '
             'aria-label="detected phases over epochs">']
    for p in phases:
        x = _GUTTER + (int(p["start_epoch"]) - lo) * step_x
        w = (int(p["end_epoch"]) - int(p["start_epoch"]) + 1) * step_x - _GAP
        fill = _PHASE_FILLS[int(p["phase"]) % len(_PHASE_FILLS)]
        tip = (f"phase {p['phase']}: epochs "
               f"[{p['start_epoch']},{p['end_epoch']}], "
               f"{p['total']:,} word-accesses")
        if p.get("distance"):
            tip += f", entered at distance {p['distance']}"
        parts.append(
            f'<rect x="{x}" y="2" width="{max(w, _CELL_W)}" '
            f'height="{lane_h - 4}" rx="3" fill="{fill}">'
            f'<title>{_esc(tip)}</title></rect>')
        parts.append(
            f'<text x="{x + 3}" y="{lane_h - 7}">P{p["phase"]}</text>')
    axis_y = lane_h + 12
    parts.append(f'<text x="{_GUTTER}" y="{axis_y}">e{lo}</text>')
    parts.append(f'<text x="{width - 2}" y="{axis_y}" '
                 f'text-anchor="end">e{hi}</text>')
    parts.append("</svg>")
    parts.append("<table><tr><th>phase</th><th>epochs</th><th>count</th>"
                 "<th>word-accesses</th><th>entry distance</th></tr>")
    for p in phases:
        parts.append(
            f"<tr><td>P{p['phase']}</td>"
            f"<td>e{p['start_epoch']}&ndash;e{p['end_epoch']}</td>"
            f"<td>{p['epochs']:,}</td><td>{p['total']:,}</td>"
            f"<td>{p['distance'] if p.get('distance') else '&mdash;'}"
            "</td></tr>")
    parts.append("</table></figure>")
    return "".join(parts)


def build_report(
    *,
    workload: str,
    platform: str,
    store: HeatStore,
    diagnoses: Sequence[Any] = (),
    metrics: Mapping[str, Mapping[str, float]] | None = None,
    stats: Mapping[str, Any] | None = None,
    causes: Mapping[str, Any] | None = None,
    stream: Mapping[str, Any] | None = None,
    sampling: Mapping[str, Any] | None = None,
    backend: Mapping[str, Any] | None = None,
    phases: Sequence[Mapping[str, Any]] | None = None,
    artifacts: Iterable[str] = ("timeline.json", "events.jsonl",
                                "metrics.prom"),
) -> str:
    """Build the full self-contained HTML report (a single string).

    :param store: heat recorded for the run (epochs already frozen).
    :param diagnoses: the run's :class:`~repro.analysis.advisor.Diagnosis`
        passes; findings become overlays + the diagnoses section.
    :param metrics: :meth:`MetricsRegistry.snapshot` output.
    :param stats: the workload's numeric run stats (headline tiles).
    :param causes: a :meth:`repro.causes.CausalGraph.report` dict; adds
        the causal-blame section (runs captured with ``--why``).
    :param stream: streaming provenance: ``events_dropped`` raises the
        data-loss warning banner; ``merged_from`` / ``events_spilled`` /
        ``warnings`` describe a spill-and-merge run (``repro-agg``).
    :param sampling: :meth:`repro.runtime.Tracer.sampling_info` dict for
        sampled runs; adds the estimated-fidelity banner.
    :param backend: :meth:`repro.runtime.Tracer.backend_info` dict for
        compiled-backend runs; adds the backend-attribution banner (which
        backend executed each launch, and how many tier fallbacks).
    :param phases: detected access-pattern phases (``Phase.to_dict``
        rows, e.g. ``RunSignature.phases``); adds the phase-lane section.
    :param artifacts: sibling artifact file names to link.
    """
    findings_index = _findings_by_alloc_epoch(diagnoses)
    allocs = store.allocations()
    title = f"XPlacer run report — {workload} on {platform}"
    body = [f"<h1>{_esc(title)}</h1>",
            f'<div class="sub">{len(allocs)} traced allocation(s) &middot; '
            f'{len(store.epochs_closed)} epoch(s) &middot; '
            f'heat bucketed ×{store.nbuckets}</div>']
    body.append(_banners(stream, sampling, backend))
    body.append(_tiles(store, metrics, stats))
    body.append("<h2>Temporal heatmaps</h2>")
    if allocs:
        body.extend(_alloc_figure(h, findings_index) for h in allocs)
    else:
        body.append('<div class="none">no heat recorded '
                    '(was the heat store attached?)</div>')
    body.append(_phases_section(phases))
    body.append(_findings_section(diagnoses))
    body.append(_causes_section(causes))
    body.append(_metrics_section(metrics))
    links = " &middot; ".join(f"<code>{_esc(a)}</code>" for a in artifacts)
    body.append(
        "<h2>Timeline &amp; artifacts</h2>"
        '<div class="sub">open <a href="https://ui.perfetto.dev">'
        "ui.perfetto.dev</a> and load <code>timeline.json</code> from this "
        f"run directory for the interactive timeline. Artifacts: {links}."
        "</div>")
    body.append("<footer>generated by repro-report &middot; deterministic "
                "(fixed runs produce byte-identical reports)</footer>")
    return "".join(["<!DOCTYPE html>\n<html lang=\"en\"><head>"
                    '<meta charset="utf-8">'
                    '<meta name="viewport" content="width=device-width, '
                    'initial-scale=1">'
                    f"<title>{_esc(title)}</title>"
                    f"<style>{_CSS}{_CSS_RAMP_LIGHT}{_CSS2}</style>"
                    "</head><body>", *body, "</body></html>\n"])
