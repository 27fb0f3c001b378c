"""The causal graph: blame attribution and critical path over driver events.

A :class:`CausalGraph` is built from ``events.jsonl`` records (schema
v2+), parsed from a stream or encoded from a live event log with
:func:`~repro.telemetry.events_jsonl.encode_driver_event`.  It answers
the "why" questions XPlacer's diagnostics stop short of:

* **blame rollups** -- simulated cost / bytes / pages attributed to the
  source site, allocation, kernel and anti-pattern *category* that caused
  each event;
* **critical path** -- the longest-cost chain of causally linked events
  (CPU write -> invalidation -> GPU fault -> migration -> ...), the
  driver-side story of where the run's memory time went;
* a deterministic :meth:`report` dict rendered by
  :mod:`repro.causes.render` and compared by :mod:`repro.causes.diff`.

Category classification mirrors the paper's Section V anti-patterns:
alternating accesses surface as ``ping_pong`` (a fault whose parent is a
migration or invalidation triggered from the other processor), capacity
problems as ``capacity_pressure`` / ``oversubscription_refault``, wasted
explicit copies as ``explicit_transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = ["CausalGraph", "CEvent", "REPORT_VERSION"]

#: Version stamp of :meth:`CausalGraph.report` dicts (bumped with shape).
REPORT_VERSION = 1

_ROUND = 9  # cost rounding for stable, readable JSON

#: Event kinds whose bytes physically cross the link (or leave the node):
#: the "transfer bytes" an advise experiment is trying to shrink.  Remote
#: accesses are *not* moves -- their payload stays put and is charged to
#: the plain ``bytes`` column only.
_MOVE_KINDS = frozenset({"migration", "transfer", "duplication", "eviction"})


@dataclass(frozen=True)
class CEvent:
    """One normalized driver event inside the graph."""

    id: int
    kind: str
    time: float
    proc: str
    pages: int
    nbytes: int
    cost: float
    detail: str
    site: str = ""
    kernel: str = ""
    api: str = ""
    alloc: str = ""
    parent: int = -1


def _totals() -> dict[str, float]:
    return {"events": 0, "pages": 0, "bytes": 0, "moved": 0, "cost": 0.0}


def _bump(bucket: dict[str, float], ev: CEvent) -> None:
    bucket["events"] += 1
    bucket["pages"] += ev.pages
    bucket["bytes"] += ev.nbytes
    if ev.kind in _MOVE_KINDS:
        bucket["moved"] += ev.nbytes
    bucket["cost"] += ev.cost


def _rows(table: Mapping[str, dict[str, float]], key_name: str,
          extra: Mapping[str, Mapping[str, Any]] | None = None) -> list[dict]:
    """Deterministic list form: by cost descending, then key ascending."""
    rows = []
    for key in sorted(table, key=lambda k: (-table[k]["cost"], k)):
        t = table[key]
        row = {key_name: key, "events": int(t["events"]),
               "pages": int(t["pages"]), "bytes": int(t["bytes"]),
               "moved": int(t["moved"]), "cost": round(t["cost"], _ROUND)}
        if extra is not None:
            row.update(extra.get(key, {}))
        rows.append(row)
    return rows


class CausalGraph:
    """Blame attribution over causally linked driver events."""

    def __init__(self, events: Iterable[CEvent],
                 alloc_sites: Mapping[str, str] | None = None) -> None:
        self.events = list(events)
        self.alloc_sites = dict(alloc_sites or {})
        self._by_id = {ev.id: ev for ev in self.events}
        self._categories: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]) -> "CausalGraph":
        """Build from parsed ``events.jsonl`` records (schema v2+).

        Consumes ``driver_event`` records for the graph and ``alloc``
        records for the allocation-site table; everything else is ignored.
        """
        events = []
        alloc_sites: dict[str, str] = {}
        for rec in records:
            rtype = rec.get("type")
            if rtype == "alloc":
                label = rec.get("label", "")
                if label and rec.get("site"):
                    alloc_sites.setdefault(label, rec["site"])
            elif rtype == "driver_event":
                c = rec.get("cause") or {}
                events.append(CEvent(
                    id=int(rec.get("id", -1)), kind=rec["kind"],
                    time=float(rec.get("t", 0.0)), proc=rec.get("proc", ""),
                    pages=int(rec.get("pages", 0)),
                    nbytes=int(rec.get("bytes", 0)),
                    cost=float(rec.get("cost", 0.0)),
                    detail=rec.get("detail", ""),
                    site=c.get("site", ""), kernel=c.get("kernel", ""),
                    api=c.get("api", ""), alloc=c.get("alloc", ""),
                    parent=int(c.get("parent", -1)),
                ))
        return cls(events, alloc_sites)

    # ------------------------------------------------------------------ #
    # classification

    def category(self, ev: CEvent) -> str:
        """Anti-pattern category of one event (memoized)."""
        got = self._categories.get(ev.id)
        if got is None:
            got = self._classify(ev)
            self._categories[ev.id] = got
        return got

    def _classify(self, ev: CEvent) -> str:
        parent = self._by_id.get(ev.parent) if ev.parent >= 0 else None
        if ev.kind == "eviction":
            return "capacity_pressure"
        if ev.kind == "invalidation":
            return "read_mostly_write"
        if ev.kind == "transfer":
            return "explicit_transfer"
        if ev.kind == "duplication":
            return "read_duplication"
        if ev.kind == "remote_access":
            return "remote_access"
        if ev.kind == "page_fault":
            if ev.detail.startswith("first-touch"):
                return "first_touch"
            if parent is not None:
                if parent.kind == "eviction":
                    # The page was here; capacity pressure pushed it out.
                    return "oversubscription_refault"
                if parent.kind in ("migration", "invalidation"):
                    # The other processor took (or killed) the page since
                    # we last had it: the alternating-access anti-pattern.
                    return "ping_pong"
            return "demand_migration"
        if ev.kind == "migration":
            if ev.detail.startswith("prefetch"):
                return "prefetch"
            if parent is not None:
                # Inherit the triggering fault's story.
                return self.category(parent)
            return "demand_migration"
        return "setup"  # populate / map bookkeeping

    # ------------------------------------------------------------------ #
    # rollups

    def blame(self) -> dict[str, Any]:
        """All blame tables at once (single pass over the events).

        Runs recorded with live phase tracking carry ``phase`` marker
        events; those scope an additional ``by_phase`` table (which
        detected access-pattern phase each event's cost landed in) and
        are excluded from every other table -- they are annotations, not
        driver work.  Runs without markers get no ``by_phase`` key, so
        pre-phase reports are byte-identical.
        """
        by_site: dict[str, dict[str, float]] = {}
        by_alloc: dict[str, dict[str, float]] = {}
        by_kernel: dict[str, dict[str, float]] = {}
        by_category: dict[str, dict[str, float]] = {}
        by_phase: dict[str, dict[str, float]] = {}
        phase, saw_marker = "phase-0", False
        total = _totals()
        for ev in self.events:
            if ev.kind == "phase":
                saw_marker = True
                if ev.detail.startswith("phase_begin"):
                    for tok in ev.detail.split():
                        if tok.startswith("phase="):
                            phase = f"phase-{tok[len('phase='):]}"
                            break
                continue
            _bump(total, ev)
            _bump(by_site.setdefault(ev.site or "<unattributed>", _totals()), ev)
            _bump(by_alloc.setdefault(ev.alloc or "<anonymous>", _totals()), ev)
            if ev.kernel:
                _bump(by_kernel.setdefault(ev.kernel, _totals()), ev)
            _bump(by_category.setdefault(self.category(ev), _totals()), ev)
            _bump(by_phase.setdefault(phase, _totals()), ev)
        alloc_extra = {
            label: {"alloc_site": self.alloc_sites.get(label, "")}
            for label in by_alloc
        }
        out = {
            "totals": {"events": int(total["events"]),
                       "pages": int(total["pages"]),
                       "bytes": int(total["bytes"]),
                       "moved": int(total["moved"]),
                       "cost": round(total["cost"], _ROUND)},
            "by_site": _rows(by_site, "site"),
            "by_alloc": _rows(by_alloc, "alloc", alloc_extra),
            "by_kernel": _rows(by_kernel, "kernel"),
            "by_category": _rows(by_category, "category"),
        }
        if saw_marker:
            out["by_phase"] = _rows(by_phase, "phase")
        return out

    # ------------------------------------------------------------------ #
    # chains / critical path

    def _node(self, ev: CEvent) -> dict[str, Any]:
        """One event as a renderable chain-node dict."""
        return {
            "id": ev.id, "kind": ev.kind,
            "t": round(ev.time, _ROUND),
            "pages": ev.pages, "bytes": ev.nbytes,
            "cost": round(ev.cost, _ROUND),
            "alloc": ev.alloc, "site": ev.site,
            "kernel": ev.kernel,
            "category": self.category(ev),
        }

    def chain(self, event_id: int) -> list[dict[str, Any]]:
        """The full cause chain ending at ``event_id``, root first.

        Empty when the id is unknown (e.g. the event was evicted from a
        ring-bounded log).  Rendered by
        :func:`repro.causes.render.render_chain` -- the same node shape
        the critical path uses, so ``repro-debug explain`` and
        ``repro-why`` chains format identically.
        """
        nodes = []
        cursor = self._by_id.get(event_id)
        while cursor is not None:
            nodes.append(self._node(cursor))
            cursor = self._by_id.get(cursor.parent) if cursor.parent >= 0 \
                else None
        nodes.reverse()
        return nodes

    def critical_path(self, max_nodes: int = 50) -> dict[str, Any]:
        """The longest-cost chain of causally linked events.

        Every event has at most one parent, so chains are simple paths;
        the chain cost of an event is its own cost plus its parent's chain
        cost, computed in one forward pass (ids are recording order, so a
        parent always precedes its children).
        """
        chain_cost: dict[int, float] = {}
        best_id, best_cost = -1, -1.0
        for ev in self.events:
            c = ev.cost + chain_cost.get(ev.parent, 0.0)
            chain_cost[ev.id] = c
            if c > best_cost:
                best_id, best_cost = ev.id, c
        nodes = self.chain(best_id)
        truncated = max(0, len(nodes) - max_nodes)
        if truncated:
            nodes = nodes[-max_nodes:]
        return {
            "cost": round(max(best_cost, 0.0), _ROUND),
            "length": len(nodes) + truncated,
            "truncated": truncated,
            "events": nodes,
        }

    # ------------------------------------------------------------------ #
    # report

    def report(self, *, workload: str = "", platform: str = "") -> dict[str, Any]:
        """The full deterministic causal report (blame + critical path)."""
        out: dict[str, Any] = {
            "type": "causes_report",
            "report_version": REPORT_VERSION,
            "workload": workload,
            "platform": platform,
        }
        out.update(self.blame())
        out["critical_path"] = self.critical_path()
        return out
