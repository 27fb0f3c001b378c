"""Compare a parent commit and a change from paired ``results.json`` files.

::

    python bench/compare.py PARENT1 CHANGE1 PARENT2 CHANGE2 ... \\
        [--claim WORKLOAD:METRIC ...]

Give at least ten parent/change pairs, run alternately (parent first,
then change first, ...) with identical benchmark code and settings.
Every (workload, end-to-end metric) pair gets one verdict:

* ``improved``   -- a claimed metric met the gain rule: the change is
  better in at least 9/10 of the pairs (ties count for neither) and the
  medians differ by more than the parent's interquartile range;
* ``unresolved`` -- the run-to-run spread (interquartile range over
  median, either side) is wider than the metric's bound in
  ``BENCHMARK.json``, and the change's runs do not all read better than
  all of the parent's;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``  -- otherwise.

``error_rate`` is compared with a bound of zero: any extra failure is a
regression.  Pairs whose host calibration differs by more than 10% are
flagged.  One row is printed per workload; the exit code is 1 when any
metric regressed or a claim was not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CALIB_DRIFT = 0.10
GAIN_SHARE = 0.9


def _iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float, claimed: bool = False) -> str:
    """The verdict for one metric on one workload (paired samples)."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(p: float, c: float) -> float:  # > 0: change is better
        return sign * (p - c)

    mp, mc = statistics.median(parent), statistics.median(change)
    if claimed:
        wins = sum(gain(p, c) > 0 for p, c in zip(parent, change))
        if wins >= GAIN_SHARE * len(parent) and gain(mp, mc) > _iqr(parent):
            return "improved"
    spread = max(_iqr(parent) / abs(mp) if mp else 0.0,
                 _iqr(change) / abs(mc) if mc else 0.0)
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    worse = -gain(mp, mc) / abs(mp) if mp else -gain(mp, mc)
    return "regressed" if worse > bound else "unchanged"


def compare(pairs: list[tuple[dict, dict]], spec: dict,
            claims: set[tuple[str, str]] = frozenset()) -> dict:
    """``{workload: {"metrics": {metric: {...}}, "flagged": n}}``."""
    out: dict = {}
    for workload in pairs[0][0]["workloads"]:
        sides = [(p["workloads"][workload], c["workloads"][workload])
                 for p, c in pairs]
        row: dict = {"metrics": {}, "flagged": sum(
            abs(statistics.median(c["calib_s"])
                / statistics.median(p["calib_s"]) - 1) > CALIB_DRIFT
            for p, c in sides)}
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [p["metrics"][name] for p, _ in sides]
            change = [c["metrics"][name] for _, c in sides]
            claimed = (workload, name) in claims
            row["metrics"][name] = {
                "verdict": verdict(parent, change, better=m["better"],
                                   bound=m["bound"], claimed=claimed),
                "claimed": claimed,
                "parent": statistics.median(parent),
                "change": statistics.median(change),
            }
        failed = [sum(s["failed"] for s in side) for side in zip(*sides)]
        row["metrics"]["error_rate"] = {
            "verdict": "regressed" if failed[1] > failed[0] else "unchanged",
            "claimed": False, "parent": failed[0], "change": failed[1]}
        out[workload] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", metavar="RESULTS_JSON",
                        help="parent, change, parent, change, ... results")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="a metric the change claims to improve")
    args = parser.parse_args(argv)
    if len(args.results) % 2 or len(args.results) < 20:
        parser.error("need at least ten parent/change pairs")
    docs = [json.loads(Path(p).read_text()) for p in args.results]
    pairs = list(zip(docs[0::2], docs[1::2]))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    claims = set()
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in docs[0]["workloads"] or metric not in metrics:
            parser.error(f"--claim {claim!r}: no such workload:metric")
        claims.add((workload, metric))
    rows = compare(pairs, spec, claims)

    bad = False
    for workload, row in rows.items():
        cells = []
        for name, cell in row["metrics"].items():
            if cell["verdict"] == "regressed" or (
                    cell["claimed"] and cell["verdict"] != "improved"):
                bad = True
            delta = (cell["change"] / cell["parent"] - 1) * 100 \
                if cell["parent"] else 0.0
            claim = "*" if cell["claimed"] else ""
            cells.append(f"{name}{claim} {cell['verdict']} ({delta:+.1f}%)")
        flag = f" [{row['flagged']} pair(s) calibration-flagged]" \
            if row["flagged"] else ""
        print(f"{workload:10s} " + " | ".join(cells) + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
