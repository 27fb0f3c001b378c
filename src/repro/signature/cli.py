"""``repro-sig``: compute, compare and match access-pattern signatures.

Three subcommands, all byte-deterministic::

    repro-sig compute --workload pathfinder --platform pcie --out /tmp/sig
    repro-sig compute --npz /tmp/report/heat.npz --out /tmp/sig2
    repro-sig compare /tmp/sig /tmp/sig2
    repro-sig match /tmp/sig --index /tmp/sigdb --add pf-run-1

``compute`` replays a workload with heat recording (or rebuilds from a
``heat.npz`` artifact -- including one merged from stream shards) and
writes ``signature.json``: per-allocation access-pattern vectors plus
the detected phases.  ``compare`` scores two signatures; ``match`` does
nearest-neighbor lookup against an on-disk :class:`SignatureIndex` --
the cache key the auto-placement service replays plans from.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .index import DEFAULT_MATCH_THRESHOLD, SignatureIndex
from .phases import DEFAULT_THRESHOLD
from .vector import RunSignature, run_similarity, signature_from_npz

__all__ = ["main", "compute_signature"]


def compute_signature(workload: str, platform: str, *, buckets: int = 64,
                      phase_threshold: float = DEFAULT_THRESHOLD
                      ) -> RunSignature:
    """Replay ``workload`` with heat recording and sign the run."""
    from ..analysis import diagnose
    from ..heatmap.store import HeatStore
    from ..workloads.base import make_session
    from ..workloads.registry import resolve_platform, resolve_workload
    from .vector import signature_from_store

    preset = resolve_platform(platform)
    runner = resolve_workload(workload)
    session = make_session(preset, trace=True, materialize=True)
    heat = HeatStore(nbuckets=buckets, attribute=False)
    session.tracer.heat = heat
    runner(session, per_iteration=True)
    diagnose(session.tracer, include_unnamed=True)
    heat.flush_current()
    return signature_from_store(heat, workload=workload, platform=preset,
                                phase_threshold=phase_threshold)


def _load_signature(path: str | Path) -> RunSignature:
    """Load a signature from a file or a directory holding one."""
    p = Path(path)
    if p.is_dir():
        p = p / "signature.json"
    return RunSignature.load(p)


def _render_signature(sig: RunSignature) -> str:
    lines = [f"signature: {sig.workload or '<unnamed>'}"
             + (f" on {sig.platform}" if sig.platform else ""),
             f"  feature version {sig.feature_version}, "
             f"{len(sig.allocs)} allocation(s), "
             f"{len(sig.epoch_vectors)} epoch(s), "
             f"{sig.total} word-accesses"]
    lines.append(f"  phases: {len(sig.phases)}")
    for p in sig.phases:
        span = (f"epoch {p['start_epoch']}" if p["epochs"] == 1 else
                f"epochs {p['start_epoch']}-{p['end_epoch']}")
        extra = f", dist {p['distance']}" if p["distance"] else ""
        lines.append(f"    phase {p['phase']}: {span} "
                     f"({p['epochs']} epoch(s)), total {p['total']}{extra}")
    lines.append("  allocations:")
    for key, a in sorted(sig.allocs.items()):
        lines.append(f"    {key}: {a.total} word-accesses over "
                     f"{len(a.epochs)} epoch(s), {a.nwords} words")
    return "\n".join(lines)


def _render_similarity(sim: dict) -> str:
    lines = [f"similarity {sim['similarity']}: "
             f"{sim['a']} vs {sim['b']} "
             f"(phases {sim['phases_a']} vs {sim['phases_b']})"]
    for row in sim["by_alloc"]:
        mark = "" if row["in_a"] and row["in_b"] else \
            "  [only in a]" if row["in_a"] else "  [only in b]"
        lines.append(f"  {row['alloc']}: {row['similarity']}"
                     f" (weight {row['weight']}){mark}")
    return "\n".join(lines)


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.npz:
        sig = signature_from_npz(args.npz, workload=args.workload or "",
                                 platform=args.platform or "",
                                 phase_threshold=args.phase_threshold)
    else:
        if not args.workload:
            print("compute needs --workload or --npz", file=sys.stderr)
            return 2
        from ..workloads.registry import UnknownNameError

        try:
            sig = compute_signature(args.workload, args.platform or "pcie",
                                    buckets=args.buckets,
                                    phase_threshold=args.phase_threshold)
        except UnknownNameError as exc:
            print(exc, file=sys.stderr)
            return 2
    out = Path(args.out)
    path = sig.save(out / "signature.json" if not out.suffix else out)
    if args.json:
        print(sig.to_json(), end="")
    else:
        print(_render_signature(sig))
        print(f"  written: {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    a = _load_signature(args.a)
    b = _load_signature(args.b)
    sim = run_similarity(a, b)
    if args.json:
        print(json.dumps(sim, indent=1, sort_keys=True))
    else:
        print(_render_similarity(sim))
    if args.fail_below is not None and sim["similarity"] < args.fail_below:
        print(f"similarity {sim['similarity']} below "
              f"{args.fail_below}", file=sys.stderr)
        return 3
    if args.fail_above is not None and sim["similarity"] > args.fail_above:
        print(f"similarity {sim['similarity']} above "
              f"{args.fail_above}", file=sys.stderr)
        return 3
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    sig = _load_signature(args.query)
    index = SignatureIndex(args.index)
    report = index.match(sig, threshold=args.threshold, k=args.k)
    if args.add:
        index.add(args.add, sig)
        report["added"] = args.add
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"query {report['query']}: {report['entries']} indexed "
              f"signature(s), threshold {report['threshold']}")
        for n in report["neighbors"]:
            flag = "MATCH" if n["match"] else "     "
            print(f"  {flag} {n['similarity']:8.6f}  {n['name']}"
                  f" ({n['workload']})")
        if report["best"]:
            print(f"best: {report['best']['name']} "
                  f"({report['best']['similarity']})")
        else:
            print("best: no match above threshold")
        if args.add:
            print(f"added: {args.add}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-sig`` / ``python -m repro.signature``."""
    parser = argparse.ArgumentParser(
        prog="repro-sig",
        description="Access-pattern signatures: compute fingerprints, "
                    "compare runs, match against a signature index.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compute", help="sign a workload run (or an NPZ "
                                       "heat artifact)")
    p.add_argument("--workload", help="workload to replay")
    p.add_argument("--platform", default="pcie",
                   help="platform preset or alias (default: pcie)")
    p.add_argument("--npz", metavar="FILE",
                   help="rebuild the signature from a heat.npz artifact "
                        "instead of replaying (works on merged shard "
                        "bundles too)")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output directory (or .json path) for "
                        "signature.json")
    p.add_argument("--buckets", type=int, default=64,
                   help="word buckets per allocation (default: 64)")
    p.add_argument("--phase-threshold", type=float,
                   default=DEFAULT_THRESHOLD,
                   help=f"phase change-point cosine distance "
                        f"(default: {DEFAULT_THRESHOLD})")
    p.add_argument("--json", action="store_true",
                   help="print the signature document instead of the "
                        "summary")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("compare", help="similarity between two signatures")
    p.add_argument("a", help="signature.json (or directory holding one)")
    p.add_argument("b", help="signature.json (or directory holding one)")
    p.add_argument("--json", action="store_true", help="JSON report")
    p.add_argument("--fail-below", type=float, default=None, metavar="T",
                   help="exit 3 when similarity < T (CI guard)")
    p.add_argument("--fail-above", type=float, default=None, metavar="T",
                   help="exit 3 when similarity > T (distinctness guard)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("match", help="nearest neighbors in a signature "
                                     "index")
    p.add_argument("query", help="signature.json (or directory holding one)")
    p.add_argument("--index", required=True, metavar="DIR",
                   help="signature index directory (created on --add)")
    p.add_argument("--threshold", type=float,
                   default=DEFAULT_MATCH_THRESHOLD,
                   help=f"match threshold "
                        f"(default: {DEFAULT_MATCH_THRESHOLD})")
    p.add_argument("--k", type=int, default=5,
                   help="neighbors to report (default: 5)")
    p.add_argument("--add", metavar="NAME",
                   help="also store the query under NAME")
    p.add_argument("--json", action="store_true", help="JSON report")
    p.set_defaults(func=_cmd_match)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
