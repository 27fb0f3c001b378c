"""``repro-agg``: produce, split and merge streaming run shards.

Three subcommands cover the spill-and-merge lifecycle::

    # one streaming shard run (bounded memory, segments on disk)
    repro-agg run --workload pathfinder --platform pcie --out /tmp/s0

    # redistribute a finished stream into K round-robin shards
    repro-agg split /tmp/s0 --out /tmp/shards -k 4

    # merge N shard directories into one run bundle
    repro-agg merge /tmp/shards/shard-* --out /tmp/merged

``merge`` writes the same artifact set as ``repro-report --why``
(``report.html``, ``events.jsonl``, ``heat.csv``, ``heat.npz``,
``metrics.prom``, ``causes.json``) -- the merged ``events.jsonl`` feeds
``repro-why`` unchanged.  Corrupt segments and a truncated log tail (a
shard that crashed mid-write) are skipped with a warning; ``--strict``
makes them fatal.  Bad input to ``split`` or ``merge`` -- a damaged
source, a directory with no manifest -- ends in one ``error:`` line and
exit status 1; a ``-k`` below 1 exits 2 before reading anything, like
every other count flag.
"""

from __future__ import annotations

import argparse
import sys

from .merge import merge_shards
from .segments import IncompatibleStreamError, TruncatedSegmentError
from .shard import run_streaming, split_stream

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> None:
    result = run_streaming(
        args.workload, args.platform, args.out, shard=args.shard,
        buckets=args.buckets, materialize=not args.footprint,
        why=not args.no_why, log_capacity=args.log_capacity,
        watermark_events=args.watermark)
    manifest = result["manifest"]
    rollup = manifest.get("rollup", {})
    print(f"{args.workload} on {manifest.get('platform')}: "
          f"{len(manifest.get('segments', []))} segment(s), "
          f"{rollup.get('events_spilled', 0)} event(s) spilled, "
          f"{rollup.get('heat_epochs_spilled', 0)} heat epoch(s), "
          f"sim time {result['sim_time']:.4g}s -> {args.out}")


#: Bad-input errors ``split`` and ``merge`` report as one ``error:`` line;
#: each message names the offending path.
_INPUT_ERRORS = (TruncatedSegmentError, IncompatibleStreamError,
                 FileNotFoundError)


def _cmd_split(args: argparse.Namespace) -> int:
    try:
        shard_dirs = split_stream(args.src, args.out, args.k)
    except (*_INPUT_ERRORS, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in shard_dirs:
        print(f"  {path}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    def warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    try:
        merged = merge_shards(args.dirs, strict=args.strict, on_warning=warn)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = merged.write(args.out, report=not args.no_report,
                         why=not args.no_why)
    s = merged.summary
    print(f"merged {len(merged.shards)} shard(s) of "
          f"{merged.workload or '?'} on {merged.platform or '?'}: "
          f"{len(merged.events)} event(s), "
          f"{len(merged.store.allocations())} allocation(s), "
          f"{len(merged.store.epochs_closed)} epoch(s)")
    print(f"  faults {s['fault_groups']}, migrated {s['migrated_pages']} pg, "
          f"evicted {s['evicted_pages']} pg, "
          f"memory time {s['memory_time']:.4g}s")
    if merged.events_dropped:
        print(f"  !! {merged.events_dropped} event(s) were dropped before "
              "spilling was enabled", file=sys.stderr)
    for name, path in sorted(paths.items()):
        print(f"  {name:9s} {path}")
    return 1 if (args.strict and merged.warnings) else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-agg`` / ``python -m repro.stream``."""
    from ..workloads.registry import (add_run_arguments, positive_int,
                                      run_command)

    parser = argparse.ArgumentParser(
        prog="repro-agg",
        description="Streaming observability: run shards with spill-to-"
                    "disk, split streams, and merge shard directories "
                    "into one run report.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one workload in streaming (spill) mode")
    add_run_arguments(p_run, out="stream directory to write", buckets=True)
    p_run.add_argument("--shard", default="shard-0",
                       help="shard identity (default: shard-0)")
    p_run.add_argument("--log-capacity", type=positive_int, default=512,
                       help="event-log ring size before evict-to-disk "
                            "(default: 512)")
    p_run.add_argument("--watermark", type=positive_int, default=16384,
                       help="buffered events forcing an early segment "
                            "flush (default: 16384)")
    p_run.add_argument("--no-why", action="store_true",
                       help="skip causal provenance on driver events")
    p_run.set_defaults(func=lambda args: run_command(args, _cmd_run))

    p_split = sub.add_parser(
        "split", help="split a finished stream into K round-robin shards")
    p_split.add_argument("src", metavar="DIR", help="source stream directory")
    p_split.add_argument("--out", required=True, metavar="DIR",
                         help="base directory for shard-0..shard-(K-1)")
    p_split.add_argument("-k", type=positive_int, default=2,
                         help="number of shards (default: 2)")
    p_split.set_defaults(func=_cmd_split)

    p_merge = sub.add_parser(
        "merge", help="merge N shard directories into one run bundle")
    p_merge.add_argument("dirs", nargs="+", metavar="DIR",
                         help="shard stream directories to merge")
    p_merge.add_argument("--out", required=True, metavar="DIR",
                         help="merged run directory to write")
    p_merge.add_argument("--strict", action="store_true",
                         help="treat truncated segments and shard "
                              "mismatches as fatal")
    p_merge.add_argument("--no-report", action="store_true",
                         help="skip rendering report.html")
    p_merge.add_argument("--no-why", action="store_true",
                         help="skip the causal rollup (causes.json)")
    p_merge.set_defaults(func=_cmd_merge)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
