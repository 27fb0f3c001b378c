"""Write ``bench/expected.json``: reference digests of the fixed-input workloads.

::

    python bench/make_expected.py

Runs a cold and a warm iteration of ``report-sw``, ``stream-sw`` and
``trace-all`` in two fresh worker processes each and records the digest,
refusing to write anything if the four iterations disagree.  Regenerate
only when a change is meant to alter those outputs, and say so in the
change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

FIXED = ("report-sw", "stream-sw", "trace-all")


def main() -> int:
    out = run.ROOT / ".bench_out" / "expected"
    out.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(argparse.Namespace(seed=0), out)
    expected = {}
    try:
        for name in FIXED:
            digests = {it.get("digest") for _ in range(2)
                       for it in runner.worker(name, "timed")["iterations"]}
            if len(digests) != 1 or None in digests:
                print(f"{name}: no stable digest: {digests}", file=sys.stderr)
                return 1
            expected[name] = digests.pop()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (run.HERE / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
