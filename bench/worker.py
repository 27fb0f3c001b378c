"""One measurement process: set up a workload, run iterations, write JSON.

``run.py`` starts a fresh interpreter per measurement so that set-up,
the cold iteration and peak memory are those a user's process sees::

    python bench/worker.py --workload W --seed N --mode MODE \\
        --work DIR --result FILE [--seconds S --spans FILE]

Modes:

* ``timed``  -- the cold iteration (which is also the warm-up), then one
  warm iteration;
* ``traced`` -- a warm-up, untraced iterations for ``S/2`` seconds, then
  iterations with layer spans installed for ``S/2`` seconds, at least
  :data:`MIN_TRACED` of each;
* ``oracle`` -- one iteration on the reference backend (``minicuda``).

Before each iteration, outside the timed region, the worker makes a
fresh output directory and collects garbage.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans as spanlib
import workloads as W

MIN_TRACED = 3

#: Files reported as ``artifact.<name>_bytes``, summed over every
#: directory of an iteration (``segments`` sums the ``seg-*.jsonl`` files).
ARTIFACTS = ("report.html", "heat.csv", "heat.npz", "signature.json",
             "causes.json", "events.jsonl", "timeline.json", "metrics.prom")


def _peak_rss_mb() -> float:
    """This process's peak resident set size.

    Read from ``VmHWM``: ``ru_maxrss`` also counts the parent's resident
    set at fork/exec time, which would make the figure depend on the
    size of ``run.py``'s own process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _artifact_sizes(out: Path) -> dict[str, int]:
    sizes = dict.fromkeys((*ARTIFACTS, "segments"), 0)
    for path in out.rglob("*"):
        if not path.is_file():
            continue
        if path.name in sizes:
            sizes[path.name] += path.stat().st_size
        elif path.name.startswith("seg-") and path.suffix == ".jsonl":
            sizes["segments"] += path.stat().st_size
    return sizes


def _counters(spans: spanlib.Spans, probes: list) -> dict[str, float]:
    """Work counts read from public return values: session/interpreter
    tracers and platforms, and span call counts."""
    pairs = [(s.tracer, s.platform) for s in spans.sessions] + list(probes)
    words = launches = vec = fallbacks = events = migrated = 0
    for tracer, platform in pairs:
        if tracer is not None:
            d = tracer.describe()
            words += d["words_recorded"]
            launches += sum(d["backend_launches"].values())
            vec += d["backend_launches"].get("codegen-vec", 0)
            fallbacks += d["backend_fallbacks"]
        events += len(platform.events)
        migrated += platform.events.migrated_pages
    calls = spans.calls
    return {
        "runtime.words": words,
        "codegen.launches": launches,
        "codegen.vec_launches": vec,
        "codegen.fallbacks": fallbacks,
        "codegen.vec_ratio": vec / launches if launches else 0.0,
        "codegen.compiles": calls["repro.codegen.vectorize:compile_vec"]
        + calls["repro.codegen.emitter:compile_scalar"],
        "memsim.driver_events": events,
        "memsim.migrated_pages": migrated,
        "analysis.diagnoses": calls["repro.analysis.advisor:diagnose"],
        "heatmap.epochs": calls["repro.heatmap.store:HeatStore.advance_epoch"]
        + calls["repro.stream.spill:SpillingHeatStore.advance_epoch"],
    }


class Worker:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.work = Path(args.work)
        self.iterations: list[dict] = []
        backend = {"backend": "interp"} if args.mode == "oracle" else {}
        self.iterate = W.setup(args.workload, args.seed, **backend)

    def one(self, kind: str, spans: spanlib.Spans | None = None) -> dict:
        """Run and record one iteration; failures are recorded, not raised."""
        out = self.work / f"i{len(self.iterations):04d}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        if spans is not None:
            spans.reset()
        rec: dict = {"kind": kind}
        t0 = time.perf_counter()
        try:
            it = self.iterate(out)
        except Exception as exc:  # recorded as a failed iteration
            rec["t"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
        else:
            rec["t"] = time.perf_counter() - t0
            rec["digest"], rec["bytes"] = W.digest(out, it)
            if spans is not None:
                rec["layers"] = spans.layer_totals()
                rec["writers"] = spans.writer_totals()
                rec["covered_s"] = spans.covered_ns[0] / 1e9
                rec["counts"] = _counters(spans, it.probes)
                rec["artifacts"] = _artifact_sizes(out)
        shutil.rmtree(out, ignore_errors=True)
        self.iterations.append(rec)
        return rec

    def loop(self, kind: str, until: float,
             spans: spanlib.Spans | None = None) -> None:
        """Run at least :data:`MIN_TRACED` iterations, then start another
        only if half of it, judged by the last one, fits before ``until``
        (a ``perf_counter`` time), so loops end near ``until`` on average."""
        for n in itertools.count(1):
            t = self.one(kind, spans)["t"]
            if n >= MIN_TRACED and time.perf_counter() + t / 2 > until:
                return

    def run(self) -> dict:
        mode, seconds = self.args.mode, self.args.seconds
        result: dict = {"ready_at": time.monotonic()}
        if mode == "traced":
            self.one("warmup")
            start = time.perf_counter()
            self.loop("untraced", start + seconds / 2)
            spans = spanlib.Spans().install()
            try:
                self.loop("traced", start + seconds, spans)
            finally:
                spans.uninstall()
            if self.args.spans:
                Path(self.args.spans).write_text(json.dumps(
                    spans.chrome_events(0, self.args.workload)))
        else:
            self.one("oracle" if mode == "oracle" else "cold")
            result["rss_mb"] = _peak_rss_mb()
            if mode == "timed":
                self.one("warm")
        result["iterations"] = self.iterations
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "oracle"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = Worker(args).run()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
