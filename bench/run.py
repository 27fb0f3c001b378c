"""The repository benchmark: end-to-end and per-layer metrics, one command.

::

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR]

Runs each workload (default: all four) through the real user entry
points in fresh single-threaded worker processes (closed loop, one
client), checks every output against its reference, and prints every
metric by name with its unit.  ``--trace 0`` runs only the end-to-end
pass, ``--trace 1`` only the traced per-layer pass; without ``--trace``
both run.  Metric names, units and the default ``--seconds`` come from
``BENCHMARK.json``.  ``DIR/results.json`` holds every metric and sample,
``DIR/spans.json`` the traced pass as a Chrome trace (one track per
layer).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end pass, per workload: ``timed`` workers (see ``worker.py``),
one after another for ``--seconds``, at least three.  Each runs one cold
and one warm iteration; ``setup_s``, ``cold_s``, ``wall_s`` and
``peak_rss_mb`` are medians over the processes, ``artifact_bytes`` the
median bytes written and printed per iteration.  A fixed calibration
kernel runs before and after each workload; a drift above 10% marks the
workload ``noisy``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report-sw", "stream-sw", "trace-all", "minicuda")
#: Seconds each workload must finish within (a single-workload
#: invocation must exit within three minutes).
DEADLINE_S = 170.0
NOISE_DRIFT = 0.10
#: Fewest fresh processes per end-to-end pass; each gives one sample of
#: every end-to-end metric.
MIN_PROCESSES = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _calibration_kernel() -> float:
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    a = np.arange(1_500_000, dtype=np.float64)
    for _ in range(8):
        acc += float(np.sqrt(a).sum())
    return time.perf_counter() - t0


def calibrate() -> float:
    """Host speed: best of three runs of a fixed pure-Python loop plus a
    numpy reduction (about 0.2 s in all)."""
    return min(_calibration_kernel() for _ in range(3))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, args: argparse.Namespace, out: Path) -> None:
        self.args = args
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _child_env()
        self.n = 0

    def worker(self, workload: str, mode: str, seconds: float = 0.0) -> dict:
        """Run one worker process to completion; return its JSON result."""
        self.n += 1
        result = self.out / f"worker-{self.n}.json"
        spans = self.out / f"spans-{self.n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(self.args.seed),
               "--mode", mode, "--seconds", str(seconds),
               "--work", str(self.out / "work"), "--result", str(result)]
        if mode == "traced":
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the last worker")
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  timeout=remaining, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} worker timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} worker failed:\n"
                             f"{proc.stderr[-4000:]}")
        data = json.loads(result.read_text())
        result.unlink()
        data["setup_s"] = data["ready_at"] - launched
        data["elapsed_s"] = time.monotonic() - launched
        if spans.exists():
            data["spans"] = json.loads(spans.read_text())
            spans.unlink()
        return data

    def reference(self, workload: str) -> str:
        if workload == "minicuda":
            return self.worker(workload, "oracle")["iterations"][0]["digest"]
        expected = json.loads((HERE / "expected.json").read_text())
        return expected[workload]

    def workload(self, name: str) -> dict:
        seconds, trace = self.args.seconds, self.args.trace
        self.deadline = time.monotonic() + DEADLINE_S
        calib = [calibrate()]
        procs, traced = [], None
        if trace != 1:
            # Another process starts only if half of it, judged by the
            # last one, fits in the pass's time.
            until = time.monotonic() + seconds
            while len(procs) < MIN_PROCESSES or (
                    time.monotonic() + procs[-1]["elapsed_s"] / 2 < until):
                procs.append(self.worker(name, "timed"))
        if trace != 0:
            traced = self.worker(name, "traced", seconds)
        ref = self.reference(name)
        calib.append(calibrate())

        iters = [it for p in procs + ([traced] if traced else [])
                 for it in p["iterations"]]
        failed = [it for it in iters if it.get("digest") != ref]
        drift = abs(calib[1] - calib[0]) / calib[0]
        res: dict = {
            "attempted": len(iters), "failed": len(failed),
            "error_rate": len(failed) / len(iters),
            "errors": sorted({it.get("error", "digest mismatch")
                              for it in failed}),
            "calib_s": calib, "noisy": drift > NOISE_DRIFT,
            "metrics": {}, "samples": {},
        }
        if procs:
            res["metrics"].update(self._e2e(procs, iters, res["samples"]))
        if traced:
            res["metrics"].update(self._layers(traced, calib))
            res["spans"] = traced["spans"]
        return res

    @staticmethod
    def _e2e(procs: list[dict], iters: list[dict], samples: dict) -> dict:
        ok = [it for it in iters if "digest" in it]
        warm = [it["t"] for p in procs for it in p["iterations"]
                if it["kind"] == "warm" and "digest" in it]
        samples.update({
            "setup_s": [p["setup_s"] for p in procs],
            "cold_s": [p["iterations"][0]["t"] for p in procs],
            "peak_rss_mb": [p["rss_mb"] for p in procs],
            "wall_s": warm or [it["t"] for it in iters],
            "artifact_bytes": [it["bytes"] for it in ok] or [0],
        })
        return {k: statistics.median(v) for k, v in samples.items()}

    @staticmethod
    def _layers(traced: dict, calib: list[float]) -> dict:
        its = traced["iterations"]
        untraced = [it["t"] for it in its if it["kind"] == "untraced"]
        done = [it for it in its if it["kind"] == "traced" and "digest" in it]
        if not done:
            raise BenchError("no traced iteration succeeded")
        mean = statistics.fmean
        wall = mean(it["t"] for it in done)
        m: dict = {"traced.wall_s": wall,
                   "trace_overhead_x": statistics.median(
                       it["t"] for it in done) / statistics.median(untraced),
                   "host.calib_s": statistics.median(calib)}
        layers = done[0]["layers"]
        total_self = 0.0
        for layer in layers:
            self_s = mean(it["layers"][layer]["self_s"] for it in done)
            total_self += self_s
            m[f"{layer}.self_s"] = self_s
            m[f"{layer}.share"] = self_s / wall
            m[f"{layer}.calls"] = statistics.median(
                it["layers"][layer]["calls"] for it in done)
        covered = mean(it["covered_s"] for it in done)
        m["untraced.share"] = (wall - covered) / wall
        # Self times partition the covered time exactly; a gap means the
        # span stack lost track of a call.
        m["accounting_error"] = abs(total_self - covered) / wall
        for writer in done[0]["writers"]:
            s = mean(it["writers"][writer] for it in done)
            m[f"{writer}_s"] = s
            m[f"{writer}_share"] = s / wall
        for key in done[0]["counts"]:
            m[key] = statistics.median(it["counts"][key] for it in done)
        for name in done[0]["artifacts"]:
            m[f"artifact.{name}_bytes"] = statistics.median(
                it["artifacts"][name] for it in done)
        return m


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found")
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    try:
        spec = _spec()
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError("src/repro not found: run from a full checkout")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the mini-CUDA inputs (default: 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per pass (default: "
                             f"{spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: traced pass only")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for results.json and spans.json")
    args = parser.parse_args(argv)

    workloads = args.workload or list(WORKLOADS)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, out)
    results: dict = {}
    _calibration_kernel()  # first run pays numpy import and page faults
    try:
        for name in workloads:
            results[name] = runner.workload(name)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "work", ignore_errors=True)

    wanted = []
    if args.trace != 1:
        wanted += spec["end_to_end"]
    if args.trace != 0:
        wanted += spec["per_layer"]
    if any(name != "minicuda" for name in workloads):
        print("note: report-sw, stream-sw and trace-all run fixed bundled "
              "inputs; --seed changes only minicuda")
    summary: dict = {}
    for name, res in results.items():
        flag = "  NOISY" if res["noisy"] else ""
        print(f"== {name}: {res['attempted']} iterations, {res['failed']} "
              f"failed, calibration {res['calib_s'][0]:.4f}/"
              f"{res['calib_s'][1]:.4f} s{flag}")
        for err in res["errors"]:
            print(f"   failure: {err}")
        if args.trace != 1:
            print(f"   {'error_rate':28s} {res['error_rate']:16.6f} ratio")
        for m in wanted:
            value = res["metrics"][m["name"]]
            print(f"   {m['name']:28s} {value:16.6f} {m['unit']}")
            key = m["name"] if len(workloads) == 1 else f"{name}/{m['name']}"
            summary[key] = {"value": value, "unit": m["unit"]}

    spans = [dict(e, pid=i + 1) for i, res in enumerate(results.values())
             for e in res.pop("spans", [])]
    (out / "spans.json").unlink(missing_ok=True)
    if spans:
        (out / "spans.json").write_text(json.dumps(
            {"traceEvents": spans, "displayTimeUnit": "ms"}))
    (out / "results.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "noisy": any(r["noisy"] for r in results.values()),
        "workloads": results}, indent=1, sort_keys=True))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
