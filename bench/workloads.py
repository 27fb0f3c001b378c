"""The benchmark's four workloads: set-up, one iteration, output digest.

Each workload drives a real user entry point in-process:

* ``report-sw``  -- ``repro-report --workload sw --platform pcie --why``:
  the heaviest user path (384 diagnosed epochs, HTML/CSV/NPZ heat
  writers, causes, signature, telemetry flush);
* ``stream-sw``  -- ``repro-agg run`` (64-event ring, so the event log
  spills), ``split -k 4`` and ``merge``: segments go to disk, are read
  back, and the report bundle is rebuilt from the merge;
* ``trace-all``  -- ``repro-trace`` over every Session workload: the
  tracing/simulation path without heat, causes or signatures;
* ``minicuda``   -- the paper's own flow (parse -> instrument -> run ->
  diagnose) over five seeded mini-CUDA programs; front end, execution
  tier and tracer only, no artifact writer.

Only ``minicuda`` takes its inputs from the seed.  The other three run
the CLIs' fixed bundled inputs, so their digests are compared against
``expected.json`` (written by ``make_expected.py``), while ``minicuda``
is compared against the tree-walking interpreter (``backend="interp"``)
on the same seeded programs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["WORKLOADS", "TRACE_ALL", "Iteration", "digest",
           "minicuda_programs", "setup"]

#: Placeholder substituted for the iteration's output directory before
#: anything is hashed or counted, so digests do not depend on where the
#: checkout lives.
OUT_TOKEN = "<OUT>"

#: Files hashed verbatim (after path normalisation) wherever written.
DIGEST_FILES = ("heat.csv", "causes.json", "signature.json")

#: ``events.jsonl`` record types that carry simulated behaviour.  Manifests,
#: epoch markers and tool-metadata records (sampling, backend, phases, ...)
#: are left out so that removing or adding tool metadata keeps digests.
EVENT_TYPES = frozenset({"alloc", "memcpy", "kernel", "driver_event",
                         "diagnosis"})

#: The Session workloads ``trace-all`` replays, fixed here so that a
#: workload added to ``repro-trace`` does not silently change the benchmark.
TRACE_ALL = ("backprop", "cfd", "gaussian", "lud", "lulesh", "nn",
             "pathfinder", "pathfinder-opt", "spatter-indirect",
             "spatter-stride", "sw", "sw-advised", "sw-rotated")

WORKLOADS = ("report-sw", "stream-sw", "trace-all", "minicuda")


@dataclass
class Iteration:
    """What one iteration produced, besides the files under its directory.

    :param texts: in-memory outputs that enter the digest.
    :param printed: text shown to the user (counted in ``artifact_bytes``).
    :param probes: ``(tracer, platform)`` pairs the traced pass reads
        counters from (mini-CUDA interpreters; sessions are captured by
        the span layer instead).
    """

    texts: list[str]
    printed: str
    probes: list = field(default_factory=list)


def _run_cli(main: Callable[[list[str]], int], argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]}: exit code {code}")
    return buf.getvalue()


# --------------------------------------------------------------------- #
# set-up: import the entry modules and build the inputs


def _setup_report_sw(seed: int):
    from repro.heatmap import cli

    def iterate(out: Path) -> Iteration:
        printed = _run_cli(cli.main, ["--workload", "sw", "--platform", "pcie",
                                      "--why", "--out", str(out)])
        return Iteration([], printed)

    return iterate


def _setup_stream_sw(seed: int):
    from repro.stream import cli

    def iterate(out: Path) -> Iteration:
        run, shards, merged = out / "run", out / "shards", out / "merged"
        printed = _run_cli(cli.main, [
            "run", "--workload", "sw", "--platform", "pcie",
            "--log-capacity", "64", "--out", str(run)])
        printed += _run_cli(cli.main, ["split", str(run), "--out", str(shards),
                                       "-k", "4"])
        printed += _run_cli(cli.main, [
            "merge", *(str(shards / f"shard-{j}") for j in range(4)),
            "--out", str(merged)])
        return Iteration([], printed)

    return iterate


def _setup_trace_all(seed: int):
    from repro.telemetry import cli

    def iterate(out: Path) -> Iteration:
        printed, summaries = "", []
        for name in TRACE_ALL:
            text = _run_cli(cli.main, ["--workload", name, "--platform", "pcie",
                                       "--out", str(out / name)])
            printed += text
            summaries += [line for line in text.splitlines()
                          if line.startswith(f"{name} on ")]
        if len(summaries) != len(TRACE_ALL):
            raise RuntimeError("repro-trace printed no summary line")
        return Iteration(summaries, printed)

    return iterate


def _setup_minicuda(seed: int, backend: str = "auto"):
    # Called through their modules (not bound here) so that the traced
    # pass's wrappers see these calls.
    import repro.analysis as analysis
    import repro.instrument as front_end
    from repro.interp.interpreter import Interpreter
    from repro.memsim import PLATFORMS
    from repro.runtime import Tracer

    programs = minicuda_programs(seed)

    def iterate(out: Path) -> Iteration:
        texts, printed, probes = [], "", []
        for name, source in programs.items():
            unit = front_end.parse(source)
            front_end.instrument(unit)
            interp = Interpreter(unit, platform=PLATFORMS["intel-pascal"](),
                                 tracer=Tracer(), source_name=f"{name}.cu",
                                 backend=backend)
            interp.run("main")
            buf = io.StringIO()
            analysis.diagnose(interp.tracer, out=buf, include_unnamed=True)
            d = interp.tracer.describe()
            counts = {k: d[k] for k in ("words_recorded", "kernels",
                                        "transfers")}
            texts += [name, interp.stdout, buf.getvalue(),
                      json.dumps(counts, sort_keys=True)]
            printed += interp.stdout + buf.getvalue()
            probes.append((interp.tracer, interp.platform))
        return Iteration(texts, printed, probes)

    return iterate


_SETUP = {
    "report-sw": _setup_report_sw,
    "stream-sw": _setup_stream_sw,
    "trace-all": _setup_trace_all,
    "minicuda": _setup_minicuda,
}


def setup(workload: str, seed: int, **kwargs) -> Callable[[Path], Iteration]:
    """Import ``workload``'s entry modules and build its inputs.

    Returns ``iterate(out_dir) -> Iteration``, one closed-loop request.
    """
    return _SETUP[workload](seed, **kwargs)


# --------------------------------------------------------------------- #
# seeded mini-CUDA programs

_HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""


def _pathfinder(r: random.Random) -> str:
    a, b, m = r.randrange(1001, 9999, 2), r.randrange(100), r.randrange(61, 128)
    return _HEADER + f"""
__global__ void relax(int* dst, int* src, int* wall, int row, int cols) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < cols) {{
        int best = src[i];
        if (i > 0) {{
            int left = src[i - 1];
            best = left < best ? left : best;
        }}
        if (i < cols - 1) {{
            int right = src[i + 1];
            best = right < best ? right : best;
        }}
        dst[i] = wall[row * cols + i] + best;
    }}
}}
int main() {{
    int cols = 512;
    int rows = 24;
    int* wall;
    int* a;
    int* b;
    cudaMallocManaged((void**)&wall, rows * cols * sizeof(int));
    cudaMallocManaged((void**)&a, cols * sizeof(int));
    cudaMallocManaged((void**)&b, cols * sizeof(int));
    for (int i = 0; i < rows * cols; i++) {{
        wall[i] = (i * {a} + {b}) % {m};
    }}
    for (int i = 0; i < cols; i++) {{ a[i] = wall[i]; b[i] = 0; }}
    for (int t = 1; t < 17; t++) {{
        if (t % 2 == 1) {{
            relax<<<8, 64>>>(b, a, wall, t % rows, cols);
        }} else {{
            relax<<<8, 64>>>(a, b, wall, t % rows, cols);
        }}
    }}
    cudaDeviceSynchronize();
    int best = a[0];
    for (int i = 1; i < cols; i++) {{
        if (a[i] < best) {{ best = a[i]; }}
    }}
    printf("best=%d\\n", best);
    tracePrint(XplAllocData(wall, "wall", rows * cols * 4),
               XplAllocData(a, "a", cols * 4),
               XplAllocData(b, "b", cols * 4));
    return 0;
}}
"""


def _lulesh(r: random.Random) -> str:
    k = r.randrange(7, 32)
    return _HEADER + f"""
__global__ void force(double* f, double* x, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        double fi = 0.0 - x[i] * 0.5;
        if (i > 0) {{ fi += x[i - 1] * 0.25; }}
        if (i < n - 1) {{ fi += x[i + 1] * 0.25; }}
        f[i] = fi;
    }}
}}
__global__ void integrate(double* x, double* xd, double* f, double dt,
                          int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        xd[i] += f[i] * dt;
        x[i] += xd[i] * dt;
    }}
}}
int main() {{
    int n = 1024;
    double* x;
    double* xd;
    double* f;
    cudaMallocManaged((void**)&x, n * sizeof(double));
    cudaMallocManaged((void**)&xd, n * sizeof(double));
    cudaMallocManaged((void**)&f, n * sizeof(double));
    for (int i = 0; i < n; i++) {{
        x[i] = i % {k};
        xd[i] = 0.0;
        f[i] = 0.0;
    }}
    for (int step = 0; step < 8; step++) {{
        force<<<16, 64>>>(f, x, n);
        integrate<<<16, 64>>>(x, xd, f, 0.03125, n);
    }}
    cudaDeviceSynchronize();
    double sum = 0.0;
    for (int i = 0; i < n; i++) {{ sum += x[i]; }}
    printf("sum=%g\\n", sum);
    tracePrint(XplAllocData(x, "x", n * 8), XplAllocData(xd, "xd", n * 8),
               XplAllocData(f, "f", n * 8));
    return 0;
}}
"""


def _stencil(r: random.Random) -> str:
    a, b, m = r.randrange(11, 97, 2), r.randrange(50), r.randrange(101, 257)
    return _HEADER + f"""
__global__ void smooth(float* dst, float* src, int n, int taps) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= taps && i < n - taps) {{
        float acc = 0.0;
        for (int k = 0 - taps; k <= taps; k++) {{
            acc += src[i + k];
        }}
        dst[i] = acc / (2 * taps + 1);
    }}
}}
int main() {{
    int n = 1024;
    float* a;
    float* b;
    cudaMallocManaged((void**)&a, n * sizeof(float));
    cudaMallocManaged((void**)&b, n * sizeof(float));
    for (int i = 0; i < n; i++) {{
        a[i] = (i * {a} + {b}) % {m};
        b[i] = 0.0;
    }}
    for (int it = 0; it < 8; it++) {{
        if (it % 2 == 0) {{
            smooth<<<16, 64>>>(b, a, n, 2);
        }} else {{
            smooth<<<16, 64>>>(a, b, n, 2);
        }}
    }}
    cudaDeviceSynchronize();
    float sum = 0.0;
    for (int i = 0; i < n; i++) {{ sum += b[i]; }}
    printf("sum=%g\\n", sum);
    tracePrint(XplAllocData(a, "a", n * 4), XplAllocData(b, "b", n * 4));
    return 0;
}}
"""


def _spatter_stride(r: random.Random) -> str:
    a, b, m = r.randrange(3, 61, 2), r.randrange(50), r.randrange(251, 1021)
    return _HEADER + f"""
__global__ void stride_gather(int* res, int* data, int n) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        res[i] = res[i] + data[i * 8];
    }}
}}
int main() {{
    int n = 512;
    int* data;
    int* res;
    cudaMallocManaged((void**)&data, n * 8 * sizeof(int));
    cudaMallocManaged((void**)&res, n * sizeof(int));
    for (int i = 0; i < n * 8; i++) {{ data[i] = (i * {a} + {b}) % {m}; }}
    for (int i = 0; i < n; i++) {{ res[i] = 0; }}
    for (int t = 0; t < 8; t++) {{
        stride_gather<<<8, 64>>>(res, data, n);
    }}
    cudaDeviceSynchronize();
    int s = 0;
    for (int i = 0; i < n; i++) {{ s += res[i]; }}
    printf("s=%d\\n", s);
    tracePrint(XplAllocData(data, "data", n * 8 * 4),
               XplAllocData(res, "res", n * 4));
    return 0;
}}
"""


def _spatter_lcg(r: random.Random) -> str:
    mult, inc = r.randrange(1001, 65535, 2), r.randrange(10000)
    return _HEADER + f"""
__global__ void lcg_gather(int* res, int* data, int n, int spread) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {{
        int x = (i * {mult} + {inc}) % spread;
        res[i] = res[i] + data[x];
    }}
}}
int main() {{
    int n = 1024;
    int spread = 16384;
    int* data;
    int* res;
    cudaMallocManaged((void**)&data, spread * sizeof(int));
    cudaMallocManaged((void**)&res, n * sizeof(int));
    for (int i = 0; i < spread; i++) {{ data[i] = i % 911; }}
    for (int i = 0; i < n; i++) {{ res[i] = 0; }}
    for (int t = 0; t < 8; t++) {{
        lcg_gather<<<4, 256>>>(res, data, n, spread);
    }}
    cudaDeviceSynchronize();
    int s = 0;
    for (int i = 0; i < n; i++) {{ s += res[i]; }}
    printf("s=%d\\n", s);
    tracePrint(XplAllocData(data, "data", spread * 4),
               XplAllocData(res, "res", n * 4));
    return 0;
}}
"""


def minicuda_programs(seed: int) -> dict[str, str]:
    """The five seeded programs.  The seed picks data-initialisation
    constants and the LCG index stream; sizes and launch counts are fixed,
    so every seed does the same amount of work."""
    r = random.Random(seed)
    return {name: build(r) for name, build in (
        ("pathfinder", _pathfinder), ("lulesh", _lulesh),
        ("stencil", _stencil), ("spatter-stride", _spatter_stride),
        ("spatter-lcg", _spatter_lcg))}


# --------------------------------------------------------------------- #
# digest


def _normalise(text: str, root: str) -> str:
    return text.replace(root, OUT_TOKEN)


def _events_digest_lines(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("type") in EVENT_TYPES:
            lines.append(json.dumps(rec, sort_keys=True,
                                    separators=(",", ":")))
    return lines


def digest(out_dir: Path, it: Iteration) -> tuple[str, int]:
    """``(sha256 hex, artifact bytes)`` of one iteration's outputs.

    The digest covers :data:`DIGEST_FILES`, the behavioural records of
    every ``events.jsonl``, and the iteration's in-memory texts, all with
    ``out_dir`` replaced by :data:`OUT_TOKEN`.  Artifact bytes are every
    file written plus the text printed to the user.
    """
    root = str(out_dir)
    h = hashlib.sha256()
    nbytes = len(_normalise(it.printed, root).encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        nbytes += path.stat().st_size
        rel = path.relative_to(out_dir).as_posix()
        if path.name in DIGEST_FILES:
            body = _normalise(path.read_text(), root)
        elif path.name == "events.jsonl":
            body = "\n".join(_events_digest_lines(
                _normalise(path.read_text(), root)))
        else:
            continue
        h.update(f"{rel}\0{body}\0".encode())
    for text in it.texts:
        h.update(f"{_normalise(text, root)}\0".encode())
    return h.hexdigest(), nbytes
