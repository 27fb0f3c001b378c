"""Bundled mini-CUDA programs: the interpreted-path workload catalogue.

The Session workloads (:mod:`.rodinia`, :mod:`.lulesh`, ...) drive the
simulated runtime from Python and never exercise the mini-CUDA
interpreter.  This module is the interpreter-path counterpart: small,
self-contained, byte-deterministic programs in the shapes the paper's
pipeline cares about -- Pathfinder's guarded wavefront relaxation,
LULESH-style double-precision RMW integration, a uniform-trip stencil,
and Spatter's strided/LCG-indirect gather -- sized so the kernel loops
dominate the host code.

They serve two roles:

* the differential oracle set for the codegen backends (every program
  must produce byte-identical output/shadow/heat under ``interp``,
  ``codegen`` and ``codegen-vec``), and
* the benchmark bodies for ``benchmarks/bench_codegen.py`` (the same
  builders at larger sizes).

All allocations happen before the first kernel launch on purpose: the
compiled backends skip the interpreter's per-thread stack cells, so a
mid-run ``cudaMallocManaged`` would see a different heap layout than the
tree-walker and the differential byte-comparisons would be meaningless.
"""

from __future__ import annotations

__all__ = ["CATALOG", "catalog", "lulesh_source", "pathfinder_source",
           "spatter_lcg_source", "spatter_stride_source", "stencil_source"]

#: Replacement pragmas every catalogue program carries: without them
#: ``cudaMallocManaged`` never registers shadow blocks and tracing is a
#: silent no-op.
_HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""


def pathfinder_source(cols: int = 192, rows: int = 24) -> str:
    """Pathfinder's dynamic-programming wavefront: one guarded kernel per
    row, three-way ternary min over the previous row (paper Fig. 1)."""
    return f"""\
{_HEADER}
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
    int cols = {cols};
    int rows = {rows};
    int* wall;
    int* a;
    int* b;
    cudaMallocManaged((void**)&wall, rows * cols * sizeof(int));
    cudaMallocManaged((void**)&a, cols * sizeof(int));
    cudaMallocManaged((void**)&b, cols * sizeof(int));
    for (int i = 0; i < rows * cols; i++) {{
        wall[i] = (i * 7919 + 13) % 97;
    }}
    for (int i = 0; i < cols; i++) {{ a[i] = wall[i]; b[i] = 0; }}
    for (int row = 1; row < rows; row++) {{
        if (row % 2 == 1) {{
            relax<<<{max(1, -(-cols // 64))}, 64>>>(b, a, wall, row, cols);
        }} else {{
            relax<<<{max(1, -(-cols // 64))}, 64>>>(a, b, wall, row, cols);
        }}
    }}
    cudaDeviceSynchronize();
    int* last = rows % 2 == 0 ? b : a;
    int best = last[0];
    for (int i = 1; i < cols; i++) {{
        if (last[i] < best) {{ best = last[i]; }}
    }}
    printf("best=%d\\n", best);
    tracePrint(XplAllocData(wall, "wall", rows * cols * 4),
               XplAllocData(a, "a", cols * 4),
               XplAllocData(b, "b", cols * 4));
    return 0;
}}
"""


def lulesh_source(nelem: int = 256, steps: int = 12) -> str:
    """LULESH-style leapfrog: force gather then a double-precision
    ``+=`` position/velocity integration, many launches over one mesh."""
    grid = max(1, -(-nelem // 64))
    return f"""\
{_HEADER}
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
    int n = {nelem};
    double* x;
    double* xd;
    double* f;
    cudaMallocManaged((void**)&x, n * sizeof(double));
    cudaMallocManaged((void**)&xd, n * sizeof(double));
    cudaMallocManaged((void**)&f, n * sizeof(double));
    for (int i = 0; i < n; i++) {{
        x[i] = i % 17;
        xd[i] = 0.0;
        f[i] = 0.0;
    }}
    for (int step = 0; step < {steps}; step++) {{
        force<<<{grid}, 64>>>(f, x, n);
        integrate<<<{grid}, 64>>>(x, xd, f, 0.03125, n);
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


def stencil_source(n: int = 256, iters: int = 10, taps: int = 2) -> str:
    """Float stencil with a uniform-trip inner loop under a varying guard
    (the shape the vectorizer must prove loop-uniform to win)."""
    grid = max(1, -(-n // 64))
    return f"""\
{_HEADER}
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
    int n = {n};
    float* a;
    float* b;
    cudaMallocManaged((void**)&a, n * sizeof(float));
    cudaMallocManaged((void**)&b, n * sizeof(float));
    for (int i = 0; i < n; i++) {{
        a[i] = (i * 31 + 7) % 129;
        b[i] = 0.0;
    }}
    for (int it = 0; it < {iters}; it++) {{
        if (it % 2 == 0) {{
            smooth<<<{grid}, 64>>>(b, a, n, {taps});
        }} else {{
            smooth<<<{grid}, 64>>>(a, b, n, {taps});
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


def spatter_stride_source(stride: int = 8, count: int = 16) -> str:
    """Spatter's UNIFORM strided gather as a mini-CUDA program."""
    from .spatter import to_mini_cuda, uniform_stride
    return to_mini_cuda(uniform_stride(stride, count=count))


def spatter_lcg_source(length: int = 256, spread: int = 4096,
                       seed: int = 1) -> str:
    """Spatter's LCG indirection gather as a mini-CUDA program (the
    indirect-addressing stress case for the vectorizer)."""
    from .spatter import indirection, to_mini_cuda
    return to_mini_cuda(indirection(length=length, spread=spread, seed=seed))


#: name -> source builder at diagnosis-friendly sizes.
CATALOG = {
    "mc-pathfinder": pathfinder_source,
    "mc-lulesh": lulesh_source,
    "mc-stencil": stencil_source,
    "mc-spatter-stride": spatter_stride_source,
    "mc-spatter-lcg": spatter_lcg_source,
}


def catalog() -> dict[str, str]:
    """Every bundled program rendered at its default size."""
    return {name: build() for name, build in CATALOG.items()}
