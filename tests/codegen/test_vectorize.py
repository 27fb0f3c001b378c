"""Vectorizer: varying analysis, provability bails, runtime fallbacks."""

import pytest

from repro.codegen import CodegenBail
from repro.codegen.emitter import resolve_kernel
from repro.codegen.vectorize import analyze_kernel, compile_vec
from repro.instrument import instrument, parse
from repro.interp import run_program
from repro.runtime import Tracer

from .test_emitter import HEADER, _describe_no_backend, _kernel

GUARDED_LOOP = HEADER + """
__global__ void smooth(float* dst, float* src, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= 2 && i < n - 2) {
        float acc = 0.0;
        for (int k = 0 - 2; k <= 2; k++) {
            acc += src[i + k];
        }
        dst[i] = acc / 5;
    }
}
int main() { return 0; }
"""


def _analyze(source: str, name: str):
    fn = _kernel(source, name)
    res = resolve_kernel(fn)
    has_live = analyze_kernel(fn, res)
    by_name = {}
    for sym in res.symbols:
        by_name.setdefault(sym.name, sym)
    return fn, res, by_name, has_live


class TestVaryingAnalysis:
    def test_guarded_uniform_loop_counter_stays_uniform(self):
        """``k`` lives under a varying guard but every active lane runs
        the identical trip count -- the canonical shape the depth rule
        must keep vectorizable (Pathfinder/stencil inner loops)."""
        _, _, syms, _ = _analyze(GUARDED_LOOP, "smooth")
        assert syms["i"].varying
        assert not syms["k"].varying
        assert syms["acc"].varying  # accumulates per-lane heap values

    def test_uniform_write_at_decl_depth_stays_uniform(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int t = 5;
        t = t + 1;
        a[i] = t;
    }
}
int main() { return 0; }
"""
        _, _, syms, _ = _analyze(src, "k")
        assert not syms["t"].varying

    def test_write_above_decl_depth_goes_varying(self):
        """A symbol declared outside a varying branch but written inside
        it diverges: some lanes write, some keep the old value."""
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int t = 0;
    if (i < n) { t = 1; }
    a[i] = t;
}
int main() { return 0; }
"""
        _, _, syms, _ = _analyze(src, "k")
        assert syms["t"].varying

    def test_masked_early_return_sets_live(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) { return; }
    a[i] = i;
}
int main() { return 0; }
"""
        _, _, _, has_live = _analyze(src, "k")
        assert has_live
        compile_vec(_kernel(src, "k"))  # still provable


class TestProvabilityBails:
    def _bail(self, source: str, name: str) -> str:
        with pytest.raises(CodegenBail) as exc:
            compile_vec(_kernel(source, name))
        return exc.value.reason

    def test_divergent_loop_condition_bails(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < i; j++) { a[j] = i; }
}
int main() { return 0; }
"""
        assert "divergent loop" in self._bail(src, "k")

    def test_divergent_break_bails(self):
        src = HEADER + """
__global__ void k(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = 0; j < 8; j++) {
        if (i > j) { break; }
        a[j] = i;
    }
}
int main() { return 0; }
"""
        assert "divergent break" in self._bail(src, "k")

    def test_value_return_bails(self):
        src = "int f(int x) { return x; }\nint main() { return 0; }"
        assert "return with a value" in self._bail(src, "f")

    def test_guarded_loop_vectorizes(self):
        ck = compile_vec(_kernel(GUARDED_LOOP, "smooth"))
        assert ck.source.startswith("def _kernel(")
        assert compile_vec(_kernel(GUARDED_LOOP, "smooth")) is ck  # memoized


CONFLICT = HEADER + """
__global__ void clash(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    STMT;
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    clash<<<1, 8>>>(a, 16);
    cudaDeviceSynchronize();
    printf("a0=%d\\n", a[0]);
    tracePrint(XplAllocData(a, "a", 64));
    return 0;
}
"""

SHARED_READ = HEADER + """
__global__ void bcast(int* dst, int* src, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { dst[i] = src[0] + i; }
}
int main() {
    int* src;
    int* dst;
    cudaMallocManaged((void**)&src, 16 * sizeof(int));
    cudaMallocManaged((void**)&dst, 16 * sizeof(int));
    src[0] = 7;
    bcast<<<1, 16>>>(dst, src, 16);
    cudaDeviceSynchronize();
    printf("d5=%d\\n", dst[5]);
    tracePrint(XplAllocData(src, "src", 64), XplAllocData(dst, "dst", 64));
    return 0;
}
"""


class TestRuntimeFallback:
    @pytest.mark.parametrize("stmt, launches, fallbacks", [
        ("a[0] = i", {"codegen-vec": 1}, 0),
        ("a[0] += i", {"codegen": 1}, 1),
    ], ids=["write", "rmw"])
    def test_conflicting_scatter_matches(self, stmt, launches, fallbacks):
        """All lanes hit word 0 with different values.  A plain write
        vectorizes (one write plan passes the alias check, and the
        scatter makes the last lane win); a read-modify-write fails the
        colliding-words check and re-runs scalar.  Both match interp."""
        src = CONFLICT.replace("STMT", stmt)
        it_i = run_program(src, tracer=Tracer(), backend="interp")
        it_v = run_program(src, tracer=Tracer(), backend="codegen-vec")
        assert it_i.stdout == it_v.stdout
        assert (_describe_no_backend(it_i.tracer)
                == _describe_no_backend(it_v.tracer))
        info = it_v.tracer.backend_info()
        assert info["launches"] == launches
        assert info["fallbacks"] == fallbacks

    def test_shared_read_word_is_fine(self):
        """All lanes *reading* one word is not a conflict."""
        it_i = run_program(SHARED_READ, tracer=Tracer(), backend="interp")
        it_v = run_program(SHARED_READ, tracer=Tracer(),
                           backend="codegen-vec")
        assert it_i.stdout == it_v.stdout
        assert (_describe_no_backend(it_i.tracer)
                == _describe_no_backend(it_v.tracer))
        info = it_v.tracer.backend_info()
        assert info["launches"] == {"codegen-vec": 1}
        assert info["fallbacks"] == 0

    def test_vec_runtime_error_reproduced_per_thread(self):
        """A lane-level division by zero bails the vectorized attempt;
        the scalar re-run raises the authentic per-thread error."""
        src = HEADER + """
__global__ void crash(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int z = n - n;
    a[i] = i / z;
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    crash<<<1, 4>>>(a, 16);
    return 0;
}
"""
        errors = {}
        for backend in ("interp", "codegen-vec"):
            with pytest.raises(Exception) as exc:
                run_program(src, tracer=Tracer(), backend=backend)
            errors[backend] = (type(exc.value), str(exc.value))
        assert errors["interp"] == errors["codegen-vec"]
