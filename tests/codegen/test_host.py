"""Compiled host functions: byte-identical to the interpreter.

``main`` and its helpers run through the scalar emitter's host mode on
every backend but ``interp``.  The tree-walker stays the oracle: stdout,
tracer counters, heat matrices, allocation serials, return values and
error locations must not depend on which tier ran the host code.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.codegen.backend import bind_host
from repro.heatmap.store import HeatStore
from repro.instrument import instrument, parse
from repro.interp import InterpError
from repro.interp.interpreter import Interpreter, InterpHooks
from repro.runtime import Tracer
from repro.workloads.minicuda import catalog

from .test_differential import _describe_no_backend, _heat_bytes

HEADER = """\
#pragma xpl replace cudaMallocManaged
cudaError_t trcMallocManaged(void** p, size_t sz);
#pragma xpl replace kernel-launch
void traceKernelLaunch(int g, int b, int s, int st, ...);
"""

HELPERS = HEADER + """
__device__ int twice(int v) { return v * 2; }
__global__ void dbl(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = twice(a[i]); }
}
__global__ void bump(int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] + 1; }
}
int scale(int v, int k) { return v * k; }
int truncated() { return 3.7; }
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
double half(double x) { return x / 2; }
void fill(int* a, int n, int base) {
    for (int i = 0; i < n; i++) { a[i] = scale(i, base) % 97; }
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64 * sizeof(int));
    fill(a, 64, 7);
    int s = 0;
    for (int i = 0; i < 64; i++) { s += a[i]; }
    printf("s=%d fib=%d t=%g h=%g\\n", s, fib(12), truncated(), half(5.0));
    bump<<<2, 32>>>(a, 64);
    dbl<<<2, 32>>>(a, 64);
    s = 0;
    for (int i = 0; i < 64; i++) { s += a[i]; }
    printf("s=%d\\n", s);
#pragma xpl diagnostic tracePrint(out; a)
    return fib(5);
}
"""

ADDRESS_OF = HEADER + """
__global__ void add(int* m, float* d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { m[i] = m[i] + d[i]; }
}
int main() {
    int* m;
    float* d;
    int n = 32;
    cudaMallocManaged((void**)&m, n * sizeof(int));
    trcMalloc((void**)&d, n * sizeof(float));
    int* h = (int*)malloc(n * sizeof(int));
    float* f = (float*)malloc(n * sizeof(float));
    for (int i = 0; i < n; i++) { m[i] = i * 3; h[i] = 0; f[i] = i * 0.5; }
    cudaMemcpy(h, m, n * sizeof(int), 4);
    trcMemcpy(d, f, n * sizeof(float), 1);
    cudaMemAdvise(m, n * sizeof(int), 1, 0);
    add<<<1, 32>>>(m, d, n);
    cudaDeviceSynchronize();
    trcMemcpy(h, m, n * sizeof(int), 2);
    int s = 0;
    for (int i = 0; i < n; i++) { s += h[i]; }
    printf("s=%d m=%p\\n", s, m);
    tracePrint(XplAllocData(m, "m", n * 4));
    trcFree(d);
    return s;
}
"""

CONTROL = HEADER + """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    int* p = a;
    int k = 0;
    do { *p = k * k; p++; k++; } while (k < 8);
    p += 2;
    *p = 'A';
    p = p + 1;
    ++p;
    *p = '\\n';
    int odd = 0;
    for (int i = 0; i < 16; i++) {
        if (i == 12) { break; }
        if (i % 2 == 0) { continue; }
        odd += i > 5 ? a[i] : -i;
    }
    char c = 'z';
    printf("odd=%d c=%d k=%d last=%d\\n", odd, c, k, a[11]);
    while (k > 0) { k -= 3; }
    int x = 1;
    int y = x + (x = 5);
    for (int r = 0; r < 2; r++) { int z = z + 4; printf("z=%d ", z); }
    printf("k=%d y=%d x=%d\\n", k, y, x);
    return k;
}
"""

# Calls inside conditional arms move the interpreter's line only on the
# paths that take them; a traced read later in the statement, or in the
# next loop condition, must still be attributed to the interpreter's line.
SHORT_CIRCUIT = HEADER + """
int check(int v) { return v % 3 == 0; }
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 16 * sizeof(int));
    for (int i = 0; i < 16; i++) { a[i] = i; }
    int s = 0;
    for (int i = 0; i < 16; i++) {
        s += (i > 5 && check(i)) + a[i];
    }
    for (int i = 0; i < 16; i++) {
        s += (i < 5 || check(i)) + a[i];
    }
    for (int i = 0; i < 16; i++) {
        s += (i > 9 ? check(i) : 2) + a[i];
        s += (i > 9 ? 1 : check(i)) + a[i];
    }
    for (int i = 0; a[i] < 15; i++) {
        s += a[i];
        if (i > 7 && check(i)) { s += 1; }
    }
    for (int i = 0; a[i] < 15; i++) {
        s += a[i];
        s += i < 4 || check(a[i]);
    }
    for (int i = 0; a[i] < 15; i++) {
        s += a[i];
        s += i % 2 ? check(a[i]) : 0;
    }
    int k = 0;
    while (a[k] < 12) {
        k++;
        if (k > 3 && check(k)) { continue; }
        s += a[k];
    }
    printf("s=%d k=%d\\n", s, k);
#pragma xpl diagnostic tracePrint(out; a)
    return s;
}
"""

PROGRAMS = {"helpers": HELPERS, "address-of": ADDRESS_OF, "control": CONTROL,
            "short-circuit": SHORT_CIRCUIT}


def _interpreter(source: str, backend: str, tracer=None) -> Interpreter:
    unit = parse(source)
    instrument(unit)
    return Interpreter(unit, tracer=tracer or Tracer(), backend=backend,
                       source_name="prog.cu")


def _observe(source: str, backend: str, heat_on: bool) -> dict:
    heat = HeatStore() if heat_on else None
    interp = _interpreter(source, backend, Tracer(heat=heat))
    value = interp.run("main")
    interp.tracer.flush_trace()
    out = {"value": value, "stdout": interp.stdout,
           "describe": _describe_no_backend(interp.tracer)}
    if heat is not None:
        out["heat"] = _heat_bytes(heat)
        out["serials"] = sorted((h.label, h.serial)
                                for h in heat.allocations())
    return out, interp


@pytest.mark.parametrize("heat_on", [False, True], ids=["plain", "heat"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_host_code_byte_matches_the_interpreter(name, heat_on):
    ref, _ = _observe(PROGRAMS[name], "interp", heat_on)
    got, interp = _observe(PROGRAMS[name], "auto", heat_on)
    assert got == ref
    assert interp.host_bails == {}
    assert any(interp._host_bodies.values()), "no host function compiled"


def _bench_codegen_sources() -> dict[str, str]:
    path = Path(__file__).parents[2] / "benchmarks" / "bench_codegen.py"
    spec = importlib.util.spec_from_file_location("_bench_codegen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {"bench-pathfinder": mod.pathfinder_loop_source(),
            "bench-lcg": mod.spatter_lcg_loop_source()}


@pytest.mark.parametrize("heat_on", [False, True], ids=["plain", "heat"])
def test_every_bundled_main_compiles(heat_on):
    sources = {**catalog(), **_bench_codegen_sources()}
    for name, source in sources.items():
        interp = _interpreter(source, "auto")
        body = bind_host(interp, interp.functions["main"], heat_on)
        assert body is not None, (name, interp.host_bails)


GLOBAL_USE = HEADER + """
int counter = 3;
int bumped(int v) { return v + 1; }
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64);
    a[0] = bumped(counter);
    printf("%d\\n", a[0]);
    return 0;
}
"""

ESCAPING_ADDRESS = HEADER + """
int main() {
    int x = 5;
    int* p = &x;
    *p = 7;
    printf("%d\\n", x);
    return x;
}
"""


@pytest.mark.parametrize("source,reason", [
    (GLOBAL_USE, "global variable 'counter'"),
    (ESCAPING_ADDRESS, "address-of"),
], ids=["global", "escaping-address"])
def test_bailing_main_is_interpreted_and_still_matches(source, reason):
    ref, _ = _observe(source, "interp", True)
    got, interp = _observe(source, "auto", True)
    assert got == ref
    assert interp.host_bails == {"main": reason}
    # Callees of an interpreted frame stay interpreted.
    assert all(fn is None for fn in interp._host_bodies.values())


FREE_IN_HELPER = HEADER + """
void release(int* p, int k) {
    int j = k * 2;
    cudaFree(p + j);
}
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64);
    release(a, 1);
    return 0;
}
"""

BAD_MEMCPY = HEADER + """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64);
    int n = 8;
    cudaMemcpy(a, n * 2, n, 4);
    return 0;
}
"""

UNKNOWN_CALL = HEADER + """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64);
    a[0] = 1;
    frobnicate(a, 3);
    return 0;
}
"""

UNKNOWN_CALL_IN_ARM = HEADER + """
int main() {
    int* a;
    cudaMallocManaged((void**)&a, 64);
    int n = 3;
    int s = (n > 0 && n) + (n > 1 || frobnicate(a, 3));
    s += n > 2 ? frobnicate(a, 3) : 0;
    return s;
}
"""

def _error(source: str, backend: str, host_tier: bool = True) -> tuple:
    interp = _interpreter(source, backend)
    interp._host_tier = interp._host_tier and host_tier
    with pytest.raises(InterpError) as info:
        interp.run("main")
    exc = info.value
    return str(exc), exc.site, exc.stack, exc.thread


@pytest.mark.parametrize(
    "source", [FREE_IN_HELPER, BAD_MEMCPY, UNKNOWN_CALL, UNKNOWN_CALL_IN_ARM],
    ids=["free", "memcpy", "unknown-function", "unknown-function-in-arm"])
def test_errors_in_compiled_host_code_are_located(source):
    ref = _error(source, "interp")
    assert _error(source, "auto") == ref
    assert ref[1] is not None and ref[1].line > 0


def test_error_after_a_launch_takes_the_interpreters_line():
    # The diagnostic expansion has no line of its own: the interpreter
    # reports the line it last set, here the launch's (the kernel ran
    # compiled).  ``sizeof(*b)`` fails because ``b`` was freed.
    source = HEADER + """
__global__ void touch(int* a) { a[threadIdx.x] = 1; }
int main() {
    int* a;
    int* b;
    cudaMallocManaged((void**)&a, 64);
    cudaMallocManaged((void**)&b, 64);
    cudaFree(b);
    touch<<<1, 4>>>(a);
#pragma xpl diagnostic tracePrint(out; a, b)
    return 0;
}
"""
    ref = _error(source, "auto", host_tier=False)
    assert _error(source, "auto") == ref
    assert "cannot compute sizeof" in ref[0]
    assert ref[1].line == 13


def test_unused_values_are_still_evaluated():
    source = HEADER + """
int main() {
    int zero = 0;
    int k = 3;
    k / zero;
    return k;
}
"""
    for backend in ("interp", "auto"):
        with pytest.raises(ZeroDivisionError):
            _interpreter(source, backend).run("main")


class _TraceRecorder(InterpHooks):
    def __init__(self):
        self.traces = []

    def on_trace(self, interp, fn, addr, size, site):
        self.traces.append((fn, addr, size, interp._line))


def _hooked_run(backend: str) -> Interpreter:
    interp = _interpreter(HELPERS, backend)
    interp.hooks = _TraceRecorder()
    interp.run("main")
    return interp


def test_hooks_keep_host_code_interpreted():
    """The debugger charges the UM driver from ``on_trace``, so a hooked
    run must interpret every host function and kernel launch: compiled
    tiers call the bound trace methods directly and would skip the hook."""
    ref = _hooked_run("interp")
    bump = next(n for n, text in enumerate(HELPERS.splitlines(), 1)
                if "a[i] + 1" in text)
    traced = [line for *_, line in ref.hooks.traces]
    assert traced.count(bump) == 2 * 64  # one read, one write per thread
    for backend in ("auto", "codegen", "codegen-vec"):
        hooked = _hooked_run(backend)
        assert hooked._host_bodies == {}, backend
        assert hooked.hooks.traces == ref.hooks.traces, backend
        assert hooked.stdout == ref.stdout, backend
