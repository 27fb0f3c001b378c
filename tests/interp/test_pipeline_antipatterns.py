"""Full-pipeline tests: mini-CUDA programs whose instrumented execution
reproduces each paper anti-pattern through the detectors."""

from repro.analysis import (
    AntiPattern,
    detect_low_density,
    detect_unnecessary_transfers,
)
from repro.interp import run_program
from repro.runtime import trace_print


def diagnose_interp(it):
    result = trace_print(it.tracer, include_maps=True)
    findings = detect_low_density(result)
    findings += detect_unnecessary_transfers(result, it.tracer)
    return result, findings


class TestLowDensityProgram:
    SRC = """
        #pragma xpl replace cudaMallocManaged
        cudaError_t trcMallocManaged(void** p, size_t sz);
        #pragma xpl replace kernel-launch
        void traceKernelLaunch(int g, int b, int s, int st, ...);

        __global__ void touch_first(int* data) {
            if (threadIdx.x == 0) { data[0] = 1; }
        }

        int main() {
            int* big;
            cudaMallocManaged((void**)&big, 4096);
            touch_first<<<1, 32>>>(big);
            return 0;
        }
    """

    def test_low_density_detected(self):
        it = run_program(self.SRC)
        _, findings = diagnose_interp(it)
        hits = [f for f in findings
                if f.pattern is AntiPattern.LOW_ACCESS_DENSITY]
        assert hits and hits[0].metric < 0.01


class TestUnnecessaryTransferProgram:
    SRC = """
        #pragma xpl replace cudaMalloc
        cudaError_t trcMalloc(void** p, size_t sz);
        #pragma xpl replace cudaMemcpy
        cudaError_t trcMemcpy(void* d, void* s, size_t n, int kind);
        #pragma xpl replace kernel-launch
        void traceKernelLaunch(int g, int b, int s, int st, ...);

        __global__ void overwrite(int* d, int n) {
            int i = threadIdx.x;
            if (i < n) { d[i] = i; }
        }

        int main() {
            int* host = new int[64];
            for (int i = 0; i < 64; i++) { host[i] = 7; }
            int* dev;
            cudaMalloc((void**)&dev, 64 * sizeof(int));
            cudaMemcpy(dev, host, 64 * sizeof(int), 1);
            overwrite<<<1, 64>>>(dev, 64);
            cudaMemcpy(host, dev, 64 * sizeof(int), 2);
            return host[3];
        }
    """

    def test_overwritten_before_use_detected(self):
        it = run_program(self.SRC)
        _, findings = diagnose_interp(it)
        assert any(f.pattern is AntiPattern.TRANSFER_OVERWRITTEN
                   for f in findings)

    def test_functional_result(self):
        it = run_program(self.SRC)
        assert it.run("main") == 3  # the GPU's value came back

    def test_memcpy_recorded_as_transfers(self):
        it = run_program(self.SRC)
        directions = [t.direction for t in it.tracer.transfers]
        assert directions.count("H2D") >= 1
        assert directions.count("D2H") >= 1


class TestCleanProgram:
    SRC = """
        #pragma xpl replace cudaMalloc
        cudaError_t trcMalloc(void** p, size_t sz);
        #pragma xpl replace cudaMemcpy
        cudaError_t trcMemcpy(void* d, void* s, size_t n, int kind);
        #pragma xpl replace kernel-launch
        void traceKernelLaunch(int g, int b, int s, int st, ...);

        __global__ void triple(int* d, int n) {
            int i = threadIdx.x;
            if (i < n) { d[i] = d[i] * 3; }
        }

        int main() {
            int* host = new int[16];
            for (int i = 0; i < 16; i++) { host[i] = i; }
            int* dev;
            cudaMalloc((void**)&dev, 16 * sizeof(int));
            cudaMemcpy(dev, host, 16 * sizeof(int), 1);
            triple<<<1, 16>>>(dev, 16);
            cudaMemcpy(host, dev, 16 * sizeof(int), 2);
            return host[5];
        }
    """

    def test_no_transfer_findings(self):
        it = run_program(self.SRC)
        result = trace_print(it.tracer, include_maps=True)
        findings = detect_unnecessary_transfers(result, it.tracer)
        assert findings == []

    def test_functional_result(self):
        it = run_program(self.SRC)
        assert it.run("main") == 15
