"""Tests for the CSV export module."""

import numpy as np
import pytest

from repro.cudart import CudaRuntime, cudaMemcpyKind
from repro.memsim import intel_pascal
from repro.runtime import (
    Tracer,
    epochs_to_csv,
    kernels_to_csv,
    trace_print,
    transfers_to_csv,
)


@pytest.fixture
def setup():
    rt = CudaRuntime(intel_pascal())
    tracer = Tracer().attach(rt)
    return rt, tracer


class TestCsvExports:
    def test_epochs_series(self, setup):
        rt, tracer = setup
        v = rt.malloc_managed(64, label="x").typed(np.int32)
        results = []
        for i in range(3):
            v.write(0, np.zeros(4 * (i + 1), np.int32))
            results.append(trace_print(tracer))
        csv = epochs_to_csv(results)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("epoch,name")
        assert len(lines) == 4  # header + one row per epoch
        assert lines[1].split(",")[0] == "0"
        assert lines[3].split(",")[5] == "12"  # cpu_writes in epoch 2

    def test_transfers_csv(self, setup):
        rt, tracer = setup
        d = rt.malloc(64, label="dev")
        rt.memcpy(d, np.zeros(64, np.uint8), 64,
                  cudaMemcpyKind.cudaMemcpyHostToDevice)
        csv = transfers_to_csv(tracer)
        assert "dev,0,64,H2D" in csv

    def test_kernels_csv(self, setup):
        rt, tracer = setup
        rt.launch(lambda ctx: None, 4, 64, name="k1")
        csv = kernels_to_csv(tracer)
        assert "0,k1,4,64" in csv
