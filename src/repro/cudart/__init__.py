"""Simulated CUDA runtime API over :mod:`repro.memsim`.

The names mirror the CUDA runtime the paper instruments:
``CudaRuntime.malloc`` is ``cudaMalloc``, ``malloc_managed`` is
``cudaMallocManaged``, ``memcpy`` is ``cudaMemcpy``, ``mem_advise`` is
``cudaMemAdvise``, and ``launch`` is the ``<<<grid, block>>>`` syntax.
"""

from .advice import cudaMemcpyKind, cudaMemoryAdvise
from .api import CudaRuntime
from .cupti import KernelProfile, KernelProfiler
from .errors import CudaError, cudaError_t
from .kernel import KernelContext, LaunchConfig
from .memory import ArrayView, DevicePtr
from .observer import ObserverBase

__all__ = [
    "cudaMemcpyKind",
    "cudaMemoryAdvise",
    "CudaRuntime",
    "KernelProfile",
    "KernelProfiler",
    "CudaError",
    "cudaError_t",
    "KernelContext",
    "LaunchConfig",
    "ArrayView",
    "DevicePtr",
    "ObserverBase",
]
