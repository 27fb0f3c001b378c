"""Codegen backends for mini-CUDA kernels and host code.

Lowers instrumented kernel and host-function ASTs to native Python once
per function (:mod:`repro.codegen.emitter`), optionally vectorizing a
kernel's whole thread grid into numpy array operations
(:mod:`repro.codegen.vectorize` + :mod:`repro.codegen.gridexec`).  Backend selection and the per-launch
fallback ladder live in :mod:`repro.codegen.backend`; the tree-walking
interpreter remains the differential oracle every compiled backend must
byte-match.
"""

from .backend import BACKENDS, run_compiled
from .emitter import CodegenBail, compile_scalar, kernel_digest

__all__ = [
    "BACKENDS",
    "CodegenBail",
    "compile_scalar",
    "kernel_digest",
    "run_compiled",
]
