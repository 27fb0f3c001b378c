"""Access-pattern signatures: vectors, phases, and the signature index.

The layer that turns raw per-epoch heat (:mod:`repro.heatmap`) into
*comparable* fingerprints:

* :mod:`~repro.signature.vector` -- deterministic, normalized
  access-pattern vectors per allocation per epoch, run signatures, and
  cosine similarity between them;
* :mod:`~repro.signature.phases` -- online change-point segmentation of
  the epoch stream into phases;
* :mod:`~repro.signature.tracker` -- live phase tracking that emits
  ``phase_begin``/``phase_end`` events with cause links into the run's
  event stream;
* :mod:`~repro.signature.index` -- a versioned on-disk signature store
  with nearest-neighbor matching (the placement-service cache key);
* :mod:`~repro.signature.cli` -- the ``repro-sig compute|compare|match``
  command line.
"""

from .index import DEFAULT_MATCH_THRESHOLD, SignatureIndex
from .phases import DEFAULT_THRESHOLD, Phase, PhaseDetector, detect_phases
from .tracker import PhaseTracker
from .vector import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    N_FEATURES,
    AllocationSignature,
    RunSignature,
    cosine_similarity,
    epoch_vector,
    run_similarity,
    signature_from_npz,
    signature_from_store,
)

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_VERSION",
    "N_FEATURES",
    "AllocationSignature",
    "RunSignature",
    "cosine_similarity",
    "epoch_vector",
    "run_similarity",
    "signature_from_npz",
    "signature_from_store",
    "DEFAULT_THRESHOLD",
    "Phase",
    "PhaseDetector",
    "detect_phases",
    "PhaseTracker",
    "DEFAULT_MATCH_THRESHOLD",
    "SignatureIndex",
]
