"""Phase detection: online change-point segmentation of the epoch stream.

A *phase* is a maximal run of epochs whose access-pattern vectors stay
close to the phase centroid.  :class:`PhaseDetector` consumes
``(epoch, vector, total)`` triples one at a time -- the same vectors
:func:`repro.signature.vector.epoch_vector` produces -- and declares a
change-point whenever the cosine distance between the incoming epoch and
the running (total-weighted) centroid of the current phase exceeds the
threshold.  The detector is strictly online (one pass, O(features) per
epoch, no look-ahead), which is what lets the live tracker emit
``phase_begin`` events mid-run, as transitions happen.

Determinism: pure float arithmetic over deterministic inputs; the same
epoch stream always segments identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from .vector import cosine_similarity

__all__ = ["DEFAULT_THRESHOLD", "Phase", "PhaseDetector", "detect_phases"]

#: Cosine-distance above which an epoch opens a new phase.  Calibrated
#: on the Spatter families (gather-only epoch streams, 64-bucket heat):
#: family switches measure 0.09-0.17 (stride-1 -> indirection 0.16,
#: stride-1 -> mostly-stride-1 0.09-0.10) while seed-to-seed jitter
#: inside one indirection family stays near 0.002 -- 0.08 sits ~4x below
#: the weakest switch and ~40x above the jitter floor.
DEFAULT_THRESHOLD = 0.08

_ROUND = 6


@dataclass
class Phase:
    """One detected phase: a contiguous run of similar epochs."""

    index: int
    start_epoch: int
    end_epoch: int
    epochs: int
    total: int
    #: Cosine distance that opened this phase (0.0 for the first phase).
    distance: float
    centroid: np.ndarray = field(repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.index,
            "start_epoch": self.start_epoch,
            "end_epoch": self.end_epoch,
            "epochs": self.epochs,
            "total": self.total,
            "distance": round(float(self.distance), _ROUND),
            "centroid": [round(float(v), _ROUND) for v in self.centroid],
        }


class PhaseDetector:
    """Online change-point detector over access-pattern vectors.

    Feed closed epochs in order via :meth:`update`; it returns the
    cosine distance to the current phase centroid and ``True`` when that
    distance crossed ``threshold`` (a new phase began *at* this epoch).
    Call :meth:`finish` to close the last phase and get the full list.
    """

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.threshold = float(threshold)
        self.phases: list[Phase] = []
        self._acc: np.ndarray | None = None   # weighted centroid accumulator
        self._weight = 0
        self._start = 0
        self._end = 0
        self._count = 0
        self._open_dist = 0.0

    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        """Whether any non-empty epoch has been consumed yet."""
        return bool(self.phases) or self._count > 0

    @property
    def current_phase(self) -> int:
        """Index of the phase the detector is currently inside."""
        return len(self.phases) if self._count else max(0, len(self.phases))

    def update(self, epoch: int, vector: np.ndarray,
               total: int) -> tuple[float, bool]:
        """Consume one closed epoch; ``(distance, new_phase_started)``.

        Zero-weight epochs (nothing recorded) are ignored: silence is
        not a pattern change.
        """
        total = int(total)
        if total <= 0:
            return 0.0, False
        vector = np.asarray(vector, np.float64)
        if self._count == 0:
            self._open(epoch, vector, total, 0.0)
            return 0.0, False
        centroid = self._acc / self._weight
        dist = 1.0 - cosine_similarity(centroid, vector)
        if dist > self.threshold:
            self._close()
            self._open(epoch, vector, total, dist)
            return dist, True
        self._acc += vector * total
        self._weight += total
        self._end = epoch
        self._count += 1
        return dist, False

    def finish(self) -> list[Phase]:
        """Close the open phase and return every detected phase."""
        if self._count:
            self._close()
        return self.phases

    # ------------------------------------------------------------------ #

    def _open(self, epoch: int, vector: np.ndarray, total: int,
              dist: float) -> None:
        self._acc = vector * total
        self._weight = total
        self._start = self._end = epoch
        self._count = 1
        self._open_dist = dist

    def _close(self) -> None:
        self.phases.append(Phase(
            index=len(self.phases),
            start_epoch=self._start,
            end_epoch=self._end,
            epochs=self._count,
            total=self._weight,
            distance=self._open_dist,
            centroid=self._acc / self._weight,
        ))
        self._acc = None
        self._weight = 0
        self._count = 0


def detect_phases(epoch_vectors: Iterable[tuple[int, np.ndarray, int]],
                  threshold: float = DEFAULT_THRESHOLD) -> list[Phase]:
    """Segment a full ``(epoch, vector, total)`` stream into phases."""
    det = PhaseDetector(threshold)
    for epoch, vector, total in epoch_vectors:
        det.update(epoch, vector, total)
    return det.finish()
