"""Access-pattern vectors: deterministic fingerprints of epoch heat.

The signature layer turns :class:`~repro.heatmap.store.AllocationHeat`
matrices into fixed-length, normalized feature vectors that can be
*compared* -- across epochs (phase detection), across allocations, and
across whole runs (the signature index the auto-placement service keys
its cache on).  Everything here is a pure function of the integer heat
counts, so a K-shard merged run (whose heat sums element-wise to the
unsharded run's) produces byte-identical signatures.

A vector has :data:`N_FEATURES` components, all in ``[0, 1]``:

* **channel mix** (4): fraction of word-accesses per channel
  (CPU read / CPU write / GPU read / GPU write);
* **shape scalars** (7): read fraction, GPU fraction, ping-pong balance
  (``min(cpu, gpu) / max(cpu, gpu)``), bucket coverage, peak-bucket
  share, heat center of mass, heat spread;
* **entropy** (1): Shannon entropy of the combined bucket distribution,
  normalized by ``log2(nbuckets)``;
* **per-channel distributions** (4 x :data:`N_COARSE`): each channel's
  bucket vector folded to :data:`N_COARSE` coarse buckets and normalized
  to sum 1, so allocations of different sizes/bucketings compare.

Top-site mix is carried on the :class:`AllocationSignature` as metadata
(labels + shares) rather than inside the distance vector, so signatures
rebuilt from ``heat.npz`` artifacts (which carry counts, not sites)
compare identically to signatures built from live stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from ..canonjson import dumps
from ..heatmap.store import CHANNELS, AllocationHeat, HeatStore

__all__ = [
    "FEATURE_VERSION",
    "N_COARSE",
    "N_FEATURES",
    "FEATURE_NAMES",
    "epoch_vector",
    "combine_vectors",
    "cosine_similarity",
    "AllocationSignature",
    "RunSignature",
    "signature_from_store",
    "signature_from_npz",
    "run_similarity",
]

#: Bumped whenever the feature layout changes incompatibly; stored in
#: every serialized signature and checked by the index before matching.
FEATURE_VERSION = 1

#: Coarse buckets per channel distribution (size-independent resolution).
N_COARSE = 16

#: Decimal places kept when serializing vectors (byte-determinism).
_ROUND = 6

_SCALARS = ("read_frac", "gpu_frac", "ping_pong", "coverage",
            "peak_frac", "center", "spread", "entropy")

#: Names of every vector component, in order.
FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"mix_{c}" for c in CHANNELS)
    + _SCALARS
    + tuple(f"{c}_d{i}" for c in CHANNELS for i in range(N_COARSE))
)

N_FEATURES = len(FEATURE_NAMES)


def _coarsen(vec: np.ndarray, n: int = N_COARSE) -> np.ndarray:
    """Fold a bucket vector to ``n`` coarse buckets (sum-preserving)."""
    vec = np.asarray(vec, np.float64)
    if len(vec) == n:
        return vec.copy()
    idx = (np.arange(len(vec)) * n) // len(vec)
    return np.bincount(idx, weights=vec, minlength=n)


def epoch_vector(counts: np.ndarray) -> np.ndarray:
    """The access-pattern vector of one ``(4, nbuckets)`` heat matrix.

    Deterministic, scale-invariant (doubling every count changes
    nothing) and defined for empty matrices (the zero vector).
    """
    counts = np.asarray(counts, np.float64)
    total = counts.sum()
    out = np.zeros(N_FEATURES, np.float64)
    if total <= 0:
        return out
    nbuckets = counts.shape[1]
    per_channel = counts.sum(axis=1)
    combined = counts.sum(axis=0)

    # channel mix
    out[0:4] = per_channel / total
    # shape scalars
    cpu = per_channel[0] + per_channel[1]
    gpu = per_channel[2] + per_channel[3]
    reads = per_channel[0] + per_channel[2]
    out[4] = reads / total
    out[5] = gpu / total
    out[6] = min(cpu, gpu) / max(cpu, gpu) if max(cpu, gpu) > 0 else 0.0
    nonzero = int(np.count_nonzero(combined))
    out[7] = nonzero / nbuckets
    out[8] = combined.max() / total
    pos = (np.arange(nbuckets, dtype=np.float64) + 0.5) / nbuckets
    weights = combined / total
    center = float((pos * weights).sum())
    out[9] = center
    out[10] = float(np.sqrt(((pos - center) ** 2 * weights).sum()))
    if nbuckets > 1:
        p = weights[weights > 0]
        out[11] = float(-(p * np.log2(p)).sum()) / np.log2(nbuckets)
    # per-channel coarse distributions
    base = 4 + len(_SCALARS)
    for ch in range(len(CHANNELS)):
        dist = _coarsen(counts[ch])
        s = dist.sum()
        if s > 0:
            out[base + ch * N_COARSE: base + (ch + 1) * N_COARSE] = dist / s
    return out


def combine_vectors(vectors: Iterable[tuple[np.ndarray, int]]) -> \
        tuple[np.ndarray, int]:
    """Weight-average ``(vector, total)`` pairs into one run-level vector.

    Weighting by recorded word-accesses makes the run vector follow the
    allocations that actually dominate the epoch.  Returns
    ``(vector, total_weight)``; the zero vector when nothing recorded.
    """
    acc = np.zeros(N_FEATURES, np.float64)
    weight = 0
    for vec, total in vectors:
        acc += vec * float(total)
        weight += int(total)
    if weight > 0:
        acc /= float(weight)
    return acc, weight


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in ``[0, 1]`` (features are non-negative)."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0 if na == nb else 0.0
    return float(np.dot(a, b) / (na * nb))


def _round_vec(vec: np.ndarray) -> list[float]:
    return [round(v, _ROUND) for v in vec.tolist()]


@dataclass
class AllocationSignature:
    """Per-epoch access-pattern vectors of one allocation."""

    label: str
    size: int
    nwords: int
    nbuckets: int
    epochs: list[int]
    totals: list[int]
    vectors: np.ndarray          #: ``(n_epochs, N_FEATURES)``
    top_sites: list[tuple[str, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Word-accesses across all epochs."""
        return int(sum(self.totals))

    @property
    def mean(self) -> np.ndarray:
        """Total-weighted mean vector (the allocation's fingerprint)."""
        vec, _ = combine_vectors(
            (self.vectors[i], self.totals[i])
            for i in range(len(self.epochs)))
        return vec

    def to_dict(self) -> dict[str, Any]:
        # The serialized mean is recomputed from the *rounded* vectors so
        # that save -> load -> save round-trips byte-identically (a load
        # only ever sees the rounded form).
        vectors = [_round_vec(v) for v in self.vectors]
        mean, _ = combine_vectors(
            (np.asarray(v, np.float64), t)
            for v, t in zip(vectors, self.totals))
        return {
            "label": self.label,
            "size": self.size,
            "nwords": self.nwords,
            "nbuckets": self.nbuckets,
            "epochs": list(self.epochs),
            "totals": list(self.totals),
            "mean": _round_vec(mean),
            "vectors": vectors,
            "top_sites": [[s, int(n)] for s, n in self.top_sites],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AllocationSignature":
        vectors = np.asarray(d.get("vectors", []), np.float64)
        if vectors.size == 0:
            vectors = np.zeros((0, N_FEATURES), np.float64)
        return cls(
            label=d["label"], size=int(d["size"]), nwords=int(d["nwords"]),
            nbuckets=int(d["nbuckets"]),
            epochs=[int(e) for e in d.get("epochs", ())],
            totals=[int(t) for t in d.get("totals", ())],
            vectors=vectors,
            top_sites=[(s, int(n)) for s, n in d.get("top_sites", ())],
        )


@dataclass
class RunSignature:
    """The full signature of one run: per-alloc + per-epoch vectors + phases."""

    workload: str = ""
    platform: str = ""
    feature_version: int = FEATURE_VERSION
    allocs: dict[str, AllocationSignature] = field(default_factory=dict)
    #: Run-level per-epoch vectors: ``[(epoch, vector, total), ...]``.
    epoch_vectors: list[tuple[int, np.ndarray, int]] = field(
        default_factory=list)
    phases: list[dict[str, Any]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Word-accesses across every allocation."""
        return sum(a.total for a in self.allocs.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "run_signature",
            "feature_version": self.feature_version,
            "workload": self.workload,
            "platform": self.platform,
            "total": self.total,
            "allocs": {k: a.to_dict() for k, a in sorted(self.allocs.items())},
            "epoch_vectors": [
                {"epoch": int(e), "total": int(t), "vector": _round_vec(v)}
                for e, v, t in self.epoch_vectors],
            "phases": list(self.phases),
        }

    def to_json(self) -> str:
        """Canonical byte-deterministic JSON form."""
        return dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSignature":
        if d.get("type") != "run_signature":
            raise ValueError("not a run_signature document")
        version = int(d.get("feature_version", -1))
        if version != FEATURE_VERSION:
            raise ValueError(
                f"signature feature_version {version} != supported "
                f"{FEATURE_VERSION}")
        sig = cls(workload=d.get("workload", ""),
                  platform=d.get("platform", ""),
                  feature_version=version)
        for key, rec in d.get("allocs", {}).items():
            sig.allocs[key] = AllocationSignature.from_dict(rec)
        for rec in d.get("epoch_vectors", ()):
            sig.epoch_vectors.append((
                int(rec["epoch"]),
                np.asarray(rec["vector"], np.float64),
                int(rec["total"])))
        sig.phases = [dict(p) for p in d.get("phases", ())]
        return sig

    @classmethod
    def load(cls, path: str | Path) -> "RunSignature":
        return cls.from_dict(json.loads(Path(path).read_text(
            encoding="utf-8")))


def _alloc_keys(allocs: list[AllocationHeat]) -> list[str]:
    """Stable keys: the label, ordinal-suffixed on (rare) collisions."""
    seen: dict[str, int] = {}
    keys = []
    for heat in allocs:
        n = seen.get(heat.label, 0)
        seen[heat.label] = n + 1
        keys.append(heat.label if n == 0 else f"{heat.label}#{n}")
    return keys


def signature_from_store(store: HeatStore, *, workload: str = "",
                         platform: str = "",
                         phase_threshold: float | None = None) -> RunSignature:
    """Compute the :class:`RunSignature` of a heat store's closed epochs.

    Deterministic: allocations are visited in :meth:`HeatStore.allocations`
    order (sorted), so any store holding the same counts -- live, merged
    from shards, or reloaded -- signs identically.
    """
    from .phases import detect_phases

    sig = RunSignature(workload=workload, platform=platform)
    allocs = store.allocations()
    per_epoch: dict[int, list[tuple[np.ndarray, int]]] = {}
    for key, heat in zip(_alloc_keys(allocs), allocs):
        epochs, totals, vectors = [], [], []
        site_totals: dict[str, int] = {}
        for snap in heat.epochs:
            vec = epoch_vector(snap.counts)
            epochs.append(int(snap.epoch))
            totals.append(int(snap.total))
            vectors.append(vec)
            per_epoch.setdefault(int(snap.epoch), []).append(
                (vec, int(snap.total)))
            for site, n in snap.top_sites(5):
                site_totals[site.label] = site_totals.get(site.label, 0) + n
        tops = sorted(site_totals.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        sig.allocs[key] = AllocationSignature(
            label=heat.label, size=heat.size, nwords=heat.nwords,
            nbuckets=heat.nbuckets, epochs=epochs, totals=totals,
            vectors=(np.stack(vectors) if vectors
                     else np.zeros((0, N_FEATURES), np.float64)),
            top_sites=[(s, n) for s, n in tops],
        )
    for epoch in sorted(per_epoch):
        vec, weight = combine_vectors(per_epoch[epoch])
        if weight > 0:
            sig.epoch_vectors.append((epoch, vec, weight))
    kwargs = {} if phase_threshold is None else {"threshold": phase_threshold}
    sig.phases = [p.to_dict() for p in detect_phases(sig.epoch_vectors,
                                                     **kwargs)]
    return sig


def signature_from_npz(path: str | Path, *, workload: str = "",
                       platform: str = "",
                       phase_threshold: float | None = None) -> RunSignature:
    """Rebuild a :class:`RunSignature` from a ``heat.npz`` artifact alone.

    Relies on the per-channel arrays and geometry index written by
    :meth:`~repro.heatmap.store.HeatStore.to_npz` (``a<i>_<channel>``,
    ``sizes``, ``serials``, ``bases``); site attribution is not stored in
    NPZ, so ``top_sites`` comes back empty -- by design that never
    affects vectors or similarity.
    """
    from ..heatmap.store import EpochHeat
    from .phases import detect_phases  # noqa: F401  (parity of defaults)

    with np.load(path, allow_pickle=False) as npz:
        labels = [str(x) for x in npz["labels"]]
        nwords = npz["nwords"].astype(np.int64)
        sizes = npz["sizes"].astype(np.int64) if "sizes" in npz \
            else nwords * 4
        store = HeatStore(attribute=False)
        store.epochs_closed = [int(e) for e in npz["epochs_closed"]]
        for i, label in enumerate(labels):
            epochs = npz[f"a{i}_epochs"].astype(np.int64)
            key = f"a{i}_{CHANNELS[0]}"
            if key in npz:
                counts = np.stack(
                    [npz[f"a{i}_{c}"] for c in CHANNELS], axis=1)
            else:  # pre-signature archives: the combined stack
                counts = npz[f"a{i}_counts"]
            nbuckets = counts.shape[2] if counts.ndim == 3 else 1
            heat = AllocationHeat.from_meta(
                label, base=int(npz["bases"][i]) if "bases" in npz else 0,
                serial=int(npz["serials"][i]) if "serials" in npz else i,
                size=int(sizes[i]), nbuckets=int(nbuckets))
            for j, epoch in enumerate(epochs):
                heat.epochs.append(EpochHeat(
                    epoch=int(epoch),
                    counts=np.asarray(counts[j], np.int64)))
            store.adopt(heat)
    return signature_from_store(store, workload=workload, platform=platform,
                                phase_threshold=phase_threshold)


def run_similarity(a: RunSignature, b: RunSignature) -> dict[str, Any]:
    """Similarity report between two run signatures.

    Allocations pair by key; the overall score is the total-weighted mean
    of per-allocation cosine similarities, with unpaired allocations
    scoring 0 (a run with an extra hot allocation is *not* the same
    pattern).  Deterministic and symmetric.
    """
    keys = sorted(set(a.allocs) | set(b.allocs))
    per_alloc: list[dict[str, Any]] = []
    score_sum = 0.0
    weight_sum = 0
    for key in keys:
        sa = a.allocs.get(key)
        sb = b.allocs.get(key)
        if sa is not None and sb is not None:
            sim = cosine_similarity(sa.mean, sb.mean)
            weight = sa.total + sb.total
        else:
            sim = 0.0
            weight = (sa or sb).total
        weight = max(1, int(weight))
        score_sum += sim * weight
        weight_sum += weight
        per_alloc.append({
            "alloc": key,
            "similarity": round(sim, _ROUND),
            "weight": weight,
            "in_a": sa is not None,
            "in_b": sb is not None,
        })
    overall = score_sum / weight_sum if weight_sum else 1.0
    return {
        "type": "signature_similarity",
        "feature_version": FEATURE_VERSION,
        "a": a.workload or "<run a>",
        "b": b.workload or "<run b>",
        "similarity": round(overall, _ROUND),
        "phases_a": len(a.phases),
        "phases_b": len(b.phases),
        "by_alloc": per_alloc,
    }
