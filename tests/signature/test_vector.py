"""Access-pattern vectors: determinism, invariances, NPZ round trips."""

import numpy as np
import pytest

from repro.heatmap.cli import run_report
from repro.heatmap.store import CHANNELS, HeatStore
from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.signature import vector as vector_module
from repro.signature.vector import (
    FEATURE_NAMES,
    N_FEATURES,
    RunSignature,
    _round_array,
    combine_vectors,
    cosine_similarity,
    epoch_vector,
    run_similarity,
    signature_from_npz,
    signature_from_store,
)


def _store_with_pattern(seed: int = 7, *, epochs: int = 3) -> HeatStore:
    """A deterministic two-allocation store with mixed channels."""
    space = AddressSpace()
    a = space.allocate(256 * 4, MemoryKind.MANAGED, label="a")
    b = space.allocate(64 * 4, MemoryKind.MANAGED, label="b")
    store = HeatStore(nbuckets=16, attribute=False)
    rng = np.random.default_rng(seed)
    for e in range(epochs):
        store.record(a, Processor.GPU, is_write=False, lo=0, hi=128)
        store.record(a, Processor.CPU, is_write=True,
                     idx=rng.integers(0, 256, size=32))
        store.record(b, Processor.GPU, is_write=True, lo=0, hi=64)
        store.advance_epoch(e)
    return store


class TestEpochVector:
    def test_empty_matrix_signs_as_zero(self):
        vec = epoch_vector(np.zeros((4, 16), np.int64))
        assert vec.shape == (N_FEATURES,)
        assert not vec.any()

    def test_feature_names_cover_the_vector(self):
        assert len(FEATURE_NAMES) == N_FEATURES
        assert len(set(FEATURE_NAMES)) == N_FEATURES

    def test_all_features_normalized(self):
        counts = np.zeros((4, 16), np.int64)
        counts[2, :8] = 100  # gpu reads, first half
        counts[1, 3] = 50    # cpu writes, one bucket
        vec = epoch_vector(counts)
        assert (vec >= 0.0).all() and (vec <= 1.0).all()

    def test_scale_invariance(self):
        counts = np.zeros((4, 16), np.int64)
        counts[0] = np.arange(16)
        counts[3, ::2] = 9
        assert np.allclose(epoch_vector(counts), epoch_vector(counts * 1000))

    def test_channel_mix_fractions(self):
        counts = np.zeros((4, 8), np.int64)
        counts[0, 0] = 30  # cpu read
        counts[3, 4] = 10  # gpu write
        vec = epoch_vector(counts)
        assert vec[0] == pytest.approx(0.75)
        assert vec[3] == pytest.approx(0.25)

    def test_different_bucket_counts_compare(self):
        """Coarse folding makes a 64-bucket and 16-bucket view similar."""
        fine = np.zeros((4, 64), np.int64)
        fine[2, :32] = 4
        coarse = np.zeros((4, 16), np.int64)
        coarse[2, :8] = 16
        sim = cosine_similarity(epoch_vector(fine), epoch_vector(coarse))
        assert sim > 0.99


class TestCosine:
    def test_identical_vectors(self):
        v = np.linspace(0, 1, N_FEATURES)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_zero_vector_edge_cases(self):
        z = np.zeros(N_FEATURES)
        v = np.ones(N_FEATURES)
        assert cosine_similarity(z, z) == 1.0
        assert cosine_similarity(z, v) == 0.0

    def test_combine_weights_by_total(self):
        a = np.zeros(N_FEATURES)
        a[0] = 1.0
        b = np.zeros(N_FEATURES)
        b[1] = 1.0
        vec, weight = combine_vectors([(a, 300), (b, 100)])
        assert weight == 400
        assert vec[0] == pytest.approx(0.75)
        assert vec[1] == pytest.approx(0.25)

    def test_combine_empty_is_zero(self):
        vec, weight = combine_vectors([])
        assert weight == 0 and not vec.any()


class TestSignatureDeterminism:
    def test_same_counts_sign_byte_identically(self):
        a = signature_from_store(_store_with_pattern(), workload="w",
                                 platform="p")
        b = signature_from_store(_store_with_pattern(), workload="w",
                                 platform="p")
        assert a.to_json() == b.to_json()

    def test_save_load_round_trip(self, tmp_path):
        sig = signature_from_store(_store_with_pattern(), workload="w")
        path = sig.save(tmp_path / "signature.json")
        loaded = RunSignature.load(path)
        assert loaded.to_json() == sig.to_json()
        assert run_similarity(sig, loaded)["similarity"] == 1.0

    def test_version_mismatch_rejected(self):
        doc = signature_from_store(_store_with_pattern()).to_dict()
        doc["feature_version"] = 999
        with pytest.raises(ValueError, match="feature_version"):
            RunSignature.from_dict(doc)
        with pytest.raises(ValueError, match="run_signature"):
            RunSignature.from_dict({"type": "something_else"})

    def test_self_similarity_is_one(self):
        sig = signature_from_store(_store_with_pattern())
        assert run_similarity(sig, sig)["similarity"] == 1.0

    def test_different_patterns_score_below_identical(self):
        a = signature_from_store(_store_with_pattern(seed=7))
        # Same geometry, inverted channel roles -> clearly different.
        space = AddressSpace()
        x = space.allocate(256 * 4, MemoryKind.MANAGED, label="a")
        y = space.allocate(64 * 4, MemoryKind.MANAGED, label="b")
        store = HeatStore(nbuckets=16, attribute=False)
        for e in range(3):
            store.record(x, Processor.CPU, is_write=True, lo=128, hi=256)
            store.record(y, Processor.CPU, is_write=False, lo=0, hi=16)
            store.advance_epoch(e)
        b = signature_from_store(store)
        assert run_similarity(a, b)["similarity"] < 0.9

    def test_unpaired_allocation_drags_similarity_down(self):
        sig = signature_from_store(_store_with_pattern())
        solo = RunSignature(workload="solo")
        solo.allocs["a"] = sig.allocs["a"]
        sim = run_similarity(sig, solo)
        rows = {r["alloc"]: r for r in sim["by_alloc"]}
        assert rows["b"]["in_b"] is False
        assert rows["b"]["similarity"] == 0.0
        assert sim["similarity"] < 1.0


class TestNpzRebuild:
    def test_npz_signature_matches_store_signature(self, tmp_path):
        store = _store_with_pattern()
        store.to_npz(tmp_path / "heat.npz")
        live = signature_from_store(store, workload="w", platform="p")
        rebuilt = signature_from_npz(tmp_path / "heat.npz", workload="w",
                                     platform="p")
        assert rebuilt.to_json() == live.to_json()

    def test_npz_key_set_is_exact(self, tmp_path):
        """Each matrix is stored once, its channel axis named by
        ``channels``."""
        store = _store_with_pattern()
        store.to_npz(tmp_path / "heat.npz")
        with np.load(tmp_path / "heat.npz") as npz:
            assert set(npz.files) == {
                "labels", "nwords", "sizes", "bases", "serials",
                "epochs_closed", "channels",
                "a0_counts", "a0_epochs", "a1_counts", "a1_epochs"}
            assert tuple(npz["channels"]) == CHANNELS
            assert npz["a0_counts"].shape == (3, len(CHANNELS), 16)

    def test_npz_without_sizes_is_a_read_error(self, tmp_path, capsys):
        """``repro-sig compute --npz``: exit 2, one line naming the file
        and the missing array."""
        from repro.signature.cli import main

        store = _store_with_pattern()
        store.to_npz(tmp_path / "heat.npz")
        with np.load(tmp_path / "heat.npz") as npz:
            kept = {k: npz[k] for k in npz.files if k != "sizes"}
        np.savez_compressed(tmp_path / "old.npz", **kept)
        assert main(["compute", "--npz", str(tmp_path / "old.npz"),
                     "--out", str(tmp_path / "sig")]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0] == (f"error: cannot read {tmp_path}/old.npz: "
                            "sizes is not a file in the archive")
        assert captured.out == ""
        assert not (tmp_path / "sig").exists()


class TestBulkRounding:
    def test_matches_builtin_round(self):
        ties = (np.arange(0, 1_000_000, 997) + 0.5) / 1e6
        values = np.concatenate([
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
            np.random.default_rng(5).random(20_000),
            [0.0, 1.0, 5e-324, 1e-300, 1e-12, 5e-7, 1.5e-6, 0.9999995]])
        expected = [repr(round(v, 6)) for v in values.tolist()]
        assert [repr(v) for v in _round_array(values).tolist()] == expected

    def test_keeps_the_array_shape(self):
        rows = np.random.default_rng(6).random((3, N_FEATURES))
        assert _round_array(rows).tolist() == [
            [round(v, 6) for v in row] for row in rows.tolist()]
        assert _round_array(np.zeros((0, N_FEATURES))).tolist() == []


class TestCachedEpochVectors:
    def test_cached_vector_is_epoch_vector(self):
        for heat in _store_with_pattern().allocations():
            for snap in heat.epochs:
                assert snap.vector is snap.vector
                assert not snap.vector.flags.writeable
                assert (snap.vector.tobytes()
                        == epoch_vector(snap.counts).tobytes())

    def test_per_iteration_report_reduces_each_epoch_once(
            self, tmp_path, monkeypatch):
        calls = []

        def counting(counts):
            calls.append(1)
            return epoch_vector(counts)

        monkeypatch.setattr(vector_module, "epoch_vector", counting)
        store = run_report("sw", "pcie", tmp_path, materialize=False)["store"]
        snaps = [s for h in store.allocations() for s in h.epochs]
        # Live phase tracking computes each allocation-epoch's vector;
        # the end-of-run signature reuses it rather than recomputing.
        assert len(calls) == len(snaps) == 1533
        for snap in snaps:
            assert (snap.vector.tobytes()
                    == epoch_vector(snap.counts).tobytes())
