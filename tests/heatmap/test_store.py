"""Heat store: bucket math, channels, epoch freeze, attribution, exports."""

import numpy as np
import pytest

from repro.heatmap.store import (
    CHANNELS,
    OTHER_SITE,
    AllocationHeat,
    HeatStore,
    SourceSite,
)
from repro.memsim import AddressSpace, MemoryKind, Processor


@pytest.fixture
def space():
    return AddressSpace()


def _alloc(space, size, label="a"):
    return space.allocate(size, MemoryKind.MANAGED, label=label)


class TestBucketGeometry:
    def test_buckets_partition_words_exactly(self, space):
        heat = AllocationHeat(_alloc(space, 1000), nbuckets=7)
        # 1000 bytes -> 250 words split into 7 fair-division buckets.
        assert heat.nwords == 250
        spans = [heat.bucket_word_range(b) for b in range(heat.nbuckets)]
        assert spans[0][0] == 0 and spans[-1][1] == 250
        for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
            assert ahi == blo and ahi > alo

    def test_bucket_of_matches_bucket_word_ranges(self, space):
        # Sizes where nwords % nbuckets != 0: w*nbuckets//nwords would
        # disagree with the fair-division spans for some words.
        for size, nbuckets in ((12, 2), (1000, 7), (44, 4)):
            heat = AllocationHeat(_alloc(space, size), nbuckets=nbuckets)
            words = np.arange(heat.nwords)
            expect = [b for b in range(heat.nbuckets)
                      for _ in range(*heat.bucket_word_range(b))]
            assert heat.bucket_of(words).tolist() == expect
            assert [int(heat.bucket_of(int(w))) for w in words] == expect

    def test_small_alloc_clamps_bucket_count(self, space):
        heat = AllocationHeat(_alloc(space, 8), nbuckets=64)
        assert heat.nwords == 2
        assert heat.nbuckets == 2

    def test_range_heat_lands_in_covering_buckets(self, space):
        heat = AllocationHeat(_alloc(space, 64 * 4), nbuckets=4)
        heat.add(0, 0, 16)  # words [0,16) == bucket 0 exactly
        heat.freeze(0)
        assert heat.epochs[0].heat.tolist() == [16, 0, 0, 0]

    def test_index_heat_counts_each_word_once(self, space):
        heat = AllocationHeat(_alloc(space, 64 * 4), nbuckets=4)
        heat.add(3, 0, 0, idx=np.array([0, 1, 16, 17, 63]))
        heat.freeze(0)
        assert heat.epochs[0].counts[3].tolist() == [2, 2, 0, 1]


class TestChannelsAndEpochs:
    def test_channel_routing(self, space):
        store = HeatStore(nbuckets=4, attribute=False)
        a = _alloc(space, 64)
        store.record(a, Processor.CPU, is_write=False, lo=0, hi=4)
        store.record(a, Processor.CPU, is_write=True, lo=0, hi=4)
        store.record(a, Processor.GPU, is_write=False, lo=0, hi=4)
        store.record(a, Processor.GPU, is_write=True, lo=0, hi=4)
        store.advance_epoch(0)
        e = store.allocations()[0].epochs[0]
        for i, name in enumerate(CHANNELS):
            assert e.channel(name).sum() == 4, name
        assert e.total == 16

    def test_epochs_freeze_and_accumulate_independently(self, space):
        store = HeatStore(nbuckets=4, attribute=False)
        a = _alloc(space, 64)
        store.record(a, Processor.GPU, is_write=True, lo=0, hi=8)
        store.advance_epoch(0)
        store.record(a, Processor.GPU, is_write=True, lo=8, hi=16)
        store.advance_epoch(1)
        heat = store.allocations()[0]
        assert [e.epoch for e in heat.epochs] == [0, 1]
        assert heat.matrix().shape == (2, 4)
        assert heat.total == 16
        assert store.epochs_closed == [0, 1]

    def test_empty_epoch_is_skipped(self, space):
        store = HeatStore(attribute=False)
        a = _alloc(space, 64)
        store.record(a, Processor.CPU, is_write=True, lo=0, hi=4)
        store.advance_epoch(0)
        store.advance_epoch(1)  # nothing recorded
        assert len(store.allocations()[0].epochs) == 1

    def test_flush_current_freezes_residual_heat(self, space):
        store = HeatStore(attribute=False)
        store.record(_alloc(space, 64), Processor.CPU, is_write=True,
                     lo=0, hi=4)
        store.flush_current()
        assert store.allocations()[0].epochs[0].epoch == 0
        store.flush_current()  # idempotent when nothing is pending
        assert len(store.allocations()[0].epochs) == 1

    def test_base_reuse_keeps_separate_histories(self, space):
        store = HeatStore(attribute=False)
        a = _alloc(space, 64, label="first")
        store.record(a, Processor.CPU, is_write=True, lo=0, hi=4)
        space.free(a.base)
        b = space.allocate(64, MemoryKind.MANAGED, label="second")
        store.record(b, Processor.GPU, is_write=True, lo=0, hi=4)
        store.flush_current()
        assert {h.label for h in store.allocations()} >= {"first"}
        assert len(store) >= 2 or a.base != b.base


class TestAttribution:
    def test_explicit_site_is_recorded(self, space):
        store = HeatStore(nbuckets=2, attribute=False)
        a = _alloc(space, 64)
        site = SourceSite("kernel.cu", 42, "main")
        store.record(a, Processor.GPU, is_write=True, lo=0, hi=16, site=site)
        store.advance_epoch(0)
        top = store.allocations()[0].epochs[0].top_sites()
        assert top == [(site, 16)]
        assert site.label == "kernel.cu:42 (main)"

    def test_site_overflow_folds_into_other(self, space):
        heat = AllocationHeat(_alloc(space, 64), nbuckets=2, max_sites=2)
        for i in range(5):
            heat.add(1, 0, 2, site=SourceSite("f.py", i))
        heat.freeze(0)
        sites = heat.epochs[0].sites
        assert OTHER_SITE in sites
        assert sum(int(v.sum()) for v in sites.values()) == 10

    def test_hottest_region_names_its_sites(self, space):
        heat = AllocationHeat(_alloc(space, 64 * 4), nbuckets=4)
        hot = SourceSite("hot.py", 1)
        cold = SourceSite("cold.py", 2)
        heat.add(1, 32, 48, site=hot)   # bucket 2, 16 words
        heat.add(1, 0, 4, site=cold)    # bucket 0, 4 words
        heat.freeze(0)
        region = heat.hottest_region()
        assert region["epoch"] == 0
        assert (region["word_lo"], region["word_hi"]) == (32, 48)
        assert region["sites"][0][0] == hot


class TestExports:
    def _store(self, space):
        store = HeatStore(nbuckets=4, attribute=False)
        a = _alloc(space, 256, label="demo")
        store.record(a, Processor.GPU, is_write=True, lo=0, hi=32,
                     site=SourceSite("k.cu", 7))
        store.advance_epoch(0)
        return store

    def test_csv_long_form(self, space):
        csv = self._store(space).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("allocation,epoch,bucket,word_lo,word_hi")
        assert any(line.startswith("demo,0,") for line in lines[1:])
        assert "k.cu:7" in csv

    def test_npz_round_trip(self, space, tmp_path):
        store = self._store(space)
        path = store.to_npz(tmp_path / "heat.npz")
        data = np.load(path, allow_pickle=False)
        assert list(data["labels"]) == ["demo"]
        assert data["a0_counts"].shape == (1, 4, 4)
        assert data["a0_counts"].sum() == 32
        assert list(data["epochs_closed"]) == [0]
