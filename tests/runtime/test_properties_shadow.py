"""Property-based tests (hypothesis) for shadow memory invariants."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.runtime import ShadowBlock
from repro.runtime import flags as F

CPU, GPU = Processor.CPU, Processor.GPU

NWORDS = 32


def make_block() -> ShadowBlock:
    space = AddressSpace()
    return ShadowBlock(space.allocate(NWORDS * 4, MemoryKind.MANAGED))


#: One traced operation: (kind, processor, lo, span).
ops = st.tuples(
    st.sampled_from(["r", "w", "rw"]),
    st.sampled_from([CPU, GPU]),
    st.integers(0, NWORDS - 1),
    st.integers(1, 8),
)


def apply_ops(block: ShadowBlock, sequence) -> None:
    for kind, proc, lo, span in sequence:
        hi = min(NWORDS, lo + span)
        if hi <= lo:
            continue
        if kind == "r":
            block.record_read(proc, lo, hi)
        elif kind == "w":
            block.record_write(proc, lo, hi)
        else:
            block.record_rmw(proc, lo, hi)


class TestShadowInvariants:
    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_counts_bounded_by_words(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        c = block.counts()
        for n in (c.cpu_written, c.gpu_written, c.read_cc, c.read_cg,
                  c.read_gc, c.read_gg, c.accessed_words):
            assert 0 <= n <= NWORDS
        assert 0.0 <= c.density <= 1.0

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_alternating_needs_both_sides_and_a_write(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        alt = block.alternating_words()
        m = block.category_masks()
        cpu = m["cpu_write"] | m["cpu_read"]
        gpu = m["gpu_write"] | m["gpu_read"]
        both = (cpu & gpu).sum()
        written = (m["cpu_write"] | m["gpu_write"]).sum()
        assert alt <= both
        assert alt <= written

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_accessed_is_union_of_categories(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        masks = block.category_masks()
        union = (masks["cpu_write"] | masks["gpu_write"]
                 | masks["cpu_read"] | masks["gpu_read"])
        assert (masks["accessed"] == union).all()

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_reset_clears_epoch_but_preserves_origin(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        origin_before = (block.shadow & F.LAST_WRITE_GPU).copy()
        block.reset()
        assert block.counts().accessed_words == 0
        assert (block.shadow & F.LAST_WRITE_GPU == origin_before).all()

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_last_writer_matches_final_write(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        last_writer = {}
        for kind, proc, lo, span in sequence:
            if kind in ("w", "rw"):
                for w in range(lo, min(NWORDS, lo + span)):
                    last_writer[w] = proc
        for w, proc in last_writer.items():
            bit = bool(block.shadow[w] & F.LAST_WRITE_GPU)
            assert bit == (proc is GPU)

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_na_ive_reference_model(self, sequence):
        """Cross-check counts against a dict-based reference tracer."""
        block = make_block()
        apply_ops(block, sequence)

        origin = {}        # word -> last writer
        wrote = {CPU: set(), GPU: set()}
        reads = {("C", "C"): set(), ("C", "G"): set(),
                 ("G", "C"): set(), ("G", "G"): set()}
        for kind, proc, lo, span in sequence:
            for w in range(lo, min(NWORDS, lo + span)):
                if kind in ("r", "rw"):
                    src = "G" if origin.get(w) is GPU else "C"
                    reads[(src, proc.short)].add(w)
                if kind in ("w", "rw"):
                    wrote[proc].add(w)
                    origin[w] = proc
        c = block.counts()
        assert c.cpu_written == len(wrote[CPU])
        assert c.gpu_written == len(wrote[GPU])
        assert c.read_cc == len(reads[("C", "C")])
        assert c.read_cg == len(reads[("C", "G")])
        assert c.read_gc == len(reads[("G", "C")])
        assert c.read_gg == len(reads[("G", "G")])


class TestIndexedUpdates:
    """Scattered updates go through per-byte rule tables; the range path
    applies the rules in place.  Both must give the same bytes."""

    @pytest.mark.parametrize("proc", [CPU, GPU])
    @pytest.mark.parametrize("rule", ["record_read", "record_write",
                                      "record_rmw"])
    def test_every_byte_value(self, rule, proc):
        every = np.arange(256, dtype=np.uint8)
        ranged, indexed = block_with_shadow(every), block_with_shadow(every)
        getattr(ranged, rule)(proc, 0, 256)
        # Reversed and repeated: order and duplicates must not matter.
        idx = np.concatenate([np.arange(256)[::-1], np.arange(0, 256, 3)])
        getattr(indexed, rule)(proc, 0, 0, idx)
        np.testing.assert_array_equal(indexed.shadow, ranged.shadow)

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sequences_match(self, sequence):
        ranged, indexed = make_block(), make_block()
        apply_ops(ranged, sequence)
        rules = {"r": indexed.record_read, "w": indexed.record_write,
                 "rw": indexed.record_rmw}
        for kind, proc, lo, span in sequence:
            idx = np.arange(lo, min(NWORDS, lo + span))
            if len(idx):
                rules[kind](proc, 0, 0, idx)
        np.testing.assert_array_equal(indexed.shadow, ranged.shadow)


def _mask_oracle(shadow: np.ndarray) -> dict[str, int]:
    """The per-bit mask formulas the one-pass counters must reproduce."""
    def n(mask) -> int:
        return int(((shadow & mask) != 0).sum())

    cpu = (shadow & (F.CPU_WROTE | F.READ_CC | F.READ_GC)) != 0
    gpu = (shadow & (F.GPU_WROTE | F.READ_CG | F.READ_GG)) != 0
    written = (shadow & (F.CPU_WROTE | F.GPU_WROTE)) != 0
    return {
        "cpu_written": n(F.CPU_WROTE), "gpu_written": n(F.GPU_WROTE),
        "read_cc": n(F.READ_CC), "read_cg": n(F.READ_CG),
        "read_gc": n(F.READ_GC), "read_gg": n(F.READ_GG),
        "accessed_words": n(F.EPOCH_MASK),
        "alternating": int((cpu & gpu & written).sum()),
        "total_words": len(shadow),
    }


def block_with_shadow(shadow: np.ndarray) -> ShadowBlock:
    space = AddressSpace()
    block = ShadowBlock(space.allocate(len(shadow) * 4, MemoryKind.MANAGED))
    block.shadow[:] = shadow
    return block


#: Arbitrary shadow arrays: dense random bytes, sparse ones (mostly the
#: untouched byte 0, as in a real epoch), all-zero and all-nonzero.
shadow_arrays = st.one_of(
    st.binary(min_size=1, max_size=4096),
    st.lists(st.one_of(st.just(0), st.integers(0, 255)),
             min_size=1, max_size=4096).map(bytes),
    st.integers(1, 4096).map(lambda n: bytes(n)),
    st.lists(st.integers(1, 255), min_size=1, max_size=4096).map(bytes),
).map(lambda b: np.frombuffer(b, dtype=np.uint8).copy())


class TestOnePassCounters:
    @given(shadow_arrays)
    @settings(max_examples=150, deadline=None)
    def test_counts_match_mask_formulas(self, shadow):
        block = block_with_shadow(shadow)
        c = block.counts()
        assert asdict(c) == _mask_oracle(shadow)
        assert block.alternating_words() == c.alternating

    @pytest.mark.parametrize("length", [1, 256, 4099])
    def test_every_byte_value(self, length):
        shadow = (np.arange(length) % 256).astype(np.uint8)
        c = block_with_shadow(shadow).counts()
        assert asdict(c) == _mask_oracle(shadow)

    def test_all_zero_block_counts_nothing(self):
        c = block_with_shadow(np.zeros(4096, np.uint8)).counts()
        assert c.accessed_words == c.alternating == c.cpu_written == 0
        assert c.total_words == 4096
