"""``repro.arrays.unique`` equals ``np.unique`` in values and dtype."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import unique
from repro.cudart.api import CudaRuntime
from repro.memsim import PAGE_SIZE, AddressSpace, MemoryKind, intel_pascal
from repro.runtime import ShadowBlock

DTYPES = (np.int64, np.int32, np.uint32, np.uint64, np.intp)

#: Every input order ``unique`` tells apart: as drawn (usually unsorted),
#: non-decreasing with repeats, and strictly ascending.
ORDERS = ("as-drawn", "non-decreasing", "strict")


def arrange(values: list[int], order: str) -> list[int]:
    if order == "non-decreasing":
        return sorted(values + values[: len(values) // 2])
    if order == "strict":
        return sorted(set(values))
    return values


@st.composite
def index_arrays(draw, *, bound: int = 4096, min_size: int = 0,
                 dtypes=DTYPES) -> np.ndarray:
    values = draw(st.lists(st.integers(0, bound - 1), min_size=min_size,
                           max_size=64))
    return np.array(arrange(values, draw(st.sampled_from(ORDERS))),
                    dtype=draw(st.sampled_from(dtypes)))


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_corner_cases():
    for values in ([], [7], [1, 2, 3], [1, 1, 2, 2, 2, 9], [3, 1, 2, 1]):
        for dtype in DTYPES:
            a = np.array(values, dtype=dtype)
            assert_same(unique(a), np.unique(a))


@settings(max_examples=300, deadline=None)
@given(index_arrays())
def test_matches_np_unique(a):
    want = np.unique(a)
    assert_same(unique(a.copy()), want)


@settings(max_examples=150, deadline=None)
@given(index_arrays(dtypes=(np.int64,)),
       st.sampled_from([1, 4, 8, 16]), st.integers(0, 64))
def test_word_indices_match_np_unique(indices, elem_size, byte_offset):
    space = AddressSpace()
    block = ShadowBlock(space.allocate(byte_offset + 4096 * elem_size,
                                       MemoryKind.MANAGED))
    starts = byte_offset + indices * elem_size
    span = -(-elem_size // 4)
    words = (starts[:, None] // 4 + np.arange(span)[None, :]).ravel()
    assert_same(block.word_indices(byte_offset, elem_size, indices),
                np.unique(words))


@settings(max_examples=100, deadline=None)
@given(index_arrays(bound=64 * PAGE_SIZE // 16, min_size=1,
                    dtypes=(np.int64,)),
       st.sampled_from([1, 4, 8, 16]))
def test_record_access_page_set_matches_np_unique(indices, elem_size):
    rt = CudaRuntime(intel_pascal(), materialize=False)
    alloc = rt.malloc_managed(64 * PAGE_SIZE, label="a").alloc
    um = rt.platform.um
    real, seen = um.access, []

    def spy(*args, pages=None, **kwargs):
        seen.append(pages)
        return real(*args, pages=pages, **kwargs)

    um.access = spy
    rt.record_access(alloc, 0, elem_size, len(indices), is_write=False,
                     indices=indices, is_rmw=False)
    assert len(seen) == 1
    assert_same(seen[0], np.unique(indices * elem_size // PAGE_SIZE))
