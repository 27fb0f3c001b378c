"""Canonical JSON helper: byte-identical to ``json.dumps(indent=...)``."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.canonjson import dumps
from repro.heatmap.store import HeatStore
from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.signature.vector import RunSignature, signature_from_store

# Arbitrary text plus strings built from JSON's own punctuation (quotes,
# escapes, the ", " and ": " separators) and non-ASCII characters.
_TEXT = st.text(max_size=8) | st.lists(st.sampled_from(
    ['a', ' ', ',', ', ', ': ', '": ', '"', '\\', '\n', '\x00', 'é', '€',
     '😀', '{', ']']), max_size=6).map("".join)

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | _TEXT)

_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(doc=_DOCS, indent=st.sampled_from([1, 2]), sort_keys=st.booleans())
def test_matches_json_dumps(doc, indent, sort_keys):
    assert dumps(doc, indent=indent, sort_keys=sort_keys) == \
        json.dumps(doc, indent=indent, sort_keys=sort_keys)


def test_empty_and_nested_empty_containers():
    for doc in ({}, [], (), [[]], {"a": {}}, [{}, [], [[], {}]],
                {"k": [[], [{}]]}):
        for indent in (1, 2):
            assert dumps(doc, indent=indent, sort_keys=True) == \
                json.dumps(doc, indent=indent, sort_keys=True)


def _store() -> HeatStore:
    space = AddressSpace()
    rng = np.random.default_rng(3)
    store = HeatStore(nbuckets=16, attribute=False)
    a = space.allocate(4 * 200, MemoryKind.MANAGED, label="grid")
    b = space.allocate(4 * 37, MemoryKind.MANAGED, label="aux")
    for epoch in range(4):
        for alloc in (a, b):
            words = alloc.size // 4
            idx = rng.integers(0, words, size=50)
            store.record(alloc, Processor.GPU, is_write=bool(epoch % 2),
                         idx=idx)
            store.record(alloc, Processor.CPU, is_write=False,
                         lo=0, hi=words // (epoch + 1))
        store.advance_epoch(epoch)
    return store


def test_signature_save_load_save_is_byte_identical(tmp_path):
    sig = signature_from_store(_store(), workload="w", platform="p")
    first = sig.save(tmp_path / "a.json").read_bytes()
    assert first.decode() == json.dumps(sig.to_dict(), indent=1,
                                        sort_keys=True) + "\n"
    again = RunSignature.load(tmp_path / "a.json").save(tmp_path / "b.json")
    assert again.read_bytes() == first
