"""Unit tests for access maps and report formatting."""

import numpy as np
import pytest

from repro.runtime import AccessMap, overlap


def make_map(bits, name="m", cat="cpu_write"):
    return AccessMap(name, cat, np.array(bits, dtype=bool))


class TestAccessMap:
    def test_counts_and_density(self):
        m = make_map([1, 0, 1, 1])
        assert m.touched == 3
        assert m.words == 4
        assert m.density == pytest.approx(0.75)

    def test_as_grid_pads_last_row(self):
        m = make_map([1, 1, 1, 0, 1])
        grid = m.as_grid(2)
        assert grid.shape == (3, 2)
        assert not grid[2, 1]  # padding

    def test_ascii_rendering(self):
        m = make_map([1, 0, 0, 1])
        art = m.to_ascii(2)
        assert art == "#.\n.#"

    def test_custom_glyphs(self):
        m = make_map([1, 0])
        assert m.to_ascii(2, on="X", off="_") == "X_"

    def test_runs(self):
        m = make_map([1, 1, 0, 1, 0, 0, 1, 1, 1])
        assert m.runs() == [(0, 2), (3, 4), (6, 9)]
        assert make_map([0, 0]).runs() == []

    def test_csv(self):
        csv = make_map([1, 0]).to_csv()
        assert csv.splitlines() == ["word,accessed", "0,1", "1,0"]

    def test_csv_vectorized_matches_reference_on_large_map(self):
        rng = np.random.default_rng(42)
        mask = rng.integers(0, 2, size=200_003).astype(bool)
        amap = make_map(mask.tolist())
        reference = "\n".join(
            ["word,accessed"] + [f"{i},{int(v)}" for i, v in enumerate(mask)])
        assert amap.to_csv() == reference

    def test_csv_empty_map(self):
        assert make_map([]).to_csv() == "word,accessed"

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            make_map([1]).as_grid(0)

    def test_equality_compares_name_category_and_mask(self):
        m = make_map([1, 0, 1])
        assert m == make_map([1, 0, 1])
        assert not m != make_map([1, 0, 1])
        assert m != make_map([1, 1, 1])
        assert m != make_map([1, 0])  # different length: unequal, no raise
        assert m != make_map([1, 0, 1], name="other")
        assert m != make_map([1, 0, 1], cat="gpu_read")
        assert m != "m"
        assert m in [make_map([0]), make_map([1, 0, 1])]

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_map([1, 0]))


class TestOverlap:
    def test_intersection(self):
        a = make_map([1, 1, 0, 0], cat="cpu_write")
        b = make_map([0, 1, 1, 0], cat="gpu_read")
        both = overlap(a, b)
        assert list(both.mask) == [False, True, False, False]
        assert both.category == "cpu_write&gpu_read"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            overlap(make_map([1]), make_map([1, 0]))
