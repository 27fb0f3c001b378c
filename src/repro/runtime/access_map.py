"""Access maps: per-word spatial views of shadow state (Figs 5, 7, 8, 10).

An :class:`AccessMap` freezes one category mask ("CPU writes", "GPU reads
of CPU-origin values", ...) of one allocation at diagnostic time.  Maps can
be reshaped to a matrix geometry, rendered as ASCII art (how the harness
regenerates the paper's map figures in a terminal) or exported as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AccessMap", "overlap"]


@dataclass(frozen=True, eq=False)
class AccessMap:
    """One boolean per traced 32-bit word of an allocation.

    Equal when name, category and every mask entry match.  Unhashable:
    the mask is a mutable array.
    """

    name: str
    category: str
    mask: np.ndarray  # bool, one entry per word

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessMap):
            return NotImplemented
        return (self.name == other.name and self.category == other.category
                and np.array_equal(self.mask, other.mask))

    __hash__ = None  # type: ignore[assignment]

    @property
    def words(self) -> int:
        """Number of words covered."""
        return len(self.mask)

    @property
    def touched(self) -> int:
        """Words set in this map."""
        return int(self.mask.sum())

    @property
    def density(self) -> float:
        """Fraction of words set."""
        return self.touched / self.words if self.words else 0.0

    def as_grid(self, width: int) -> np.ndarray:
        """Reshape to rows of ``width`` words (last row zero-padded)."""
        if width <= 0:
            raise ValueError("width must be positive")
        rows = -(-self.words // width)
        grid = np.zeros(rows * width, dtype=bool)
        grid[: self.words] = self.mask
        return grid.reshape(rows, width)

    def to_ascii(self, width: int = 64, *, on: str = "#", off: str = ".") -> str:
        """Render as ASCII art, one character per word.

        Vectorized like :meth:`to_csv`: ``np.where`` picks the glyph per
        word and each row joins in one call, instead of a Python loop over
        every character of a potentially megabyte-scale map.
        """
        grid = self.as_grid(width)
        chars = np.where(grid, on, off)
        return "\n".join("".join(row) for row in chars.tolist())

    def to_csv(self) -> str:
        """``word_index,accessed`` rows for external plotting."""
        if self.words == 0:
            return "word,accessed"
        # Vectorized row assembly: megabyte allocations have hundreds of
        # thousands of words, so build the rows with numpy, not a Python
        # loop over every word.
        idx = np.arange(self.words).astype("U10")
        vals = np.where(self.mask, ",1", ",0")
        return "word,accessed\n" + "\n".join(np.char.add(idx, vals))

    def runs(self) -> list[tuple[int, int]]:
        """Half-open ``(start, stop)`` runs of set words."""
        idx = np.flatnonzero(self.mask)
        if len(idx) == 0:
            return []
        breaks = np.flatnonzero(np.diff(idx) != 1)
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [len(idx)]))
        return [(int(idx[a]), int(idx[b - 1]) + 1) for a, b in zip(starts, stops)]


def overlap(a: AccessMap, b: AccessMap, category: str | None = None) -> AccessMap:
    """Words set in both maps (e.g. Fig 5e/5f: GPU reads over CPU writes)."""
    if a.words != b.words:
        raise ValueError("maps cover different allocations")
    return AccessMap(
        name=a.name,
        category=category or f"{a.category}&{b.category}",
        mask=a.mask & b.mask,
    )
