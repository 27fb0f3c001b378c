"""``np.unique`` for index arrays that usually arrive sorted.

Every gather/scatter in the access funnel reduces its index array to the
unique pages it touches and the unique shadow words it marks.  Most of
those arrays are already ascending (stencil and wavefront gathers,
strided Spatter patterns), so :func:`unique` checks monotonicity in one
comparison pass and only sorts when the input is out of order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unique"]


def unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` in values and dtype, without sorting sorted input.

    A strictly ascending input (empty and one-element included) comes
    back flattened but otherwise as itself -- callers pass fresh
    temporaries, so sharing memory is harmless; a non-decreasing one
    drops its repeats; anything else goes through ``np.unique``.
    """
    a = a.ravel()
    n = len(a)
    if n < 2:
        return a
    # new[i]: a[i] is larger than its predecessor (a[0] always counts).
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater(a[1:], a[:-1], out=new[1:])
    if np.count_nonzero(new) == n:
        return a
    if np.count_nonzero(a[1:] < a[:-1]):
        return np.unique(a)
    return a[new]
