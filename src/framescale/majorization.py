"""Prefix-sum majorization and the transport distance between real sequences.

For equal-length sequences x and y (entries may be negative), x majorizes y
when every prefix sum of x dominates the corresponding prefix sum of y and
the totals agree. The transport distance

    T(x, y) = sum_j j * (y_j - x_j) = sum_j (prefix_x(j) - prefix_y(j))

is the signed cost of moving the coordinate-wise discrepancy along the index
line; when x majorizes y it equals the prefix-sum Wasserstein distance
W(x, y) = sum_j |prefix_x(j) - prefix_y(j)|, and it bounds the l1 gap via
||x - y||_1 <= 2 T(x, y) (one unit of mass moved one index fixes two
coordinate differences, so the factor 2 is tight, e.g. x=(1,0), y=(0,1)).

``majorization_rows`` evaluates the majorization test and T on paired rows
of (..., d) arrays along the last axis, prefix-summed by ``_prefix_sums``;
the 1-D ``majorizes`` and ``transport_distance`` call it on a single row.
The test itself, its slack and its totals rule, lives only in
``_rows_from_prefix``, which takes the gap of the prefix sums along any
axis. ``repair.audit_lemma_chain`` keeps each vector in a column of a
(d, n) array, prefix-sums all n at once with the transposed triangle
``_upper_ones(d).T`` and calls ``_rows_from_prefix`` along axis 0; it takes
its transports as matrix-vector products, so the three public functions are
the per-vector reference that its tests compare against.
"""

from __future__ import annotations

import functools

import numpy as np

# Tolerance for the equal-totals check, scaled by the l1 mass of x because
# entrywise squares of frame vectors span several orders of magnitude.
MAJORIZATION_TOL = 1e-10


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 1:
        raise ValueError("sequences must have length >= 1")
    return xa, ya


@functools.lru_cache(maxsize=16)
def _upper_ones(d: int) -> np.ndarray:
    """The read-only d x d upper-triangular matrix of ones; x @ it prefix-sums x."""
    tri = np.triu(np.ones((d, d)))
    tri.setflags(write=False)
    return tri


def majorization_rows(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise majorization flags and transport distances of paired rows.

    ``x`` and ``y`` have equal shape (..., d); every quantity is taken
    along the last axis. Row r of x majorizes row r of y when its prefix
    sums dominate and the totals agree, both with the slack
    ``MAJORIZATION_TOL * (1 + ||x_r||_1)``; the transport of row r is
    T(x_r, y_r) = sum_j j (y_rj - x_rj). Returns the boolean flags and the transports, each of shape (...).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    l1 = np.abs(x) @ np.ones(x.shape[-1])
    flags = _rows_from_prefix(_prefix_sums(y) - _prefix_sums(x), l1)
    return flags, (y - x) @ np.arange(1.0, x.shape[-1] + 1.0)


def _rows_from_prefix(deficit, l1, axis: int = -1) -> np.ndarray:
    """Majorization flags of paired sequences x and y, from the gap of their prefix sums.

    ``deficit`` holds prefix_y - prefix_x along ``axis``, and ``l1`` holds
    ||x||_1 of each sequence, shaped like deficit without ``axis``. x
    majorizes y when no entry of the deficit exceeds the slack
    ``MAJORIZATION_TOL * (1 + l1)`` and the totals agree within it, so that
    the last entry lies within the slack on either side.
    """
    slack = MAJORIZATION_TOL * (1.0 + np.asarray(l1))
    worst = deficit.max(axis=axis)
    total = np.take(deficit, -1, axis=axis)
    return (worst <= slack) & (-total <= slack)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis; the d x d triangle only if it is no larger than x."""
    d = x.shape[-1]
    return x @ _upper_ones(d) if d * d <= x.size else np.cumsum(x, axis=-1)


def majorizes(x, y) -> bool:
    """True iff x majorizes y: prefix sums dominate and totals agree.

    Both checks use the slack ``MAJORIZATION_TOL * (1 + ||x||_1)``.
    """
    flag, _ = majorization_rows(*_pair(x, y))
    return bool(flag)


def transport_distance(x, y) -> float:
    """T(x, y) = sum_j j (y_j - x_j), evaluated on any pair.

    The formula is total; callers relying on its transport interpretation
    must ensure x majorizes y themselves.
    """
    _, transport = majorization_rows(*_pair(x, y))
    return float(transport)
