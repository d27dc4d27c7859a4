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

``majorization_rows`` evaluates both the majorization test and T on
paired rows of (..., d) arrays, along the last axis; the 1-D
``majorizes`` and ``transport_distance`` call it on a single row.
"""

from __future__ import annotations

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


def majorization_rows(x, y, tol: float = MAJORIZATION_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise majorization flags and transport distances of paired rows.

    ``x`` and ``y`` have equal shape (..., d); every quantity is taken
    along the last axis. Row r of x majorizes row r of y when its prefix
    sums dominate and the totals agree, both with the slack
    ``tol * (1 + ||x_r||_1)``; the transport of row r is
    T(x_r, y_r) = sum_j j (y_rj - x_rj). Returns the boolean flags and the transports, each of shape (...).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.cumsum(x, axis=-1)
    py = np.cumsum(y, axis=-1)
    slack = tol * (1.0 + np.abs(x).sum(axis=-1))
    totals_agree = np.abs(px[..., -1] - py[..., -1]) <= slack
    flags = totals_agree & np.all(px >= py - slack[..., None], axis=-1)
    j = np.arange(1, x.shape[-1] + 1, dtype=float)
    return flags, (j * (y - x)).sum(axis=-1)


def majorizes(x, y, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff x majorizes y: prefix sums dominate and totals agree.

    Both checks use the slack ``tol * (1 + ||x||_1)``.
    """
    flag, _ = majorization_rows(*_pair(x, y), tol)
    return bool(flag)


def transport_distance(x, y) -> float:
    """T(x, y) = sum_j j (y_j - x_j), evaluated on any pair.

    The formula is total; callers relying on its transport interpretation
    must ensure x majorizes y themselves.
    """
    _, transport = majorization_rows(*_pair(x, y))
    return float(transport)
