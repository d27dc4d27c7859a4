"""Membership test for the basis polytope of a frame, and general position.

The basis polytope B(U) of vectors u_1..u_n consists of the nonnegative
coefficient vectors c with sum c_i = d such that for every subset A of
indices, dim span{u_i : i in A} >= sum_{i in A} c_i. Radial isotropic
scaling with respect to c exists exactly when c lies in B(U). A failing
scaling solve reads a blocking subset off its last iterate, but cannot
decide points near the boundary; ``basis_polytope_membership`` decides
membership exactly by enumerating subsets. The tests cross-validate it
on random directions against the support function max_{v in B(U)} u^T v,
evaluated by the matroid greedy rule in their own oracle.

These tests certify hypotheses of downstream solvers, so they refuse
oversized instances instead of approximating.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .frames import Frame

# Relative singular-value threshold for numerical rank. Perturbations used
# by the repair pipeline sit far above machine noise, so placement is not
# delicate.
RANK_RTOL = 1e-9

# Slack for coefficient-sum violations; c sums to d within 1e-10.
_VIOLATION_TOL = 1e-8

# Hard ceiling on brute-force subset enumeration.
MAX_POLYTOPE_N = 20
SUBSET_CAP = 10**6

_COEFF_SUM_TOL = 1e-10


def uniform_coefficients(d: int, n: int) -> np.ndarray:
    """The coefficient vector with every entry d/n."""
    return np.full(n, d / n)


def validate_coefficients(c, d: int, n: int) -> np.ndarray:
    """Check that c has n nonnegative entries summing to d."""
    ca = np.asarray(c, dtype=float).ravel()
    if ca.size != n:
        raise ValueError(f"coefficient vector has length {ca.size}, expected {n}")
    if np.any(ca < -_COEFF_SUM_TOL):
        raise ValueError("coefficients must be nonnegative")
    if abs(float(ca.sum()) - d) > _COEFF_SUM_TOL * max(1.0, d):
        raise ValueError(f"coefficients must sum to d={d}, got {ca.sum()!r}")
    return ca


def numerical_rank(vectors: np.ndarray) -> int:
    """Rank of the span of the given row vectors via singular values."""
    sigma = np.linalg.svd(np.atleast_2d(vectors), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))


def basis_polytope_membership(frame: Frame, c) -> tuple[int, ...] | None:
    """Brute-force test of c in B(U) over all nonempty subsets.

    Returns None when c lies in B(U), and otherwise a violating subset
    (0-based indices). Subsets are visited depth-first in lexicographic
    order, so that subset is deterministic. Once a subset reaches full
    rank d its supersets cannot violate (subset sums never exceed d) and
    the subtree is pruned. Refuses frames with n > ``MAX_POLYTOPE_N``.
    """
    if frame.n > MAX_POLYTOPE_N:
        raise ValueError(
            f"subset enumeration refused for n={frame.n} > {MAX_POLYTOPE_N}; "
            "membership would be approximate"
        )
    ca = validate_coefficients(c, frame.d, frame.n)
    vecs = frame.vectors
    d, n = frame.d, frame.n
    chosen: list[int] = []

    def descend(start: int, csum: float) -> tuple[int, ...] | None:
        for i in range(start, n):
            chosen.append(i)
            total = csum + ca[i]
            rank = numerical_rank(vecs[chosen])
            if total > rank + _VIOLATION_TOL:
                found = tuple(chosen)
                chosen.pop()
                return found
            if rank < d:
                found = descend(i + 1, total)
                if found is not None:
                    chosen.pop()
                    return found
            chosen.pop()
        return None

    return descend(0, 0.0)


def all_d_subsets_independent(frame: Frame, max_subsets: int = SUBSET_CAP) -> bool:
    """True iff every d-subset of the frame has numerical rank d.

    Checks subsets in batches with early exit on the first failure;
    refuses instances with more than ``max_subsets`` subsets.
    """
    d, n = frame.d, frame.n
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    count = math.comb(n, d)
    if count > max_subsets:
        raise ValueError(f"C({n},{d}) = {count} exceeds the cap of {max_subsets} subsets")
    vecs = frame.vectors
    batch: list[tuple[int, ...]] = []

    def batch_ok(subsets: list[tuple[int, ...]]) -> bool:
        stacked = vecs[np.array(subsets)]
        sigma = np.linalg.svd(stacked, compute_uv=False)
        return bool(np.all(sigma[:, -1] > RANK_RTOL * sigma[:, 0]))

    for subset in combinations(range(n), d):
        batch.append(subset)
        if len(batch) == 4096:
            if not batch_ok(batch):
                return False
            batch = []
    if batch and not batch_ok(batch):
        return False
    return True
