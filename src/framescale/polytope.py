"""Membership tests for the basis polytope of a frame and its shrunk form.

The basis polytope B(U) of vectors u_1..u_n consists of the nonnegative
coefficient vectors c with sum c_i = d such that for every subset A of
indices, dim span{u_i : i in A} >= sum_{i in A} c_i. The shrunk polytope
(1-alpha) B(U) additionally requires 0 <= c_i <= 1 and, for every
nonnegative direction u with minimum entry zero,

    (1 - alpha) * max_{v in B(U)} u^T v >= u^T c.

Both sides of that directional condition are positively homogeneous and
linear on each permutation cone, whose extreme rays (given u >= 0 with
u_min = 0) are indicators of proper subsets; it therefore suffices to
check every proper subset S with (1 - alpha) * rank(S) >= sum_{i in S} c_i.
The tests cross-validate that reduction on random directions against the
support function max_{v in B(U)} u^T v, evaluated by the matroid greedy
rule in their own oracle.

These tests certify hypotheses of downstream solvers, so they refuse
oversized instances instead of approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a polytope membership test with an optional certificate."""

    in_polytope: bool
    violating_subset: tuple[int, ...] | None


def uniform_coefficients(d: int, n: int) -> np.ndarray:
    """The coefficient vector with every entry d/n."""
    return np.full(n, d / n)


def validate_coefficients(c, d: int, n: int, *, box: bool = False) -> np.ndarray:
    """Check sum-to-d, nonnegativity and (optionally) the 0 <= c_i <= 1 box."""
    ca = np.asarray(c, dtype=float).ravel()
    if ca.size != n:
        raise ValueError(f"coefficient vector has length {ca.size}, expected {n}")
    if np.any(ca < -_COEFF_SUM_TOL):
        raise ValueError("coefficients must be nonnegative")
    if abs(float(ca.sum()) - d) > _COEFF_SUM_TOL * max(1.0, d):
        raise ValueError(f"coefficients must sum to d={d}, got {ca.sum()!r}")
    if box and np.any(ca > 1.0 + _COEFF_SUM_TOL):
        raise ValueError("coefficients must satisfy c_i <= 1")
    return ca


def numerical_rank(vectors: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank of the span of the given row vectors via singular values."""
    sigma = np.linalg.svd(np.atleast_2d(vectors), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rtol * sigma[0]))


def _check_size(n: int) -> None:
    if n > MAX_POLYTOPE_N:
        raise ValueError(
            f"subset enumeration refused for n={n} > {MAX_POLYTOPE_N}; "
            "membership would be approximate"
        )


def basis_polytope_membership(frame: Frame, c) -> MembershipResult:
    """Brute-force test of c in B(U) over all nonempty subsets.

    Subsets are visited depth-first in lexicographic order, so the
    violating subset returned (0-based indices) is deterministic. Once a
    subset reaches full rank d its supersets cannot violate (subset sums
    never exceed d) and the subtree is pruned.
    """
    _check_size(frame.n)
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

    violation = descend(0, 0.0)
    return MembershipResult(in_polytope=violation is None, violating_subset=violation)


def shrunk_polytope_membership(frame: Frame, c, alpha: float) -> MembershipResult:
    """Test c in (1-alpha) B(U) via proper-subset enumeration.

    At a full-rank subset the subtree reduces to a closed form: among its
    proper supersets the coefficient sum is maximized by excluding only
    the cheapest remaining index, so one comparison settles the subtree.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    _check_size(frame.n)
    ca = validate_coefficients(c, frame.d, frame.n, box=True)
    vecs = frame.vectors
    d, n = frame.d, frame.n
    total_mass = float(ca.sum())
    shrink = 1.0 - alpha
    chosen: list[int] = []

    def descend(start: int, csum: float) -> tuple[int, ...] | None:
        for i in range(start, n):
            chosen.append(i)
            total = csum + ca[i]
            if len(chosen) < n:
                rank = numerical_rank(vecs[chosen])
                if total > shrink * rank + _VIOLATION_TOL:
                    found = tuple(chosen)
                    chosen.pop()
                    return found
                if rank < d:
                    found = descend(i + 1, total)
                    if found is not None:
                        chosen.pop()
                        return found
                elif len(chosen) < n - 1:
                    remaining = [j for j in range(n) if j not in chosen]
                    cheapest = min(remaining, key=lambda j: ca[j])
                    worst = total_mass - ca[cheapest]
                    if worst > shrink * d + _VIOLATION_TOL:
                        found = tuple(j for j in range(n) if j != cheapest)
                        chosen.pop()
                        return found
            chosen.pop()
        return None

    violation = descend(0, 0.0)
    return MembershipResult(in_polytope=violation is None, violating_subset=violation)


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
