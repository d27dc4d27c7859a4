"""Membership test for the basis polytope of a frame, and general position.

The basis polytope B(U) of vectors u_1..u_n in R^d holds the nonnegative
c with sum c_i = d and sum_{i in S} c_i <= dim span{u_i : i in S} for
every subset S; radial isotropic scaling for c exists exactly when c lies
in B(U). The repair needs c = d/n only, which lies in B(U) exactly when
|S| d/n <= dim span S for every S. A failing scaling solve reads a
blocking subset off its last iterate, but cannot decide points near the
boundary; ``basis_polytope_membership`` decides exactly by enumerating
subsets. The tests cross-validate it on random directions against the
support function max_{v in B(U)} u^T v, evaluated by the matroid greedy
rule in their own oracle.

``all_d_subsets_independent`` is the exact general-position test of the
repair pipeline. It screens each d-subset with a lower bound on
sigma_min / sigma_max built from the determinant and the Frobenius norm,
and runs an SVD only on the subsets that the bound cannot clear, so its
verdict is that of an SVD on every subset.

These tests certify hypotheses of downstream solvers, so they refuse
oversized instances instead of approximating.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from .frames import Frame

# Relative singular-value threshold for numerical rank. The repair
# pipeline's general-position perturbations are at most 10 * RANK_RTOL
# relative to the vectors' norms, and about 1e-15 at eps = 1e-7, so they
# cannot be counted on to lift a dependent d-subset past it.
RANK_RTOL = 1e-9

# Slack for the violation test |S| d/n > dim span S, which sums rounded d/n.
_VIOLATION_TOL = 1e-8

# Hard ceilings on brute-force subset enumeration: the frame size for
# basis-polytope membership, and the number of d-subsets for general position.
MAX_POLYTOPE_N = 20
SUBSET_CAP = 200_000

# The general-position screen: d-subsets per batch, and the factor by which
# a subset's determinant bound must clear RANK_RTOL to skip its SVD.
_SUBSET_BATCH = 1024
_SCREEN_MARGIN = 16.0
_TINY = np.finfo(float).tiny


def numerical_rank(vectors: np.ndarray) -> int:
    """Rank of the span of the given row vectors via singular values."""
    sigma = np.linalg.svd(np.atleast_2d(vectors), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_RTOL * sigma[0]))


def basis_polytope_membership(frame: Frame) -> tuple[int, ...] | None:
    """Brute-force test of d/n in B(U) over all nonempty subsets.

    Returns None when d/n lies in B(U), and otherwise a violating subset
    S with |S| d/n > dim span S (0-based indices). Subsets are visited
    depth-first in lexicographic order, so that subset is deterministic.
    Once a subset reaches full rank d its supersets cannot violate (subset
    sums never exceed d) and the subtree is pruned. Refuses frames with
    n > ``MAX_POLYTOPE_N``.
    """
    if frame.n > MAX_POLYTOPE_N:
        raise ValueError(
            f"subset enumeration refused for n={frame.n} > {MAX_POLYTOPE_N}; "
            "membership would be approximate"
        )
    vecs = frame.vectors
    d, n = frame.d, frame.n
    c = d / n
    chosen: list[int] = []

    def descend(start: int, csum: float) -> tuple[int, ...] | None:
        for i in range(start, n):
            chosen.append(i)
            total = csum + c
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


def all_d_subsets_independent(frame: Frame) -> bool:
    """True iff every d-subset of the frame has numerical rank d.

    A subset's d x d stack S has rank d when sigma_min > ``RANK_RTOL`` *
    sigma_max. Since sigma_max <= ||S||_F, and AM-GM bounds the product of
    the other d - 1 singular values by (||S||_F^2 / (d - 1))^((d - 1)/2),

        sigma_min / sigma_max >= |det S| (d - 1)^((d - 1)/2) / ||S||_F^d.

    A subset whose bound, taken in logs from ``slogdet``, exceeds
    ``_SCREEN_MARGIN`` * ``RANK_RTOL`` passes without an SVD; every other
    subset, a zero stack included, gets the singular-value test on its
    rows in subset order. Rounding in the bound is about 1e-6 relative at
    worst, far inside the margin, so the verdict is the SVD test's on
    every subset. Subsets go in batches of ``_SUBSET_BATCH`` with early
    exit on the first failing batch; instances with more than
    ``SUBSET_CAP`` subsets are refused.
    """
    d, n = frame.d, frame.n
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    count = math.comb(n, d)
    if count > SUBSET_CAP:
        raise ValueError(f"C({n},{d}) = {count} exceeds the cap of {SUBSET_CAP} subsets")
    vecs = frame.vectors
    log_floor = math.log(_SCREEN_MARGIN * RANK_RTOL) - (d - 1) / 2 * math.log(max(d - 1, 1))
    subsets = combinations(range(n), d)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_BATCH)), np.intp)
        if flat.size == 0:
            return True
        stacked = vecs[flat.reshape(-1, d)]
        # A squared norm below the smallest normal float is raised to it,
        # which only lowers the bound: a zero stack gives -inf, never NaN,
        # and a norm that underflowed cannot clear its subset.
        sq_norms = np.maximum(np.einsum("kij,kij->k", stacked, stacked), _TINY)
        log_bound = np.linalg.slogdet(stacked)[1] - d / 2 * np.log(sq_norms)
        doubtful = stacked[~(log_bound > log_floor)]
        if doubtful.size:
            sigma = np.linalg.svd(doubtful, compute_uv=False)
            if not np.all(sigma[:, -1] > RANK_RTOL * sigma[:, 0]):
                return False
