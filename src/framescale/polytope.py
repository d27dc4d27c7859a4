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
repair pipeline. A subset's d x d stack S has rank d when sigma_min >
``RANK_RTOL`` * sigma_max. Since sigma_max <= ||S||_F, and AM-GM bounds
the product of the other d - 1 singular values by
(||S||_F^2 / (d - 1))^((d - 1)/2), the screen

    rho = |det S| (d - 1)^((d - 1)/2) / ||S||_F^d <= sigma_min / sigma_max

clears every subset whose rho, taken in logs from ``slogdet``, exceeds
``_SCREEN_MARGIN`` * ``RANK_RTOL``; only the others get an SVD. Rounding
in rho is about 1e-6 relative at worst, far inside the margin, so the
verdict is that of an SVD on every subset.

The same bound survives a move. Let E move each row of S by a norm of at
most eta. Then ||E||_2 <= ||E||_F <= sqrt(d) eta, and sigma_max(S) >=
||S||_F / sqrt(d), so Weyl's inequalities give

    sigma_min(S + E) / sigma_max(S + E)
        >= (rho sigma_max(S) - sqrt(d) eta) / (sigma_max(S) + sqrt(d) eta)
        >= (rho ||S||_F - d eta) / (||S||_F + d eta),

the middle term growing with sigma_max(S). A subset whose last bound
exceeds ``_SCREEN_MARGIN`` * ``RANK_RTOL`` passes the SVD test after
every such move, the rounding of S + E included; ``_fragile_subsets``
keeps the others, and ``_subsets_independent`` checks only those. At
eta = 0 the bound is rho.

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


def _d_subsets(n: int, d: int):
    """The d-subsets of range(n) in lexicographic order, as (k, d) index
    arrays of at most ``_SUBSET_BATCH`` rows each."""
    subsets = combinations(range(n), d)
    while (flat := np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_BATCH)), np.intp)).size:
        yield flat.reshape(-1, d)


def _am_gm(d: int) -> float:
    """log (d - 1)^((d - 1)/2), the AM-GM factor of the screen's bound."""
    return (d - 1) / 2 * math.log(max(d - 1, 1))


def _screen(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(|det S| / ||S||_F^d) and ||S||_F^2 for every d x d stack S.

    A squared norm below the smallest normal float is raised to it, which
    only lowers the bound: a zero stack gives -inf, never NaN, and a norm
    that underflowed cannot clear its subset.
    """
    sq_norms = np.maximum(np.einsum("kij,kij->k", stacked, stacked), _TINY)
    return np.linalg.slogdet(stacked)[1] - stacked.shape[-1] / 2 * np.log(sq_norms), sq_norms


def _independent(stacked: np.ndarray) -> bool:
    """True iff every stack has rank d: the screen clears what it can, and
    the singular-value test decides the rest, rows in subset order."""
    log_floor = math.log(_SCREEN_MARGIN * RANK_RTOL) - _am_gm(stacked.shape[-1])
    doubtful = stacked[~(_screen(stacked)[0] > log_floor)]
    if doubtful.size == 0:
        return True
    sigma = np.linalg.svd(doubtful, compute_uv=False)
    return bool(np.all(sigma[:, -1] > RANK_RTOL * sigma[:, 0]))


def all_d_subsets_independent(frame: Frame) -> bool:
    """True iff every d-subset of the frame has numerical rank d.

    Each batch of ``_SUBSET_BATCH`` subsets gets the screen and then the
    singular-value test on what the screen cannot clear (see the module
    docstring), with early exit on the first failing batch; instances with
    more than ``SUBSET_CAP`` subsets are refused.
    """
    d, n = frame.d, frame.n
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    count = math.comb(n, d)
    if count > SUBSET_CAP:
        raise ValueError(f"C({n},{d}) = {count} exceeds the cap of {SUBSET_CAP} subsets")
    vecs = frame.vectors
    return all(_independent(vecs[index]) for index in _d_subsets(n, d))


def _fragile_subsets(frame: Frame, eta: float) -> np.ndarray:
    """The d-subsets that a move of norm at most eta per row may make dependent.

    A subset is kept unless its Weyl bound (see the module docstring)
    exceeds ``_SCREEN_MARGIN`` * ``RANK_RTOL``; the kept subsets come as a
    (k, d) index array, lowest bound first.
    """
    d = frame.d
    kept, bounds = [], []
    for index in _d_subsets(frame.n, d):
        log_bound, sq_norms = _screen(frame.vectors[index])
        norm = np.sqrt(sq_norms)
        bound = (np.exp(log_bound + _am_gm(d)) * norm - d * eta) / (norm + d * eta)
        fragile = ~(bound > _SCREEN_MARGIN * RANK_RTOL)
        kept.append(index[fragile])
        bounds.append(bound[fragile])
    return np.concatenate(kept)[np.argsort(np.concatenate(bounds), kind="stable")]


def _subsets_independent(frame: Frame, subsets: np.ndarray) -> bool:
    """True iff each of the given d-subsets has numerical rank d.

    The subsets go in order, in batches of 1, 2, 4, ... up to
    ``_SUBSET_BATCH``, so a frame that fails stops near its first failing
    subset.
    """
    vecs = frame.vectors
    start, size = 0, 1
    while start < len(subsets):
        if not _independent(vecs[subsets[start : start + size]]):
            return False
        start += size
        size = min(2 * size, _SUBSET_BATCH)
    return True
