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

When 2d <= n and there are more than ``_STACK_LOOP_MAX`` subsets,
``all_d_subsets_independent`` takes every det S from one Laplace
recurrence instead of one LU per subset. Level k lists the k-subsets of
range(n) in colex order with their minors on columns 0..k-1: those with
largest element m are T u {m} for the first C(m, k-1) subsets T of level
k-1, at rank C(m, k) + rank(T). Expanding along column k-1,

    M_k(S) = sum_j (-1)^(j+k-1) U[s_j, k-1] M_{k-1}(S - s_j),

where S - m = T and, for j < k-1, S - s_j has rank C(m, k-1) plus the
rank of T - t_j, which level k-1 keeps; so is ||S||_F^2 = ||T||_F^2 +
||u_m||^2. That is k multiply-adds per subset against d^3/3 for an LU.
Each term of the expansion passes through fewer than d(d+1)/2 roundings,
and perm(|S|) <= ||S||_2^d <= ||S||_F^d, so the computed minor is within
the allowance d(d+1)/2 u ||S||_F^d of det S (u = 2^-53). The screen adds
it to its floor on |det S| / ||S||_F^d, less than 1 % of that floor,
since d <= 10 under ``SUBSET_CAP``. U is scaled first by a power of two
that takes every entry below 1, so no product overflows, and ``_TINY``
covers what underflow can lose. One rule, ``_colex_rows``, builds every
level in chunks of ``_SUBSET_BATCH`` rows. Levels below d are filled
whole: int32 elements and drop ranks, minors and norms, 8k + 16 bytes per
k-subset, each level freed once the next is built. Level d is never
kept, and the SVD decides each chunk's uncleared subsets before the next
chunk is built. One check peaks near 0.85 MB at (6,18) and 24 MB at
(10,20) (tracemalloc). Two cases keep the stack loop: with 2d > n the
lower levels outgrow level d, toward n 2^n entries, and up to
``_STACK_LOOP_MAX`` subsets the recurrence's fixed cost per level is more
than one ``slogdet`` per subset.

These tests certify hypotheses of downstream solvers, so they refuse
oversized instances instead of approximating.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from .frames import Frame, _row_sq_norms

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
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Up to this many d-subsets one slogdet per subset is faster than the
# minors' recurrence, whose cost per level is mostly fixed: the two break
# even near 350 subsets at every d from 2 to 5 (OpenBLAS on 1 thread).
_STACK_LOOP_MAX = 350


def _numerical_rank(vectors: np.ndarray) -> int:
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
            rank = _numerical_rank(vecs[chosen])
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


def _rank_d(stacked: np.ndarray) -> bool:
    """True iff every d x d stack has sigma_min > ``RANK_RTOL`` * sigma_max."""
    if stacked.size == 0:
        return True
    sigma = np.linalg.svd(stacked, compute_uv=False)
    return bool(np.all(sigma[:, -1] > RANK_RTOL * sigma[:, 0]))


def _independent(stacked: np.ndarray) -> bool:
    """True iff every stack has rank d: the screen clears what it can, and
    the singular-value test decides the rest, rows in subset order."""
    log_floor = math.log(_SCREEN_MARGIN * RANK_RTOL) - _am_gm(stacked.shape[-1])
    return _rank_d(stacked[~(_screen(stacked)[0] > log_floor)])


def _colex_rows(level, col, weights, starts, signs, a: int, b: int):
    """Rows a to b - 1 of level k of the recurrence, from all of level k - 1.

    ``level`` holds level k - 1 as (elems, drops, minors, norms), col is
    column k - 1 of the vectors and starts[g] = C(g + k - 1, k), the rank
    of the first k-subset whose largest element is m = g + k - 1. Returns
    the same four arrays for those rows of level k.
    """
    elems, drops, minors, norms = level
    k = elems.shape[1] + 1
    rows = np.arange(a, b)
    group = np.searchsorted(starts, rows, "right") - 1
    tau = rows - np.take(starts, group)
    lasts = group + (k - 1)
    row_elems = np.empty((b - a, k), np.int32)
    row_elems[:, :-1] = np.take(elems, tau, axis=0)
    row_elems[:, -1] = lasts
    # S - s_j is (T - t_j) u {m}, whose rank is C(m, k - 1) = starts[g + 1]
    # - starts[g] plus that of T - t_j; S - m = T has rank tau
    row_drops = np.empty((b - a, k), np.int32)
    np.add(np.take(drops, tau, axis=0), np.take(np.diff(starts), group)[:, None], out=row_drops[:, :-1])
    row_drops[:, -1] = tau
    terms = np.take(col, row_elems)
    terms *= np.take(minors, row_drops)
    return row_elems, row_drops, terms @ signs, np.take(norms, tau) + np.take(weights, lasts)


def _colex_minors(vecs: np.ndarray, weights: np.ndarray):
    """Every d x d minor of the (n, d) array vecs, by the Laplace recurrence.

    Yields (elems, drops, minors, sums) for each chunk of at most
    ``_SUBSET_BATCH`` d-subsets in colex order (see the module docstring):
    elems[i] is subset i of the chunk as an int32 row, minors[i] is
    det vecs[elems[i]] and sums[i] is the sum of weights over the subset.
    Each level below d is filled chunk by chunk and replaces the one
    before it.
    """
    n, d = vecs.shape
    # Level 0 holds the empty set, whose minor is 1.
    level = np.zeros((1, 0), np.int32), np.zeros((1, 0), np.int32), np.ones(1), np.zeros(1)
    for k in range(1, d + 1):
        count = math.comb(n, k)
        starts = np.array([math.comb(m, k) for m in range(k - 1, n + 1)])
        signs = (-1.0) ** np.arange(k - 1, -1, -1)
        whole = None
        if k < d:
            elems = np.empty((count, k), np.int32)
            whole = elems, np.empty_like(elems), np.empty(count), np.empty(count)
        for a in range(0, count, _SUBSET_BATCH):
            b = min(a + _SUBSET_BATCH, count)
            rows = _colex_rows(level, vecs[:, k - 1], weights, starts, signs, a, b)
            if whole is None:
                yield rows
            else:
                for array, part in zip(whole, rows):
                    array[a:b] = part
        level = whole


def _minors_independent(vecs: np.ndarray) -> bool:
    """True iff every d-subset of the rows has rank d, screened on the
    recurrence's minors with its rounding allowance (see the module
    docstring); the SVD decides each chunk's uncleared subsets in order."""
    d = vecs.shape[1]
    scaled = np.ldexp(vecs, -np.frexp(np.abs(vecs).max())[1])
    floor = math.exp(math.log(_SCREEN_MARGIN * RANK_RTOL) - _am_gm(d)) + d * (d + 1) / 2 * _UNIT_ROUNDOFF
    # With these weights, (sum over S)^d = floor^2 ||S||_F^(2d).
    weights = floor ** (2 / d) * _row_sq_norms(scaled)
    for elems, _, minors, sums in _colex_minors(scaled, weights):
        np.power(sums, d, out=sums)
        sums += _TINY
        doubtful = ~(minors * minors > sums)
        if doubtful.any() and not _rank_d(vecs[elems[doubtful]]):
            return False
    return True


def all_d_subsets_independent(frame: Frame) -> bool:
    """True iff every d-subset of the frame has numerical rank d.

    Each batch of ``_SUBSET_BATCH`` subsets gets the screen and then the
    singular-value test on what the screen cannot clear (see the module
    docstring), with early exit on the first failing batch; instances with
    more than ``SUBSET_CAP`` subsets are refused. When 2d <= n and there
    are more than ``_STACK_LOOP_MAX`` subsets, the screen reads every
    determinant off one Laplace recurrence over the subsets in colex
    order, lowered by its rounding allowance; levels below d are held
    whole (8k + 16 bytes per k-subset) and level d a batch at a time.
    Otherwise each batch of d x d stacks, in lexicographic order, gets its
    own ``slogdet``.
    """
    d, n = frame.d, frame.n
    if n < d:
        raise ValueError(f"need n >= d, got n={n}, d={d}")
    count = math.comb(n, d)
    if count > SUBSET_CAP:
        raise ValueError(f"C({n},{d}) = {count} exceeds the cap of {SUBSET_CAP} subsets")
    vecs = frame.vectors
    if 2 * d <= n and count > _STACK_LOOP_MAX:
        return _minors_independent(vecs)
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
