"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from framescale import (
    Frame,
    diagonalize_transform,
    dist_sq,
    majorizes,
    rescale_preserving_norms,
    scaling_potential,
    transport_distance,
)
from framescale.majorization import MAJORIZATION_TOL
from framescale.polytope import numerical_rank
from framescale.repair import _AUDIT_ATOL


def cofactor_det(M: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    m = np.asarray(M, dtype=float)
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * cofactor_det(minor)
    return total


def _psd_by_minors(M: np.ndarray, tol: float = 1e-12) -> bool:
    """PSD test via nonnegativity of all principal minors (d <= 3)."""
    d = M.shape[0]
    scale = max(1.0, float(np.abs(M).max()))
    for size in range(1, d + 1):
        for idx in combinations(range(d), size):
            sub = M[np.ix_(idx, idx)]
            if cofactor_det(sub) < -tol * scale**size:
                return False
    return True


def eps_op_bruteforce(S: np.ndarray, lo: float = 0.0, hi: float = 64.0) -> float:
    """Smallest eps with (1-eps) I <= S <= (1+eps) I, by bisection on a
    minor-based semidefinite test. Independent of any eigendecomposition."""
    d = S.shape[0]
    eye = np.eye(d)

    def sandwiched(eps: float) -> bool:
        return _psd_by_minors((1.0 + eps) * eye - S) and _psd_by_minors(S - (1.0 - eps) * eye)

    assert sandwiched(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sandwiched(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fd_gradient(frame: Frame, c, t, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scaling potential."""
    t = np.asarray(t, dtype=float)
    grad = np.zeros_like(t)
    for i in range(t.size):
        up = t.copy()
        down = t.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (scaling_potential(frame, c, up) - scaling_potential(frame, c, down)) / (2 * step)
    return grad


def random_majorizing_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair (x, y) with x majorizing y, built from rightward mass moves.

    Moving mass from an earlier to a later index lowers the intermediate
    prefix sums of y below those of x while keeping totals equal, so x
    majorizes y by construction.
    """
    x = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
    y = x.copy()
    for _ in range(int(rng.integers(1, 6))):
        i, j = sorted(rng.choice(d, size=2, replace=False))
        mass = rng.uniform(0.0, 2.0)
        y[i] -= mass
        y[j] += mass
    return x, y


def random_generic_frame(rng: np.random.Generator, d: int, n: int) -> Frame:
    """Gaussian vectors: every d-subset is independent almost surely."""
    return Frame(rng.standard_normal((n, d)))


def mercedes_frame() -> Frame:
    """Three unit-spaced directions in the plane, scaled to an exact ENPF."""
    k = np.arange(3)
    ang = 2.0 * np.pi * k / 3.0
    return Frame(np.sqrt(2.0 / 3.0) * np.stack([np.cos(ang), np.sin(ang)]).T)


def audit_per_vector_oracle(report) -> dict[str, tuple[bool, float, float]]:
    """Checks (a) and (b) of ``audit_lemma_chain`` with one call per vector.

    The audit's former loops over ``majorizes`` and ``transport_distance``,
    kept as the reference for its row-wise evaluation. Returns
    ``{name: (passed, lhs, rhs)}`` for both checks.
    """
    n = report.n
    diag, rotated_u = diagonalize_transform(report.scaling.A, report.perturbed_frame)
    wtilde = rescale_preserving_norms(rotated_u, diag)
    x = rotated_u.vectors**2
    y = wtilde.vectors**2
    prefix_x = np.cumsum(x, axis=1)
    prefix_y = np.cumsum(y, axis=1)
    mass = 1.0 + float(np.abs(x).sum())

    worst_prefix = float((prefix_x - prefix_y).max())
    total_gap = float(np.abs(prefix_x[:, -1] - prefix_y[:, -1]).max())
    prefix_tol = MAJORIZATION_TOL * mass
    all_major = all(majorizes(y[i], x[i]) for i in range(n))

    dist_u_wt = dist_sq(rotated_u, wtilde)
    l1_total = float(np.abs(x - y).sum())
    transport_each = float(sum(transport_distance(y[i], x[i]) for i in range(n)))
    atol = _AUDIT_ATOL * mass
    return {
        "scaled_squares_majorize": (
            bool(all_major and total_gap <= prefix_tol),
            worst_prefix,
            prefix_tol,
        ),
        "distance_l1_transport_chain": (
            bool(l1_total - dist_u_wt >= -atol and 2.0 * transport_each - l1_total >= -atol),
            dist_u_wt,
            2.0 * transport_each,
        ),
    }


def polytope_support(frame: Frame, direction) -> float:
    """max_{v in B(U)} u^T v via the matroid greedy rule.

    Scans indices by decreasing direction weight and keeps those that
    enlarge the span; the kept weights sum to the support value.
    """
    u = np.asarray(direction, dtype=float).ravel()
    if u.size != frame.n:
        raise ValueError(f"direction has length {u.size}, expected {frame.n}")
    vecs = frame.vectors
    order = np.argsort(-u, kind="stable")
    kept: list[int] = []
    rank = 0
    value = 0.0
    for i in order:
        if rank == frame.d:
            break
        candidate = kept + [int(i)]
        new_rank = numerical_rank(vecs[candidate])
        if new_rank > rank:
            kept = candidate
            rank = new_rank
            value += float(u[i])
    return value


def wasserstein_prefix(x, y) -> float:
    """Sum of absolute prefix-sum gaps, sum_j |prefix_x(j) - prefix_y(j)|."""
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    return float(np.abs(np.cumsum(xa) - np.cumsum(ya)).sum())
