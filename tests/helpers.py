"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

import base64
from itertools import combinations

import numpy as np

from framescale import Frame, frame_metrics, majorizes, scaling_potential, transport_distance
from framescale.majorization import MAJORIZATION_TOL
from framescale.polytope import RANK_RTOL, numerical_rank
from framescale.repair import _AUDIT_ATOL


def read_packed(text: str, schema: str = "framescale/4") -> np.ndarray:
    """The float64 values of a packed report field, as a writable flat array.

    A packed field holds little-endian float64 bytes in C order: as hex in
    ``framescale/4``, as base64 in ``/2`` and ``/3``.
    """
    raw = bytes.fromhex(text) if schema == "framescale/4" else base64.b64decode(text)
    return np.frombuffer(raw, dtype="<f8").copy()


def write_packed(values, schema: str = "framescale/4") -> str:
    """Inverse of ``read_packed``: ``values`` as the text of a packed field."""
    raw = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return raw.hex() if schema == "framescale/4" else base64.b64encode(raw).decode("ascii")


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


def fd_gradient(frame: Frame, t, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scaling potential."""
    t = np.asarray(t, dtype=float)
    grad = np.zeros_like(t)
    for i in range(t.size):
        up = t.copy()
        down = t.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (scaling_potential(frame, up) - scaling_potential(frame, down)) / (2 * step)
    return grad


def alternating_projections(frame: Frame, delta: float, max_iter: int = 1000) -> Frame:
    """The alternating projections of Tropp, Dhillon, Heath & Strohmer (2005).

    Alternates the nearest Parseval frame, the polar factor W (W^T W)^{-1/2},
    with the nearest equal norm frame, every row rescaled to squared norm
    d/n, from the input until the nearness eps is at most delta.
    """
    target = np.sqrt(frame.d / frame.n)
    W = frame.vectors
    for _ in range(max_iter + 1):
        W = target * W / np.linalg.norm(W, axis=1)[:, None]
        if frame_metrics(Frame(W)).eps <= delta:
            return Frame(W)
        eigs, Q = np.linalg.eigh(W.T @ W)
        W = W @ ((Q / np.sqrt(eigs)) @ Q.T)
    raise AssertionError(f"alternating projections missed eps <= {delta} in {max_iter} steps")


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


def planted_frame(rng: np.random.Generator, d: int, n: int, s: int) -> tuple[Frame, int]:
    """Gaussian frame whose first k = floor(s n / d) + 1 vectors span only s dimensions.

    Uniform coefficients put k d / n > s on those k vectors, so the frame
    lies strictly outside the basis polytope of uniform c. Returns (frame, k).
    """
    k = s * n // d + 1
    vectors = rng.standard_normal((n, d))
    vectors[:k] = rng.standard_normal((k, s)) @ rng.standard_normal((s, d))
    return Frame(vectors), k


def mercedes_frame() -> Frame:
    """Three unit-spaced directions in the plane, scaled to an exact ENPF."""
    k = np.arange(3)
    ang = 2.0 * np.pi * k / 3.0
    return Frame(np.sqrt(2.0 / 3.0) * np.stack([np.cos(ang), np.sin(ang)]).T)


def audit_per_vector_oracle(report) -> dict[str, tuple[bool, float, float]]:
    """Checks (a), (b) and (e) of ``audit_lemma_chain`` with one call per vector.

    Plain numpy: the rotated basis comes from the SVD A = C S D^T, and the
    scaled images Wt_i = ||u_i|| S D^T u_i / ||S D^T u_i|| are formed with
    the audit's arithmetic, so that the near-zero prefix gaps of (a) can
    be compared. Majorization and transport are then taken one vector at
    a time with ``majorizes`` and ``transport_distance``, the reference for
    the audit's row-wise evaluation. Along the way it asserts what the
    construction promises: S is sorted nonincreasing and nonnegative,
    ||Wt_i|| = ||u_i||, and the distances of (b) and (e) are the same in
    the rotated basis as in the original one. Returns
    ``{name: (passed, lhs, rhs)}`` for the three checks.
    """
    n = report.n
    U = report.perturbed_frame.vectors
    W = report.output_frame.vectors
    _, sigma, vt = np.linalg.svd(report.scaling.A)
    assert np.all(np.diff(sigma) <= 0) and sigma[-1] >= 0, sigma
    u = U @ vt.T
    w = W @ vt.T
    scaled = u * sigma
    wtilde = scaled * (np.sqrt((u**2).sum(axis=1)) / np.sqrt((scaled**2).sum(axis=1)))[:, None]
    np.testing.assert_allclose(
        np.linalg.norm(wtilde, axis=1), np.linalg.norm(U, axis=1), rtol=1e-12
    )
    x = u**2
    y = wtilde**2
    prefix_x = np.cumsum(x, axis=1)
    prefix_y = np.cumsum(y, axis=1)
    mass = 1.0 + float(np.abs(x).sum())

    worst_prefix = float((prefix_x - prefix_y).max())
    total_gap = float(np.abs(prefix_x[:, -1] - prefix_y[:, -1]).max())
    prefix_tol = MAJORIZATION_TOL * mass
    all_major = all(majorizes(y[i], x[i]) for i in range(n))

    dist_u_wt = float(((u - wtilde) ** 2).sum())
    dist_wt_w = float(((wtilde - w) ** 2).sum())
    back = wtilde @ vt
    assert np.isclose(dist_u_wt, ((U - back) ** 2).sum(), rtol=1e-9, atol=1e-24)
    assert np.isclose(dist_wt_w, ((back - W) ** 2).sum(), rtol=1e-9, atol=1e-24)
    l1_total = float(np.abs(x - y).sum())
    transport_each = float(sum(transport_distance(y[i], x[i]) for i in range(n)))
    atol = _AUDIT_ATOL * mass
    gp = report.gamma_prime_effective
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
        "norm_rescaling_distance": (bool(dist_wt_w <= 2.0 * gp + atol), dist_wt_w, 2.0 * gp),
    }


def subsets_independent_by_svd(frame: Frame) -> bool:
    """True iff every d-subset has rank d, by one SVD per subset.

    The general-position gate's batched singular-value loop from before its
    determinant screen, kept as the reference for ``all_d_subsets_independent``.
    """
    vecs = frame.vectors
    batch: list[tuple[int, ...]] = []

    def batch_ok(subsets: list[tuple[int, ...]]) -> bool:
        sigma = np.linalg.svd(vecs[np.array(subsets)], compute_uv=False)
        return bool(np.all(sigma[:, -1] > RANK_RTOL * sigma[:, 0]))

    for subset in combinations(range(frame.n), frame.d):
        batch.append(subset)
        if len(batch) == 4096:
            if not batch_ok(batch):
                return False
            batch = []
    return not batch or batch_ok(batch)


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
