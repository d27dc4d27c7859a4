"""Frames of vectors in R^d and their equal-norm-Parseval diagnostics.

A frame is an ordered sequence of n vectors in R^d. It is an equal norm
Parseval frame (ENPF) when the frame operator sum_i v_i v_i^T equals the
identity and every squared norm equals d/n. The diagnostics here measure
the worst relative violation of the two conditions. Squared row norms, here
and in the solver and the repair, are one einsum call: ``_row_sq_norms``;
a sum of squares over a whole array, such as ``dist_sq``, is one dot
product: ``_sum_sq``. The audit, which keeps its vectors as columns, takes
their norms as matrix-vector products instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import spawn_rng

# Frames measuring below this are treated as exact ENPFs: double precision
# leaves several orders of headroom below every certified tolerance.
_ENPF_TOL = 1e-12

# perturb_frame rescales its noise until the measured eps lands in
# [eps_target / BAND_RATIO, eps_target].
BAND_RATIO = 4.0

_MAX_BAND_ITERS = 80


def _row_sq_norms(X: np.ndarray) -> np.ndarray:
    """||x_i||^2 for every row of the 2-d array X; inf, never a warning, on overflow."""
    return np.einsum("ij,ij->i", X, X)


def _sum_sq(X: np.ndarray) -> float:
    """The sum of the squared entries of X, as one dot product of the raveled array."""
    flat = X.ravel()
    return float(flat @ flat)


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered sequence of n vectors in R^d, stored as rows of ``vectors``.

    Vector order is significant: distances between frames are computed
    index-wise. Instances are immutable and safe to share across threads.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be 2-d (n, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("need n >= 1 vectors of dimension d >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("frame vectors must have finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def squared_norms(self) -> np.ndarray:
        return _row_sq_norms(self.vectors)


@dataclass(frozen=True)
class FrameMetrics:
    """Nearness of a frame to an equal norm Parseval frame.

    ``eps_op`` is the smallest eps with (1-eps) I <= S <= (1+eps) I for the
    frame operator S; ``eps_norm`` the smallest eps with every squared norm
    within (1 +- eps) d/n; ``eps`` is their maximum.
    """

    eps_op: float
    eps_norm: float
    eps: float


def _frame_operator(frame: Frame) -> np.ndarray:
    """Return S = sum_i v_i v_i^T, a symmetric PSD d x d matrix."""
    vecs = frame.vectors
    S = vecs.T @ vecs
    return 0.5 * (S + S.T)


def frame_metrics(frame: Frame) -> FrameMetrics:
    """Measure how far ``frame`` is from an equal norm Parseval frame.

    A degenerate frame operator (zero eigenvalue) simply reports
    eps_op >= 1; it is not an error. An overflow reports inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        S = _frame_operator(frame)
    eigs = np.linalg.eigvalsh(S) if np.isfinite(S).all() else np.array([np.inf])
    eps_op = float(max(1.0 - eigs[0], eigs[-1] - 1.0, 0.0))
    eps_norm = _eps_norm(frame)
    return FrameMetrics(eps_op=eps_op, eps_norm=eps_norm, eps=max(eps_op, eps_norm))


def _eps_norm(frame: Frame) -> float:
    return float(np.abs(frame.squared_norms() / (frame.d / frame.n) - 1.0).max())


def dist_sq(first: Frame, second: Frame) -> float:
    """Index-wise squared distance sum_i ||v_i - w_i||^2."""
    if first.d != second.d or first.n != second.n:
        raise ValueError(
            f"frame shape mismatch: ({first.n}, {first.d}) vs ({second.n}, {second.d})"
        )
    return _sum_sq(first.vectors - second.vectors)


def _harmonic_vectors(d: int, n: int) -> np.ndarray:
    """Rows of an orthogonalized trigonometric system, scaled to an ENPF.

    The k-th vector stacks cos/sin of the first d//2 frequencies at angle
    2 pi k / n (plus a constant coordinate when d is odd), scaled by
    sqrt(2/n). Rows of the underlying matrix are orthonormal for n > d,
    and every column has squared norm exactly d/n.
    """
    if n == d:
        return np.eye(d)
    k = np.arange(n)
    rows = []
    if d % 2 == 1:
        rows.append(np.full(n, 1.0 / np.sqrt(2.0)))
    for j in range(1, d // 2 + 1):
        ang = 2.0 * np.pi * j * k / n
        rows.append(np.cos(ang))
        rows.append(np.sin(ang))
    mat = np.sqrt(2.0 / n) * np.stack(rows)
    return mat.T.copy()


def generate_enpf(d: int, n: int, seed: int) -> Frame:
    """Generate an equal norm Parseval frame with n vectors in R^d.

    Uses the real harmonic construction rotated by a seed-determined
    orthogonal matrix, then re-verifies the result with frame_metrics
    rather than trusting the construction.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if n < d:
        raise ValueError(f"no Parseval frame with full-rank frame operator for n={n} < d={d}")
    vecs = _harmonic_vectors(d, n)
    rng = spawn_rng(seed, 0)
    gauss = rng.standard_normal((d, d))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    frame = Frame(vecs @ q.T)
    measured = frame_metrics(frame).eps
    if measured > _ENPF_TOL:
        raise RuntimeError(f"generator self-check failed: eps={measured:.3e} for d={d}, n={n}")
    return frame


def perturb_frame(frame: Frame, eps_target: float, seed: int) -> Frame:
    """Perturb an exact ENPF until its measured eps lies in the target band.

    The returned frame satisfies eps_target / 4 <= eps <= eps_target, so
    eps is a meaningful input scale for downstream consumers. The noise
    direction is fixed by the seed; only its amplitude is rescaled.
    """
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    base = frame_metrics(frame).eps
    if base > _ENPF_TOL:
        raise ValueError(f"input is not an ENPF up to tolerance: eps={base:.3e}")
    rng = spawn_rng(seed, 1)
    noise = rng.standard_normal(frame.vectors.shape)
    lower = eps_target / BAND_RATIO
    scale = eps_target / max(float(np.abs(noise).max()), 1.0)
    for _ in range(_MAX_BAND_ITERS):
        candidate = Frame(frame.vectors + scale * noise)
        measured = frame_metrics(candidate).eps
        if lower <= measured <= eps_target:
            return candidate
        # eps is locally ~linear in the amplitude; aim at mid-band
        scale *= 0.5 * eps_target / measured
    raise RuntimeError(f"could not land in eps band [{lower:g}, {eps_target:g}]")


def renormalize(frame: Frame, target_sq_norm: float) -> Frame:
    """Scale each vector to squared norm ``target_sq_norm``, keeping directions."""
    if target_sq_norm <= 0:
        raise ValueError("target_sq_norm must be positive")
    norms2 = frame.squared_norms()
    bad = np.flatnonzero((norms2 == 0.0) | (norms2 == np.inf))
    if bad.size:
        raise ValueError(f"cannot renormalize vector {bad[0]}: squared norm {norms2[bad[0]]}")
    return Frame(_rows_scaled(frame.vectors, norms2, target_sq_norm))


def _rows_scaled(X: np.ndarray, norms2: np.ndarray, target_sq_norm: float) -> np.ndarray:
    """X with row i scaled from squared norm ``norms2[i]`` to ``target_sq_norm``.

    The arithmetic of ``renormalize``, without its checks.
    """
    return X * np.sqrt(target_sq_norm / norms2)[:, None]
