"""Radial isotropic scaling of a frame with respect to a coefficient vector.

A frame U = u_1..u_n is in radial isotropic position with respect to c when
sum_i c_i (u_i/||u_i||)(u_i/||u_i||)^T = I. The linear map A achieving this
for a given frame is found by minimizing the convex potential

    f(t) = log det M(t) - c . t,   M(t) = sum_i c_i e^{t_i} u_i u_i^T,

whose stationary points satisfy e^{t_i} u_i^T M(t)^{-1} u_i = 1 for all i;
A = M(t*)^{-1/2} then places the frame in radial isotropic position. The
potential is invariant under t -> t + s 1 (when sum c_i = d), so iterates
are gauge-fixed to sum t_i = 0. The minimum exists exactly when c lies in
the basis polytope of U; outside it the iterates escape to infinity along
a blocking subset, which the solver diagnoses.

Everything the solver needs comes from the whitened rows
y_i = sqrt(c_i e^{t_i}) M(t)^{-1/2} u_i. Their Gram matrix G = Y Y^T is the
orthogonal projector onto the row space of the weighted vectors; the
gradient is g_i = ||y_i||^2 - c_i and the Hessian is diag(G) - G o G,
which ``scaling_hessian`` forms densely as a test oracle. The
Hadamard square has rank at most r = d(d+1)/2: (G o G)_ij = K_i . K_j, where
K_i is the upper triangle of y_i y_i^T with off-diagonal entries scaled by
sqrt(2). The Newton system is therefore a diagonal matrix plus a term of
rank r + 1 (the extra column pins the gauge direction 1), and for n > r + 1
it is solved exactly through the Woodbury identity in O(n r^2 + r^3) time
and O(n r) memory. Frames with n <= r + 1 are solved densely; both paths
give the same Newton direction up to rounding.

The solver is damped Newton with an Armijo backtracking line search and a
gradient-descent fallback; convergence is declared only after the residual
J = sum_i c_i w_i w_i^T - I of the renormalized scaled frame has been
recomputed and its largest entry checked against the requested delta.
That test lives in ``_isotropy_test``, which also re-checks the stored
scaling of a report in ``reverify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame
from .polytope import MAX_POLYTOPE_N, basis_polytope_membership, validate_coefficients

DEFAULT_MAX_ITER = 200

# Armijo sufficient-decrease constant, plus an absolute floor so steps are
# still accepted once objective decrements fall below float64 resolution.
_ARMIJO_C = 1e-4
_ARMIJO_NOISE = 4e-16
_MAX_HALVINGS = 60

# Under gauge fixing, a finite minimizer exists iff c is in the basis
# polytope; a gauge-fixed iterate beyond this magnitude means escape.
_DIVERGENCE_OFFSET = 50.0
_DIVERGENCE_SLOPE = 10.0

# Converged solutions must also satisfy the stationarity identity
# e^{t_i} ||A u_i||^2 = 1 within this multiple of delta.
STATIONARITY_FACTOR = 10.0


@dataclass(frozen=True)
class ScalingSolution:
    """Transformation placing a frame in radial isotropic position.

    ``residual`` is J = sum_i c_i w_i w_i^T - I for the renormalized
    vectors w_i = A u_i / ||A u_i||, recomputed at the returned iterate,
    or ``None`` on a solution read back from a report, which does not
    store J (``reverify`` recomputes it); ``residual_inf`` is the largest
    entry of J in absolute value.
    """

    t: np.ndarray
    A: np.ndarray
    residual: np.ndarray | None
    residual_inf: float
    iterations: int
    converged: bool
    stationarity_gap: float


@dataclass(frozen=True)
class DiagonalScaling:
    """A sorted nonnegative diagonal map plus the rotation that diagonalizes it."""

    lambdas: np.ndarray
    rotation: np.ndarray


class ScalingConvergenceError(RuntimeError):
    """Raised when the scaling solver cannot reach the requested residual.

    Carries the last iterate and, when brute force is feasible, the subset
    of indices blocking membership of c in the basis polytope.
    """

    def __init__(
        self,
        message: str,
        *,
        t: np.ndarray,
        residual_inf: float,
        iterations: int,
        blocking_subset: tuple[int, ...] | None,
    ) -> None:
        super().__init__(message)
        self.t = t
        self.residual_inf = residual_inf
        self.iterations = iterations
        self.blocking_subset = blocking_subset


def _weighted_sum(vecs: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    w = c * np.exp(t)
    return (vecs.T * w) @ vecs


def _as_t(frame: Frame, t) -> np.ndarray:
    ta = np.asarray(t, dtype=float).ravel()
    if ta.size != frame.n:
        raise ValueError(f"t has length {ta.size}, expected {frame.n}")
    return ta


def scaling_potential(frame: Frame, c, t) -> float:
    """Convex potential f(t) = log det M(t) - c . t.

    Returns +inf when the weighted sum M(t) is singular (or numerically
    indefinite), which happens only off the feasible region.
    """
    ca = validate_coefficients(c, frame.d, frame.n)
    ta = _as_t(frame, t)
    with np.errstate(over="ignore", invalid="ignore"):
        M = _weighted_sum(frame.vectors, ca, ta)
        if not np.all(np.isfinite(M)):
            return float("inf")
        sign, logdet = np.linalg.slogdet(M)
    if sign <= 0 or not np.isfinite(logdet):
        return float("inf")
    return float(logdet - ca @ ta)


def _inverse_sqrt(M: np.ndarray) -> np.ndarray:
    eigs, Q = np.linalg.eigh(M)
    if eigs[0] <= 0 or not np.all(np.isfinite(eigs)):
        raise np.linalg.LinAlgError("matrix not positive definite")
    return (Q / np.sqrt(eigs)) @ Q.T


def _whitened(vecs: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows y_i = sqrt(c_i e^{t_i}) M(t)^{-1/2} u_i; raises LinAlgError if M is singular."""
    A = _inverse_sqrt(_weighted_sum(vecs, c, t))
    return (vecs @ A) * np.sqrt(c * np.exp(t))[:, None]


def scaling_gradient(frame: Frame, c, t) -> np.ndarray:
    """Gradient g_i = c_i (e^{t_i} u_i^T M(t)^{-1} u_i - 1); sums to zero."""
    ca = validate_coefficients(c, frame.d, frame.n)
    ta = _as_t(frame, t)
    try:
        Y = _whitened(frame.vectors, ca, ta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weighted sum M(t) is singular") from exc
    return (Y**2).sum(axis=1) - ca


def scaling_hessian(frame: Frame, c, t) -> np.ndarray:
    """Closed-form Hessian diag(diag G) - G o G of the potential; PSD with null vector 1.

    G = Y Y^T, so G_ij = sqrt(c_i c_j) e^{(t_i+t_j)/2} u_i^T M^{-1} u_j. This
    dense n x n form is a test oracle; the solver works from the rows Y and
    the rank-r factor K of G o G.
    """
    ca = validate_coefficients(c, frame.d, frame.n)
    ta = _as_t(frame, t)
    try:
        Y = _whitened(frame.vectors, ca, ta)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weighted sum M(t) is singular") from exc
    G = Y @ Y.T
    return np.diag(np.diag(G)) - G * G


def _isotropy_test(
    images: np.ndarray, c: np.ndarray, t: np.ndarray, delta: float
) -> tuple[np.ndarray, float, float, bool]:
    """Convergence test of the scaled rows ``images`` (rows A u_i) at iterate t.

    Returns J = sum_i c_i w_i w_i^T - I for w_i = A u_i / ||A u_i||, its
    largest entry in absolute value, the stationarity gap
    max_i |e^{t_i} ||A u_i||^2 - 1|, and whether both meet delta. A t_i
    whose exponential overflows gives an infinite gap, never a warning.
    """
    norms2 = (images**2).sum(axis=1)
    unit = images / np.sqrt(norms2)[:, None]
    J = (unit.T * c) @ unit - np.eye(images.shape[1])
    resid = float(np.abs(J).max())
    with np.errstate(over="ignore"):
        gap = float(np.abs(np.exp(t) * norms2 - 1.0).max())
    return J, resid, gap, bool(resid <= delta and gap <= STATIONARITY_FACTOR * delta)


def _images(frame: Frame, A) -> np.ndarray:
    """Rows A u_i of a given A; raises if A has the wrong shape or some A u_i vanishes."""
    Aa = np.asarray(A, dtype=float)
    if Aa.shape != (frame.d, frame.d):
        raise ValueError(f"A must be {frame.d} x {frame.d}, got {Aa.shape}")
    images = frame.vectors @ Aa.T
    dead = np.flatnonzero((images**2).sum(axis=1) == 0.0)
    if dead.size:
        raise ValueError(f"A u_i = 0 at index {dead[0]}; A is singular on the frame")
    return images


def isotropy_residual(frame: Frame, c, A) -> tuple[np.ndarray, float]:
    """Residual J = sum_i c_i w_i w_i^T - I for w_i = A u_i / ||A u_i||.

    Returns (J, max |J_ij|). Raises if some A u_i vanishes (A singular on
    a frame vector), since renormalization is then undefined.
    """
    ca = validate_coefficients(c, frame.d, frame.n)
    J, resid, _, _ = _isotropy_test(_images(frame, A), ca, np.zeros(frame.n), 0.0)
    return J, resid


def _newton_direction(Y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve (H + tau 11^T/n + 1e-14 I) p = -g for the Newton direction.

    H = diag(q) - G o G with q_i = ||y_i||^2 and G = Y Y^T; tau = tr(H)/n
    (at least 1e-14) pins the gauge direction 1 without disturbing g, whose
    entries sum to zero. With G o G = K K^T the system matrix is
    D + U S U^T for D = diag(q) + 1e-14 I, U = [K, 1/sqrt(n)] and
    S = diag(-1, ..., -1, tau). When n > r + 1 it is solved through the
    Woodbury identity with one (r+1) x (r+1) capacitance system, never
    forming an n x n matrix; otherwise densely. Raises LinAlgError when the
    system is singular.
    """
    n, d = Y.shape
    q = (Y**2).sum(axis=1)
    tau = max(float(q.sum() - q @ q) / n, 1e-14)
    rows, cols = np.triu_indices(d)
    r = rows.size
    if n <= r + 1:
        G = Y @ Y.T
        reg = np.diag(q) - G * G + tau / n
        reg.flat[:: n + 1] += 1e-14
        return -np.linalg.solve(reg, g)
    # V = D^{-1/2} U, so that D + U S U^T = D^{1/2} (I + V S V^T) D^{1/2}.
    root = 1.0 / np.sqrt(q + 1e-14)
    Yr = Y * np.sqrt(root)[:, None]
    V = np.empty((n, r + 1))
    np.multiply(Yr[:, rows], Yr[:, cols], out=V[:, :r])
    V[:, :r] *= np.where(rows == cols, 1.0, np.sqrt(2.0))
    V[:, r] = root / np.sqrt(n)
    capacitance = V.T @ V
    capacitance[np.arange(r), np.arange(r)] -= 1.0
    capacitance[r, r] += 1.0 / tau
    x = root * g
    return -root * (x - V @ np.linalg.solve(capacitance, V.T @ x))


def _diagnose_blocking(frame: Frame, c) -> tuple[int, ...] | None:
    if frame.n > MAX_POLYTOPE_N:
        return None
    try:
        result = basis_polytope_membership(frame, c)
    except ValueError:
        return None
    return result.violating_subset


def solve_radial_isotropic(
    frame: Frame,
    c,
    delta: float,
    max_iter: int = DEFAULT_MAX_ITER,
    t0=None,
) -> ScalingSolution:
    """Find A with sum_i c_i (A u_i/||A u_i||)(A u_i/||A u_i||)^T = I + J,
    ||J||_inf <= delta.

    Requires c in the basis polytope of the frame. Callers may certify that
    beforehand with the polytope module at enumerable sizes. ``repair``
    does not: past its exhaustive cap it passes the renormalized frame
    here unperturbed, and the residual re-measured here and its
    a-posteriori certificate decide. On failure raises
    ScalingConvergenceError with a divergence diagnosis.

    Each iteration whitens the rows once (Y = images * sqrt(c e^t)), reads
    the gradient off their squared norms and takes the Newton direction
    from ``_newton_direction``: through Woodbury on the rank-r factor K of
    G o G when n > d(d+1)/2 + 1, so time is O(n d^4 + d^6) and memory
    O(n d^2), and by a dense n x n solve otherwise. A singular system or a
    non-descent direction falls back to -g.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    ca = validate_coefficients(c, frame.d, frame.n)
    vecs = frame.vectors
    n = frame.n
    if t0 is None:
        t = np.zeros(n)
    else:
        t = _as_t(frame, t0).copy()
        t -= t.mean()
    escape = _DIVERGENCE_OFFSET + _DIVERGENCE_SLOPE * np.log(n * frame.d)

    def fail(reason: str, resid: float, iterations: int) -> ScalingConvergenceError:
        blocking = _diagnose_blocking(frame, ca)
        hint = (
            f" blocking subset {list(blocking)}"
            if blocking is not None
            else " (no blocking subset found at this size)"
        )
        extreme = int(np.argmax(np.abs(t)))
        return ScalingConvergenceError(
            f"{reason}; likely c outside the basis polytope:{hint}; "
            f"t diverges at index {extreme} (t_i = {t[extreme]:.3g})",
            t=t.copy(),
            residual_inf=resid,
            iterations=iterations,
            blocking_subset=blocking,
        )

    iterations = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            M = _weighted_sum(vecs, ca, t)
        if not np.all(np.isfinite(M)):
            raise fail("weighted sum overflowed", float("inf"), iterations)
        try:
            A = _inverse_sqrt(M)
        except np.linalg.LinAlgError:
            raise fail("weighted sum M(t) became singular", float("inf"), iterations)
        images = vecs @ A
        J, resid, stationarity, converged = _isotropy_test(images, ca, t, delta)
        if converged:
            return ScalingSolution(
                t=t.copy(),
                A=A,
                residual=J,
                residual_inf=resid,
                iterations=iterations,
                converged=True,
                stationarity_gap=stationarity,
            )
        if float(np.abs(t).max()) > escape:
            raise fail("iterates escaped to infinity", resid, iterations)
        if iterations >= max_iter:
            raise fail(f"no convergence within {max_iter} iterations", resid, iterations)

        Y = images * np.sqrt(ca * np.exp(t))[:, None]
        g = (Y**2).sum(axis=1) - ca
        try:
            p = _newton_direction(Y, g)
        except np.linalg.LinAlgError:
            p = -g
        if g @ p >= 0:
            p = -g
        p -= p.mean()

        f0 = float(np.linalg.slogdet(M)[1] - ca @ t)
        noise = _ARMIJO_NOISE * (1.0 + abs(f0))
        slope = float(g @ p)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = scaling_potential(frame, ca, t + step * p)
            if trial <= f0 + _ARMIJO_C * step * slope + noise:
                break
            step *= 0.5
        t = t + step * p
        t -= t.mean()
        iterations += 1


def diagonalize_transform(A, frame: Frame) -> tuple[DiagonalScaling, Frame]:
    """Split A into a sorted diagonal map plus a basis rotation.

    Writing A = C S D^T (singular value decomposition), D S D^T places the
    frame in radial isotropic position whenever A does, because the
    renormalized outer-product sum is invariant under the orthogonal map
    C D^T. Returns the sorted singular values together with the frame
    expressed in the D basis, where the scaling acts as diag(lambdas).
    Distances between frames are preserved by the basis change.
    """
    Aa = np.asarray(A, dtype=float)
    if Aa.shape != (frame.d, frame.d):
        raise ValueError(f"A must be {frame.d} x {frame.d}, got {Aa.shape}")
    _, sigma, vt = np.linalg.svd(Aa)
    if sigma[-1] <= 0:
        raise ValueError("A is singular")
    rotation = vt.T
    rotated = Frame(frame.vectors @ rotation)
    return DiagonalScaling(lambdas=sigma, rotation=rotation), rotated
