"""Radial isotropic scaling of a frame for the coefficients c = d/n.

A frame U = u_1..u_n in R^d is in radial isotropic position when
c sum_i (u_i/||u_i||)(u_i/||u_i||)^T = I for c = d/n. The map A achieving
this is found by minimizing the convex potential

    f(t) = log det M(t) - c sum_i t_i,   M(t) = c sum_i e^{t_i} u_i u_i^T,

whose stationary points satisfy e^{t_i} u_i^T M(t)^{-1} u_i = 1 for every
i; A = M(t*)^{-1/2}. Since f is invariant under t -> t + s 1, iterates are
gauge-fixed to sum t_i = 0. The minimum exists exactly when d/n lies in
the basis polytope of U; outside it the iterates escape along a blocking
subset S with |S| c > dim span S, whose t_i run ahead of the rest, and a
failing solve reads S off its last iterate in one O(n d^2) scan
(``_blocking_prefix``). ``solve_radial_isotropic`` reads c off the
frame's shape; the private kernels take it as a scalar.

Four kernels carry the module. ``_factor`` builds w = c e^t and M(t),
with the overflow guard, and takes the Cholesky factor L of M(t).
``_potential`` reads f off L for the line search, is +inf where
``_factor`` fails, and hands the factor on: the accepted trial point is
the next iterate, factored once. ``_whitened`` turns the factor into the
rows y_i = sqrt(w_i) L^{-1} u_i for the solver. ``_scaling_state``
takes the symmetric A = M(t)^{-1/2} from ``eigh`` and the rows U A^T (row
i is A u_i), only where the solver may return the iterate. A failed M(t)
has one wording: LinAlgError, also a ValueError, "weighted sum M(t)
overflowed" or "weighted sum M(t) is singular". ``_images`` forms U A^T
from a given A for ``repair`` and ``read_report``, so a stored report
reproduces the solver's residual and stationarity gap bit for bit.

Everything the solver needs comes from the whitened rows Y. Their Gram
matrix G = Y Y^T, the same for L^{-1} as for any square root of M(t)^{-1},
is the orthogonal projector onto the row space of the weighted vectors;
the gradient is g_i = ||y_i||^2 - c and the Hessian is diag(G) - G o G,
which the tests form densely as an oracle. The Hadamard square has
rank at most r = d(d+1)/2: (G o G)_ij = K_i . K_j, where K_i
is the upper triangle of y_i y_i^T with off-diagonal entries scaled by
sqrt(2). The Newton system is therefore a diagonal matrix plus a term of
rank r + 1 (the extra column pins the gauge direction 1), and for n > r + 1
it is solved exactly through the Woodbury identity in O(n r^2 + r^3) time,
with the factor held in one (r+1) x n buffer and no n x r temporary.
Frames with n <= r + 1 are solved densely, with the system assembled in
the single n x n matrix Y Y^T; both paths give the same Newton direction
up to rounding.

The solver is damped Newton with an Armijo backtracking line search and a
gradient-descent fallback; convergence is declared only after the residual
J = c sum_i w_i w_i^T - I of the renormalized scaled frame has been
recomputed and its largest entry checked against the requested delta.
That test lives in ``_isotropy_test``, which also measures the stored
scaling of a report in ``read_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Frame, _row_sq_norms
from .polytope import _VIOLATION_TOL, RANK_RTOL, _numerical_rank

DEFAULT_MAX_ITER = 200

# Armijo sufficient-decrease constant, plus an absolute floor so steps are
# still accepted once objective decrements fall below float64 resolution.
_ARMIJO_C = 1e-4
_ARMIJO_NOISE = 4e-16
_MAX_HALVINGS = 60

# Converged solutions must also satisfy the stationarity identity
# e^{t_i} ||A u_i||^2 = 1, for every i, within this multiple of delta.
STATIONARITY_FACTOR = 10.0


@dataclass(frozen=True)
class ScalingSolution:
    """Transformation placing a frame in radial isotropic position.

    ``residual_inf`` is the largest entry, in absolute value, of
    J = (d/n) sum_i w_i w_i^T - I for the renormalized vectors
    w_i = A u_i / ||A u_i||, measured at the returned iterate. A report
    read from disk measures it, the stationarity gap and ``converged``
    afresh from its stored U, t and A.
    """

    t: np.ndarray
    A: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool
    stationarity_gap: float


class ScalingConvergenceError(RuntimeError):
    """Raised when the scaling solver cannot reach the requested residual.

    Carries the last iterate, its residual and the blocking subset read
    off that iterate: indices S with |S| d/n > dim span S, which proves
    d/n outside the basis polytope. The subset is None when the scan finds
    none: d/n may then lie inside the polytope, or outside near its
    boundary, which ``basis_polytope_membership`` decides for n <= 20.
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


class _WeightedSumError(np.linalg.LinAlgError, ValueError):
    """A failed M(t), overflowed or singular: a ValueError whatever base numpy gives LinAlgError."""


def _factor(vecs: np.ndarray, c: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """w = c e^t, M(t) = sum_i w_i u_i u_i^T and its Cholesky factor L; raises the one wording."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = c * np.exp(t)
        M = (vecs.T * w) @ vecs
    if not np.all(np.isfinite(M)):
        raise _WeightedSumError("weighted sum M(t) overflowed")
    try:
        return w, M, np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise _WeightedSumError("weighted sum M(t) is singular") from None


def _potential(vecs: np.ndarray, c: float, t: np.ndarray) -> tuple[float, tuple | None]:
    """f(t) = 2 sum_j log L_jj - c sum_i t_i and the factor; (+inf, None) where ``_factor`` fails."""
    try:
        factor = _factor(vecs, c, t)
    except np.linalg.LinAlgError:
        return float("inf"), None
    return float(2.0 * np.log(np.diagonal(factor[2])).sum() - c * t.sum()), factor


def _whitened(vecs: np.ndarray, factor: tuple[np.ndarray, ...]) -> np.ndarray:
    """Rows y_i = sqrt(w_i) L^{-1} u_i of the factor (w, M, L) of ``_factor``."""
    w, _, L = factor
    return (vecs * np.sqrt(w)[:, None]) @ np.linalg.inv(L).T


def _scaling_state(vecs: np.ndarray, factor: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """A = M(t)^{-1/2}, from ``eigh`` of the factor's M(t), and the rows vecs @ A.T."""
    eigs, Q = np.linalg.eigh(factor[1])
    if eigs[0] <= 0:
        raise _WeightedSumError("weighted sum M(t) is singular")
    A = (Q / np.sqrt(eigs)) @ Q.T
    return A, vecs @ A.T


def _isotropy_test(
    images: np.ndarray, c: float, t: np.ndarray, delta: float
) -> tuple[np.ndarray, float, float, bool]:
    """Convergence test of the scaled rows ``images`` (rows A u_i) at iterate t.

    Returns J = c sum_i w_i w_i^T - I for w_i = A u_i / ||A u_i||, its
    largest entry in absolute value, the stationarity gap
    max_i |e^{t_i} ||A u_i||^2 - 1|, and whether both meet delta. An
    overflow of e^{t_i} or of ||A u_i||^2 fails the gap test, never warns.
    """
    norms2 = _row_sq_norms(images)
    unit = images / np.sqrt(norms2)[:, None]
    J = (unit.T * c) @ unit - np.eye(images.shape[1])
    resid = float(np.abs(J).max())
    with np.errstate(over="ignore", invalid="ignore"):
        gap = float(np.abs(np.exp(t) * norms2 - 1.0).max())
    return J, resid, gap, bool(resid <= delta and gap <= STATIONARITY_FACTOR * delta)


def _images(frame: Frame, A) -> np.ndarray:
    """Rows A u_i of a given A; raises if A has the wrong shape or some A u_i vanishes."""
    Aa = np.asarray(A, dtype=float)
    if Aa.shape != (frame.d, frame.d):
        raise ValueError(f"A must be {frame.d} x {frame.d}, got {Aa.shape}")
    images = frame.vectors @ Aa.T
    dead = np.flatnonzero(_row_sq_norms(images) == 0.0)
    if dead.size:
        raise ValueError(f"A u_i = 0 at index {dead[0]}; A is singular on the frame")
    return images


def _newton_direction(Y: np.ndarray, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve (H + tau 11^T/n + 1e-14 I) p = -g for the Newton direction.

    H = diag(q) - G o G with q_i = ||y_i||^2, passed in, and G = Y Y^T; tau = tr(H)/n
    (at least 1e-14) pins the gauge direction 1 without disturbing g, whose
    entries sum to zero. With G o G = K K^T the system matrix is
    D + U S U^T for D = diag(q) + 1e-14 I, U = [K, 1/sqrt(n)] and
    S = diag(-1, ..., -1, tau). When n > r + 1 it is solved through the
    Woodbury identity with one (r+1) x (r+1) capacitance system: the
    transposed factor V^T is filled slab by slab in a single (r+1) x n
    buffer, so no n x r temporary and no n x n matrix is formed.
    Otherwise the system is assembled in place in the one n x n buffer of
    Y Y^T and solved densely. Raises LinAlgError when the system is
    singular.
    """
    n, d = Y.shape
    tau = max(float(q.sum() - q @ q) / n, 1e-14)
    r = d * (d + 1) // 2
    if n <= r + 1:
        # Same operations, in the same order, as diag(q) - G o G + tau/n + 1e-14 I.
        reg = Y @ Y.T
        np.square(reg, out=reg)
        np.negative(reg, out=reg)
        reg.flat[:: n + 1] += q
        reg += tau / n
        reg.flat[:: n + 1] += 1e-14
        return -np.linalg.solve(reg, g)
    # V = D^{-1/2} U, so that D + U S U^T = D^{1/2} (I + V S V^T) D^{1/2}.
    # Slab a of V^T holds coordinate a times coordinates b >= a of the
    # scaled rows, the rows with b > a times sqrt(2): the order of triu_indices(d).
    root = 1.0 / np.sqrt(q + 1e-14)
    Yt = np.multiply(Y.T, np.sqrt(root), order="C")
    Vt = np.empty((r + 1, n))
    off = 0
    for a in range(d):
        np.multiply(Yt[a], Yt[a:], out=Vt[off : off + d - a])
        Vt[off + 1 : off + d - a] *= np.sqrt(2.0)
        off += d - a
    Vt[r] = root / np.sqrt(n)
    capacitance = Vt @ Vt.T
    capacitance[np.arange(r), np.arange(r)] -= 1.0
    capacitance[r, r] += 1.0 / tau
    x = root * g
    return -root * (x - np.linalg.solve(capacitance, Vt @ x) @ Vt)


def _blocking_prefix(vecs: np.ndarray, c: float, t: np.ndarray) -> tuple[int, ...] | None:
    """A subset S with |S| c > dim span S, read off the iterate t.

    Outside the basis polytope the iterates escape along a blocking subset,
    whose t_i run ahead of the rest, so the scan visits indices by
    decreasing t (stable sort) and grows an orthonormal basis of the
    prefix's span one Gram-Schmidt step at a time, orthogonalizing twice.
    It stops at the first prefix whose count times c exceeds its rank by
    more than ``_VIOLATION_TOL`` and returns it sorted, once
    ``_numerical_rank`` confirms the violation; otherwise it returns None.
    O(n d^2) time.
    """
    d = vecs.shape[1]
    order = np.argsort(-t, kind="stable")
    basis = np.empty((0, d))
    csum = 0.0
    for k, i in enumerate(order):
        u = vecs[i]
        r = u - (basis @ u) @ basis
        r -= (basis @ r) @ basis
        norm = float(np.linalg.norm(r))
        if norm > RANK_RTOL * float(np.linalg.norm(u)):
            basis = np.vstack([basis, r / norm])
        if len(basis) == d:  # a full-rank prefix cannot violate: its c-sum is at most d
            return None
        csum += c
        if csum > len(basis) + _VIOLATION_TOL:
            subset = np.sort(order[: k + 1])
            if csum > _numerical_rank(vecs[subset]) + _VIOLATION_TOL:
                return tuple(int(j) for j in subset)
            return None
    return None


def solve_radial_isotropic(
    frame: Frame, delta: float, *, max_iter: int = DEFAULT_MAX_ITER
) -> ScalingSolution:
    """Find A with (d/n) sum_i (A u_i/||A u_i||)(A u_i/||A u_i||)^T = I + J,
    ||J||_inf <= delta.

    Requires d/n in the basis polytope of the frame, which
    ``basis_polytope_membership`` decides for n <= 20. The solve fails when
    M(t) overflows or turns singular (the message then starts with the
    wording of ``_factor``) or after ``max_iter`` iterations, and
    raises ScalingConvergenceError with the blocking subset of the last
    iterate, if the scan finds one. Raises ValueError for a delta that is
    not positive and finite, max_iter < 0 or a zero frame vector.

    The iterates start at t = 0. Each iteration whitens the rows with the
    factor that ``_potential`` left for t and reads the gradient g = q - c
    off their squared norms q. Only where the stationarity gap max|g|/c is
    within STATIONARITY_FACTOR delta, after a line search that ran out of
    halvings or at the last iteration does ``_scaling_state`` form A and
    U A^T for the convergence test: a converging solve takes one ``eigh``.
    The Newton direction comes from ``_newton_direction(Y, q, g)``: through
    Woodbury on the rank-r factor K of G o G when n > d(d+1)/2 + 1, so time
    is O(n d^4 + d^6) and memory one (d(d+1)/2 + 1) x n buffer, and
    otherwise by a dense solve of one n x n matrix. A singular system or a
    non-descent direction falls back to -g. The Armijo line search takes f
    and the factor of each gauge-fixed trial from ``_potential``, O(n d^2 +
    d^3) per trial, so every point is factored once.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    c = frame.d / frame.n
    vecs = frame.vectors
    dead = np.flatnonzero(frame.squared_norms() == 0.0)
    if dead.size:
        raise ValueError(f"frame has a zero vector at index {dead[0]}")
    t = np.zeros(frame.n)
    f0, factor = _potential(vecs, c, t)

    def fail(reason: str, resid: float, iterations: int) -> ScalingConvergenceError:
        blocking = _blocking_prefix(vecs, c, t)
        hint = (
            f"d/n lies outside the basis polytope: blocking subset {list(blocking)}"
            if blocking is not None
            else "no blocking subset found in the last iterate"
        )
        extreme = int(np.argmax(np.abs(t)))
        return ScalingConvergenceError(
            f"{reason}; {hint}; largest |t_i| at index {extreme} (t_i = {t[extreme]:.3g})",
            t=t.copy(),
            residual_inf=resid,
            iterations=iterations,
            blocking_subset=blocking,
        )

    # max|g|/c is the stationarity gap. Only an iterate that meets it, a
    # stalled one or the last one is worth A and the isotropy test.
    gap_tol, iterations, stalled = STATIONARITY_FACTOR * delta * c, 0, False
    while True:
        try:
            # A failed factor is taken again, to raise with its wording.
            Y = _whitened(vecs, factor or _factor(vecs, c, t))
            q = _row_sq_norms(Y)
            g = q - c
            if stalled or iterations >= max_iter or np.abs(g).max() <= gap_tol:
                A, images = _scaling_state(vecs, factor)
                _, resid, stationarity, converged = _isotropy_test(images, c, t, delta)
                if converged:
                    return ScalingSolution(t.copy(), A, resid, iterations, True, stationarity)
                if iterations >= max_iter:
                    raise fail(f"no convergence within {max_iter} iterations", resid, iterations)
        except np.linalg.LinAlgError as exc:
            raise fail(str(exc), float("inf"), iterations) from None

        try:
            p = _newton_direction(Y, q, g)
        except np.linalg.LinAlgError:
            p = -g
        if g @ p >= 0:
            p = -g
        p -= p.mean()

        # The step left after the last halving is taken without the Armijo
        # test, and the point it reaches is stalled; it is still evaluated,
        # since its f and factor serve the next iteration.
        noise = _ARMIJO_NOISE * (1.0 + abs(f0))
        slope = float(g @ p)
        step = 1.0
        for halvings in range(_MAX_HALVINGS + 1):
            trial = t + step * p
            trial -= trial.mean()
            f_trial, trial_factor = _potential(vecs, c, trial)
            if halvings == _MAX_HALVINGS or f_trial <= f0 + _ARMIJO_C * step * slope + noise:
                break
            step *= 0.5
        t, f0, factor = trial, f_trial, trial_factor
        stalled = halvings == _MAX_HALVINGS
        iterations += 1

