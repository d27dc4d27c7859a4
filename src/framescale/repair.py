"""End-to-end repair of a nearly equal norm Parseval frame.

Given an input frame V whose measured nearness eps is below 1/2, the
pipeline (1) rescales every vector to squared norm d/n, (2) when the
d-subsets are few enough to check them all, moves every vector by a norm
eta_max negligible against all certified bounds until every d-subset is
independent; past that cap the renormalized frame goes on unperturbed,
(3) computes the radial isotropic scaling A for the coefficients d/n,
which exists exactly when d/n lies in the basis polytope, and (4) outputs
W with w_i = sqrt(d/n) A u_i / ||A u_i||, an equal norm Parseval frame up
to the solver residual. The report certifies

    dist^2(V, W) <= 20 eps d^2

with every quantity re-measured from the frames rather than trusted from
the construction, and audit_lemma_chain re-derives the inequality chain
behind the bound on the concrete instance. No constant of that chain is
fixed in advance: the norm drift gamma' is measured from the perturbed
frame whenever it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .frames import Frame, FrameMetrics, _eps_norm, _row_sq_norms, dist_sq, frame_metrics, renormalize
from .majorization import MAJORIZATION_TOL, _prefix_sums, _rows_from_prefix, transport_distance
from .polytope import SUBSET_CAP, all_d_subsets_independent
from .scaling import (
    DEFAULT_MAX_ITER,
    ScalingSolution,
    _images,
    _isotropy_test,
    solve_radial_isotropic,
)
from .seeding import spawn_rng

# Inputs at eps >= 1/2 are rejected: the paper's bound is stated for
# eps < 1/2 only, and at small d it is vacuous beyond that anyway.
EPS_INPUT_MAX = 0.5

_RETRY_CAP = 50

# Absolute cushion for audited inequalities whose exact slack can be zero;
# keeps machine-rounding noise from flipping a true inequality.
_AUDIT_ATOL = 1e-12


def _eta_max(eps: float, d: int, n: int) -> float:
    """The norm by which the gate moves each vector, negligible against every bound.

    It is the smallest of three caps: eps / (2n); the root of
    eta^2 + 2 eta = gamma_max with gamma_max = (1 - sqrt(1 - eps)) eps d / n,
    both written in forms that do not cancel at small eps; and
    1e-8 sqrt(d/n). The certificate does not rely on this value: it
    measures the perturbed frame.
    """
    gamma_max = eps / (1.0 + math.sqrt(1.0 - eps)) * eps * d / n
    return min(
        eps / (2.0 * n),
        gamma_max / (1.0 + math.sqrt(1.0 + gamma_max)),
        1e-8 * math.sqrt(d / n),
    )


@dataclass(frozen=True)
class AuditCheck:
    """One audited inequality: lhs <= rhs with recorded slack."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditRecord:
    """Instance-level verification of the full inequality chain."""

    checks: tuple[AuditCheck, ...]
    passed: bool

    def check(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class RepairReport:
    """Everything produced and certified by one repair run.

    ``certified`` holds exactly when the output distance meets the
    20 eps d^2 bound, the output frame meets the requested delta, and the
    solver converged; all three are re-measured, never assumed.
    """

    input_frame: Frame
    perturbed_frame: Frame
    output_frame: Frame
    eps: float
    eps_op: float
    eps_norm: float
    dist_sq_vw: float
    dist_sq_vu: float
    dist_sq_uw: float
    bound: float
    scaling: ScalingSolution
    delta: float
    delta_solver: float
    seed: int
    output_eps: float
    certified: bool

    @property
    def d(self) -> int:
        return self.input_frame.d

    @property
    def n(self) -> int:
        return self.input_frame.n

    @property
    def gamma_prime_effective(self) -> float:
        """gamma' = eps_norm(U), the norm drift of the perturbed frame, measured on each read."""
        return _eps_norm(self.perturbed_frame)


def perturb_to_general_position(frame: Frame, eta_max: float, seed: int) -> Frame:
    """Move every vector by norm eta_max until the frame is in general position.

    A frame with more than ``SUBSET_CAP`` d-subsets is returned unchanged
    and unchecked: the solver's residual and the a-posteriori certificate
    decide, and a frame whose d/n lies outside the basis polytope raises
    ScalingConvergenceError. Otherwise the unperturbed frame is accepted
    when every d-subset is already independent (generic inputs need no
    noise at all).
    Each retry draws fresh directions with every row scaled to exactly
    eta_max, so dist^2 to the input is at most n eta_max^2.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not eta_max >= 0.0:
        raise ValueError(f"eta_max must be nonnegative, got {eta_max}")
    if frame.n < frame.d:
        raise ValueError("general position requires n >= d")
    if math.comb(frame.n, frame.d) > SUBSET_CAP:
        return frame
    for attempt in range(_RETRY_CAP + 1):
        if attempt == 0:
            candidate = frame
        elif eta_max == 0.0:
            break
        else:
            rng = spawn_rng(seed, 3, attempt)
            eta = rng.standard_normal(frame.vectors.shape)
            eta *= eta_max / np.sqrt(_row_sq_norms(eta))[:, None]
            candidate = Frame(frame.vectors + eta)
        if all_d_subsets_independent(candidate):
            return candidate
    raise RuntimeError(
        f"no general-position frame within {_RETRY_CAP} retries at "
        f"eta_max={eta_max:.3e}; the budget sits at machine-noise level"
    )


def repair(
    frame: Frame, delta: float, seed: int, *, max_iter: int = DEFAULT_MAX_ITER
) -> RepairReport:
    """Construct a delta-nearly equal norm Parseval frame near the input.

    The output satisfies dist^2(V, W) <= 20 eps d^2 with eps measured from
    the input; the report records every intermediate quantity and the
    certification verdict. The solver target is delta / d: with c = d/n
    and exact norms, eps(W) = ||J||_2 <= d ||J||_inf.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    d, n = frame.d, frame.n
    if n <= d:
        raise ValueError(f"repair requires n > d, got n={n}, d={d}")
    if np.any(frame.squared_norms() == 0.0):
        raise ValueError("input frame contains a zero vector")
    metrics = frame_metrics(frame)
    eps = metrics.eps
    if not eps < EPS_INPUT_MAX:  # also rejects a NaN
        raise ValueError(f"input eps={eps:.3g} is not below {EPS_INPUT_MAX}")

    perturbed = perturb_to_general_position(renormalize(frame, d / n), _eta_max(eps, d, n), seed)
    delta_solver = delta / d
    solution = solve_radial_isotropic(perturbed, delta_solver, max_iter=max_iter)
    images = _images(perturbed, solution.A)
    output = renormalize(Frame(images), d / n)
    return _certify(frame, metrics, perturbed, output, solution, delta, delta_solver, seed)


def reverify(stored: RepairReport) -> RepairReport:
    """Rebuild a report from its frames and scaling alone.

    Every metric, distance, residual and the certification verdict are
    recomputed; only the raw frames, the transformation, and the run
    parameters (delta, delta_solver, seed) are taken from the stored report.
    """
    V, U, A = stored.input_frame, stored.perturbed_frame, stored.scaling.A
    _, resid, gap, converged = _isotropy_test(
        _images(U, A), V.d / V.n, stored.scaling.t, stored.delta_solver
    )
    scaling = replace(stored.scaling, residual_inf=resid, converged=converged, stationarity_gap=gap)
    return _certify(
        V,
        frame_metrics(V),
        U,
        stored.output_frame,
        scaling,
        stored.delta,
        stored.delta_solver,
        stored.seed,
    )


def _certify(
    V: Frame,
    metrics: FrameMetrics,
    U: Frame,
    W: Frame,
    scaling: ScalingSolution,
    delta: float,
    delta_solver: float,
    seed: int,
) -> RepairReport:
    """The report on input V, perturbed U and output W, with its verdict.

    ``metrics`` are those of V. Every distance, the bound and the
    nearness of W are measured here; the verdict also needs
    ``scaling.converged``, which the caller has measured.
    """
    dvw = dist_sq(V, W)
    bound = 20.0 * metrics.eps * V.d * V.d
    output_eps = frame_metrics(W).eps
    return RepairReport(
        input_frame=V,
        perturbed_frame=U,
        output_frame=W,
        eps=metrics.eps,
        eps_op=metrics.eps_op,
        eps_norm=metrics.eps_norm,
        dist_sq_vw=dvw,
        dist_sq_vu=dist_sq(V, U),
        dist_sq_uw=dist_sq(U, W),
        bound=bound,
        scaling=scaling,
        delta=delta,
        delta_solver=delta_solver,
        seed=seed,
        output_eps=output_eps,
        certified=bool(dvw <= bound and output_eps <= delta and scaling.converged),
    )


def audit_lemma_chain(report: RepairReport) -> AuditRecord:
    """Re-derive the distance bound's inequality chain on one instance.

    Works in the basis D of the SVD A = C S D^T, where D S D^T acts as
    diag(S) with sorted entries; the rotation preserves distances, and
    D S D^T is isotropic whenever A is, since C D^T is orthogonal. With
    x_i / y_i the entrywise squares of the rotated perturbed vectors and
    of their norm-preserving scaled images Wt_i, the chain is:

      (a) y_i majorizes x_i for every i;
      (b) dist^2(U, Wt) <= sum_i ||x_i - y_i||_1 <= 2 sum_i T(y_i, x_i)
          (entrywise (a-b)^2 <= |a^2-b^2| for same-sign pairs, then the
          transport lower bound on the l1 gap, factor 2 tight);
      (c) sum_i T(y_i, x_i) = T(sum y_i, sum x_i) up to rounding
          (linearity of T);
      (d) T(sum y, sum x) <= 4 eps d^2 + gamma' d^2 from the measured
          nearness of the perturbed frame and the isotropy residual;
      (e) dist^2(Wt, W) <= 2 gamma' (per-vector rescaling);
      (f) composition: dist^2(V, W) <= 2 dist^2(V, U) + 2 dist^2(U, W),
          dist^2(U, W) <= 8 eps d^2 + 4 gamma' d^2, and the certified
          dist^2(V, W) <= 20 eps d^2.

    gamma' = eps_norm(U) is measured from the report's perturbed frame,
    never read from a stored value, so the audit of a report loaded from
    disk uses the gamma' of its own U. The eps of (d) and (f), the bound
    and the three distances of (f) are taken from the report as they
    stand, so a report loaded from disk must go through ``reverify``
    first, as ``framescale audit`` does. On its own, this audit passes a
    report that stores U and whose input vectors were negated on disk.

    The per-vector statements (a) and (b) are evaluated row-wise over all
    n vectors at once, with the same per-vector slack and transport as
    ``majorizes`` and ``transport_distance``, from one prefix sum of x and y.

    Failures are recorded in the returned checks, never raised: a
    singular A is audited like any other, and a u_i that A maps to zero
    gives a NaN row of Wt, which fails every check from (a) to (e).
    """
    d = report.d
    eps = report.eps
    gp = report.gamma_prime_effective
    _, sigma, vt = np.linalg.svd(report.scaling.A)
    rotated_u = report.perturbed_frame.vectors @ vt.T
    rotated_w = report.output_frame.vectors @ vt.T
    scaled = rotated_u * sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt((rotated_u**2).sum(axis=1)) / np.sqrt((scaled**2).sum(axis=1))
        wtilde = scaled * ratio[:, None]

    x, y = rotated_u**2, wtilde**2
    prefix_x, prefix_y = _prefix_sums(x), _prefix_sums(y)
    mass = 1.0 + float(np.abs(x).sum())

    checks: list[AuditCheck] = []

    # (a) per-vector majorization of x by y
    worst_prefix = float((prefix_x - prefix_y).max())
    total_gap = float(np.abs(prefix_x[:, -1] - prefix_y[:, -1]).max())
    prefix_tol = MAJORIZATION_TOL * mass
    row_major, row_transport = _rows_from_prefix(y, x, prefix_y, prefix_x)
    all_major = bool(row_major.all())
    checks.append(
        AuditCheck(
            name="scaled_squares_majorize",
            lhs=worst_prefix,
            rhs=prefix_tol,
            slack=prefix_tol - worst_prefix,
            passed=bool(all_major and total_gap <= prefix_tol),
            detail={"total_sum_gap": total_gap},
        )
    )

    # (b) squared distance -> l1 -> transport chain
    dist_u_wt = float(((rotated_u - wtilde) ** 2).sum())
    l1_total = float(np.abs(x - y).sum())
    transport_each = float(row_transport.sum())
    atol = _AUDIT_ATOL * mass
    slack_b1 = l1_total - dist_u_wt
    slack_b2 = 2.0 * transport_each - l1_total
    checks.append(
        AuditCheck(
            name="distance_l1_transport_chain",
            lhs=dist_u_wt,
            rhs=2.0 * transport_each,
            slack=min(slack_b1, slack_b2),
            passed=bool(slack_b1 >= -atol and slack_b2 >= -atol),
            detail={"l1_total": l1_total, "transport_total": transport_each},
        )
    )

    # (c) linearity of the transport distance
    transport_sum = transport_distance(y.sum(axis=0), x.sum(axis=0))
    lin_gap = abs(transport_each - transport_sum)
    lin_tol = MAJORIZATION_TOL * (1.0 + abs(transport_each))
    checks.append(
        AuditCheck(
            name="transport_linearity",
            lhs=lin_gap,
            rhs=lin_tol,
            slack=lin_tol - lin_gap,
            passed=bool(lin_gap <= lin_tol),
            detail={"transport_of_sums": transport_sum},
        )
    )

    # (d) column-sum bound on the aggregated transport
    rhs_d = 4.0 * eps * d * d + gp * d * d
    checks.append(
        AuditCheck(
            name="transport_column_bound",
            lhs=transport_sum,
            rhs=rhs_d,
            slack=rhs_d - transport_sum,
            passed=bool(transport_sum <= rhs_d + atol),
            detail={"solver_delta": report.delta_solver},
        )
    )

    # (e) rescaling Wt -> W moves each vector by its norm drift only
    dist_wt_w = float(((wtilde - rotated_w) ** 2).sum())
    rhs_e = 2.0 * gp
    checks.append(
        AuditCheck(
            name="norm_rescaling_distance",
            lhs=dist_wt_w,
            rhs=rhs_e,
            slack=rhs_e - dist_wt_w,
            passed=bool(dist_wt_w <= rhs_e + atol),
            detail={"gamma_prime_effective": gp},
        )
    )

    # (f) composition to the certified bound
    triangle_rhs = 2.0 * (report.dist_sq_vu + report.dist_sq_uw)
    lemma_rhs = 8.0 * eps * d * d + 4.0 * gp * d * d
    passed_f = bool(
        report.dist_sq_vw <= triangle_rhs + atol
        and report.dist_sq_uw <= lemma_rhs + atol
        and report.dist_sq_vw <= report.bound + atol
    )
    checks.append(
        AuditCheck(
            name="composed_certified_bound",
            lhs=report.dist_sq_vw,
            rhs=report.bound,
            slack=report.bound - report.dist_sq_vw,
            passed=passed_f,
            detail={
                "triangle_rhs": triangle_rhs,
                "dist_sq_uw": report.dist_sq_uw,
                "lemma_rhs": lemma_rhs,
            },
        )
    )

    return AuditRecord(checks=tuple(checks), passed=bool(all(c.passed for c in checks)))
