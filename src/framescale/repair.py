"""End-to-end repair of a nearly equal norm Parseval frame.

Given an input frame V whose measured nearness eps is below 1/2, the
pipeline (1) rescales every vector to squared norm d/n, (2) when the
d-subsets are few enough to check them all, perturbs the frame within a
budget negligible against all certified bounds until every d-subset is
independent; past that cap the renormalized frame goes on unperturbed,
(3) computes the radial isotropic scaling A for uniform coefficients d/n,
which exists exactly when d/n lies in the basis polytope, and (4) outputs
W with w_i = sqrt(d/n) A u_i / ||A u_i||, an equal norm Parseval frame up
to the solver residual. The report certifies

    dist^2(V, W) <= 20 eps d^2

with every quantity re-measured from the frames rather than trusted from
the construction, and audit_lemma_chain re-derives the inequality chain
behind the bound on the concrete instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .frames import Frame, FrameMetrics, dist_sq, frame_metrics, renormalize
from .majorization import MAJORIZATION_TOL, majorization_rows, transport_distance
from .polytope import all_d_subsets_independent, uniform_coefficients
from .scaling import (
    DEFAULT_MAX_ITER,
    DiagonalScaling,
    ScalingSolution,
    _images,
    _isotropy_test,
    diagonalize_transform,
    solve_radial_isotropic,
)
from .seeding import spawn_rng

# Inputs at eps >= 1/2 are rejected: the sqrt(1 - eps) budget algebra
# degrades and the certified bound is vacuous at small d anyway.
EPS_INPUT_MAX = 0.5

# Solver target below which float64 cannot reliably evaluate the residual.
DELTA_SOLVER_FLOOR = 1e-13

# Up to this many d-subsets, every one is checked for independence before
# solving. Past it the frame goes to the solver unperturbed: the solver's
# residual and the a-posteriori certificate decide, and a frame whose d/n
# lies outside the basis polytope raises ScalingConvergenceError.
FULL_CHECK_CAP = 200_000

_RETRY_CAP = 50

# Absolute cushion for audited inequalities whose exact slack can be zero;
# keeps machine-rounding noise from flipping a true inequality.
_AUDIT_ATOL = 1e-12


@dataclass(frozen=True)
class PerturbationBudget:
    """Perturbation allowance and the derived bound constants.

    ``gamma`` bounds the per-vector squared-distance overhead of any
    perturbation with norm at most eta_max; ``gamma_prime`` bounds the
    relative squared-norm drift, scaled by n/d.
    """

    eta_max: float
    gamma: float
    gamma_prime: float

    @classmethod
    def from_eta_max(cls, eta_max: float, d: int, n: int) -> "PerturbationBudget":
        if eta_max < 0:
            raise ValueError("eta_max must be nonnegative")
        gamma = eta_max**2 + 2.0 * eta_max
        return cls(eta_max=eta_max, gamma=gamma, gamma_prime=(n / d) * gamma)

    @classmethod
    def for_input(cls, eps: float, d: int, n: int) -> "PerturbationBudget":
        """Tightest budget satisfying every constant used by the bound.

        The terms cap, in order: the norm drift that keeps the perturbed
        frame 4 eps-nearly Parseval; the per-vector distance overhead
        gamma at gamma_max = (1 - sqrt(1 - eps)) eps d / n, computed as
        eps / (1 + sqrt(1 - eps)) eps d / n so that it does not cancel for
        small eps (taken twice, as the conventional sqrt form and as the
        root of eta^2 + 2 eta = gamma_max, written
        gamma_max / (1 + sqrt(1 + gamma_max)) for the same reason); and a
        floor keeping the perturbation well above machine noise handling yet
        far below all bounds.
        """
        if not 0.0 <= eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        gamma_max = eps / (1.0 + math.sqrt(1.0 - eps)) * eps * d / n
        eta = min(
            eps / (2.0 * n),
            math.sqrt(gamma_max) / 2.0,
            gamma_max / (1.0 + math.sqrt(1.0 + gamma_max)),
            1e-8 * math.sqrt(d / n),
        )
        return cls.from_eta_max(max(eta, 0.0), d, n)


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
    budget: PerturbationBudget
    gamma_prime_effective: float
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


def perturb_to_general_position(frame: Frame, budget: PerturbationBudget, seed: int) -> Frame:
    """Add a perturbation within budget until the frame is in general position.

    A frame with more than FULL_CHECK_CAP d-subsets is returned unchanged
    and unchecked. Otherwise the unperturbed frame is accepted when every
    d-subset is already independent (generic inputs need no noise at all).
    Each retry draws fresh directions with every row scaled to exactly
    eta_max, so dist^2 to the input is at most n eta_max^2.
    """
    if frame.n < frame.d:
        raise ValueError("general position requires n >= d")
    if math.comb(frame.n, frame.d) > FULL_CHECK_CAP:
        return frame
    for attempt in range(_RETRY_CAP + 1):
        if attempt == 0:
            candidate = frame
        elif budget.eta_max == 0.0:
            break
        else:
            rng = spawn_rng(seed, 3, attempt)
            eta = rng.standard_normal(frame.vectors.shape)
            eta *= budget.eta_max / np.sqrt((eta**2).sum(axis=1))[:, None]
            candidate = Frame(frame.vectors + eta)
        if all_d_subsets_independent(candidate):
            return candidate
    raise RuntimeError(
        f"no general-position frame within {_RETRY_CAP} retries at "
        f"eta_max={budget.eta_max:.3e}; the budget sits at machine-noise level"
    )


def rescale_preserving_norms(frame: Frame, scaling: DiagonalScaling) -> Frame:
    """Apply diag(lambdas) to each vector, then restore its original norm.

    Expects the frame already expressed in the basis where the scaling is
    diagonal (the frame returned by diagonalize_transform).
    """
    scaled = frame.vectors * scaling.lambdas[None, :]
    norms = np.sqrt((scaled**2).sum(axis=1))
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise ValueError(f"scaled vector vanished at index {dead[0]}")
    originals = np.sqrt(frame.squared_norms())
    return Frame(scaled * (originals / norms)[:, None])


def repair(
    frame: Frame, delta: float, seed: int, *, max_iter: int = DEFAULT_MAX_ITER
) -> RepairReport:
    """Construct a delta-nearly equal norm Parseval frame near the input.

    The output satisfies dist^2(V, W) <= 20 eps d^2 with eps measured from
    the input; the report records every intermediate quantity and the
    certification verdict.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    d, n = frame.d, frame.n
    if n <= d:
        raise ValueError(f"repair requires n > d, got n={n}, d={d}")
    if np.any(frame.squared_norms() == 0.0):
        raise ValueError("input frame contains a zero vector")
    metrics = frame_metrics(frame)
    eps = metrics.eps
    if eps >= EPS_INPUT_MAX:
        raise ValueError(f"input eps={eps:.3g} is not below {EPS_INPUT_MAX}")

    budget = PerturbationBudget.for_input(eps, d, n)
    perturbed = perturb_to_general_position(renormalize(frame, d / n), budget, seed)
    delta_solver = max(delta * eps / d**3, min(DELTA_SOLVER_FLOOR, delta / d))
    solution = solve_radial_isotropic(
        perturbed, uniform_coefficients(d, n), delta_solver, max_iter=max_iter
    )
    images = perturbed.vectors @ solution.A.T
    norms = np.sqrt((images**2).sum(axis=1))
    output = Frame(math.sqrt(d / n) * images / norms[:, None])
    return _certify(
        frame, metrics, perturbed, output, solution, budget, delta, delta_solver, seed
    )


def reverify(stored: RepairReport) -> RepairReport:
    """Rebuild a report from its frames and scaling alone.

    Every metric, distance, residual and the certification verdict are
    recomputed; only the raw frames, the transformation, and the run
    parameters (delta, seed, budget) are taken from the stored report.
    """
    V, U, A = stored.input_frame, stored.perturbed_frame, stored.scaling.A
    J, resid, gap, converged = _isotropy_test(
        _images(U, A), uniform_coefficients(V.d, V.n), stored.scaling.t, stored.delta_solver
    )
    scaling = replace(
        stored.scaling, residual=J, residual_inf=resid, converged=converged, stationarity_gap=gap
    )
    return _certify(
        V,
        frame_metrics(V),
        U,
        stored.output_frame,
        scaling,
        PerturbationBudget.from_eta_max(stored.budget.eta_max, V.d, V.n),
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
    budget: PerturbationBudget,
    delta: float,
    delta_solver: float,
    seed: int,
) -> RepairReport:
    """The report on input V, perturbed U and output W, with its verdict.

    ``metrics`` are those of V. Every distance, the bound, gamma'_eff and
    the nearness of W are measured here; the verdict also needs
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
        budget=budget,
        gamma_prime_effective=max(budget.gamma_prime, frame_metrics(U).eps_norm),
        scaling=scaling,
        delta=delta,
        delta_solver=delta_solver,
        seed=seed,
        output_eps=output_eps,
        certified=bool(dvw <= bound and output_eps <= delta and scaling.converged),
    )


def audit_lemma_chain(report: RepairReport) -> AuditRecord:
    """Re-derive the distance bound's inequality chain on one instance.

    Works in the rotated basis where the scaling acts diagonally with
    sorted entries. With x_i / y_i the entrywise squares of the perturbed
    vectors and of their norm-preserving scaled images, the chain is:

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

    The per-vector statements (a) and (b) are evaluated row-wise over all
    n vectors at once by ``majorization_rows``, with the same per-vector
    slack and transport as ``majorizes`` and ``transport_distance``.

    Failures are recorded in the returned checks, never raised.
    """
    d = report.d
    eps = report.eps
    gp = report.gamma_prime_effective
    diag, rotated_u = diagonalize_transform(report.scaling.A, report.perturbed_frame)
    rotated_w = Frame(report.output_frame.vectors @ diag.rotation)
    wtilde = rescale_preserving_norms(rotated_u, diag)

    x = rotated_u.vectors**2
    y = wtilde.vectors**2
    prefix_x = np.cumsum(x, axis=1)
    prefix_y = np.cumsum(y, axis=1)
    mass = 1.0 + float(np.abs(x).sum())

    checks: list[AuditCheck] = []

    # (a) per-vector majorization of x by y
    worst_prefix = float((prefix_x - prefix_y).max())
    total_gap = float(np.abs(prefix_x[:, -1] - prefix_y[:, -1]).max())
    prefix_tol = MAJORIZATION_TOL * mass
    row_major, row_transport = majorization_rows(y, x)
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
    dist_u_wt = dist_sq(rotated_u, wtilde)
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
    dist_wt_w = dist_sq(wtilde, rotated_w)
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
