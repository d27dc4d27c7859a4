"""End-to-end repair of a nearly equal norm Parseval frame.

Given an input frame V whose measured nearness eps is below 1/2, the
pipeline (1) rescales every vector to squared norm d/n, (2) when the
d-subsets are few enough to check them all, moves every vector by a norm
eta_max negligible against all certified bounds until every d-subset is
independent; past that cap the renormalized frame goes on unperturbed.
A retry re-checks only the d-subsets that a move of norm eta_max could
make dependent, found once by Weyl's bound; the others pass in every
retry, so the verdict is that of checking all of them.
(3) computes the radial isotropic scaling A for the coefficients d/n,
which exists exactly when d/n lies in the basis polytope, and (4) outputs
W with w_i = sqrt(d/n) A u_i / ||A u_i||, an equal norm Parseval frame up
to the solver residual. The report certifies

    dist^2(V, W) <= 20 eps d^2

with every quantity re-measured from the frames rather than trusted from
the construction, and audit_lemma_chain re-derives the inequality chain
behind the bound on the concrete instance. No constant of that chain is
fixed in advance: the norm drift gamma' is measured from the perturbed
frame, once per report object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .frames import (
    Frame,
    FrameMetrics,
    _eps_norm,
    _row_sq_norms,
    _sum_sq,
    dist_sq,
    frame_metrics,
    renormalize,
)
from .majorization import MAJORIZATION_TOL, _rows_from_prefix, _upper_ones
from .polytope import (
    SUBSET_CAP,
    _fragile_subsets,
    _subsets_independent,
    all_d_subsets_independent,
)
from .scaling import (
    DEFAULT_MAX_ITER,
    ScalingSolution,
    _images,
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
    """One repair run: its three frames, the scaling and the run parameters.

    Every number derived from them (eps, eps_op and eps_norm of V, the
    three distances, the 20 eps d^2 bound, the output's eps and the
    verdict) is measured from the frames on its first read and cached on
    the report object; a report built by ``dataclasses.replace`` measures
    afresh. ``certified`` holds exactly when the input's eps is below 1/2,
    the paper's range, the output distance meets the bound, the output
    frame meets the requested delta, and ``scaling.converged``, which the
    solver measured or ``read_report`` measured on the stored U, t and A.
    """

    input_frame: Frame
    perturbed_frame: Frame
    output_frame: Frame
    scaling: ScalingSolution
    delta: float
    delta_solver: float
    seed: int

    @property
    def d(self) -> int:
        return self.input_frame.d

    @property
    def n(self) -> int:
        return self.input_frame.n

    @functools.cached_property
    def _input_metrics(self) -> FrameMetrics:
        return frame_metrics(self.input_frame)

    @functools.cached_property
    def eps(self) -> float:
        return self._input_metrics.eps

    @functools.cached_property
    def eps_op(self) -> float:
        return self._input_metrics.eps_op

    @functools.cached_property
    def eps_norm(self) -> float:
        return self._input_metrics.eps_norm

    @functools.cached_property
    def dist_sq_vw(self) -> float:
        return dist_sq(self.input_frame, self.output_frame)

    @functools.cached_property
    def dist_sq_vu(self) -> float:
        return dist_sq(self.input_frame, self.perturbed_frame)

    @functools.cached_property
    def dist_sq_uw(self) -> float:
        return dist_sq(self.perturbed_frame, self.output_frame)

    @functools.cached_property
    def bound(self) -> float:
        return 20.0 * self.eps * self.d * self.d

    @functools.cached_property
    def output_eps(self) -> float:
        return frame_metrics(self.output_frame).eps

    @functools.cached_property
    def certified(self) -> bool:
        return bool(
            self.eps < EPS_INPUT_MAX
            and self.dist_sq_vw <= self.bound
            and self.output_eps <= self.delta
            and self.scaling.converged
        )

    @functools.cached_property
    def gamma_prime_effective(self) -> float:
        """gamma' = eps_norm(U), the norm drift of the perturbed frame.

        Measured once per report object, from its own U, on the first read;
        a report built by ``dataclasses.replace`` measures its U afresh.
        """
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
    eta_max, so dist^2 to the input is at most n eta_max^2. Once the input
    fails, one more pass finds the subsets that a move of norm eta_max per
    row may make dependent (``polytope._fragile_subsets``), and each retry
    checks only those, lowest Weyl bound first. Every other subset passes
    in every retry's frame, so the verdict is that of checking all of them.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not eta_max >= 0.0:
        raise ValueError(f"eta_max must be nonnegative, got {eta_max}")
    if frame.n < frame.d:
        raise ValueError("general position requires n >= d")
    if math.comb(frame.n, frame.d) > SUBSET_CAP or all_d_subsets_independent(frame):
        return frame
    if eta_max > 0.0:
        fragile = _fragile_subsets(frame, eta_max)
        for attempt in range(1, _RETRY_CAP + 1):
            rng = spawn_rng(seed, 3, attempt)
            eta = rng.standard_normal(frame.vectors.shape)
            eta *= eta_max / np.sqrt(_row_sq_norms(eta))[:, None]
            candidate = Frame(frame.vectors + eta)
            if _subsets_independent(candidate, fragile):
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
    report = RepairReport(frame, perturbed, output, solution, delta, delta_solver, seed)
    # The range check has measured V; the report's cache takes that measurement.
    report.__dict__["_input_metrics"] = metrics
    return report


def reverify(stored: RepairReport) -> RepairReport:
    """Return ``stored``: a report measures its verdict from its own frames.

    Kept for one release for callers written when reports stored their
    derived numbers; ``read_report`` measures the stored scaling itself.
    """
    return stored


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

    gamma', the eps of (d) and (f), the bound and the three distances of
    (f) are the report's own measurements of its frames, never stored
    values, so the audit of a report loaded from disk is sound on its own.

    The per-vector statements (a) and (b) are evaluated over all n vectors
    at once, with the same per-vector slack and transport as ``majorizes``
    and ``transport_distance``. Vector i is column i of a (d, n) array, so
    no sum is a reduction along a short axis: every sum over one vector's
    coordinates or over the n vectors is a matrix-vector product (with
    ones, with S^2 or with the weights 1..d), the prefix sums of x and of y
    are one product each with the d x d triangle, and the per-vector
    scalings broadcast along the n-long axis. Check (a) hands the gap of
    the prefix sums to ``majorization._rows_from_prefix`` along axis 0, the
    one place that holds the majorization rule.

    Failures are recorded in the returned checks, never raised: a
    singular A is audited like any other, and a u_i that A maps to zero
    gives a NaN column of Wt, which fails every check from (a) to (e).
    """
    n, d = report.n, report.d
    eps = report.eps
    gp = report.gamma_prime_effective
    ones_n, ones_d, index = np.ones(n), np.ones(d), np.arange(1.0, d + 1.0)
    _, sigma, vt = np.linalg.svd(report.scaling.A)
    # Column i of every (d, n) array below belongs to vector i.
    rotated_u = vt @ report.perturbed_frame.vectors.T
    rotated_w = vt @ report.output_frame.vectors.T
    x = rotated_u * rotated_u
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(ones_d @ x) / np.sqrt((sigma * sigma) @ x)
        wtilde = sigma[:, None] * rotated_u
        wtilde *= ratio
    y = wtilde * wtilde
    lower = _upper_ones(d).T
    prefix_x, prefix_y = lower @ x, lower @ y
    column_x, column_y = x @ ones_n, y @ ones_n
    mass = 1.0 + float(column_x @ ones_d)  # ||x||_1, since x >= 0

    checks: list[AuditCheck] = []

    # (a) per-vector majorization of x by y; prefix_y[-1] is ||y_i||_1
    prefix_gap = prefix_x - prefix_y
    worst_prefix = float(prefix_gap.max())
    total_gap = float(np.abs(prefix_gap[-1]).max())
    prefix_tol = MAJORIZATION_TOL * mass
    all_major = bool(_rows_from_prefix(prefix_gap, prefix_y[-1], axis=0).all())
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
    dist_u_wt = _sum_sq(rotated_u - wtilde)
    gap = x - y
    transport_each = float(index @ gap @ ones_n)
    l1_total = float(ones_d @ np.abs(gap) @ ones_n)
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
    transport_sum = float((column_x - column_y) @ index)
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
    dist_wt_w = _sum_sq(wtilde - rotated_w)
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
