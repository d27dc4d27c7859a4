"""Shared test oracles, kept independent of the code paths they check.

Some stand in for functions that only tests call, and wrap the private
kernels that the package runs:

- ``scaling_potential``, ``scaling_gradient`` and ``scaling_hessian``
  evaluate f(t), its gradient and its dense Hessian at one t, through the
  solver's ``scaling._factor``, ``_potential`` and ``_whitened``;
- ``majorizes``, ``transport_distance`` and ``majorization_rows`` take the
  majorization test and the transport distance one vector or one row at a
  time, through the audit's ``repair._rows_from_prefix`` and
  ``repair._upper_ones``; they are the reference for the audit's column
  kernel;
- ``isotropy_residual`` runs the solver's convergence test
  ``scaling._isotropy_test`` on the rows ``scaling._images``.
"""

from __future__ import annotations

import base64
import builtins
import io
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

import framescale
from framescale import Frame, all_d_subsets_independent, frame_metrics
from framescale.frames import _row_sq_norms
from framescale.polytope import RANK_RTOL, SUBSET_CAP, _numerical_rank
from framescale.repair import (
    _AUDIT_ATOL,
    _RETRY_CAP,
    MAJORIZATION_TOL,
    _rows_from_prefix,
    _upper_ones,
)
from framescale.scaling import _factor, _images, _isotropy_test, _potential, _whitened
from framescale.seeding import spawn_rng


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


def record_opens(monkeypatch) -> list:
    """Record how every file is opened: ``os.open``'s flags, and ``open``'s mode.

    ``open`` is patched both as the builtin and as ``io.open``, which
    ``pathlib`` calls.
    """
    calls = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        calls.append(flags)
        return real_os_open(path, flags, *args, **kwargs)

    def mode_open(file, mode="r", *args, **kwargs):
        calls.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", mode_open)
    monkeypatch.setattr(io, "open", mode_open)
    return calls


def truncating_opens(calls: list) -> list:
    """The recorded opens that truncate: ``O_TRUNC`` in the flags, or "w" in the mode."""
    return [c for c in calls if (c & os.O_TRUNC if isinstance(c, int) else "w" in c)]


def run_with_file_size_limit(limit: int, statement: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``statement`` in a fresh interpreter whose files may not grow past ``limit`` bytes.

    ``framescale.cli`` is imported before the limit is set, and SIGXFSZ is
    ignored, so a write past the limit fails with EFBIG rather than killing
    the process. ``args`` arrive as ``sys.argv[1:]``.
    """
    program = (
        "import resource, signal, sys\n"
        "import framescale.cli\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        f"{statement}\n"
    )
    source = str(Path(framescale.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def isotropy_residual(frame: Frame, A) -> tuple[np.ndarray, float]:
    """Residual J = (d/n) sum_i w_i w_i^T - I for w_i = A u_i / ||A u_i||, and max |J_ij|.

    The solver's own convergence test on the rows A u_i; raises ValueError
    where some A u_i vanishes, since renormalization is then undefined.
    """
    J, resid, _, _ = _isotropy_test(_images(frame, A), frame.d / frame.n, np.zeros(frame.n), 0.0)
    return J, resid


def _as_t(frame: Frame, t) -> np.ndarray:
    ta = np.asarray(t, dtype=float).ravel()
    if ta.size != frame.n:
        raise ValueError(f"t has length {ta.size}, expected {frame.n}")
    if not np.all(np.isfinite(ta)):
        raise ValueError("t must be finite")
    return ta


def scaling_potential(frame: Frame, t) -> float:
    """Convex potential f(t) = log det M(t) - (d/n) sum_i t_i.

    Returns +inf when the weighted sum M(t) overflows or is singular (or
    numerically indefinite), which happens only off the feasible region.
    """
    return _potential(frame.vectors, frame.d / frame.n, _as_t(frame, t))[0]


def scaling_gradient(frame: Frame, t) -> np.ndarray:
    """Gradient g_i = (d/n) (e^{t_i} u_i^T M(t)^{-1} u_i - 1); sums to zero."""
    c = frame.d / frame.n
    return _row_sq_norms(_whitened(frame.vectors, _factor(frame.vectors, c, _as_t(frame, t)))) - c


def scaling_hessian(frame: Frame, t) -> np.ndarray:
    """Closed-form Hessian diag(diag G) - G o G of the potential; PSD with null vector 1.

    G = Y Y^T, so G_ij = (d/n) e^{(t_i+t_j)/2} u_i^T M^{-1} u_j. This
    dense n x n form is a test oracle; the solver works from the rows Y and
    the rank-r factor K of G o G.
    """
    Y = _whitened(frame.vectors, _factor(frame.vectors, frame.d / frame.n, _as_t(frame, t)))
    G = Y @ Y.T
    return np.diag(np.diag(G)) - G * G


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


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 1:
        raise ValueError("sequences must have length >= 1")
    return xa, ya


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis; the d x d triangle only if it is no larger than x."""
    d = x.shape[-1]
    return x @ _upper_ones(d) if d * d <= x.size else np.cumsum(x, axis=-1)


def majorization_rows(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise majorization flags and transport distances of paired rows.

    ``x`` and ``y`` have equal shape (..., d); every quantity is taken
    along the last axis. Row r of x majorizes row r of y when its prefix
    sums dominate and the totals agree, both with the slack
    ``MAJORIZATION_TOL * (1 + ||x_r||_1)``; the transport of row r is
    T(x_r, y_r) = sum_j j (y_rj - x_rj). Returns the boolean flags and the
    transports, each of shape (...).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    l1 = np.abs(x) @ np.ones(x.shape[-1])
    flags = _rows_from_prefix(_prefix_sums(y) - _prefix_sums(x), l1)
    return flags, (y - x) @ np.arange(1.0, x.shape[-1] + 1.0)


def majorizes(x, y) -> bool:
    """True iff x majorizes y: prefix sums dominate and totals agree.

    Both checks use the slack ``MAJORIZATION_TOL * (1 + ||x||_1)``.
    """
    flag, _ = majorization_rows(*_pair(x, y))
    return bool(flag)


def transport_distance(x, y) -> float:
    """T(x, y) = sum_j j (y_j - x_j), evaluated on any pair.

    When x majorizes y, T equals the prefix-sum Wasserstein distance
    sum_j |prefix_x(j) - prefix_y(j)| and bounds the l1 gap by
    ||x - y||_1 <= 2 T(x, y), with the factor 2 tight at x = (1, 0),
    y = (0, 1). The formula is total; callers relying on its transport
    interpretation must ensure x majorizes y themselves.
    """
    _, transport = majorization_rows(*_pair(x, y))
    return float(transport)


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
    squares = (u**2).T.copy()  # the audit's (d, n) layout: its norms are matrix-vector products
    wtilde = scaled * (np.sqrt(np.ones(len(sigma)) @ squares) / np.sqrt(sigma**2 @ squares))[:, None]
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


def general_position_by_full_checks(frame: Frame, eta_max: float, seed: int) -> Frame:
    """``perturb_to_general_position`` as a loop that checks every d-subset of every candidate.

    The gate's loop from before its retries checked only the fragile
    subsets, kept as their reference: the same draws from
    ``spawn_rng(seed, 3, attempt)``, and ``all_d_subsets_independent`` on
    the input and on each retry's candidate.
    """
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
        new_rank = _numerical_rank(vecs[candidate])
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
