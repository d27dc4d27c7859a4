import tracemalloc
from collections import Counter

import numpy as np
import pytest

from framescale import (
    Frame,
    ScalingConvergenceError,
    basis_polytope_membership,
    generate_enpf,
    perturb_frame,
    solve_radial_isotropic,
)

from framescale import scaling
from framescale.polytope import _VIOLATION_TOL, _numerical_rank
from framescale.scaling import _factor, _newton_direction, _whitened
from helpers import (
    cofactor_det,
    fd_gradient,
    isotropy_residual,
    planted_frame,
    random_generic_frame,
    scaling_gradient,
    scaling_hessian,
    scaling_potential,
)

IDENTITY2 = Frame(np.eye(2))
DEGENERATE = Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def assert_violates(frame: Frame, subset) -> None:
    """The subset's size times d/n exceeds the dimension of its span."""
    assert subset is not None
    rows = list(subset)
    assert len(rows) * frame.d / frame.n > _numerical_rank(frame.vectors[rows]) + _VIOLATION_TOL


def random_instance(rng, d, n):
    frame = random_generic_frame(rng, d, n)
    t = rng.standard_normal(n) * 0.5
    return frame, t


class TestPotential:
    def test_identity_at_zero(self):
        assert scaling_potential(IDENTITY2, np.zeros(2)) == pytest.approx(0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        frame, t = random_instance(rng, 3, 6)
        base = scaling_potential(frame, t)
        for shift in (-2.0, 0.7, 5.0):
            shifted = scaling_potential(frame, t + shift)
            assert shifted == pytest.approx(base, abs=1e-9 * (1 + abs(base)))

    def test_matches_cofactor_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            frame, t = random_instance(rng, 3, 5)
            c = frame.d / frame.n
            M = (frame.vectors.T * (c * np.exp(t))) @ frame.vectors
            expected = np.log(cofactor_det(M)) - c * t.sum()
            assert scaling_potential(frame, t) == pytest.approx(expected, abs=1e-10)

    def test_singular_weighted_sum_is_infinite(self):
        collinear = Frame(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert scaling_potential(collinear, np.zeros(2)) == np.inf

    def test_overflowing_weighted_sum_is_infinite(self):
        # e^800 overflows M(t); the potential is +inf, with no warning.
        t = np.full(6, -160.0)
        t[0] = 800.0
        assert scaling_potential(generate_enpf(3, 6, 0), t) == np.inf

    def test_convexity_probe(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            frame, t1 = random_instance(rng, 3, 7)
            t2 = rng.standard_normal(7) * 0.5
            theta = rng.uniform(0.05, 0.95)
            mix = scaling_potential(frame, theta * t1 + (1 - theta) * t2)
            hull = theta * scaling_potential(frame, t1) + (1 - theta) * scaling_potential(
                frame, t2
            )
            assert mix <= hull + 1e-9


class TestGradient:
    def test_identity_is_stationary(self):
        np.testing.assert_allclose(
            scaling_gradient(IDENTITY2, np.zeros(2)), 0.0, atol=1e-14
        )

    def test_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            frame, t = random_instance(rng, 4, 9)
            assert scaling_gradient(frame, t).sum() == pytest.approx(0.0, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 13))
            frame, t = random_instance(rng, d, n)
            grad = scaling_gradient(frame, t)
            approx = fd_gradient(frame, t)
            assert np.max(np.abs(grad - approx)) <= 1e-5

    def test_singular_raises(self):
        collinear = Frame(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            scaling_gradient(collinear, np.zeros(2))


class TestHessian:
    def test_annihilates_constant_direction(self):
        rng = np.random.default_rng(5)
        frame, t = random_instance(rng, 3, 8)
        H = scaling_hessian(frame, t)
        np.testing.assert_allclose(H @ np.ones(8), 0.0, atol=1e-12)

    def test_matches_gradient_differences(self):
        rng = np.random.default_rng(6)
        frame, t = random_instance(rng, 3, 6)
        H = scaling_hessian(frame, t)
        step = 1e-6
        for i in range(6):
            up, down = t.copy(), t.copy()
            up[i] += step
            down[i] -= step
            col = (scaling_gradient(frame, up) - scaling_gradient(frame, down)) / (2 * step)
            np.testing.assert_allclose(H[:, i], col, atol=1e-5)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            frame, t = random_instance(rng, 3, 7)
            eigs = np.linalg.eigvalsh(scaling_hessian(frame, t))
            assert eigs.min() >= -1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluate", [scaling_potential, scaling_gradient, scaling_hessian])
def test_non_finite_t_rejected(evaluate, bad):
    t = np.zeros(6)
    t[2] = bad
    with pytest.raises(ValueError, match="^t must be finite$"):
        evaluate(generate_enpf(3, 6, 0), t)


class TestWeightedSumErrors:
    @pytest.mark.parametrize("derivative", [scaling_gradient, scaling_hessian])
    def test_overflow_named(self, derivative):
        t = np.full(6, -160.0)
        t[0] = 800.0
        with pytest.raises(ValueError, match=r"^weighted sum M\(t\) overflowed$"):
            derivative(generate_enpf(3, 6, 0), t)

    @pytest.mark.parametrize("derivative", [scaling_gradient, scaling_hessian])
    def test_singular_named(self, derivative):
        plane = Frame(np.tile([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], (3, 1)))
        with pytest.raises(ValueError, match=r"^weighted sum M\(t\) is singular$"):
            derivative(plane, np.zeros(6))


class TestSolve:
    def test_fixed_point_converges_immediately(self):
        sol = solve_radial_isotropic(IDENTITY2, 1e-10)
        assert sol.converged
        assert sol.iterations <= 2
        np.testing.assert_allclose(sol.t, 0.0, atol=1e-8)
        assert sol.residual_inf <= 1e-10

    def test_two_vector_instance_orthogonalizes(self):
        frame = Frame(np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]))
        sol = solve_radial_isotropic(frame, 1e-10)
        assert isotropy_residual(frame, sol.A)[1] <= 1e-10
        images = frame.vectors @ sol.A.T
        unit = images / np.linalg.norm(images, axis=1)[:, None]
        assert abs(unit[0] @ unit[1]) <= 1e-8

    def test_degenerate_instance_diagnosed(self):
        with pytest.raises(ScalingConvergenceError) as info:
            solve_radial_isotropic(DEGENERATE, 1e-10)
        assert info.value.blocking_subset == (0, 1)

    def test_converged_contract(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 4 * d + 1))
            frame = perturb_frame(generate_enpf(d, n, seed=trial), 1e-2, seed=trial)
            delta = 10.0 ** -rng.integers(6, 13)
            sol = solve_radial_isotropic(frame, float(delta))
            assert sol.converged
            _, resid = isotropy_residual(frame, sol.A)
            assert resid <= delta
            assert resid == sol.residual_inf
            images = frame.vectors @ sol.A.T
            gaps = np.abs(np.exp(sol.t) * (images**2).sum(axis=1) - 1.0)
            assert gaps.max() <= 10.0 * delta

    def test_iteration_growth_in_log_precision(self):
        frame = perturb_frame(generate_enpf(4, 10, seed=0), 1e-2, seed=0)
        ladder = [1e-2, 1e-4, 1e-8, 1e-12]
        iters = [solve_radial_isotropic(frame, delta).iterations for delta in ladder]
        assert all(b >= a for a, b in zip(iters, iters[1:]))
        decades = [np.log10(1 / delta) for delta in ladder]
        assert all(
            later - iters[0] <= 2.0 * (dec - decades[0])
            for later, dec in zip(iters[1:], decades[1:])
        )
        assert max(iters) <= 200

    def test_bad_delta_rejected(self):
        for delta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_radial_isotropic(IDENTITY2, delta)

    def test_stale_coefficient_argument_rejected(self):
        # max_iter is keyword-only, so a coefficient vector in the old
        # second place cannot be read as delta and delta as max_iter.
        with pytest.raises(TypeError):
            solve_radial_isotropic(IDENTITY2, np.ones(2), 1e-10)

    def test_zero_vector_rejected(self):
        frame = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="zero vector at index 2"):
            solve_radial_isotropic(frame, 1e-9)


class TestOnePotentialKernel:
    """The solver evaluates f only through ``_potential``: its line search
    never calls ``slogdet``."""

    @pytest.fixture(autouse=True)
    def refuse_other_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f evaluated outside _potential")

        monkeypatch.setattr(np.linalg, "slogdet", refuse)

    def test_perturbed_enpf_converges(self):
        frame = perturb_frame(generate_enpf(4, 40, seed=0), 1e-2, seed=0)
        sol = solve_radial_isotropic(frame, 1e-9)
        assert sol.converged and sol.iterations > 0
        assert isotropy_residual(frame, sol.A)[1] <= 1e-9

    def test_planted_frame_raises_with_its_subset(self):
        frame, k = planted_frame(np.random.default_rng(8), 8, 200, 2)
        with pytest.raises(ScalingConvergenceError) as info:
            solve_radial_isotropic(frame, 1e-9, max_iter=10)
        assert_violates(frame, info.value.blocking_subset)
        assert set(info.value.blocking_subset) <= set(range(k))


class TestBlockingSubset:
    # Solves are capped at 10 iterations: outside the polytope some run all
    # 200 default iterations before they give up, at up to 1 s each.
    def test_scan_finds_a_violation_wherever_brute_force_does(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 13))
            frame, _ = planted_frame(rng, d, n, int(rng.integers(1, d)))
            assert basis_polytope_membership(frame) is not None
            with pytest.raises(ScalingConvergenceError, match="outside the basis polytope") as info:
                solve_radial_isotropic(frame, 1e-9, max_iter=10)
            assert_violates(frame, info.value.blocking_subset)

    @pytest.mark.parametrize("d, n, s", [(4, 40, 1), (8, 200, 3), (16, 400, 4)])
    def test_planted_subset_found_past_enumeration_cap(self, d, n, s):
        frame, k = planted_frame(np.random.default_rng(d), d, n, s)
        with pytest.raises(ScalingConvergenceError) as info:
            solve_radial_isotropic(frame, 1e-9, max_iter=10)
        assert_violates(frame, info.value.blocking_subset)
        assert set(info.value.blocking_subset) <= set(range(k))


# (3, 40), (8, 64) and (16, 200) have n > d(d+1)/2 + 1 and take the
# low-rank path; (6, 12) is dense. Spread 4.0 puts t near the polytope
# boundary, where the system's condition number reaches 1e5 to 3e6.
NEWTON_CASES = [
    (0.0, 3, 40),
    (0.0, 6, 12),
    (1.5, 3, 40),
    (1.5, 6, 12),
    (4.0, 3, 40),
    (4.0, 8, 64),
    (4.0, 16, 200),
]


class TestNewtonDirection:
    @pytest.mark.parametrize("spread, d, n", NEWTON_CASES)
    def test_matches_dense_hessian_solve(self, d, n, spread):
        rng = np.random.default_rng(15)
        frame = random_generic_frame(rng, d, n)
        t = rng.standard_normal(n) * spread
        g = scaling_gradient(frame, t)
        H = scaling_hessian(frame, t)
        tau = max(np.trace(H) / n, 1e-14)
        reg = H + tau * np.ones((n, n)) / n + 1e-14 * np.eye(n)
        expected = -np.linalg.solve(reg, g)
        Y = _whitened(frame.vectors, _factor(frame.vectors, d / n, t))
        p = _newton_direction(Y, (Y**2).sum(axis=1), g)
        assert np.linalg.norm(p - expected) <= 1e-9 * np.linalg.norm(expected)

    # The low-rank path holds one (r+1) x n buffer, the dense path one n x n.
    @pytest.mark.parametrize("d, n", [(16, 4096), (64, 256)])
    def test_step_peak_memory_is_one_buffer(self, d, n):
        rng = np.random.default_rng(4)
        frame = random_generic_frame(rng, d, n)
        Y = _whitened(frame.vectors, _factor(frame.vectors, d / n, rng.standard_normal(n) * 0.5))
        q = (Y**2).sum(axis=1)
        g = q - d / n
        r = d * (d + 1) // 2
        buffer_bytes = 8 * n * ((r + 1) if n > r + 1 else n)
        tracemalloc.start()
        try:
            _newton_direction(Y, q, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * buffer_bytes

    def test_large_frame_solved_in_small_memory(self):
        d, n = 16, 4096
        frame = perturb_frame(generate_enpf(d, n, seed=0), 1e-2, seed=0)
        tracemalloc.start()
        try:
            sol = solve_radial_isotropic(frame, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 64 * 2**20
        _, resid = isotropy_residual(frame, sol.A)
        assert resid <= 1e-9


class TestOneFactorization:
    """Each point's M(t) is factored once, by ``_potential``; the whitened
    rows come from that factor, and ``eigh`` runs only where the solver can
    return the iterate."""

    def test_converging_solve_takes_one_eigh(self, monkeypatch):
        frame = perturb_frame(generate_enpf(48, 192, seed=0), 1e-2, seed=0)
        calls = Counter()

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return call

        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(scaling, "_potential", counted("f", scaling._potential))
        sol = solve_radial_isotropic(frame, 1e-9 / 48)
        assert sol.converged and sol.iterations > 0
        assert calls["eigh"] == 1
        assert calls["cholesky"] == calls["f"] > sol.iterations

    @pytest.mark.parametrize("spread, d, n", NEWTON_CASES)
    def test_whitening_matches_inverse_oracle(self, d, n, spread):
        rng = np.random.default_rng(15)
        frame = random_generic_frame(rng, d, n)
        t = rng.standard_normal(n) * spread
        U, c = frame.vectors, d / n
        w = c * np.exp(t)
        G_oracle = np.sqrt(np.outer(w, w)) * (U @ np.linalg.inv((U.T * w) @ U) @ U.T)
        Y = _whitened(U, _factor(U, c, t))
        np.testing.assert_allclose(Y @ Y.T, G_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose((Y**2).sum(axis=1), np.diag(G_oracle), rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaling_gradient(frame, t), np.diag(G_oracle) - c, rtol=0, atol=1e-12)


class TestIsotropyTest:
    @pytest.mark.parametrize("t", [[0.0, 0.0, 0.0], [-800.0, 400.0, 400.0]])
    def test_overflowing_row_fails_without_warning(self, t):
        images = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        _, _, gap, converged = scaling._isotropy_test(images, 2.0 / 3.0, np.array(t), 1.0)
        assert not converged
        assert not gap <= scaling.STATIONARITY_FACTOR


class TestVerify:
    def test_identity_frame(self):
        J, resid = isotropy_residual(IDENTITY2, np.eye(2))
        np.testing.assert_allclose(J, 0.0, atol=1e-15)
        assert resid <= 1e-12

    def test_scale_invariance(self):
        J, resid = isotropy_residual(IDENTITY2, 5.0 * np.eye(2))
        np.testing.assert_allclose(J, 0.0, atol=1e-15)
        assert resid <= 1e-12

    def test_vanishing_image_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        frame = Frame(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            isotropy_residual(frame, A)

