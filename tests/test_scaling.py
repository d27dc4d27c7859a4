import tracemalloc

import numpy as np
import pytest

from framescale import (
    Frame,
    ScalingConvergenceError,
    diagonalize_transform,
    dist_sq,
    generate_enpf,
    isotropy_residual,
    perturb_frame,
    renormalize,
    scaling_gradient,
    scaling_hessian,
    scaling_potential,
    solve_radial_isotropic,
    uniform_coefficients,
)

from framescale.scaling import _newton_direction, _whitened
from helpers import cofactor_det, fd_gradient, random_generic_frame

IDENTITY2 = Frame(np.eye(2))
DEGENERATE = Frame(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def random_instance(rng, d, n):
    frame = random_generic_frame(rng, d, n)
    c = uniform_coefficients(d, n)
    t = rng.standard_normal(n) * 0.5
    return frame, c, t


class TestPotential:
    def test_identity_at_zero(self):
        assert scaling_potential(IDENTITY2, np.ones(2), np.zeros(2)) == pytest.approx(0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        frame, c, t = random_instance(rng, 3, 6)
        base = scaling_potential(frame, c, t)
        for shift in (-2.0, 0.7, 5.0):
            shifted = scaling_potential(frame, c, t + shift)
            assert shifted == pytest.approx(base, abs=1e-9 * (1 + abs(base)))

    def test_matches_cofactor_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            frame, c, t = random_instance(rng, 3, 5)
            weights = c * np.exp(t)
            M = (frame.vectors.T * weights) @ frame.vectors
            expected = np.log(cofactor_det(M)) - c @ t
            assert scaling_potential(frame, c, t) == pytest.approx(expected, abs=1e-10)

    def test_singular_weighted_sum_is_infinite(self):
        collinear = Frame(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert scaling_potential(collinear, np.ones(2), np.zeros(2)) == np.inf

    def test_convexity_probe(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            frame, c, t1 = random_instance(rng, 3, 7)
            t2 = rng.standard_normal(7) * 0.5
            theta = rng.uniform(0.05, 0.95)
            mix = scaling_potential(frame, c, theta * t1 + (1 - theta) * t2)
            hull = theta * scaling_potential(frame, c, t1) + (1 - theta) * scaling_potential(
                frame, c, t2
            )
            assert mix <= hull + 1e-9


class TestGradient:
    def test_identity_is_stationary(self):
        np.testing.assert_allclose(
            scaling_gradient(IDENTITY2, np.ones(2), np.zeros(2)), 0.0, atol=1e-14
        )

    def test_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            frame, c, t = random_instance(rng, 4, 9)
            assert scaling_gradient(frame, c, t).sum() == pytest.approx(0.0, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 13))
            frame, c, t = random_instance(rng, d, n)
            grad = scaling_gradient(frame, c, t)
            approx = fd_gradient(frame, c, t)
            assert np.max(np.abs(grad - approx)) <= 1e-5

    def test_singular_raises(self):
        collinear = Frame(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            scaling_gradient(collinear, np.ones(2), np.zeros(2))


class TestHessian:
    def test_annihilates_constant_direction(self):
        rng = np.random.default_rng(5)
        frame, c, t = random_instance(rng, 3, 8)
        H = scaling_hessian(frame, c, t)
        np.testing.assert_allclose(H @ np.ones(8), 0.0, atol=1e-12)

    def test_matches_gradient_differences(self):
        rng = np.random.default_rng(6)
        frame, c, t = random_instance(rng, 3, 6)
        H = scaling_hessian(frame, c, t)
        step = 1e-6
        for i in range(6):
            up, down = t.copy(), t.copy()
            up[i] += step
            down[i] -= step
            col = (scaling_gradient(frame, c, up) - scaling_gradient(frame, c, down)) / (2 * step)
            np.testing.assert_allclose(H[:, i], col, atol=1e-5)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            frame, c, t = random_instance(rng, 3, 7)
            eigs = np.linalg.eigvalsh(scaling_hessian(frame, c, t))
            assert eigs.min() >= -1e-10


class TestSolve:
    def test_fixed_point_converges_immediately(self):
        sol = solve_radial_isotropic(IDENTITY2, np.ones(2), 1e-10)
        assert sol.converged
        assert sol.iterations <= 2
        np.testing.assert_allclose(sol.t, 0.0, atol=1e-8)
        assert sol.residual_inf <= 1e-10

    def test_two_vector_instance_orthogonalizes(self):
        frame = Frame(np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]))
        sol = solve_radial_isotropic(frame, np.ones(2), 1e-10)
        assert isotropy_residual(frame, np.ones(2), sol.A)[1] <= 1e-10
        images = frame.vectors @ sol.A.T
        unit = images / np.linalg.norm(images, axis=1)[:, None]
        assert abs(unit[0] @ unit[1]) <= 1e-8

    def test_degenerate_instance_diagnosed(self):
        with pytest.raises(ScalingConvergenceError) as info:
            solve_radial_isotropic(DEGENERATE, uniform_coefficients(2, 3), 1e-10)
        assert info.value.blocking_subset == (0, 1)

    def test_gauge_invariant_solution(self):
        rng = np.random.default_rng(8)
        frame = renormalize(random_generic_frame(rng, 3, 7), 3 / 7)
        c = uniform_coefficients(3, 7)
        t0 = rng.standard_normal(7) * 0.1
        a = solve_radial_isotropic(frame, c, 1e-11, t0=t0)
        b = solve_radial_isotropic(frame, c, 1e-11, t0=t0 + 3.7)
        np.testing.assert_allclose(a.t, b.t, atol=1e-8)

    def test_converged_contract(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 4 * d + 1))
            frame = perturb_frame(generate_enpf(d, n, seed=trial), 1e-2, seed=trial)
            delta = 10.0 ** -rng.integers(6, 13)
            sol = solve_radial_isotropic(frame, uniform_coefficients(d, n), float(delta))
            assert sol.converged
            J, resid = isotropy_residual(frame, uniform_coefficients(d, n), sol.A)
            assert resid <= delta
            np.testing.assert_allclose(J, sol.residual, atol=1e-14)
            images = frame.vectors @ sol.A.T
            gaps = np.abs(np.exp(sol.t) * (images**2).sum(axis=1) - 1.0)
            assert gaps.max() <= 10.0 * delta

    def test_iteration_growth_in_log_precision(self):
        frame = perturb_frame(generate_enpf(4, 10, seed=0), 1e-2, seed=0)
        c = uniform_coefficients(4, 10)
        ladder = [1e-2, 1e-4, 1e-8, 1e-12]
        iters = [solve_radial_isotropic(frame, c, delta).iterations for delta in ladder]
        assert all(b >= a for a, b in zip(iters, iters[1:]))
        decades = [np.log10(1 / delta) for delta in ladder]
        assert all(
            later - iters[0] <= 2.0 * (dec - decades[0])
            for later, dec in zip(iters[1:], decades[1:])
        )
        assert max(iters) <= 200

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            solve_radial_isotropic(IDENTITY2, np.ones(2), 0.0)


class TestNewtonDirection:
    # (3, 40) has n > d(d+1)/2 + 1 and takes the low-rank path; (6, 12) is dense.
    @pytest.mark.parametrize("d, n", [(3, 40), (6, 12)])
    @pytest.mark.parametrize("spread", [0.0, 1.5])
    def test_matches_dense_hessian_solve(self, d, n, spread):
        rng = np.random.default_rng(15)
        frame = random_generic_frame(rng, d, n)
        c = uniform_coefficients(d, n)
        t = rng.standard_normal(n) * spread
        g = scaling_gradient(frame, c, t)
        H = scaling_hessian(frame, c, t)
        tau = max(np.trace(H) / n, 1e-14)
        reg = H + tau * np.ones((n, n)) / n + 1e-14 * np.eye(n)
        expected = -np.linalg.solve(reg, g)
        p = _newton_direction(_whitened(frame.vectors, c, t), g)
        assert np.linalg.norm(p - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_large_frame_solved_in_small_memory(self):
        d, n = 16, 4096
        frame = perturb_frame(generate_enpf(d, n, seed=0), 1e-2, seed=0)
        c = uniform_coefficients(d, n)
        tracemalloc.start()
        try:
            sol = solve_radial_isotropic(frame, c, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 64 * 2**20
        _, resid = isotropy_residual(frame, c, sol.A)
        assert resid <= 1e-9


class TestVerify:
    def test_identity_frame(self):
        J, resid = isotropy_residual(IDENTITY2, np.ones(2), np.eye(2))
        np.testing.assert_allclose(J, 0.0, atol=1e-15)
        assert resid <= 1e-12

    def test_scale_invariance(self):
        J, resid = isotropy_residual(IDENTITY2, np.ones(2), 5.0 * np.eye(2))
        np.testing.assert_allclose(J, 0.0, atol=1e-15)
        assert resid <= 1e-12

    def test_vanishing_image_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        frame = Frame(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            isotropy_residual(frame, np.ones(2), A)


class TestDiagonalize:
    def test_sorted_diagonal_passthrough(self):
        rng = np.random.default_rng(10)
        frame = random_generic_frame(rng, 3, 5)
        A = np.diag([3.0, 2.0, 0.5])
        scaling, rotated = diagonalize_transform(A, frame)
        np.testing.assert_allclose(scaling.lambdas, [3.0, 2.0, 0.5])
        np.testing.assert_allclose(np.abs(scaling.rotation), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(rotated.vectors), np.abs(frame.vectors), atol=1e-12)

    def test_orthogonal_transform_gives_unit_scaling(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        frame = random_generic_frame(rng, 3, 6)
        scaling, _ = diagonalize_transform(q, frame)
        np.testing.assert_allclose(scaling.lambdas, 1.0, atol=1e-12)

    def test_residual_preserved_up_to_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            frame = random_generic_frame(rng, 3, 6)
            A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            c = uniform_coefficients(3, 6)
            scaling, rotated = diagonalize_transform(A, frame)
            J_before, _ = isotropy_residual(frame, c, A)
            J_after, _ = isotropy_residual(rotated, c, np.diag(scaling.lambdas))
            assert np.linalg.norm(J_before) == pytest.approx(
                np.linalg.norm(J_after), abs=1e-9
            )

    def test_distances_preserved(self):
        rng = np.random.default_rng(13)
        a = random_generic_frame(rng, 4, 7)
        b = random_generic_frame(rng, 4, 7)
        A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        scaling, a_rot = diagonalize_transform(A, a)
        b_rot = Frame(b.vectors @ scaling.rotation)
        assert dist_sq(a_rot, b_rot) == pytest.approx(dist_sq(a, b), rel=1e-12)

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_transform(np.zeros((2, 2)), IDENTITY2)

    def test_lambdas_sorted_nonincreasing(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        scaling, _ = diagonalize_transform(A, random_generic_frame(rng, 4, 6))
        assert np.all(np.diff(scaling.lambdas) <= 0)
        assert np.all(scaling.lambdas >= 0)
