import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framescale import (
    ENPF_TOL,
    Frame,
    dist_sq,
    frame_metrics,
    frame_operator,
    generate_enpf,
    perturb_frame,
    renormalize,
)
from framescale.frames import _row_sq_norms

from helpers import eps_op_bruteforce, mercedes_frame


class TestFrameType:
    def test_shape_properties(self):
        f = Frame(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert (f.n, f.d) == (3, 2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Frame(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Frame(np.zeros((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Frame(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            Frame(np.array([[np.inf, 0.0]]))

    def test_vectors_immutable(self):
        f = Frame(np.eye(2))
        with pytest.raises(ValueError):
            f.vectors[0, 0] = 5.0


class TestRowKernel:
    def test_matches_sum_of_squares(self):
        rng = np.random.default_rng(8)
        for n, d in [(1, 1), (7, 3), (2048, 8), (64, 16), (256, 64)]:
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            np.testing.assert_allclose(_row_sq_norms(X), (X**2).sum(axis=1), rtol=1e-15, atol=0)

    def test_zero_row_is_exactly_zero(self):
        X = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 2.0], [-0.0, 0.0, -0.0]])
        np.testing.assert_array_equal(_row_sq_norms(X), [0.0, 9.0, 0.0])

    def test_overflow_is_inf_without_warning(self):
        X = np.array([[1e200, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_row_sq_norms(X), [math.inf, 25.0])


class TestFrameOperator:
    def test_orthonormal_basis(self):
        np.testing.assert_allclose(frame_operator(Frame(np.eye(2))), np.eye(2))

    def test_mercedes_is_tight(self):
        np.testing.assert_allclose(frame_operator(mercedes_frame()), np.eye(2), atol=1e-15)

    def test_rank_one_sum(self):
        f = Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(frame_operator(f), np.diag([2.0, 0.0]))

    def test_concatenation_linearity(self):
        rng = np.random.default_rng(0)
        a = Frame(rng.standard_normal((4, 3)))
        b = Frame(rng.standard_normal((6, 3)))
        both = Frame(np.vstack([a.vectors, b.vectors]))
        np.testing.assert_allclose(
            frame_operator(both), frame_operator(a) + frame_operator(b), atol=1e-12
        )


class TestFrameMetrics:
    def test_mercedes_exact(self):
        assert frame_metrics(mercedes_frame()).eps <= 1e-15

    def test_operator_eps_from_eigenvalues(self):
        f = Frame(np.array([[1.1, 0.0], [0.0, 1.0]]))
        m = frame_metrics(f)
        assert m.eps_op == pytest.approx(0.21, rel=1e-12)

    def test_norm_eps_direct(self):
        f = Frame(np.array([[1.0, 0.0], [0.0, 0.9]]))
        m = frame_metrics(f)
        assert m.eps_norm == pytest.approx(0.19, rel=1e-12)

    def test_eps_is_max_of_parts(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = Frame(rng.standard_normal((5, 3)))
            m = frame_metrics(f)
            assert m.eps == max(m.eps_op, m.eps_norm)
            assert m.eps_op >= 0 and m.eps_norm >= 0

    # The second frame operator holds inf - inf = NaN off the diagonal.
    @pytest.mark.parametrize(
        "rows",
        [[[1e160, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1e160, 1e160], [1e160, -1e160], [0.0, 1.0]]],
    )
    def test_overflowing_norm_gives_infinite_eps(self, rows):
        m = frame_metrics(Frame(np.array(rows)))
        assert m.eps_op == m.eps_norm == m.eps == math.inf

    def test_degenerate_reported_not_raised(self):
        m = frame_metrics(Frame(np.array([[1.0, 0.0], [2.0, 0.0]])))
        assert m.eps_op >= 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_operator_eps_matches_semidefinite_bisection(self, d):
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = Frame(rng.standard_normal((d + 2, d)) * rng.uniform(0.3, 1.5))
            expected = eps_op_bruteforce(frame_operator(f))
            assert frame_metrics(f).eps_op == pytest.approx(expected, abs=1e-9)


class TestDistSq:
    def test_identical_frames(self):
        f = mercedes_frame()
        assert dist_sq(f, f) == 0.0

    def test_unit_swap(self):
        assert dist_sq(Frame([[1.0, 0.0]]), Frame([[0.0, 1.0]])) == pytest.approx(2.0)

    def test_halved_basis(self):
        v = Frame(np.eye(2))
        w = Frame(0.5 * np.eye(2))
        assert dist_sq(v, w) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dist_sq(Frame(np.eye(2)), Frame(np.eye(3)))
        with pytest.raises(ValueError):
            dist_sq(Frame(np.eye(2)), Frame(np.ones((3, 2))))

    @given(
        vecs=arrays(np.float64, (4, 3), elements=st.floats(-10, 10)),
        other=arrays(np.float64, (4, 3), elements=st.floats(-10, 10)),
        third=arrays(np.float64, (4, 3), elements=st.floats(-10, 10)),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_properties(self, vecs, other, third):
        a, b, c = Frame(vecs), Frame(other), Frame(third)
        assert dist_sq(a, b) == dist_sq(b, a)
        assert dist_sq(a, b) >= 0.0
        assert dist_sq(a, a) == 0.0
        # doubled triangle inequality for squared distances
        assert dist_sq(a, c) <= 2.0 * (dist_sq(a, b) + dist_sq(b, c)) + 1e-9

    def test_zero_iff_equal(self):
        a = Frame([[1.0, 2.0], [3.0, 4.0]])
        b = Frame([[1.0, 2.0], [3.0, 4.000001]])
        assert dist_sq(a, b) > 0.0


class TestGenerateEnpf:
    def test_sweep_is_exact(self):
        for d in range(1, 9):
            for n in range(d, 33):
                frame = generate_enpf(d, n, seed=0)
                assert frame_metrics(frame).eps <= ENPF_TOL, (d, n)

    def test_square_case_is_orthonormal_basis(self):
        f = generate_enpf(2, 2, seed=3)
        np.testing.assert_allclose(f.vectors @ f.vectors.T, np.eye(2), atol=1e-14)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            generate_enpf(3, 2, seed=0)

    def test_seed_determinism(self):
        a = generate_enpf(3, 7, seed=5)
        b = generate_enpf(3, 7, seed=5)
        c = generate_enpf(3, 7, seed=6)
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)


class TestPerturbFrame:
    @pytest.mark.parametrize("target", [1e-1, 1e-2, 1e-3, 0.3])
    def test_lands_in_band(self, target):
        frame = generate_enpf(3, 8, seed=1)
        eps = frame_metrics(perturb_frame(frame, target, seed=2)).eps
        assert target / 4 <= eps <= target

    def test_mercedes_band(self):
        eps = frame_metrics(perturb_frame(mercedes_frame(), 0.1, seed=0)).eps
        assert 0.025 <= eps <= 0.1

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            perturb_frame(mercedes_frame(), 0.0, seed=0)

    def test_non_enpf_input_rejected(self):
        with pytest.raises(ValueError):
            perturb_frame(Frame(np.array([[1.1, 0.0], [0.0, 1.0]])), 0.1, seed=0)


class TestRenormalize:
    def test_already_at_target(self):
        f = Frame(np.eye(2))
        np.testing.assert_array_equal(renormalize(f, 1.0).vectors, f.vectors)

    def test_scales_to_target(self):
        f = Frame(np.array([[2.0, 0.0], [0.0, 2.0]]))
        out = renormalize(f, 1.0)
        np.testing.assert_allclose(out.vectors, np.eye(2))

    def test_directions_preserved(self):
        rng = np.random.default_rng(4)
        f = Frame(rng.standard_normal((5, 3)))
        out = renormalize(f, 0.6)
        np.testing.assert_allclose(out.squared_norms(), 0.6, rtol=1e-14)
        cross = np.einsum("ij,ij->i", out.vectors, f.vectors)
        assert np.all(cross > 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            renormalize(Frame(np.array([[0.0, 0.0], [1.0, 0.0]])), 1.0)

    def test_overflowing_vector_rejected(self):
        frame = Frame(np.array([[0.0, 1.0], [1e200, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="vector 1: squared norm inf"):
            renormalize(frame, 2.0 / 3.0)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            renormalize(Frame(np.eye(2)), 0.0)
