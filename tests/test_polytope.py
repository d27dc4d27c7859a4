import numpy as np
import pytest

from framescale import (
    Frame,
    all_d_subsets_independent,
    basis_polytope_membership,
    shrunk_polytope_membership,
    uniform_coefficients,
)

from helpers import polytope_support, random_generic_frame

TRIPLE = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
PARALLEL = Frame(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


class TestBasisPolytope:
    def test_generic_triple_uniform(self):
        assert basis_polytope_membership(TRIPLE, uniform_coefficients(2, 3)).in_polytope

    def test_parallel_pair_blocks_uniform(self):
        result = basis_polytope_membership(PARALLEL, uniform_coefficients(2, 3))
        assert not result.in_polytope
        assert result.violating_subset == (0, 1)

    def test_orthonormal_basis_all_ones(self):
        assert basis_polytope_membership(Frame(np.eye(3)), np.ones(3)).in_polytope

    def test_sum_constraint_enforced(self):
        with pytest.raises(ValueError):
            basis_polytope_membership(TRIPLE, np.array([0.5, 0.5, 0.5]))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            basis_polytope_membership(TRIPLE, np.array([-0.5, 1.5, 1.0]))

    def test_size_cap_refused(self):
        big = Frame(np.ones((21, 2)))
        with pytest.raises(ValueError):
            basis_polytope_membership(big, uniform_coefficients(2, 21))

    def test_non_spanning_frame_excluded(self):
        flat = Frame(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        assert not basis_polytope_membership(flat, uniform_coefficients(2, 3)).in_polytope


class TestAllDSubsets:
    def test_generic_triple(self):
        assert all_d_subsets_independent(TRIPLE)

    def test_parallel_pair(self):
        assert not all_d_subsets_independent(PARALLEL)

    def test_identity_square(self):
        assert all_d_subsets_independent(Frame(np.eye(4)))

    def test_subset_count_cap(self):
        rng = np.random.default_rng(0)
        wide = Frame(rng.standard_normal((40, 10)))
        with pytest.raises(ValueError):
            all_d_subsets_independent(wide)

    def test_n_below_d_rejected(self):
        with pytest.raises(ValueError):
            all_d_subsets_independent(Frame(np.ones((2, 3))))


class TestShrunkPolytope:
    def test_triple_at_one_third(self):
        assert shrunk_polytope_membership(TRIPLE, uniform_coefficients(2, 3), 1.0 / 3.0).in_polytope

    def test_triple_at_point_nine(self):
        result = shrunk_polytope_membership(TRIPLE, uniform_coefficients(2, 3), 0.9)
        assert not result.in_polytope
        assert result.violating_subset == (0,)

    def test_square_basis_needs_slack(self):
        # with n = d every coefficient is pinned at 1; any shrink breaks it
        assert not shrunk_polytope_membership(Frame(np.eye(3)), np.ones(3), 0.01).in_polytope
        assert shrunk_polytope_membership(Frame(np.eye(3)), np.ones(3), 0.0).in_polytope

    def test_alpha_validation(self):
        c = uniform_coefficients(2, 3)
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                shrunk_polytope_membership(TRIPLE, c, alpha)

    def test_box_constraint_enforced(self):
        frame = Frame(np.vstack([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError):
            shrunk_polytope_membership(frame, np.array([1.5, 0.5, 0.0, 0.0]), 0.1)

    def test_alpha_zero_matches_basis_polytope(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 3 * d))
            frame = random_generic_frame(rng, d, n)
            c = uniform_coefficients(d, n)
            shrunk = shrunk_polytope_membership(frame, c, 0.0)
            assert shrunk.in_polytope == basis_polytope_membership(frame, c).in_polytope

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 3 * d))
            frame = random_generic_frame(rng, d, n)
            c = uniform_coefficients(d, n)
            alphas = np.sort(rng.uniform(0.0, 0.99, size=4))
            members = [shrunk_polytope_membership(frame, c, float(a)).in_polytope for a in alphas]
            # membership can only be lost as alpha grows
            for earlier, later in zip(members, members[1:]):
                assert earlier or not later

    def test_uniform_membership_at_one_over_n(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(d + 1, 15))
            frame = random_generic_frame(rng, d, n)
            assert all_d_subsets_independent(frame)
            assert shrunk_polytope_membership(frame, uniform_coefficients(d, n), 1.0 / n).in_polytope


class TestSupportFunction:
    def test_indicator_direction_gives_rank(self):
        # indicator of the parallel pair: greedy keeps only one of them
        assert polytope_support(PARALLEL, np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_generic_direction_takes_top_d(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 1, 12))
            frame = random_generic_frame(rng, d, n)
            u = np.abs(rng.standard_normal(n))
            u[rng.integers(n)] = 0.0
            top_d = float(np.sort(u)[::-1][:d].sum())
            assert polytope_support(frame, u) == pytest.approx(top_d)

    def test_subset_reduction_agrees_with_directions(self):
        # membership must rule out violations along sampled nonnegative
        # directions with zeroed minimum; non-membership must be witnessed
        # by the violating subset's own indicator direction
        rng = np.random.default_rng(5)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 9))
            frame = random_generic_frame(rng, d, n)
            c = uniform_coefficients(d, n)
            alpha = float(rng.uniform(0.0, 0.6))
            result = shrunk_polytope_membership(frame, c, alpha)
            if result.in_polytope:
                for _ in range(300):
                    u = np.abs(rng.standard_normal(n))
                    u[int(np.argmin(u))] = 0.0
                    assert (1.0 - alpha) * polytope_support(frame, u) >= u @ c - 1e-9
            else:
                indicator = np.zeros(n)
                indicator[list(result.violating_subset)] = 1.0
                assert (1.0 - alpha) * polytope_support(frame, indicator) < indicator @ c + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            polytope_support(TRIPLE, np.ones(4))
