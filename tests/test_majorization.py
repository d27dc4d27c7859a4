import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framescale import majorizes, transport_distance
from framescale.majorization import _prefix_sums, _rows_from_prefix, _upper_ones, majorization_rows

from helpers import random_majorizing_pair, wasserstein_prefix

finite_seq = arrays(np.float64, st.integers(1, 8), elements=st.floats(-50, 50))


class TestPrefixKernel:
    def test_triangle_is_cached_and_read_only(self):
        tri = _upper_ones(5)
        assert tri is _upper_ones(5)
        np.testing.assert_array_equal(tri, np.triu(np.ones((5, 5))))
        with pytest.raises(ValueError):
            tri[1, 0] = 1.0

    @pytest.mark.parametrize("d", [1, 3, 8, 64])
    def test_prefix_product_matches_cumsum(self, d):
        # Each summation order is within (d - 1) u times the prefix sums of |x| of the
        # exact prefix sums, so two orders differ by less than 2 d u times those.
        rng = np.random.default_rng(d)
        x = rng.standard_normal((200, d))
        for rows in (x, x * 10.0 ** rng.uniform(-150, 150, size=x.shape)):
            bound = 2 * d * np.finfo(float).eps * np.cumsum(np.abs(rows), axis=1)
            assert np.all(np.abs(_prefix_sums(rows) - np.cumsum(rows, axis=1)) <= bound)
            np.testing.assert_array_equal(_prefix_sums(rows[0]), np.cumsum(rows[0]))

    def test_long_sequence_takes_linear_memory(self):
        # A d x d triangle would take 8 d^2 bytes, 134 MB here.
        d = 4096
        x = np.linspace(1.0, 0.0, d)
        tracemalloc.start()
        try:
            assert majorizes(x, np.full(d, x.mean()))
            assert transport_distance(x, np.full(d, x.mean())) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * d


class TestMajorizes:
    def test_prefix_domination(self):
        assert majorizes([3, 2, 1], [2, 2, 2])

    def test_reflexive(self):
        x = [1.5, -2.0, 0.25]
        assert majorizes(x, x)

    def test_first_prefix_too_small(self):
        assert not majorizes([1, 2, 3], [2, 2, 2])

    def test_unequal_totals(self):
        assert not majorizes([2, 2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes([1, 2], [1, 2, 3])

    def test_tolerance_scales_with_mass(self):
        x = np.array([1e8, 0.0])
        y = x + np.array([-1e-4, 1e-4])
        # absolute gap 1e-4 is within 1e-10 * (1 + |x|_1)
        assert majorizes(x, y)


class TestTransportDistance:
    def test_identical(self):
        assert transport_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_weighted_formula(self):
        # 1*(2-3) + 2*(2-2) + 3*(2-1)
        assert transport_distance([3, 2, 1], [2, 2, 2]) == pytest.approx(2.0)

    def test_matches_prefix_gap_form(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = random_majorizing_pair(rng, int(rng.integers(2, 9)))
            gaps = float(np.sum(np.cumsum(x) - np.cumsum(y)))
            assert transport_distance(x, y) == pytest.approx(gaps, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transport_distance([1], [1, 2])

    @given(x=finite_seq)
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric(self, x):
        y = x[::-1].copy()
        assert transport_distance(x, y) == pytest.approx(-transport_distance(y, x), abs=1e-9)


class TestWassersteinPrefix:
    def test_identical(self):
        assert wasserstein_prefix([5, 5], [5, 5]) == 0.0

    def test_absolute_gaps(self):
        assert wasserstein_prefix([3, 2, 1], [2, 2, 2]) == pytest.approx(2.0)

    def test_swap_pair(self):
        assert wasserstein_prefix([0, 1], [1, 0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_prefix([1, 2, 3], [1])


class TestMajorizingPairIdentities:
    """Random x majorizing y, built from rightward mass moves."""

    def test_transport_equals_wasserstein(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            x, y = random_majorizing_pair(rng, int(rng.integers(2, 11)))
            assert majorizes(x, y)
            t = transport_distance(x, y)
            w = wasserstein_prefix(x, y)
            assert t == pytest.approx(w, abs=1e-10 * (1 + abs(t)))

    def test_l1_below_twice_transport(self):
        # one unit of mass moved one index fixes two coordinate gaps, so
        # the transport cost bounds the l1 gap with a factor 2, and the
        # factor is achieved by adjacent moves.
        rng = np.random.default_rng(2)
        for _ in range(500):
            x, y = random_majorizing_pair(rng, int(rng.integers(2, 11)))
            assert np.abs(x - y).sum() <= 2.0 * transport_distance(x, y) + 1e-10

    def test_factor_two_is_tight(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert majorizes(x, y)
        assert transport_distance(x, y) == pytest.approx(1.0)
        assert np.abs(x - y).sum() == pytest.approx(2.0 * transport_distance(x, y))

    def test_linearity_over_families(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            pairs = [random_majorizing_pair(rng, d) for _ in range(int(rng.integers(2, 6)))]
            each = sum(transport_distance(x, y) for x, y in pairs)
            summed = transport_distance(
                np.sum([x for x, _ in pairs], axis=0), np.sum([y for _, y in pairs], axis=0)
            )
            assert each == pytest.approx(summed, abs=1e-10 * (1 + abs(each)))


class TestScaledSquareMajorization:
    """Entrywise squares of a vector and of its rescaled, renormalized image."""

    @staticmethod
    def scaled_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.standard_normal(d)
        while np.linalg.norm(u) < 1e-6:
            u = rng.standard_normal(d)
        lam = np.sort(np.abs(rng.standard_normal(d)))[::-1]
        scaled = lam * u
        if np.linalg.norm(scaled) == 0.0:
            return TestScaledSquareMajorization.scaled_pair(rng, d)
        image = np.linalg.norm(u) * scaled / np.linalg.norm(scaled)
        return u**2, image**2

    def test_image_majorizes_original(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x, y = self.scaled_pair(rng, int(rng.integers(1, 11)))
            assert majorizes(y, x)

    @staticmethod
    def unsorted_pair() -> tuple[np.ndarray, np.ndarray]:
        u = np.array([1.0, 1.0])
        lam = np.array([1.0, 2.0])  # increasing, not sorted down
        image = np.linalg.norm(u) * (lam * u) / np.linalg.norm(lam * u)
        return u**2, image**2

    def test_unsorted_scaling_can_break_it(self):
        x, y = self.unsorted_pair()
        assert not majorizes(y, x)

    def test_rows_flag_the_one_failing_pair(self):
        rng = np.random.default_rng(5)
        pairs = [self.scaled_pair(rng, 2) for _ in range(999)]
        bad = 417
        pairs.insert(bad, self.unsorted_pair())
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        flags, transport = majorization_rows(y, x)
        assert not flags.all()
        np.testing.assert_array_equal(np.flatnonzero(~flags), [bad])
        np.testing.assert_array_equal(flags, [majorizes(y[i], x[i]) for i in range(1000)])
        np.testing.assert_array_equal(
            transport, [transport_distance(y[i], x[i]) for i in range(1000)]
        )


class TestPrefixRule:
    """``_rows_from_prefix`` along axis 0, the layout of the audit's (d, n) arrays."""

    def test_columns_match_rows(self):
        rng = np.random.default_rng(6)
        pairs = [TestScaledSquareMajorization.scaled_pair(rng, 2) for _ in range(199)]
        pairs.insert(73, TestScaledSquareMajorization.unsorted_pair())
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        deficit = np.cumsum(x.T, axis=0) - np.cumsum(y.T, axis=0)
        flags = _rows_from_prefix(deficit, np.abs(y).sum(axis=1), axis=0)
        np.testing.assert_array_equal(flags, majorization_rows(y, x)[0])
        np.testing.assert_array_equal(np.flatnonzero(~flags), [73])

    def test_dominance_alone_is_not_enough(self):
        # Both columns' prefix sums dominate; column 1's totals differ by 1e-9,
        # more than its slack 3e-10.
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        y = np.array([[1.0, 2.0 - 1e-9], [0.0, 0.0]])
        deficit = np.cumsum(y, axis=0) - np.cumsum(x, axis=0)
        assert np.all(deficit <= 0.0)
        flags = _rows_from_prefix(deficit, np.abs(x).sum(axis=0), axis=0)
        np.testing.assert_array_equal(flags, [True, False])
        np.testing.assert_array_equal(flags, [majorizes(x[:, i], y[:, i]) for i in range(2)])
