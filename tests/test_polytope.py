import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from framescale import (
    Frame,
    all_d_subsets_independent,
    basis_polytope_membership,
    generate_enpf,
    perturb_frame,
    renormalize,
)
from framescale.polytope import RANK_RTOL, _SCREEN_MARGIN, _fragile_subsets

from helpers import (
    planted_frame,
    polytope_support,
    random_generic_frame,
    subsets_independent_by_svd,
)

TRIPLE = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
PARALLEL = Frame(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


class TestBasisPolytope:
    def test_generic_triple_uniform(self):
        assert basis_polytope_membership(TRIPLE) is None

    def test_parallel_pair_blocks_uniform(self):
        assert basis_polytope_membership(PARALLEL) == (0, 1)

    def test_orthonormal_basis_all_ones(self):
        assert basis_polytope_membership(Frame(np.eye(3))) is None

    def test_size_cap_refused(self):
        big = Frame(np.ones((21, 2)))
        with pytest.raises(ValueError):
            basis_polytope_membership(big)

    def test_non_spanning_frame_excluded(self):
        flat = Frame(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        assert basis_polytope_membership(flat) is not None


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

    @pytest.mark.parametrize(
        "frame",
        [
            Frame(np.array([[0.0], [1.0]])),
            Frame(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])),
            PARALLEL,
            Frame(np.array([[1e-170, 0.0], [2e-170, 1e-186], [0.0, 1e-170]])),
        ],
        ids=["zero-vector-d1", "two-zero-rows-d2", "parallel", "underflowing-norm"],
    )
    def test_dependent_subset_rejected_without_warning(self, frame):
        # a zero stack has determinant 0 and norm 0, and in the last frame
        # every squared norm underflows to 0 while the log-determinant stays
        # finite: the screen must send such subsets to the SVD, not divide by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not all_d_subsets_independent(frame)

    def test_agrees_with_svd_oracle(self):
        # planted subsets with sigma_min / sigma_max log-uniform in
        # [1e-13, 1e-6], and harmonic ENPFs (dependent subsets) plus noise
        # of the same range, so both verdicts occur near RANK_RTOL
        rng = np.random.default_rng(15)
        frames = []
        for d in range(1, 7):
            for _ in range(6):
                n = int(rng.integers(d + 1, d + 5))
                vecs = rng.standard_normal((n, d))
                rows = rng.choice(n, size=d, replace=False)
                u, s, vt = np.linalg.svd(vecs[rows])
                s[-1] = s[0] * 10.0 ** rng.uniform(-13.0, -6.0)
                vecs[rows] = (u * s) @ vt
                frames.append(Frame(vecs))
        for d, n in [(4, 8), (4, 12), (6, 12), (6, 18), (5, 10)]:
            for seed in range(2):
                noise = 10.0 ** rng.uniform(-13.0, -6.0)
                vecs = generate_enpf(d, n, seed).vectors
                frames.append(Frame(vecs + noise * rng.standard_normal((n, d))))
        verdicts = [subsets_independent_by_svd(frame) for frame in frames]
        assert [all_d_subsets_independent(frame) for frame in frames] == verdicts
        assert 0 < sum(verdicts) < len(verdicts)

    def test_generic_frame_needs_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0])
            return svd(*args, **kwargs)

        frame = renormalize(perturb_frame(generate_enpf(6, 18, 3), 1e-2, 3), 1 / 3)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert all_d_subsets_independent(frame)
        assert calls == []
        assert not all_d_subsets_independent(PARALLEL)
        assert calls


def weyl_bound(S: np.ndarray, eta: float) -> float:
    """(rho ||S||_F - d eta) / (||S||_F + d eta), with rho = |det S| (d-1)^((d-1)/2) / ||S||_F^d."""
    d = S.shape[0]
    norm = np.linalg.norm(S)
    rho = abs(np.linalg.det(S)) * (d - 1) ** ((d - 1) / 2) / norm**d
    return (rho * norm - d * eta) / (norm + d * eta)


class TestFragileSubsets:
    def test_bound_holds_under_every_move_of_norm_eta(self):
        # planted d x d stacks with sigma_min / sigma_max log-uniform in
        # [1e-13, 1e-2], half of them with the other singular values equal,
        # where AM-GM is tight; each gets moves whose rows have norm exactly
        # eta, one random and one pushed against its smallest singular pair
        rng = np.random.default_rng(28)
        floor = _SCREEN_MARGIN * RANK_RTOL
        kept_and_dropped = set()
        looser_bound_differs = 0
        for d in range(2, 7):
            for trial in range(12):
                u, _, vt = np.linalg.svd(rng.standard_normal((d, d)))
                sigma = np.ones(d) if trial % 2 else np.sort(10.0 ** rng.uniform(-2.0, 0.0, d))[::-1]
                sigma[0], sigma[-1] = 1.0, 10.0 ** rng.uniform(-13.0, -2.0)
                S = (u * sigma) @ vt * 10.0 ** rng.uniform(-3.0, 3.0)
                norm = np.linalg.norm(S)
                random_dirs = rng.standard_normal((d, d))
                random_dirs /= np.linalg.norm(random_dirs, axis=1)[:, None]
                u_min, _, vt_min = np.linalg.svd(S)
                against = -np.sign(u_min[:, -1])[:, None] * vt_min[-1]
                # eta over 14 decades, and the two eta that put the bound a
                # thousandth below and above the floor, where rho allows
                rho = weyl_bound(S, 0.0)
                edges = [norm * (rho - b) / (d * (1.0 + b))
                         for b in floor * np.array([0.999, 1.001]) if rho > b]
                for eta in [0.0, *(norm * 10.0 ** np.arange(-16.0, -2.0)), *edges]:
                    bound = weyl_bound(S, eta)
                    kept = len(_fragile_subsets(Frame(S), eta)) == 1
                    if abs(bound - floor) > 1e-6 * floor:
                        assert kept == (not bound > floor), (d, trial, eta)
                        kept_and_dropped.add(kept)
                    looser = (rho * norm - math.sqrt(d) * eta) / (norm + math.sqrt(d) * eta)
                    looser_bound_differs += (looser > floor) != (bound > floor)
                    for move in (random_dirs, against):
                        sv = np.linalg.svd(S + eta * move, compute_uv=False)
                        assert sv[-1] / sv[0] >= bound * (1.0 - 1e-6) - 1e-15, (d, trial, eta)
                        if not kept:
                            assert sv[-1] > RANK_RTOL * sv[0]
        assert kept_and_dropped == {True, False}
        # cases where sqrt(d) eta in place of d eta would drop a kept subset
        assert looser_bound_differs > 0

    def test_keeps_exactly_the_subsets_the_bound_cannot_clear_lowest_first(self):
        # rows 3, 4 and 5 nearly lie in planes of rows 0..2, at distances
        # 1e-12, 1e-11 and 1e-10, so the weak subsets have distinct bounds
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((6, 3))
        vecs[3] = vecs[0] + vecs[1] + 1e-12 * rng.standard_normal(3)
        vecs[4] = vecs[0] - vecs[2] + 1e-11 * rng.standard_normal(3)
        vecs[5] = vecs[1] + vecs[2] + 1e-10 * rng.standard_normal(3)
        floor = _SCREEN_MARGIN * RANK_RTOL
        for eta in (0.0, 1e-13, 1e-12, 1e-11):
            fragile = _fragile_subsets(Frame(vecs), eta)
            expected = {s for s in combinations(range(6), 3) if not weyl_bound(vecs[list(s)], eta) > floor}
            assert {tuple(s) for s in fragile} == expected
            bounds = [weyl_bound(vecs[list(s)], eta) for s in fragile]
            assert len(bounds) >= 3
            assert all(lo <= hi * (1 - 1e-6) for lo, hi in zip(bounds, bounds[1:]))


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
        # by the violating subset's own indicator direction. Every other
        # frame has more than n/d vectors on one line, so both branches run.
        rng = np.random.default_rng(5)
        outside = 0
        for trial in range(16):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 9))
            if trial % 2:
                frame, _ = planted_frame(rng, d, n, 1)
            else:
                frame = random_generic_frame(rng, d, n)
            c = np.full(n, d / n)
            violation = basis_polytope_membership(frame)
            if violation is None:
                for _ in range(300):
                    u = np.abs(rng.standard_normal(n))
                    u[int(np.argmin(u))] = 0.0
                    assert polytope_support(frame, u) >= u @ c - 1e-9
            else:
                outside += 1
                indicator = np.zeros(n)
                indicator[list(violation)] = 1.0
                assert polytope_support(frame, indicator) < indicator @ c + 1e-9
        assert outside == 8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            polytope_support(TRIPLE, np.ones(4))
