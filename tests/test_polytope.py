import warnings

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
