import math
import warnings
from fractions import Fraction
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
from framescale import polytope
from framescale.polytope import (
    RANK_RTOL,
    SUBSET_CAP,
    _SCREEN_MARGIN,
    _STACK_LOOP_MAX,
    _UNIT_ROUNDOFF,
    _colex_minors,
    _fragile_subsets,
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

    @pytest.mark.parametrize("scale", [1e-170, 1e150, None], ids=["tiny", "huge", "mixed"])
    def test_recurrence_shapes_at_extreme_magnitudes(self, scale):
        # products of d entries near 1e-170 underflow and near 1e150 overflow,
        # where slogdet's logs did not; a frame that mixes both has every
        # subset across them dependent. Verdicts must follow the SVD, silently.
        rng = np.random.default_rng(30)
        for d, n in [(3, 20), (5, 15), (6, 18)]:
            generic = rng.standard_normal((n, d))
            dependent = generic.copy()
            dependent[-1] = dependent[0] - 2.0 * dependent[1]
            scales = np.where(np.arange(n) % 2, 1e-170, 1e150) if scale is None else np.full(n, scale)
            for vecs, independent in [(generic, scale is not None), (dependent, False)]:
                frame = Frame(vecs * scales[:, None])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    verdict = all_d_subsets_independent(frame)
                assert verdict == independent == subsets_independent_by_svd(frame), (d, n)

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
        # the same planted subsets at shapes that take the minors' recurrence
        for d, n in [(5, 15), (6, 18), (3, 60)]:
            for _ in range(2):
                vecs = rng.standard_normal((n, d))
                rows = rng.choice(n, size=d, replace=False)
                u, s, vt = np.linalg.svd(vecs[rows])
                s[-1] = s[0] * 10.0 ** rng.uniform(-10.0, -8.0)
                vecs[rows] = (u * s) @ vt
                frames.append(Frame(vecs))
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


def exact_det(S: np.ndarray) -> Fraction:
    """det S in rationals, by elimination on the exact values of the entries."""
    rows = [[Fraction(x) for x in row] for row in S.tolist()]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def colex_minors(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every d-subset in the kernel's order, as a (k, d) array, and its minor."""
    chunks = list(_colex_minors(vecs, np.zeros(len(vecs))))
    return np.concatenate([elems for elems, _, _, _ in chunks]), np.concatenate([minors for _, _, minors, _ in chunks])


class TestColexMinors:
    SHAPES = [(d, n) for d in range(1, 7) for n in range(2 * d, 3 * d + 2)]

    @pytest.mark.parametrize("d,n", SHAPES)
    def test_colex_order_and_exact_on_integers(self, d, n):
        # on small integers every product and sum is exact, so each minor
        # must equal the determinant that np.linalg.det rounds to
        vecs = np.random.default_rng([31, d, n]).integers(-3, 4, (n, d)).astype(float)
        subsets, minors = colex_minors(vecs)
        assert [tuple(s) for s in subsets] == sorted(combinations(range(n), d), key=lambda s: s[::-1])
        assert np.array_equal(minors, np.round(np.linalg.det(vecs[subsets])))

    @pytest.mark.parametrize("d,n", SHAPES)
    def test_minors_within_the_rounding_allowance(self, d, n):
        # Gaussian rows over 30 decades of scale, on a sample of subsets,
        # against the exact determinant of the stored entries (np.linalg.det
        # takes exp of a log-determinant, whose own error exceeds the
        # allowance at d = 1): d(d+1)/2 u ||S||_F^d must cover the error
        rng = np.random.default_rng([32, d, n])
        vecs = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-15.0, 15.0, (n, 1))
        subsets, minors = colex_minors(vecs)
        stacks = vecs[subsets]
        allowance = d * (d + 1) / 2 * _UNIT_ROUNDOFF * np.linalg.norm(stacks, axis=(1, 2)) ** d
        for i in rng.choice(len(subsets), size=min(len(subsets), 40), replace=False):
            assert abs(Fraction(minors[i]) - exact_det(stacks[i])) <= Fraction(allowance[i]) * (1 + Fraction(1, 10**9))

    def test_screen_sends_every_subset_at_or_below_its_floor_to_the_svd(self, monkeypatch):
        # d x d stacks with sigma = (1, ..., 1, s) and s chosen so that rho
        # lies 1e-12 to 1e-5 below _SCREEN_MARGIN * RANK_RTOL. There the
        # recurrence's rounding can lift a computed minor over the floor, so
        # without the allowance some of them would be cleared
        sent = []
        monkeypatch.setattr(polytope, "_rank_d", lambda stacked: sent.append(len(stacked)) or True)
        rng = np.random.default_rng(33)
        floor = _SCREEN_MARGIN * RANK_RTOL
        below = 0
        for d in range(2, 7):
            for _ in range(40):
                q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
                sigma = np.ones(d)
                sigma[-1] = floor * (1.0 - 10.0 ** rng.uniform(-12.0, -5.0)) * math.sqrt(d - 1)
                S = (q1 * sigma) @ q2.T * 10.0 ** rng.uniform(-3.0, 3.0)
                rho_sq = exact_det(S) ** 2 * (d - 1) ** (d - 1) / sum(Fraction(x) ** 2 for x in S.ravel()) ** d
                sent.clear()
                polytope._minors_independent(S)
                if rho_sq <= Fraction(floor) ** 2 * (1 - Fraction(1, 10**12)):
                    below += 1
                    assert sent == [1], (d, float(rho_sq))
        assert below >= 150

    def test_recurrence_only_where_2d_le_n_and_past_the_crossover(self, monkeypatch):
        # up to _STACK_LOOP_MAX subsets the stack loop is faster, and with
        # 2d > n the lower levels outgrow the top, e.g. at (14,15) and (8,12)
        taken = []
        monkeypatch.setattr(polytope, "_minors_independent", lambda vecs: taken.append(vecs.shape[::-1]) or True)
        rng = np.random.default_rng(34)
        shapes = [(d, n) for n in range(1, 17) for d in range(1, n + 1)]
        shapes += [(14, 15), (8, 12), (7, 13), (2, 26), (2, 27), (3, 60), (1, 350), (1, 351)]
        for d, n in shapes:
            all_d_subsets_independent(Frame(rng.standard_normal((n, d))))
        expected = [(d, n) for d, n in shapes if 2 * d <= n and math.comb(n, d) > _STACK_LOOP_MAX]
        assert taken == expected
        assert {(4, 12), (6, 12), (5, 15), (3, 14), (2, 27), (1, 351)} <= set(expected)
        assert not {(14, 15), (8, 12), (8, 14), (7, 13), (5, 10), (4, 11), (2, 26), (1, 350)} & set(expected)
        assert all(math.comb(n, d) <= SUBSET_CAP for d, n in shapes)


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
