"""A seeded sweep of the paper's input range eps < 1/2.

Plain seeded loops, not hypothesis: every run repairs the same inputs, so
a failure names its (d, n, eps, seed) and reproduces at once. Seed s draws
d in [2, 8] and n, and builds the input as
perturb_frame(generate_enpf(d, n, s), eps, s). Every in-range input must
certify and pass the audit; planted frames, far outside the range, must be
refused up front.
"""

import numpy as np
import pytest

from framescale import (
    audit_lemma_chain,
    dist_sq,
    frame_metrics,
    generate_enpf,
    perturb_frame,
    repair,
)

from helpers import planted_frame

DELTA = 1e-9
SEEDS = range(20)


def n_up_to_4d(rng: np.random.Generator, d: int) -> int:
    return int(rng.integers(d + 1, 4 * d + 1))


def shape(rng: np.random.Generator, n_of_d) -> tuple[int, int]:
    d = int(rng.integers(2, 9))
    return d, n_of_d(rng, d)


def assert_repaired(d: int, n: int, eps: float, seed: int) -> None:
    frame = perturb_frame(generate_enpf(d, n, seed), eps, seed)
    report = repair(frame, DELTA, seed)
    where = f"d={d} n={n} eps={eps:g} seed={seed}"
    assert report.certified, where
    assert audit_lemma_chain(report).passed, where
    assert dist_sq(frame, report.output_frame) <= report.bound, where
    assert frame_metrics(report.output_frame).eps <= DELTA, where


@pytest.mark.parametrize("eps", [0.3, 0.45, 0.49])
def test_near_half_certifies(eps):
    for seed in SEEDS:
        assert_repaired(*shape(np.random.default_rng(seed), n_up_to_4d), eps, seed)


@pytest.mark.parametrize("eps", [1e-7, 1e-3, 0.2])
def test_one_vector_more_than_d_certifies(eps):
    for seed in SEEDS:
        assert_repaired(*shape(np.random.default_rng(seed), lambda rng, d: d + 1), eps, seed)


def test_planted_frames_are_refused():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        d, n = shape(rng, n_up_to_4d)
        frame, _ = planted_frame(rng, d, n, int(rng.integers(1, d)))
        with pytest.raises(ValueError, match=r"is not below 0\.5$"):
            repair(frame, DELTA, seed)
