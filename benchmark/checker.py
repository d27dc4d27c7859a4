"""Independent checks of one repair, computed with plain numpy.

Nothing here imports framescale. Each property that a certified repair
promises is recomputed from the input rows V and the output rows W alone:

- every eigenvalue of W^T W lies in [1 - delta, 1 + delta];
- every squared norm ||w_i||^2 lies within delta * d / n of d / n;
- sum_i ||v_i - w_i||^2 <= 20 * eps * d^2, with eps measured from V.
"""

from __future__ import annotations

import numpy as np

# Constant of the certified distance bound dist^2(V, W) <= 20 eps d^2.
DIST_CONSTANT = 20.0


def nearness(V: np.ndarray) -> float:
    """eps of V: the larger of the frame-operator and squared-norm deviations."""
    n, d = V.shape
    eigs = np.linalg.eigvalsh(V.T @ V)
    eps_op = max(1.0 - eigs[0], eigs[-1] - 1.0, 0.0)
    eps_norm = np.abs((V * V).sum(axis=1) * (n / d) - 1.0).max()
    return float(max(eps_op, eps_norm))


def distance_sq(V: np.ndarray, W: np.ndarray) -> float:
    """Index-wise squared distance sum_i ||v_i - w_i||^2."""
    diff = V - W
    return float((diff * diff).sum())


def repair_problems(V, W, delta: float) -> list[str]:
    """Reasons why W is not a valid repair of V at tolerance delta; empty if it is."""
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.ndim != 2 or W.shape != V.shape:
        return [f"output shape {W.shape} differs from input shape {V.shape}"]
    if not np.all(np.isfinite(W)):
        return ["output has non-finite entries"]
    n, d = V.shape
    problems = []
    eigs = np.linalg.eigvalsh(W.T @ W)
    if eigs[0] < 1.0 - delta or eigs[-1] > 1.0 + delta:
        problems.append(f"frame operator eigenvalues [{float(eigs[0])!r}, {float(eigs[-1])!r}] outside 1 +- {delta}")
    norm_gap = float(np.abs((W * W).sum(axis=1) - d / n).max())
    if norm_gap > delta * d / n:
        problems.append(f"squared norm off d/n by {norm_gap!r} > delta d/n")
    dist = distance_sq(V, W)
    bound = DIST_CONSTANT * nearness(V) * d * d
    if dist > bound:
        problems.append(f"dist^2 {dist!r} exceeds 20 eps d^2 = {bound!r}")
    return problems
