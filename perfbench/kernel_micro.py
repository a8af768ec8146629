"""Kernel-branch microbenchmark: profile evaluations per second.

Times the public ``scalar_A(2, z)`` and ``scalar_B(2, z)`` on seeded
arguments drawn along contour rays, ``z = |z| e^{i theta}`` with
``|theta| <= 0.7 < pi/4`` (the arguments of ``sqrt(s)`` for ``s`` in
the right half-plane), in the four |z| regimes of the package's kernel
branches.  One evaluation is one profile at one argument, so a call of
each on ``n`` arguments is ``2 n`` evaluations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from stokesbem import scalar_A, scalar_B

#: |z| range of each branch, sampled log-uniformly.
REGIMES = {
    "ab2_series": (0.02, 0.5),
    "k01_series": (0.5, 4.0),
    "k01_cf": (4.0, 30.0),
    "k01_asym": (30.0, 400.0),
}
N_ARGS = 20000
MAX_ANGLE = 0.7


def ray_arguments(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), N_ARGS))
    theta = rng.uniform(-MAX_ANGLE, MAX_ANGLE, N_ARGS)
    return mag * np.exp(1j * theta)


def evals_per_second(seed: int, seconds_per_branch: float = 0.4) -> dict[str, float]:
    """Median rate of at least three timed passes per branch."""
    rng = np.random.default_rng(seed)
    rates = {}
    for branch, (lo, hi) in REGIMES.items():
        z = ray_arguments(rng, lo, hi)
        samples = []
        start = time.perf_counter()
        while len(samples) < 3 or time.perf_counter() - start < seconds_per_branch:
            t0 = time.perf_counter()
            a = scalar_A(2, z)
            b = scalar_B(2, z)
            elapsed = time.perf_counter() - t0
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ArithmeticError(f"non-finite kernel values in {branch}")
            samples.append(2 * N_ARGS / elapsed)
        rates[branch] = statistics.median(samples)
    return rates
