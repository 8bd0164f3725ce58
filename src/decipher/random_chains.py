"""Random reversible chains with uniform symmetric weights, and Monte-Carlo
statistics of their eigenvalue gaps.

The ensemble: W symmetric with i.i.d. Uniform(0, 2*sqrt(3)) entries (diagonal
included, mirrored across it), normalized to A = D^{-1} W. That uniform law
has mean sqrt(3) and unit variance. Empirically these chains have fully
simple spectra; the gap statistics quantify how far the minimum gap stays
from degeneracy as the dimension grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TransitionMatrix
from .spectral import spectrum_of_chain

WEIGHT_HIGH = 2.0 * np.sqrt(3.0)


def random_reversible_chain(n: int, seed) -> TransitionMatrix:
    """A = D^{-1} W with W_ij = W_ji ~ Uniform(0, 2*sqrt(3)) i.i.d. (i <= j)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    iu = np.triu_indices(n)
    W[iu] = rng.uniform(0.0, WEIGHT_HIGH, size=len(iu[0]))
    W = W + np.triu(W, 1).T
    probs = W / W.sum(axis=1, keepdims=True)
    return TransitionMatrix(probs, reversible=True, weights=W)


@dataclass
class GapStatistics:
    min_gaps: np.ndarray  # per trial
    distinct_counts: np.ndarray  # per trial, at the shared eigenvalue tolerance


def gap_statistics(n: int, trials: int, seed: int = 0) -> GapStatistics:
    """Consecutive-gap statistics over independent trials, read off each
    trial chain's spectrum_of_chain report.

    Each trial draws its own generator from [seed, trial], so any execution
    order (or parallel split) reproduces the same aggregate.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    min_gaps = np.zeros(trials)
    distinct = np.zeros(trials, dtype=np.int64)
    for trial in range(trials):
        report = spectrum_of_chain(random_reversible_chain(n, [seed, trial]))
        min_gaps[trial] = np.diff(report.eigenvalues).min()
        distinct[trial] = report.distinct_count
    return GapStatistics(min_gaps=min_gaps, distinct_counts=distinct)
