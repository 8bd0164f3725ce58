"""Random reversible chains with uniform symmetric weights.

The ensemble: W symmetric with i.i.d. Uniform(0, 2*sqrt(3)) entries (diagonal
included, mirrored across it), normalized to A = D^{-1} W. That uniform law
has mean sqrt(3) and unit variance. Empirically these chains have fully
simple spectra; the smrm sweep measures each one's minimum eigenvalue gap.
"""

from __future__ import annotations

import numpy as np

from .graphs import TransitionMatrix

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
