"""Recover the unit assignment from positional unigram statistics.

The closed-form route: with full-column-rank PX the matrix equation
PX @ O = PY pins O uniquely, and the minimum-norm least-squares solution
recovers it. A factorial brute-force enumerator over permutations serves as
the independent ground-truth check for small alphabets, and the error rate
scores a decoded label map against the true assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .hmm import PositionalUnigramPair
from .spectral import RANK_RTOL

ORACLE_MAX_UNITS = 8


@dataclass
class RecoveredAssignment:
    O_hat: np.ndarray
    decoded: np.ndarray  # per speech unit, the argmax label
    residual: float
    rank_deficient: bool


def recover_pseudoinverse(pair: PositionalUnigramPair) -> RecoveredAssignment:
    """Minimum-norm least squares through the SVD of PX.

    Singular values below the shared rank tolerance (relative to the largest)
    are pseudo-inverted to 0, so rank-deficient inputs return the
    minimum-norm solution with the rank_deficient flag raised instead of an
    error.
    """
    PX = np.asarray(pair.PX, dtype=float)
    PY = np.asarray(pair.PY, dtype=float)
    O_hat, _, rank, _ = np.linalg.lstsq(PX, PY, rcond=RANK_RTOL)
    decoded = np.argmax(O_hat, axis=1)  # ties resolve to the lowest index
    residual = float(np.linalg.norm(PX @ O_hat - PY))
    return RecoveredAssignment(
        O_hat=O_hat,
        decoded=decoded.astype(np.int64),
        residual=residual,
        rank_deficient=bool(rank < PX.shape[1]),
    )


def brute_force_oracle(pair: PositionalUnigramPair, tol: float = 1e-8) -> list[np.ndarray]:
    """Every permutation matrix G with ||PX G - PY||_F <= tol.

    Exactly one hit means the language pins the assignment; the factorial
    enumeration caps at 8 units.
    """
    PX = np.asarray(pair.PX, dtype=float)
    PY = np.asarray(pair.PY, dtype=float)
    nx = PX.shape[1]
    ny = PY.shape[1]
    if nx != ny:
        raise ValueError(f"oracle needs equal alphabets, got {nx} and {ny}")
    if nx > ORACLE_MAX_UNITS:
        raise ValueError(f"oracle capped at {ORACLE_MAX_UNITS} units, got {nx}")
    hits = []
    eye = np.eye(nx)
    for perm in permutations(range(nx)):
        G = eye[list(perm)]
        if np.linalg.norm(PX @ G - PY) <= tol:
            hits.append(G)
    return hits


def phoneme_error_rate(decoded: np.ndarray, true_O: np.ndarray) -> float:
    """Fraction of speech units whose decoded label differs from the true
    assignment's argmax label."""
    truth = np.argmax(true_O, axis=1)
    if np.shape(decoded) != truth.shape:
        raise ValueError("decoded and true_O must agree on the unit count")
    return float(np.mean(decoded != truth))
