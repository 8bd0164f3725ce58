"""Spectral diagnostics: eigenvalue reports, the least singular value of the
positional unigram matrix, its a-priori lower bound, and the finite-sample
recovery threshold.

One spectrum route. Every eigenvalue the sweeps report, the asymptotic
rows' distinct nonzero counts and the smrm rows' gap statistics alike, comes
from spectrum_of_chain. It reads a reversible chain through its subgraph (an
untiled chain is its own one-copy subgraph) and takes a circulant or
hypercube closed form, or else the eigenvalues of the subgraph's symmetrized
weights D^{-1/2} W D^{-1/2}. A tiled union's distinct values are grouped
over its subgraph's values alone, not over the S tiled ones, and inside
subgraph_spectrum_memo, which run_experiment opens for each sweep, each
GraphSpec's subgraph is diagonalised and grouped once.

Eigenvalue conventions. Distinct-value merging uses EPS_EIG relative to the
spectral radius (row-stochastic inputs have radius 1), always through
distinct_eigenvalues. Numerical column rank uses RANK_RTOL relative to the
largest singular value. These constants are shared by every consumer in the
package.

Conditioning. sigma_min of PX, which the NTK rows also square for their
predicted rate, and both factors of its lower bound take their singular
values from one SVD route, singular_values; recovery solves by SVD-based
least squares with the same RANK_RTOL cut. Nothing eigendecomposes a Gram
matrix A^T A for them: that squares the condition number and buries
singular values below about 1e-8 * sigma_max in roundoff.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

# perfbench's tracer patches spectral.build_subgraph by name, so the name stays
from .graphs import TransitionMatrix, build_subgraph  # noqa: F401
from .hmm import HmmLanguage, exact_positional_unigrams

EPS_EIG = 1e-7
RANK_RTOL = 1e-8
SYMMETRY_TOL = 1e-10


class NonReversibleNoClosedForm(ValueError):
    """Spectrum requested for a non-reversible chain, or for a reversible one
    with neither a closed form nor symmetrizable weights."""


class NotApplicable(ValueError):
    """A bound's simplifying assumptions do not hold for this input."""


def symmetric_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigendecomposition: ascending eigenvalues, orthonormal V.

    Thin wrapper over LAPACK's symmetric solver that enforces this package's
    contract (symmetry validation, ascending order, V columns orthonormal,
    M = V diag(w) V^T reconstruction).
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e} > {SYMMETRY_TOL}")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    return w, V


def distinct_eigenvalues(values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, float]:
    """Group real eigenvalues whose sorted consecutive gaps are at most the
    shared tolerance tol = EPS_EIG * max(radius, 1), with radius the largest
    magnitude: (index groups in ascending order, their means, tol)."""
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return [], np.array([]), EPS_EIG
    tol = EPS_EIG * max(float(np.max(np.abs(values))), 1.0)
    order = np.argsort(values)
    breaks = np.nonzero(np.diff(values[order]) > tol)[0]
    groups = [order[lo:hi] for lo, hi in zip(np.r_[0, breaks + 1], np.r_[breaks + 1, n])]
    reps = np.array([values[g].mean() for g in groups])
    return groups, reps, tol


@dataclass
class SpectrumReport:
    """Eigenvalues of a transition matrix plus distinctness statistics."""

    eigenvalues: np.ndarray  # real, ascending
    distinct_count: int
    nonzero_distinct_count: int


def circulant_eigenvalues(n: int, action_set) -> np.ndarray:
    """Fourier spectrum of a circulant step matrix with a symmetric action set
    (a reversible circulant): the mean of roots of unity over the action set,
    one value per frequency. Each offset's conjugate root is also averaged,
    so the imaginary parts cancel and the real parts are the spectrum."""
    offsets = np.asarray(sorted({int(a) % n for a in action_set}))
    freqs = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(freqs, offsets) / n)
    return phases.mean(axis=1).real.copy()


def hypercube_eigenvalues(dim: int) -> np.ndarray:
    """1 - 2k/dim with multiplicity C(dim, k), k = 0..dim: one value per node,
    with k the node's count of set bits."""
    ks = np.arange(2**dim)
    popcount = sum((ks >> b) & 1 for b in range(dim))
    return 1.0 - 2.0 * popcount / dim


def debruijn_candidate_values(m: int) -> np.ndarray:
    """Superset of achievable normalized De Bruijn eigenvalues: cos(i*pi/j)
    over 0 <= i < j <= m+1. Only containment is guaranteed."""
    vals = {np.cos(np.pi * i / j) for j in range(1, m + 2) for i in range(j)}
    return np.sort(np.array(list(vals)))


def symmetrized_form(weights: np.ndarray) -> np.ndarray:
    """D^{-1/2} W D^{-1/2}: shares its spectrum with the chain D^{-1} W."""
    d = weights.sum(axis=1)
    if np.any(d <= 0):
        raise ValueError("row weights must be positive to symmetrize")
    inv_sqrt = 1.0 / np.sqrt(d)
    return weights * np.outer(inv_sqrt, inv_sqrt)


# Subgraph spectra shared by the cells of one sweep, or None outside one
# (see subgraph_spectrum_memo): GraphSpec -> (the subgraph's sorted values,
# their distinct count, their nonzero distinct count).
_sweep_spectra: Optional[dict] = None


@contextmanager
def subgraph_spectrum_memo():
    """Within the block, spectrum_of_chain diagonalises and groups the
    subgraph of a tiled union once per GraphSpec. The memo starts empty and
    is dropped when the block exits; a process pool forked inside it gives
    each worker its own. It trusts that a tiled chain's spec describes its
    subgraph, as assemble makes it; a tiled chain without a spec is not
    memoised."""
    global _sweep_spectra
    _sweep_spectra = {}
    try:
        yield
    finally:
        _sweep_spectra = None


def _subgraph_values(T: TransitionMatrix, sub: TransitionMatrix) -> np.ndarray:
    """Eigenvalues of T's subgraph sub: the closed form T.spec provides, or
    else the symmetrized weights' eigenvalues."""
    family = T.spec.family if T.reversible and T.spec is not None else None
    if family == "circulant":
        return circulant_eigenvalues(T.spec.n, T.spec.action_set)
    if family == "hypercube":
        return hypercube_eigenvalues(T.spec.dim)
    if T.reversible and sub.weights is not None:
        return symmetric_eigen(symmetrized_form(sub.weights))[0]
    raise NonReversibleNoClosedForm(
        "not reversible, or no closed form and no symmetrizable weights; spectra "
        "of directed circulants and interpolated matrices are unsupported by design"
    )


def _sorted_spectrum(values: np.ndarray) -> tuple[np.ndarray, int, int]:
    """values sorted, their distinct count and their nonzero distinct count."""
    _, reps, tol = distinct_eigenvalues(values)
    return np.sort(values), len(reps), int(np.sum(np.abs(reps) > tol))


def spectrum_of_chain(T: TransitionMatrix) -> SpectrumReport:
    """Spectrum of a reversible transition matrix, from its subgraph.

    An untiled chain is its own subgraph. In a tiled union each copy repeats
    the subgraph's spectrum and each filler adds eigenvalue 1, under any
    relabel (a similarity). The union's distinct values are the subgraph's:
    repeats add only zero gaps, and the row-stochastic subgraph has
    eigenvalue 1 itself, so a filler's 1.0 joins its group and leaves the
    tolerance (radius 1) as it is. The subgraph's values come from the
    closed form T.spec provides (circulant Fourier values, hypercube level
    values), or else from symmetrizing its edge weights. Anything else,
    directed circulants and interpolated chains among them, has no
    supported route. eigenvalues holds all S values, ascending.
    """
    if T.tiling is None:
        return SpectrumReport(*_sorted_spectrum(_subgraph_values(T, T)))
    memo = _sweep_spectra if _sweep_spectra is not None and T.spec is not None else {}
    if T.spec not in memo:
        memo[T.spec] = _sorted_spectrum(_subgraph_values(T, T.tiling.sub))
    values, distinct, nonzero = memo[T.spec]
    # each subgraph value copies times, with the fillers' 1.0s in sorted place
    copies, at = T.tiling.copies, np.searchsorted(values, 1.0)
    eigenvalues = np.concatenate([np.repeat(values[:at], copies), np.ones(T.tiling.fillers.size),
                                  np.repeat(values[at:], copies)])
    return SpectrumReport(eigenvalues, distinct, nonzero)


def right_eigensystem(T: TransitionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, right eigenvectors U (columns), and exact U^{-1} for a
    reversible chain with symmetric weights W, via the symmetrized form;
    raises NotApplicable for a chain without them.

    With S = D^{-1/2} W D^{-1/2} = V diag(w) V^T, the chain D^{-1} W equals
    D^{-1/2} S D^{1/2}, so U = D^{-1/2} V and U^{-1} = V^T D^{1/2} without a
    linear solve.
    """
    W = T.weights
    if not T.reversible or W is None:
        raise NotApplicable("eigenvector path requires a reversible chain with symmetric weights")
    d = W.sum(axis=1)
    w, V = symmetric_eigen(symmetrized_form(W))
    U = (1.0 / np.sqrt(d))[:, None] * V
    U_inv = V.T * np.sqrt(d)[None, :]
    return w, U, U_inv


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values in descending order, zero-padded to the column count.

    A matrix with fewer rows than columns has a null space, so its last
    entry, sigma_min, is exactly 0.
    """
    A = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    return np.concatenate([s, np.zeros(A.shape[1] - s.size)])


def sigma_min(PX: np.ndarray) -> float:
    """Least singular value of PX (0 when PX has fewer rows than columns)."""
    return float(singular_values(PX)[-1])


def sigma_min_lower_bound(lang: HmmLanguage, L: int) -> float:
    """A-priori lower bound on sigma_min of the exact unigram matrix.

    Decomposes P^X = Phi M: Phi is the L x K power matrix of the K distinct
    eigenvalues, M collapses each eigenspace block of the diagonalization to
    one selector row weighted by the initial vector. The bound is

        sqrt(sum_{l=0}^{L-K-1} lam_min^{2l} / K) * delta_min^{(K-1)/2}
            / kappa(V_K) * sigma_min(M)

    with V_K the square Vandermonde of the distinct eigenvalues, delta_min
    their smallest pairwise gap, and lam_min the smallest magnitude among
    them. Every factor is a genuine inequality step: sliding K-row windows
    of Phi (each row reused at most K times, hence the 1/K), the determinant
    bound sigma_min(V_K) >= delta_min^{(K-1)/2} / kappa, and submultiplying
    by sigma_min(M). Collapsing M further to its smallest row norm looks
    tempting but is not sound; see the repo notes for configurations where
    that shortcut (and the un-rooted power sum) exceed the true sigma_min.

    Applies only when the chain is reversible with exactly K = |X| distinct
    eigenvalues, all nonzero; raises NotApplicable otherwise. The returned
    value is checked against the directly computed sigma_min.
    """
    K = lang.nx
    vals, U, U_inv = right_eigensystem(lang.T)
    groups, reps, tol = distinct_eigenvalues(vals)
    nonzero = int(np.sum(np.abs(reps) > tol))
    if len(reps) != K or nonzero != K:
        raise NotApplicable(
            f"bound needs exactly |X|={K} distinct nonzero eigenvalues, "
            f"found {len(reps)} distinct of which {nonzero} nonzero"
        )

    # One collapsed row per eigenspace: (pi^T U_j) (U^{-1}_j binned by final unit).
    units = np.arange(len(lang.pi)) % lang.nx
    M = np.zeros((K, lang.nx))
    for row, g in enumerate(groups):
        coeff = lang.pi @ U[:, g]
        selected = np.stack([np.bincount(units, weights=r, minlength=lang.nx) for r in U_inv[g]])
        M[row] = coeff @ selected
    sigma_M = sigma_min(M)

    lam = reps
    vander = np.vander(lam[np.argsort(-lam)], N=K, increasing=True).T  # row l = lambda^l
    svals = singular_values(vander)
    if svals[-1] <= 0:
        raise NotApplicable("Vandermonde of the eigenvalues is numerically singular")
    kappa = svals[0] / svals[-1]

    diffs = np.abs(lam[:, None] - lam[None, :])
    delta_min = float(np.min(diffs[~np.eye(K, dtype=bool)])) if K > 1 else 1.0
    lam_min = float(np.min(np.abs(lam)))
    n_terms = L - K
    power_sum = float(np.sum(lam_min ** (2 * np.arange(n_terms)))) if n_terms > 0 else 0.0

    bound = np.sqrt(power_sum / K) * delta_min ** ((K - 1) / 2) / kappa * sigma_M

    actual = sigma_min(exact_positional_unigrams(lang, L).PX)
    if bound > actual + 1e-8:
        raise RuntimeError(
            f"computed lower bound {bound:.6e} exceeds sigma_min {actual:.6e}; "
            "bound evaluation is inconsistent"
        )
    return float(bound)


def sample_size_threshold(nX: int, nY: int, L: int, nx: int, ny: int, delta: float) -> float:
    """Sigma_min level above which empirical least-squares recovery of the
    assignment is guaranteed with probability >= 1 - 2*delta.

    sqrt((4L|Y|(nX+nY) + L|X|nX) / (nX nY)) + 10 sqrt(L log(1/delta) / min(nX, nY)).
    """
    if min(nX, nY, L, nx, ny) <= 0:
        raise ValueError("all counts must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    first = np.sqrt((4.0 * L * ny * (nX + nY) + L * nx * nX) / (nX * nY))
    second = 10.0 * np.sqrt(L * np.log(1.0 / delta) / min(nX, nY))
    return float(first + second)
