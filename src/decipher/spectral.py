"""Spectral diagnostics: eigenvalue reports, the least singular value of the
positional unigram matrix, its a-priori lower bound, and the finite-sample
recovery threshold.

Eigenvalue conventions. Distinct-value merging uses EPS_EIG relative to the
spectral radius (row-stochastic inputs have radius 1). Numerical column rank
uses RANK_RTOL relative to the largest singular value. These constants are
shared by every consumer in the package.

Conditioning. sigma_min of PX, both factors of its lower bound and the NTK
step-size estimate take their singular values from one SVD route,
singular_values; recovery solves by SVD-based least squares with the same
RANK_RTOL cut. Nothing eigendecomposes a Gram matrix A^T A for them: that
squares the condition number and buries singular values below about
1e-8 * sigma_max in roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# perfbench's tracer patches spectral.build_subgraph by name, so the name stays
from .graphs import GraphSpec, TransitionMatrix, build_subgraph  # noqa: F401
from .hmm import HmmLanguage, exact_positional_unigrams, final_unit_selector

EPS_EIG = 1e-7
RANK_RTOL = 1e-8
SYMMETRY_TOL = 1e-10


class NonReversibleNoClosedForm(ValueError):
    """Spectrum requested for a chain with neither symmetrizable weights nor a
    closed form."""


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


def cluster_eigenvalues(values: np.ndarray, tol: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Group eigenvalues closer than tol; returns (index groups, representatives).

    Real inputs are clustered by sorted consecutive gaps. Complex inputs (the
    directed-circulant case) use transitive pairwise merging.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return [], np.array([])
    if not np.iscomplexobj(values):
        order = np.argsort(values)
        sorted_vals = values[order]
        breaks = np.nonzero(np.diff(sorted_vals) > tol)[0]
        groups = [order[lo:hi] for lo, hi in zip(np.r_[0, breaks + 1], np.r_[breaks + 1, n])]
    else:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if abs(values[i] - values[j]) <= tol:
                    parent[find(i)] = find(j)
        roots: dict[int, list[int]] = {}
        for i in range(n):
            roots.setdefault(find(i), []).append(i)
        groups = [np.array(g) for g in roots.values()]
        groups.sort(key=lambda g: (values[g].mean().real, values[g].mean().imag))
    reps = np.array([values[g].mean() for g in groups])
    return groups, reps


@dataclass
class SpectrumReport:
    """Eigenvalues of a transition matrix plus distinctness statistics."""

    eigenvalues: np.ndarray  # sorted; real for reversible chains, complex for directed circulants
    distinct_count: int
    nonzero_distinct_count: int
    min_gap: float
    method: str  # "closed_form" | "symmetrized_numeric"


def _report_from_values(values: np.ndarray, method: str) -> SpectrumReport:
    radius = float(np.max(np.abs(values))) if values.size else 0.0
    tol = EPS_EIG * max(radius, 1.0)
    groups, reps = cluster_eigenvalues(values, tol)
    nonzero = int(np.sum(np.abs(reps) > tol))
    if len(reps) < 2:
        min_gap = float("inf")
    elif np.iscomplexobj(reps):
        diff = np.abs(reps[:, None] - reps[None, :])
        min_gap = float(np.min(diff[~np.eye(len(reps), dtype=bool)]))
    else:
        min_gap = float(np.min(np.diff(np.sort(reps))))
    if not np.iscomplexobj(values):
        values = np.sort(values.real)
    else:
        values = values[np.lexsort((values.imag, values.real))]
    return SpectrumReport(
        eigenvalues=values,
        distinct_count=len(reps),
        nonzero_distinct_count=nonzero,
        min_gap=min_gap,
        method=method,
    )


def circulant_eigenvalues(n: int, action_set) -> np.ndarray:
    """Fourier spectrum of the circulant step matrix: mean of roots of unity
    over the action set, one value per frequency."""
    offsets = np.asarray(sorted({int(a) % n for a in action_set}))
    freqs = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(freqs, offsets) / n)
    vals = phases.mean(axis=1)
    if np.max(np.abs(vals.imag)) < 1e-12:
        return vals.real.copy()
    return vals


def hypercube_eigenvalues(dim: int) -> np.ndarray:
    """1 - 2k/dim with multiplicity C(dim, k), k = 0..dim."""
    ks = np.arange(2**dim)
    popcount = np.array([bin(k).count("1") for k in ks])
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


def _subgraph_eigenvalues(spec: GraphSpec, sub: TransitionMatrix) -> tuple[np.ndarray, str]:
    """Eigenvalues of sub, the subgraph that spec builds."""
    if spec.family == "circulant":
        return circulant_eigenvalues(spec.n, spec.action_set), "closed_form"
    if spec.family == "hypercube":
        return hypercube_eigenvalues(spec.dim), "closed_form"
    w, _ = symmetric_eigen(symmetrized_form(sub.weights))
    return w, "symmetrized_numeric"


def spectrum_of_chain(T: TransitionMatrix) -> SpectrumReport:
    """Spectrum of a transition matrix.

    Prefers the closed form T.spec provides (circulant Fourier values,
    hypercube level values); De Bruijn subgraphs go through symmetrization.
    Tiled unions reuse the subgraph spectrum: each copy in T.tiling repeats
    it and each filler adds eigenvalue 1, under any relabel (a similarity);
    an untiled chain is one copy with no fillers. Reversible chains without a
    spec are symmetrized from their edge weights. Anything else has no
    supported route.
    """
    spec = T.spec
    if spec is not None:
        tiling = T.tiling
        vals, method = _subgraph_eigenvalues(spec, T if tiling is None else tiling.sub)
        copies, fillers = (1, 0) if tiling is None else (tiling.copies, tiling.fillers.size)
        full = np.concatenate([np.tile(vals, copies), np.ones(fillers, dtype=vals.dtype)])
        return _report_from_values(full, method)
    if T.reversible and T.weights is not None:
        w, _ = symmetric_eigen(symmetrized_form(T.weights))
        return _report_from_values(w, "symmetrized_numeric")
    raise NonReversibleNoClosedForm(
        "no closed form and no symmetrizable weights; spectra of interpolated "
        "matrices are unsupported by design"
    )


def stationary_weights(T_probs: np.ndarray) -> Optional[np.ndarray]:
    """Recover symmetric edge weights diag(p) T of a reversible chain.

    Solves for the stationary distribution and checks detailed balance;
    returns None when the chain is not reversible (or not irreducible enough
    for a clean stationary solve).
    """
    n = T_probs.shape[0]
    A = np.vstack([T_probs.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        return None
    W = p[:, None] * T_probs
    if np.max(np.abs(W - W.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(W))):
        return None
    return (W + W.T) / 2.0


def right_eigensystem(T: TransitionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, right eigenvectors U (columns), and exact U^{-1} for a
    reversible chain, via the symmetrized form.

    With S = D^{-1/2} W D^{-1/2} = V diag(w) V^T, the chain D^{-1} W equals
    D^{-1/2} S D^{1/2}, so U = D^{-1/2} V and U^{-1} = V^T D^{1/2} without a
    linear solve.
    """
    W = T.weights if (T.reversible and T.weights is not None) else stationary_weights(T.probs)
    if W is None:
        raise NonReversibleNoClosedForm("eigenvector path requires a reversible chain")
    d = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    w, V = symmetric_eigen(W * np.outer(inv_sqrt, inv_sqrt))
    U = inv_sqrt[:, None] * V
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
    radius = float(np.max(np.abs(vals)))
    tol = EPS_EIG * max(radius, 1.0)
    groups, reps = cluster_eigenvalues(vals, tol)
    nonzero = int(np.sum(np.abs(reps) > tol))
    if len(reps) != K or nonzero != K:
        raise NotApplicable(
            f"bound needs exactly |X|={K} distinct nonzero eigenvalues, "
            f"found {len(reps)} distinct of which {nonzero} nonzero"
        )

    # One collapsed row per eigenspace: (pi^T U_j) (U^{-1}_j projected to units).
    M = np.zeros((K, lang.nx))
    for row, g in enumerate(groups):
        coeff = lang.pi @ U[:, g]
        selected = np.stack([final_unit_selector(r, lang.nx) for r in U_inv[g]])
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
