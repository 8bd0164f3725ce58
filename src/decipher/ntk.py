"""Closed-form tangent kernels and infinite-width training dynamics.

The discriminator's per-position kernel has entries fixed by standard
Gaussian half moments: 1 on the diagonal, 1/(2 pi) off it, so the all-ones
vector is always an eigenvector. The generator kernel at a posterior row p
is the squared softmax Jacobian H(p)^2 (instantaneous mode) or its average
over softmax-of-Gaussian initial rows (monte_carlo_init mode); both kill
the all-ones direction, which is what conserves row sums along the flow.

integrate_dynamics runs the coupled per-unit ODEs with explicit Euler and
records the kernel-weighted squared mismatch C_t each step. Step size
defaults to 1e-2 over a spectral-radius estimate; the step is halved (with
a warning) whenever an Euler overshoot pushes O outside [-eps, 1+eps].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversarial import apply_softmax_jacobian, softmax, softmax_jacobian
from .hmm import PositionalUnigramPair
from .spectral import singular_values

GENERATOR_KERNEL_MODES = ("instantaneous", "monte_carlo_init")
OVERSHOOT_EPS = 1e-9
MAX_STEP_HALVINGS = 60


def discriminator_ntk(ny: int) -> np.ndarray:
    """Per-position discriminator kernel: diag 1/2 + E[relu(W)^2] = 1,
    off-diagonal E[relu(W)]^2 = 1/(2 pi) for W standard Gaussian."""
    if ny < 1:
        raise ValueError("alphabet size must be >= 1")
    off = 1.0 / (2.0 * np.pi)
    return np.full((ny, ny), off) + (1.0 - off) * np.eye(ny)


def generator_ntk(O_row: np.ndarray, mode: str = "instantaneous",
                  rng: Optional[np.random.Generator] = None,
                  samples: int = 100_000, logit_scale: float = 1.0) -> np.ndarray:
    """Kernel of one generator row: H(p)^2 at the given row, or the average
    of H^2 over rows drawn as softmax(Gaussian logits) at initialization."""
    p = np.asarray(O_row, dtype=float)
    if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("O_row must be a probability vector")
    if mode == "instantaneous":
        H = softmax_jacobian(p)
        return H @ H
    if mode == "monte_carlo_init":
        if rng is None:
            rng = np.random.default_rng(0)
        dim = p.shape[0]
        acc = np.zeros((dim, dim))
        chunk = 200_000
        done = 0
        while done < samples:
            m = min(chunk, samples - done)
            rows = softmax(rng.normal(0.0, logit_scale, size=(m, dim)), axis=1)
            # H^2 = diag(r^2) - r^2 r^T - r (r^2)^T + |r|^2 r r^T, so the
            # expectation reduces to three second-moment sums
            sq = rows * rows
            A = sq.T @ rows
            Cm = (rows * sq.sum(axis=1, keepdims=True)).T @ rows
            acc += np.diag(sq.sum(axis=0)) - A - A.T + Cm
            done += m
        return acc / samples
    raise ValueError(f"unknown mode {mode!r}; expected one of {GENERATOR_KERNEL_MODES}")


def apply_generator_ntk(O: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row x is H(O_x)^2 G_x, the instantaneous generator kernel applied to
    G_x, for every row at once."""
    return apply_softmax_jacobian(O, apply_softmax_jacobian(O, G))


def residual_orthogonality_check(PX: np.ndarray, PY: np.ndarray, O: np.ndarray) -> float:
    """max_l |1^T K_D (PY_l - (PX O)_l)|: zero whenever both rows sum to 1."""
    PX = np.asarray(PX, dtype=float)
    PY = np.asarray(PY, dtype=float)
    K = discriminator_ntk(PY.shape[1])
    R = PY - PX @ np.asarray(O, dtype=float)
    return float(np.max(np.abs(R @ K @ np.ones(PY.shape[1]))))


@dataclass
class NtkTrajectory:
    times: np.ndarray
    C: np.ndarray
    residuals: np.ndarray
    min_entries: np.ndarray
    O_final: np.ndarray
    rate_estimates: dict = field(default_factory=dict)
    halvings: int = 0


def _spectral_radius_estimate(PX: np.ndarray, K_D: np.ndarray, O: np.ndarray,
                              tau_max: float) -> float:
    lam_D = float(np.max(np.linalg.eigvalsh(K_D)))
    lam_G = max(float(np.max(np.linalg.eigvalsh(generator_ntk(row)))) for row in O)
    lam_X = float(singular_values(PX)[0] ** 2)
    return tau_max * lam_D * lam_G * lam_X


def integrate_dynamics(pair: PositionalUnigramPair, O_0: Optional[np.ndarray] = None,
                       tau_max: float = 1.0, step: Optional[float] = None,
                       t_end: float = 100.0, stop_residual: float = 0.0) -> NtkTrajectory:
    """Explicit Euler on dO_x/dt = tau K_Ox K_D (PY - PX O)^T PX[:, x].

    Records C_t = tau * Tr(R K_D R^T) with R the per-position mismatch, the
    Frobenius residual and the smallest O entry at every accepted step. Row
    sums are conserved analytically (both kernels kill the all-ones
    direction); integration drift beyond 1e-9 raises.

    stop_residual > 0 ends the run early once the recorded Frobenius residual
    falls to that level, so decay rates vary per language without retuning
    t_end (and without the trajectory tail sitting on the round-off floor).
    """
    PX = np.asarray(pair.PX, dtype=float)
    PY = np.asarray(pair.PY, dtype=float)
    nx, ny = PX.shape[1], PY.shape[1]
    if O_0 is None:
        O = np.full((nx, ny), 1.0 / ny)
    else:
        O = np.array(O_0, dtype=float)
        if O.shape != (nx, ny):
            raise ValueError(f"O_0 must be ({nx}, {ny})")
        if np.any(O < 0) or np.max(np.abs(O.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("O_0 rows must be probability vectors")
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    K_D = discriminator_ntk(ny)
    if step is None:
        # one-hot rows zero out every generator kernel: the flow is frozen
        # and any stable step works
        rho = max(_spectral_radius_estimate(PX, K_D, O, tau_max), 1e-12)
        step = min(1e-2 / rho, 1.0)
    if step <= 0:
        raise ValueError("step must be positive")

    times, Cs, resids, mins = [], [], [], []
    t = 0.0
    h = float(step)
    halvings = 0

    def record():
        R = PY - PX @ O
        times.append(t)
        Cs.append(tau_max * float(np.einsum("ly,yz,lz->", R, K_D, R)))
        resids.append(float(np.linalg.norm(R)))
        mins.append(float(np.min(O)))
        return R

    R = record()
    while t < t_end and not (stop_residual > 0 and resids[-1] <= stop_residual):
        h_try = min(h, t_end - t)
        G = PX.T @ (R @ K_D)  # nx x ny, row x = K_D R^T PX[:,x]
        dO = tau_max * apply_generator_ntk(O, G)
        candidate = O + h_try * dO
        if not np.all(np.isfinite(candidate)):
            raise RuntimeError(f"non-finite state at t = {t:.6g}")
        if candidate.min() < -OVERSHOOT_EPS or candidate.max() > 1.0 + OVERSHOOT_EPS:
            halvings += 1
            if halvings > MAX_STEP_HALVINGS:
                raise RuntimeError("step halving limit exceeded")
            warnings.warn(f"Euler overshoot at t = {t:.6g}; halving step to {h / 2:.3g}")
            h /= 2.0
            continue
        O = candidate
        t += h_try
        drift = np.max(np.abs(O.sum(axis=1) - 1.0))
        if drift > 1e-9:
            raise RuntimeError(f"row-sum drift {drift:.3g} exceeds 1e-9 at t = {t:.6g}")
        R = record()

    rates = {
        "lambda_D": float(np.min(np.linalg.eigvalsh(K_D))),
        "lambda_G": float(min(np.linalg.eigvalsh(generator_ntk(row))[1] for row in O)),
        "lambda_X": float(singular_values(PX)[-1] ** 2),
    }
    return NtkTrajectory(
        times=np.array(times), C=np.array(Cs), residuals=np.array(resids),
        min_entries=np.array(mins), O_final=O, rate_estimates=rates, halvings=halvings,
    )


def log_linear_tail_fit(traj: NtkTrajectory, tail_fraction: float = 0.5):
    """Least-squares slope and R^2 of log C_t over the trajectory tail."""
    n = len(traj.times)
    start = int(n * (1.0 - tail_fraction))
    t = traj.times[start:]
    c = traj.C[start:]
    keep = c > 0
    t, logc = t[keep], np.log(c[keep])
    if len(t) < 3:
        raise ValueError("not enough positive tail points for a fit")
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logc, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((logc - fitted) ** 2))
    ss_tot = float(np.sum((logc - logc.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2
