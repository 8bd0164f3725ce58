"""Closed-form tangent kernels and infinite-width training dynamics.

The discriminator's per-position kernel has entries fixed by standard
Gaussian half moments: 1 on the diagonal, 1/(2 pi) off it, so the all-ones
vector is always an eigenvector. The generator kernel at a posterior row p
is the squared softmax Jacobian H(p)^2, taken at the flow's current rows.
Both kernels kill the all-ones direction, which is what conserves row sums
along the flow.

integrate_dynamics runs the coupled per-unit ODEs with the Dormand-Prince
5(4) pair and records the kernel-weighted squared mismatch C_t at each
accepted step. A PI controller sets each step from the embedded error
estimate (rtol 1e-8, atol 1e-12); a step is also rejected and retried at
half the size whenever it would push O outside [-eps, 1+eps]. A run with a
stopping residual ends where the residual crosses it, inside the last step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adversarial import apply_softmax_jacobian, softmax_jacobian
from .hmm import PositionalUnigramPair
from .spectral import singular_values

OVERSHOOT_EPS = 1e-9

# Dormand-Prince 5(4) pair (Dormand & Prince 1980). Row i gives stage i + 2
# from stages 1..i + 1; the last row is the fifth-order solution. The flow is
# autonomous, so the stage nodes are not needed.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# fifth- minus fourth-order weights of stages 1..7: the local error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Dormand-Prince's continuous extension (Shampine 1986; Hairer, Norsett &
# Wanner II.6): row i weights stage i + 1 by theta, theta^2, theta^3, theta^4,
# for a fourth-order solution at theta in [0, 1] of an accepted step
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# error per entry of O is measured against ATOL + RTOL |O|, RMS over entries
RTOL = 1e-8
ATOL = 1e-12
# PI step-size control, with the constants of Hairer, Norsett & Wanner's DOPRI5
_SAFETY = 0.9
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0


def discriminator_ntk(ny: int) -> np.ndarray:
    """Per-position discriminator kernel: diag 1/2 + E[relu(W)^2] = 1,
    off-diagonal E[relu(W)]^2 = 1/(2 pi) for W standard Gaussian."""
    if ny < 1:
        raise ValueError("alphabet size must be >= 1")
    off = 1.0 / (2.0 * np.pi)
    return np.full((ny, ny), off) + (1.0 - off) * np.eye(ny)


def generator_ntk(O_row: np.ndarray) -> np.ndarray:
    """Kernel of one generator row: H(p)^2 at the given row p."""
    p = np.asarray(O_row, dtype=float)
    if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("O_row must be a probability vector")
    H = softmax_jacobian(p)
    return H @ H


def apply_generator_ntk(O: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row x is H(O_x)^2 G_x, the instantaneous generator kernel applied to
    G_x, for every row at once."""
    return apply_softmax_jacobian(O, apply_softmax_jacobian(O, G))


@dataclass
class NtkTrajectory:
    times: np.ndarray
    C: np.ndarray
    residuals: np.ndarray
    min_entries: np.ndarray
    O_final: np.ndarray
    rate_estimates: dict = field(default_factory=dict)
    halvings: int = 0  # rejected steps


def _rms(x: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean((x / scale) ** 2)))


def _dense_output(O: np.ndarray, k: list[np.ndarray], h: float, theta: float) -> np.ndarray:
    """The state at theta in [0, 1] of the step of size h from O with stages
    k. Its rows keep O's sums, since every stage's rows sum to 0."""
    weights = _DP_DENSE @ theta ** np.arange(1, 5)
    return O + h * sum(w * kj for w, kj in zip(weights, k) if w)


def integrate_dynamics(pair: PositionalUnigramPair, O_0: Optional[np.ndarray] = None,
                       step: Optional[float] = None, t_end: float = 100.0,
                       stop_residual: float = 0.0) -> NtkTrajectory:
    """Dormand-Prince 5(4) on dO_x/dt = K_Ox K_D (PY - PX O)^T PX[:, x].

    Records C_t = Tr(R K_D R^T) with R the per-position mismatch, the
    Frobenius residual and the smallest O entry at every accepted step. Row
    sums are conserved analytically (both kernels kill the all-ones
    direction); integration drift beyond 1e-9 raises.

    step is the first step to try; by default it is estimated from |O| and
    |f(O)|. Later steps follow the error controller. halvings counts the
    rejected steps, whether the error estimate or the overshoot guard
    rejected them.

    stop_residual > 0 ends the run early once the Frobenius residual falls to
    that level, so decay rates vary per language without retuning t_end (and
    without the trajectory tail sitting on the round-off floor). The step in
    which it falls ends at the crossing, located on the pair's fourth-order
    continuous extension, rather than at the step's end, which can lie far
    past it: late steps span tens of time units.
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
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    K_D = discriminator_ntk(ny)

    def rhs(O):
        R = PY - PX @ O
        return apply_generator_ntk(O, PX.T @ (R @ K_D))

    times, Cs, resids, mins = [], [], [], []
    t = 0.0
    halvings = 0

    def record():
        R = PY - PX @ O
        times.append(t)
        Cs.append(float(np.einsum("ly,yz,lz->", R, K_D, R)))
        resids.append(float(np.linalg.norm(R)))
        mins.append(float(np.min(O)))

    record()
    f = rhs(O)
    if step is None:
        scale = ATOL + RTOL * np.abs(O)
        d0, d1 = _rms(O, scale), _rms(f, scale)
        step = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = float(step)
    err_old = 1e-4
    rejected = False
    while t < t_end and not (stop_residual > 0 and resids[-1] <= stop_residual):
        last = h >= t_end - t
        h_try = t_end - t if last else h
        k = [f]
        for a in _DP_A:
            # the last stage is the fifth-order solution, and its slope is
            # the next step's first stage
            candidate = O + h_try * sum(aj * kj for aj, kj in zip(a, k) if aj)
            k.append(rhs(candidate))
        if not np.all(np.isfinite(candidate)):
            raise RuntimeError(f"non-finite state at t = {t:.6g}")
        scale = ATOL + RTOL * np.maximum(np.abs(O), np.abs(candidate))
        err = _rms(h_try * sum(ej * kj for ej, kj in zip(_DP_E, k) if ej), scale)
        overshoot = candidate.min() < -OVERSHOOT_EPS or candidate.max() > 1.0 + OVERSHOOT_EPS
        if err > 1.0 or overshoot:
            halvings += 1
            rejected = True
            h = h_try / 2.0 if err <= 1.0 else h_try * max(_MIN_FACTOR, _SAFETY / err**_ALPHA)
            if h < 1e-14 * max(t, 1.0):
                raise RuntimeError(f"step size {h:.3g} underflows at t = {t:.6g}")
            continue
        O_prev, t_prev = O, t
        O, f = candidate, k[-1]
        t = t_end if last else t + h_try
        drift = np.max(np.abs(O.sum(axis=1) - 1.0))
        if drift > 1e-9:
            raise RuntimeError(f"row-sum drift {drift:.3g} exceeds 1e-9 at t = {t:.6g}")
        if stop_residual > 0 and np.linalg.norm(PY - PX @ O) <= stop_residual:
            # the residual falls to stop_residual inside this step: the run
            # ends where it does on the step's dense output, with theta
            # bisected to a double's resolution
            lo, hi = 0.0, 1.0
            for _ in range(53):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(PY - PX @ _dense_output(O_prev, k, h_try, mid)) <= stop_residual:
                    hi = mid
                else:
                    lo = mid
            if hi < 1.0:
                O, t = _dense_output(O_prev, k, h_try, hi), t_prev + hi * h_try
        record()
        # PI control; no growth right after a rejection
        grow = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_old**_BETA / err**_ALPHA))
        h = h_try * (min(grow, 1.0) if rejected else grow)
        err_old = max(err, 1e-4)
        rejected = False

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
    """Least-squares slope and R^2 of log C_t over the trajectory tail.

    The tail is chosen by time, t >= (1 - tail_fraction) t_stop, since
    adaptive steps bunch the recorded points at early times."""
    keep = (traj.times >= (1.0 - tail_fraction) * traj.times[-1]) & (traj.C > 0)
    t, logc = traj.times[keep], np.log(traj.C[keep])
    if len(t) < 3:
        raise ValueError("not enough positive tail points for a fit")
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logc, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((logc - fitted) ** 2))
    ss_tot = float(np.sum((logc - logc.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2
