"""Closed-form tangent kernels and infinite-width training dynamics.

The discriminator's per-position kernel has entries fixed by standard
Gaussian half moments: 1 on the diagonal, 1/(2 pi) off it, so the all-ones
vector is always an eigenvector. The generator kernel at a posterior row p
is the squared softmax Jacobian H(p)^2, taken at the flow's current rows.
H(p) kills the all-ones direction, which is what conserves row sums along
the flow (K_D only scales it). The flow applies H(p)^2 to every row at once
(apply_generator_ntk); generator_ntk forms one row's, the tests' reference.

integrate_dynamics runs the coupled per-unit ODEs with the Radau IIA
collocation method of order 5 and reports the kernel-weighted squared
mismatch C_t at each accepted step; the ntk_convergence rows read their
predicted decay rate off its final state. The flow is stiff: late in a run,
the steps that the accuracy allows times the Jacobian's largest |lambda| lie
far outside any explicit method's stability interval, and Radau IIA, being
L-stable, takes them. Gustafsson's predictive controller sets each step from
the embedded error estimate (rtol 1e-8, atol 1e-12); a step is also rejected
and retried at half the size when its Newton iteration does not converge or
when it would push O outside [-eps, 1+eps]. A step's continuous output is its
collocation polynomial. A run with a stopping residual ends where the
residual crosses it, inside the last step.

A step solves the collocation equations by simplified Newton on one real and
one complex |X| |Y| system, whose inverses it reuses while h and the
Jacobian stay put. Each Newton iteration evaluates the right-hand side at
all three nodes in one batched call, and a step usually takes two. Numpy's
per-call dispatch, not arithmetic, sets the cost of a step, since the state
has at most 36 entries. So a step forms nothing twice: the Newton constants
once per solve, |O| once per state for its Newton and error scales, the
residual norm once per accepted step, and the finiteness check and the
overshoot guard from one min/max pair. C_t is formed after the run, in one
call over the kept residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversarial import apply_softmax_jacobian, softmax_jacobian
from .hmm import PositionalUnigramPair

OVERSHOOT_EPS = 1e-9

# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, IV.8): three
# collocation nodes, the last at the step's end
_C = np.array([(4 - np.sqrt(6)) / 10, (4 + np.sqrt(6)) / 10, 1.0])
_POWERS = np.arange(1, 4)
# the collocation polynomial through y and the stage states y + Z_i is
# y + (theta, theta^2, theta^3) @ _DENSE @ Z at theta in [0, 1] of the step:
# _DENSE inverts the matrix of the nodes' powers c_i^k, k = 1, 2, 3
_DENSE = np.array([[13 + 7 * np.sqrt(6), 13 - 7 * np.sqrt(6), 1.0],
                   [-23 - 22 * np.sqrt(6), -23 + 22 * np.sqrt(6), -8.0],
                   [10 + 15 * np.sqrt(6), 10 - 15 * np.sqrt(6), 10.0]]) / 3
# With A the method's coefficients, A^-1 = T diag(gamma, [[alpha, beta],
# [-beta, alpha]]) T^-1. T's columns are the real eigenvector of A^-1 and the
# real and imaginary parts of the one for alpha + i beta, scaled so that T's
# last row is (1, 1, 0). So simplified Newton splits into one real and one
# complex |X| |Y| system, (gamma / h - J) and ((alpha - i beta) / h - J).
# Written out, since eig and inv at import would load LAPACK code into every
# process that imports decipher; tests/test_ntk.py derives them from the nodes.
_T = np.array([[0.094438762488975241, -0.14125529502095421, 0.030029194105147424],
               [0.25021312296533331, 0.20412935229379993, -0.38294211275726194],
               [1.0, 1.0, 0.0]])
_TI = np.array([[4.1787185915519047, 0.32768282076106239, 0.52337644549944955],
                [-4.1787185915519047, -0.32768282076106239, 0.47662355450055045],
                [0.50287263494578688, -2.5719269498556054, 0.59603920482822492]])
_TI_REAL, _TI_CPLX = _TI[0], _TI[1] + 1j * _TI[2]
_T_REAL, _T_CPLX = _T[:, :1], (_T[:, 1] - 1j * _T[:, 2])[:, None]
# gamma, and alpha - i beta
_GAMMA = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU = 3 + (3 ** (1 / 3) - 3 ** (2 / 3)) / 2 - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
# the error estimate is (gamma / h - J)^-1 (f(y) + _E @ Z / h), with f(y) the
# slope at the step's start (Hairer & Wanner IV.8)
_E = np.array([-13 - 7 * np.sqrt(6), -13 + 7 * np.sqrt(6), -1]) / 3
# error per entry of O is measured against ATOL + RTOL |O|, RMS over entries
RTOL = 1e-8
ATOL = 1e-12
_NEWTON_ITERATIONS = 6
_FD_STEP = np.sqrt(np.finfo(float).eps)
# bounds on the factor by which one step changes h
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
    if p.ndim != 1 or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # fails on NaN
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
    halvings: int = 0  # rejected steps


def _rms(x: np.ndarray, scale: np.ndarray) -> float:
    """sqrt(mean((x / scale)^2)), by .mean()'s own pairwise sum and division."""
    q = x / scale
    return math.sqrt(np.add.reduce(q * q) / q.size)


def _jacobian(rhs, y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of rhs at the flattened state y, whose
    slope is f, from one call on the stack of the |X| |Y| perturbed states."""
    return ((rhs(y + _FD_STEP * np.eye(y.size)) - f) / _FD_STEP).T


def _row_sum_projection(nx: int, ny: int) -> np.ndarray:
    """The projection of flattened (nx, ny) states onto those whose rows sum to 0."""
    return np.eye(nx * ny) - np.kron(np.eye(nx), np.full((ny, ny), 1.0 / ny))


def _inverses(J: np.ndarray, h: float, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and the complex matrix of simplified Newton at step h,
    inverted, between two projections P onto the increments whose rows sum
    to 0.

    The collocation solution's increments lie there. Off that subspace the
    flow does not conserve row sums, since H(p) kills the all-ones vector
    only when p sums to 1, and J's differences, which step off it, see that.
    Without the projections, a long stiff step would turn the roundoff in
    its stage states' row sums into row-sum drift beyond 1e-9."""
    eye = np.eye(len(J))
    return (P @ np.linalg.inv(_GAMMA / h * eye - J) @ P,
            P @ np.linalg.inv(_MU / h * eye - J) @ P)


def _newton(rhs, y: np.ndarray, h: float, Z: np.ndarray, inverses, scale: np.ndarray,
            tol: float):
    """Simplified Newton for the stage increments Z, one row per node, of the
    step of size h from y, started from the guess Z. Returns (converged,
    iterations, Z, rate), rate being the last contraction factor (None after
    one iteration). Gives up once the contraction predicts no convergence
    within the iteration limit (Hairer & Wanner IV.8)."""
    inv_real, inv_cplx = inverses
    gamma, mu, size = _GAMMA / h, _MU / h, 3 * y.size
    W = _TI @ Z
    W_real, W_cplx = W[0], W[1] + 1j * W[2]
    norm_old = rate = None
    for k in range(_NEWTON_ITERATIONS):
        F = rhs(y + Z)
        d_real = inv_real @ (_TI_REAL @ F - gamma * W_real)
        d_cplx = inv_cplx @ (_TI_CPLX @ F - mu * W_cplx)
        r, c = d_real / scale, d_cplx / scale
        norm = math.sqrt((r @ r + np.vdot(c, c).real) / size)
        if not math.isfinite(norm):
            break
        if norm_old is not None:
            rate = norm / norm_old
            if rate >= 1.0 or rate ** (_NEWTON_ITERATIONS - k) / (1.0 - rate) * norm > tol:
                break
        W_real, W_cplx = W_real + d_real, W_cplx + d_cplx
        Z = _T_REAL * W_real + (_T_CPLX * W_cplx).real
        if norm == 0.0 or rate is not None and rate / (1.0 - rate) * norm < tol:
            return True, k + 1, Z, rate
        norm_old = norm
    return False, k + 1, Z, rate


def _collocation_polynomial(y: np.ndarray, Z: np.ndarray, theta):
    """The state at theta (a scalar or an array) of the step from y with
    stage increments Z, on its collocation polynomial: y at 0 and y + Z[2] at
    1. Its rows keep y's sums, since the rows of every increment sum to 0."""
    return y + (np.power.outer(theta, _POWERS) @ _DENSE) @ Z


def _step_factor(h: float, err: float, h_old, err_old, iterations: int) -> float:
    """The factor for the next step size, after a step of size h with scaled
    error err: Gustafsson's predictive control as in RADAU5, with a safety
    factor that falls as Newton needs more iterations. h_old and err_old
    belong to the last accepted step (None before it)."""
    if err == 0.0:
        return _MAX_FACTOR
    safety = 0.9 * (2 * _NEWTON_ITERATIONS + 1) / (2 * _NEWTON_ITERATIONS + iterations)
    factor = safety * err ** -0.25
    if h_old is not None:
        factor *= min(1.0, h / h_old * (err_old / err) ** 0.25)
    return min(_MAX_FACTOR, max(_MIN_FACTOR, factor))


def integrate_dynamics(pair: PositionalUnigramPair, O_0: Optional[np.ndarray] = None,
                       t_end: float = 100.0, stop_residual: float = 0.0) -> NtkTrajectory:
    """Radau IIA (order 5) on dO_x/dt = K_Ox K_D (PY - PX O)^T PX[:, x].

    Records the per-position mismatch R, its Frobenius norm and the smallest
    O entry at every accepted step; C_t = Tr(R K_D R^T) is formed from the
    kept R after the run, for every step in one einsum. Row
    sums are conserved analytically (H(p) kills the all-ones direction);
    integration drift beyond 1e-9 raises.

    Each step solves the collocation equations by simplified Newton, from a
    guess that extrapolates the last step's collocation polynomial. The
    forward-difference Jacobian is kept across steps and refreshed only when
    Newton slows or fails, and the two system matrices are inverted again
    only when h or the Jacobian changes. The guess and every Newton
    correction are projected onto the increments whose rows sum to 0, so
    each iterate keeps O's row sums (see _inverses).

    The first step to try is estimated from |O| and |f(O)|; later steps
    follow the embedded error estimate (rtol RTOL, atol ATOL). A step is
    rejected and retried at a smaller size when the estimate exceeds the
    tolerance, when Newton does not converge, or when the step would push O
    outside [-OVERSHOOT_EPS, 1 + OVERSHOOT_EPS]; halvings counts every
    rejected step.

    stop_residual > 0 ends the run early once the Frobenius residual falls to
    that level, so decay rates vary per language without retuning t_end (and
    without the trajectory tail sitting on the round-off floor). A step's
    continuous output is its collocation polynomial, which is of order 5 at
    the step's end but only of order 3 between its ends, while late steps
    span tens of time units. So the step in which the residual falls is
    taken again, once, shortened to end where the polynomial puts the
    crossing, and the run ends at the crossing bisected on the shorter
    step's polynomial, close to that step's end.
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
        if not (np.all(O >= 0) and np.max(np.abs(O.sum(axis=1) - 1.0)) <= 1e-9):  # fails on NaN
            raise ValueError("O_0 rows must be probability vectors")
    K_D = discriminator_ntk(ny)
    n = nx * ny
    P = _row_sum_projection(nx, ny)
    PXT = PX.T

    def rhs(Y):
        """Slopes at a stack of flattened states, one per row."""
        O = Y.reshape(-1, nx, ny)
        return apply_generator_ntk(O, PXT @ ((PY - PX @ O) @ K_D)).reshape(-1, n)

    def residual(y):
        return PY - PX @ y.reshape(nx, ny)

    def frobenius(R):
        """np.linalg.norm(R): its ravel, dot and sqrt, without its checks."""
        r = R.ravel()
        return math.sqrt(r.dot(r))

    times, Rs, resids, mins = [], [], [], []
    t, y = 0.0, O.ravel()
    halvings = 0

    def record(R, resid, low):
        times.append(t)
        Rs.append(R)
        resids.append(resid)
        mins.append(float(low))

    def crossing(y0, Z):
        """theta in [0, 1] of the step from y0 with increments Z at which the
        residual falls to stop_residual, bisected to a double's resolution."""
        lo, hi = 0.0, 1.0
        for _ in range(53):
            mid = 0.5 * (lo + hi)
            if frobenius(residual(_collocation_polynomial(y0, Z, mid))) <= stop_residual:
                hi = mid
            else:
                lo = mid
        return hi

    def finished(resid):
        return t >= t_end or (stop_residual > 0 and resid <= stop_residual)

    R = residual(y)
    record(R, frobenius(R), y.min())
    f = rhs(y)[0]
    # |y| enters the Newton scale of every try from y and the error scale
    abs_y = np.abs(y)
    newton_scale = ATOL + RTOL * abs_y
    d0, d1 = _rms(y, newton_scale), _rms(f, newton_scale)
    h = float(0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6)
    # Newton stops once its predicted distance to the solution, in units of
    # the error scale, is below this (RADAU5's choice)
    newton_tol = max(10 * np.finfo(float).eps / RTOL, min(0.03, RTOL ** 0.5))
    J, fresh = _jacobian(rhs, y, f), True
    inverses, h_inverted = None, None
    # the last collocation polynomial as (start, length, state, increments):
    # the next step's Newton guess extrapolates it
    poly = None
    h_old = err_old = None
    rejected = retaken = False
    while not finished(resids[-1]):
        last = h >= t_end - t
        h_try = t_end - t if last else h
        if h_try != h_inverted:
            inverses, h_inverted = _inverses(J, h_try, P), h_try
        if poly is None:
            Z = np.zeros((3, n))
        else:
            t0, h0, y0, Z0 = poly
            # projected like every Newton correction (see _inverses)
            Z = (_collocation_polynomial(y0, Z0, (t + _C * h_try - t0) / h0) - y) @ P
        converged, iterations, Z, rate = _newton(rhs, y, h_try, Z, inverses, newton_scale,
                                                 newton_tol)
        if not converged and not fresh:
            # a Jacobian from an earlier state: refresh it and try again
            J, fresh, h_inverted = _jacobian(rhs, y, f), True, None
            continue
        # a step that Newton cannot solve or that overshoots is retried at
        # half the size; one whose error is too large, at the controller's
        h_next = h_try / 2.0
        if converged:
            candidate = y + Z[2]
            # NaN propagates through min and max, so one pair serves both
            # the finiteness check and the overshoot guard
            low, high = candidate.min(), candidate.max()
            if not (math.isfinite(low) and math.isfinite(high)):
                raise RuntimeError(f"non-finite state at t = {t:.6g}")
            ZE = _E @ Z / h_try
            error = inverses[0] @ (f + ZE)
            abs_candidate = np.abs(candidate)
            scale = ATOL + RTOL * np.maximum(abs_y, abs_candidate)
            err = _rms(error, scale)
            if rejected and err > 1.0:
                # a second estimate, which damps the stiff components
                err = _rms(inverses[0] @ (rhs(y + error)[0] + ZE), scale)
            if err > 1.0:
                h_next = h_try * _step_factor(h_try, err, h_old, err_old, iterations)
            elif low >= -OVERSHOOT_EPS and high <= 1.0 + OVERSHOOT_EPS:
                h_next = None
        if h_next is not None:
            halvings += 1
            rejected = True
            h = h_next
            if h < 1e-14 * max(t, 1.0):
                raise RuntimeError(f"step size {h:.3g} underflows at t = {t:.6g}")
            continue
        y_prev, t_prev = y, t
        y = candidate
        t = t_end if last else t + h_try
        drift = abs(y.reshape(nx, ny).sum(axis=1) - 1.0).max()
        if drift > 1e-9:
            raise RuntimeError(f"row-sum drift {drift:.3g} exceeds 1e-9 at t = {t:.6g}")
        R = residual(y)
        resid = frobenius(R)
        if stop_residual > 0 and resid <= stop_residual:
            theta = crossing(y_prev, Z)
            if not retaken:
                # take the step again, shortened to end at the crossing that
                # its polynomial puts between its ends
                retaken = True
                poly = (t_prev, h_try, y_prev, Z)
                y, t, h = y_prev, t_prev, theta * h_try
                continue
            y, t = _collocation_polynomial(y_prev, Z, theta), t_prev + theta * h_try
            R = residual(y)
            resid, low, abs_candidate = frobenius(R), y.min(), np.abs(y)
        record(R, resid, low)
        if finished(resid):
            break  # no slope, step size or Jacobian for a step never taken
        abs_y = abs_candidate
        newton_scale = ATOL + RTOL * abs_y
        poly = (t_prev, h_try, y_prev, Z)
        f = rhs(y)[0]
        factor = _step_factor(h_try, err, h_old, err_old, iterations)
        if rejected:
            factor = min(factor, 1.0)
        h_old, err_old = h_try, max(err, 1e-2)
        rejected = False
        # a slow Newton asks for a new Jacobian; h stays put, and the
        # inverses with it, while the controller would grow it by under 1.2
        fresh = iterations > 2 and rate > 1e-3
        if fresh:
            J, h_inverted = _jacobian(rhs, y, f), None
        h = h_try if not fresh and 1.0 <= factor < 1.2 else h_try * factor

    R = np.array(Rs)
    return NtkTrajectory(
        times=np.array(times), C=np.einsum("sly,yz,slz->s", R, K_D, R),
        residuals=np.array(resids), min_entries=np.array(mins), O_final=y.reshape(nx, ny),
        halvings=halvings,
    )


def log_linear_tail_fit(traj: NtkTrajectory):
    """Least-squares slope and R^2 of log C_t over the trajectory tail.

    The tail is the second half by time, t >= t_stop / 2, since adaptive
    steps bunch the recorded points at early times."""
    keep = (traj.times >= 0.5 * traj.times[-1]) & (traj.C > 0)
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
