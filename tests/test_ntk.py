"""Tangent kernels: closed forms, Monte-Carlo validation, and the kernel flow."""

import csv

import numpy as np
import pytest

from decipher.experiments import ExperimentConfig, write_outputs
from decipher.graphs import TransitionMatrix, hamiltonian_cycle_matrix
from decipher.hmm import HmmLanguage, exact_positional_unigrams
from decipher.ntk import (
    NtkTrajectory,
    apply_generator_ntk,
    discriminator_ntk,
    generator_ntk,
    integrate_dynamics,
    log_linear_tail_fit,
)


def soft_cycle_language(peak=0.6, seed=3, nx=4, L=8):
    # Interior true emission: the flow's target keeps every generator kernel
    # nondegenerate, so the decay stays exponential instead of stalling at a
    # simplex vertex.
    P = hamiltonian_cycle_matrix(list(range(1, nx)) + [0])
    T = TransitionMatrix(P, reversible=False, weights=None, spec=None)
    pi = np.array([0.85, 0.05, 0.05, 0.05])
    rng = np.random.default_rng(seed)
    perm = np.eye(nx)[rng.permutation(nx)]
    O = peak * perm + (1 - peak) / nx
    return HmmLanguage(pi=pi, T=T, O=O, N=1, nx=nx, ny=nx), exact_positional_unigrams(
        HmmLanguage(pi=pi, T=T, O=O, N=1, nx=nx, ny=nx), L=L)


class TestDiscriminatorKernel:
    def test_closed_form_two_symbols(self):
        K = discriminator_ntk(2)
        off = 1.0 / (2.0 * np.pi)
        assert np.allclose(K, [[1.0, off], [off, 1.0]], atol=1e-15)

    def test_monte_carlo_half_moments_ten_million(self):
        rng = np.random.default_rng(123)
        relu = np.maximum(rng.normal(0, 1, size=10_000_000), 0.0)
        mc_diag = 0.5 + np.mean(relu**2)
        mc_off = np.mean(relu) ** 2
        assert abs(mc_diag - 1.0) < 1e-3
        assert abs(mc_off - 1.0 / (2.0 * np.pi)) / (1.0 / (2.0 * np.pi)) < 1e-3

    def test_ones_is_eigenvector_with_known_spectrum(self):
        for ny in (2, 4, 7):
            K = discriminator_ntk(ny)
            lam_top = 1.0 + (ny - 1) / (2.0 * np.pi)
            assert np.allclose(K @ np.ones(ny), lam_top * np.ones(ny), atol=1e-12)
            eigs = np.sort(np.linalg.eigvalsh(K))
            assert abs(eigs[-1] - lam_top) < 1e-12
            assert np.allclose(eigs[:-1], 1.0 - 1.0 / (2.0 * np.pi), atol=1e-12)
            assert eigs[0] > -1e-10

    def test_size_validation(self):
        with pytest.raises(ValueError):
            discriminator_ntk(0)


class TestGeneratorKernel:
    def test_uniform_two_symbol_kernel(self):
        K = generator_ntk(np.array([0.5, 0.5]))
        assert np.allclose(K, np.array([[1.0, -1.0], [-1.0, 1.0]]) / 8.0, atol=1e-15)

    def test_one_hot_row_freezes(self):
        K = generator_ntk(np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(K)) == 0.0

    def test_kills_all_ones_and_stays_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = rng.integers(2, 7)
            row = rng.dirichlet(np.ones(dim))
            K = generator_ntk(row)
            assert np.max(np.abs(K - K.T)) < 1e-14
            assert np.max(np.abs(K @ np.ones(dim))) < 1e-12
            assert np.min(np.linalg.eigvalsh(K)) > -1e-10

    def test_vectorised_rows_match_per_row_kernel(self):
        rng = np.random.default_rng(29)
        for nx in (2, 3, 6):
            O = rng.dirichlet(np.ones(nx), size=nx)
            O[0] = np.eye(nx)[nx - 1]  # a vertex row must stay frozen
            G = rng.normal(0.0, 1.0, size=(nx, nx))
            fast = apply_generator_ntk(O, G)
            assert np.max(np.abs(fast[0])) == 0.0
            for x in range(nx):
                assert np.allclose(fast[x], generator_ntk(O[x]) @ G[x], rtol=0, atol=1e-15)

    def test_row_and_mode_validation(self):
        with pytest.raises(ValueError):
            generator_ntk(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            generator_ntk(np.array([-0.1, 1.1]))
        with pytest.raises(TypeError):  # one kernel, no modes
            generator_ntk(np.array([0.5, 0.5]), mode="analytic")


class TestDynamics:
    def test_interior_target_converges_exponentially(self):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=200.0)
        assert traj.residuals[-1] <= 1e-4
        assert traj.C[-1] < traj.C[0] * 1e-6
        assert np.max(np.diff(traj.C)) <= 1e-10
        slope, r2 = log_linear_tail_fit(traj)
        assert slope < 0
        assert r2 >= 0.99

    def test_solution_start_is_stationary(self):
        lang, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, O_0=lang.O, t_end=5.0)
        assert traj.C[0] == 0.0
        assert np.max(np.abs(traj.O_final - lang.O)) == 0.0
        assert np.max(traj.residuals) == 0.0

    def test_stop_residual_ends_run_early(self):
        _, pair = soft_cycle_language(peak=0.6)
        full = integrate_dynamics(pair, t_end=200.0)
        stopped = integrate_dynamics(pair, t_end=200.0, stop_residual=1e-3)
        assert stopped.times[-1] < full.times[-1]
        assert stopped.residuals[-1] <= 1e-3
        # only the final record may sit at or below the stopping level
        assert np.all(stopped.residuals[:-1] > 1e-3)

    def test_stop_time_is_the_crossing_of_a_fine_fixed_step_run(self):
        _, pair = soft_cycle_language(peak=0.6)
        stop = 1e-5
        stopped = integrate_dynamics(pair, t_end=200.0, stop_residual=stop)
        # classical Runge-Kutta at step 0.02, under a hundredth of the late
        # adaptive steps; the crossing is linear in the residual between the
        # two fixed steps around it
        PX, PY = pair.PX, pair.PY
        K_D = discriminator_ntk(4)

        def rhs(O):
            return apply_generator_ntk(O, PX.T @ ((PY - PX @ O) @ K_D))

        h, t, O = 0.02, 0.0, np.full((4, 4), 0.25)
        r = np.linalg.norm(PY - PX @ O)
        while True:
            k1 = rhs(O)
            k2 = rhs(O + h / 2 * k1)
            k3 = rhs(O + h / 2 * k2)
            k4 = rhs(O + h * k3)
            O_next = O + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            r_next = np.linalg.norm(PY - PX @ O_next)
            if r_next <= stop:
                t_cross = t + h * (r - stop) / (r - r_next)
                break
            t, O, r = t + h, O_next, r_next
        # the end of the step in which the residual falls lies 2.3% past it
        assert abs(stopped.times[-1] - t_cross) <= 5e-6 * t_cross
        assert stop - 1e-12 <= stopped.residuals[-1] <= stop
        assert np.max(np.abs(stopped.O_final.sum(axis=1) - 1.0)) <= 1e-12

    def test_vertex_start_is_frozen(self):
        _, pair = soft_cycle_language(peak=0.6)
        O_vertex = np.eye(4)
        traj = integrate_dynamics(pair, O_0=O_vertex, t_end=2.0)
        assert np.max(np.abs(traj.O_final - O_vertex)) == 0.0

    def test_row_sums_conserved_from_random_interior_start(self):
        _, pair = soft_cycle_language(peak=0.6)
        rng = np.random.default_rng(7)
        O_0 = rng.dirichlet(np.ones(4), size=4)
        traj = integrate_dynamics(pair, O_0=O_0, t_end=50.0)
        assert np.max(np.abs(traj.O_final.sum(axis=1) - 1.0)) <= 1e-9
        assert np.all(traj.min_entries >= -1e-9)

    def test_rate_estimates_reported(self):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=10.0)
        assert abs(traj.rate_estimates["lambda_D"] - (1.0 - 1.0 / (2.0 * np.pi))) < 1e-12
        assert traj.rate_estimates["lambda_G"] > 0
        assert traj.rate_estimates["lambda_X"] > 0

    def test_short_run_matches_per_row_rk4_reference(self):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=20.0)
        assert traj.times[-1] == 20.0
        # classical RK4, one kernel per row, at a step far below the
        # adaptive ones
        PX, PY = np.asarray(pair.PX), np.asarray(pair.PY)
        K_D = discriminator_ntk(4)

        def f(O):
            G = PX.T @ ((PY - PX @ O) @ K_D)
            return np.stack([generator_ntk(O[x]) @ G[x] for x in range(4)])

        O, h = np.full((4, 4), 0.25), 2e-3
        for _ in range(10_000):
            k1 = f(O)
            k2 = f(O + h / 2 * k1)
            k3 = f(O + h / 2 * k2)
            k4 = f(O + h * k3)
            O = O + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(traj.O_final - O)) <= 1e-9

    def test_oversized_first_step_is_rejected(self):
        _, pair = soft_cycle_language(peak=0.6)
        # the first steps the controller accepts here are about 1
        traj = integrate_dynamics(pair, step=5.0, t_end=50.0)
        assert traj.halvings >= 1
        assert traj.times[1] < 5.0
        assert np.all(traj.min_entries >= -1e-9)
        assert np.max(traj.O_final) <= 1.0 + 1e-9
        assert np.max(np.abs(traj.O_final.sum(axis=1) - 1.0)) <= 1e-9
        # the rejection costs steps, not accuracy
        reference = integrate_dynamics(pair, t_end=50.0)
        assert np.max(np.abs(traj.O_final - reference.O_final)) <= 1e-9

    def test_deterministic_trajectories(self):
        _, pair = soft_cycle_language(peak=0.6)
        t1 = integrate_dynamics(pair, t_end=20.0)
        t2 = integrate_dynamics(pair, t_end=20.0)
        assert np.array_equal(t1.C, t2.C)
        assert np.array_equal(t1.O_final, t2.O_final)

    def test_input_validation(self):
        _, pair = soft_cycle_language(peak=0.6)
        with pytest.raises(ValueError):
            integrate_dynamics(pair, O_0=np.eye(3), t_end=1.0)
        with pytest.raises(ValueError):
            integrate_dynamics(pair, step=-0.1, t_end=1.0)
        bad = np.full((4, 4), 0.3)
        with pytest.raises(ValueError):
            integrate_dynamics(pair, O_0=bad, t_end=1.0)

    def test_trajectory_csv_export(self, tmp_path):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=1.0)
        cfg = ExperimentConfig(kind="ntk_convergence", write_traces=True)
        row = {"kind": cfg.kind, "language_index": 0, "seed": 0, "error": "",
               "_ntk_traj": traj}
        [path] = write_outputs(cfg, [row], tmp_path).glob("trace_*.csv")
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["t", "C_t", "frobenius_residual", "min_O_entry"]
        assert len(lines) == len(traj.times) + 1
        first = [float(v) for v in lines[1]]
        assert first[0] == 0.0
        assert abs(first[1] - traj.C[0]) < 1e-8


class TestTailFit:
    def test_too_few_points_rejected(self):
        traj = NtkTrajectory(times=np.array([0.0, 1.0]), C=np.array([1.0, 0.5]),
                             residuals=np.zeros(2), min_entries=np.zeros(2),
                             O_final=np.eye(2))
        with pytest.raises(ValueError):
            log_linear_tail_fit(traj)

    def test_tail_is_chosen_by_time(self):
        # dense early points decay at rate 1, sparse late points at rate 3:
        # the last half of the points would straddle both regimes
        times = np.concatenate([np.linspace(0.0, 5.0, 40, endpoint=False),
                                np.linspace(5.0, 10.0, 6)])
        C = np.exp(np.where(times < 5.0, -times, -5.0 - 3.0 * (times - 5.0)))
        traj = NtkTrajectory(times=times, C=C, residuals=np.zeros(46),
                             min_entries=np.zeros(46), O_final=np.eye(2))
        slope, r2 = log_linear_tail_fit(traj)
        assert abs(slope + 3.0) < 1e-12
        assert r2 > 1.0 - 1e-12
