"""Tangent kernels: closed forms, Monte-Carlo validation, and the kernel flow."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from decipher import ntk
from decipher.experiments import ExperimentConfig, ntk_language, write_outputs
from decipher.graphs import TransitionMatrix, hamiltonian_cycle_matrix
from decipher.hmm import HmmLanguage, PositionalUnigramPair, exact_positional_unigrams
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

    def test_short_run_matches_per_row_rk4_reference(self):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=20.0)
        assert traj.times[-1] == 20.0
        # classical RK4, one dense kernel H(p)^2 per row, at a step far below
        # the adaptive ones
        PX, PY = np.asarray(pair.PX), np.asarray(pair.PY)
        K_D = discriminator_ntk(4)

        def f(O):
            G = PX.T @ ((PY - PX @ O) @ K_D)
            H = O[:, :, None] * np.eye(4) - O[:, :, None] * O[:, None, :]  # diag(p) - p p^T
            return (H @ H @ G[:, :, None])[:, :, 0]

        O, h = np.full((4, 4), 0.25), 2e-3
        for _ in range(10_000):
            k1 = f(O)
            k2 = f(O + h / 2 * k1)
            k3 = f(O + h / 2 * k2)
            k4 = f(O + h * k3)
            O = O + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(traj.O_final - O)) <= 1e-9

    def test_rejected_steps_keep_the_accuracy(self, monkeypatch):
        # the controller rejects two steps on its own by t = 20, near t = 2.7
        # and t = 10.9
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=20.0)
        assert traj.halvings == 2
        assert np.all(traj.min_entries >= -1e-9)
        assert np.max(traj.O_final) <= 1.0 + 1e-9
        assert np.max(np.abs(traj.O_final.sum(axis=1) - 1.0)) <= 1e-9
        # the rejections cost steps, not accuracy: a run at a thousandth of
        # the tolerance ends 2.5e-12 away
        monkeypatch.setattr(ntk, "RTOL", ntk.RTOL / 1000)
        reference = integrate_dynamics(pair, t_end=20.0)
        assert len(reference.times) > len(traj.times)
        assert np.max(np.abs(traj.O_final - reference.O_final)) <= 2e-9

    @pytest.mark.parametrize("index, steps, rejected", [(0, 238, 1), (1, 241, 1), (2, 280, 1)])
    def test_controller_work_on_published_languages(self, index, steps, rejected):
        # the step counts of the benchmark's three languages, pinned so that a
        # cheaper step cannot hide a change in what the controller does; each
        # run rejects its first step
        _, pair, _ = ntk_language(index, L=10)
        traj = integrate_dynamics(pair, t_end=600000.0, stop_residual=1e-5)
        assert (len(traj.times) - 1, traj.halvings) == (steps, rejected)

    def test_stiff_language_steps_at_its_accuracy_limit(self, monkeypatch):
        # NTK language 7 is the stiffest published language: an explicit
        # method's steps sit at the edge of its stability interval (4158 of
        # them for Dormand-Prince 5(4)), while an L-stable one steps as far as
        # the accuracy allows
        _, pair, _ = ntk_language(7, L=10)
        traj = integrate_dynamics(pair, t_end=600000.0, stop_residual=1e-5)
        assert len(traj.times) - 1 <= 400
        assert np.max(np.abs(traj.O_final.sum(axis=1) - 1.0)) <= 1e-12
        monkeypatch.setattr(ntk, "RTOL", ntk.RTOL / 1000)
        reference = integrate_dynamics(pair, t_end=600000.0, stop_residual=1e-5)
        assert abs(traj.times[-1] - reference.times[-1]) <= 1e-6 * reference.times[-1]

    def test_radau_constants_follow_from_the_nodes(self):
        c, k = ntk._C, np.arange(1, 4)
        # collocation: sum_j A_ij c_j^(k-1) = c_i^k / k
        A = (c[:, None] ** k / k) @ np.linalg.inv(c[:, None] ** (k - 1))
        assert np.allclose(c[:, None] ** k @ ntk._DENSE, np.eye(3), rtol=0, atol=1e-13)
        assert np.array_equal(ntk._T[2], [1.0, 1.0, 0.0])
        assert np.allclose(ntk._TI @ ntk._T, np.eye(3), rtol=0, atol=1e-14)
        alpha, beta = ntk._MU.real, -ntk._MU.imag
        block = [[ntk._GAMMA, 0, 0], [0, alpha, beta], [0, -beta, alpha]]
        assert np.allclose(ntk._TI @ np.linalg.inv(A) @ ntk._T, block, rtol=0, atol=1e-13)

    def test_dense_output_spans_the_step(self):
        _, pair = soft_cycle_language(peak=0.6)
        PX, PY = pair.PX, pair.PY
        K_D = discriminator_ntk(4)

        def rhs(Y):
            O = Y.reshape(-1, 4, 4)
            return apply_generator_ntk(O, PX.T @ ((PY - PX @ O) @ K_D)).reshape(-1, 16)

        y, h = np.full(16, 0.25), 0.5
        J = ntk._jacobian(rhs, y, rhs(y)[0])
        inverses = ntk._inverses(J, h, ntk._row_sum_projection(4, 4))
        converged, _, Z, _ = ntk._newton(rhs, y, h, np.zeros((3, 16)), inverses,
                                         ntk.ATOL + ntk.RTOL * y, 1e-4)
        assert converged
        assert np.array_equal(ntk._collocation_polynomial(y, Z, 0.0), y)
        assert np.max(np.abs(ntk._collocation_polynomial(y, Z, 1.0) - (y + Z[2]))) <= 1e-15
        for theta in np.linspace(0.0, 1.0, 11):
            dense = ntk._collocation_polynomial(y, Z, theta).reshape(4, 4)
            assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-15

    def test_overshoot_guard_keeps_loose_runs_in_bounds(self, monkeypatch):
        # a target that no emission reaches: each position puts its mass on
        # one symbol in turn, so the flow drives rows onto the simplex's
        # boundary. At loose tolerances the controller accepts a step that
        # leaves the simplex; only the overshoot guard's retry keeps the run
        # inside
        _, pair = soft_cycle_language(peak=0.6)
        L = pair.PX.shape[0]
        edge = PositionalUnigramPair(PX=pair.PX, PY=np.eye(4)[np.arange(L) % 4])
        monkeypatch.setattr(ntk, "RTOL", 0.1)
        monkeypatch.setattr(ntk, "ATOL", 0.01)
        traj = integrate_dynamics(edge, t_end=10000.0)
        assert traj.times[-1] == 10000.0
        assert np.all(traj.min_entries >= -ntk.OVERSHOOT_EPS)
        assert np.max(traj.O_final) <= 1.0 + ntk.OVERSHOOT_EPS
        # unguarded, the run ends outside the simplex
        eps = ntk.OVERSHOOT_EPS
        monkeypatch.setattr(ntk, "OVERSHOOT_EPS", np.inf)
        unguarded = integrate_dynamics(edge, t_end=10000.0)
        assert unguarded.O_final.min() < -eps

    def test_run_that_ends_on_a_guarded_negative_entry_finishes(self, monkeypatch):
        # a loose run from a sparse Dirichlet start on NTK language 3 ends with
        # an entry of -7.0e-11, inside the overshoot guard; the flow's result
        # is returned, though no generator kernel is defined at that row
        _, pair, _ = ntk_language(3, L=10)
        nx = pair.PX.shape[1]
        O_0 = np.random.default_rng(35).dirichlet(np.full(nx, 0.3), size=nx)
        monkeypatch.setattr(ntk, "RTOL", 0.1)
        monkeypatch.setattr(ntk, "ATOL", 0.01)
        traj = integrate_dynamics(pair, O_0=O_0, t_end=1000.0)
        assert traj.times[-1] == 1000.0
        assert np.all(traj.min_entries >= -ntk.OVERSHOOT_EPS)
        assert traj.O_final.min() < 0.0

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
        bad = np.full((4, 4), 0.3)
        with pytest.raises(ValueError):
            integrate_dynamics(pair, O_0=bad, t_end=1.0)

    def test_trajectory_csv_export(self, tmp_path):
        _, pair = soft_cycle_language(peak=0.6)
        traj = integrate_dynamics(pair, t_end=1.0)
        cfg = ExperimentConfig(kind="ntk_convergence", write_traces=True)
        steps = zip(traj.times.tolist(), traj.C.tolist(), traj.residuals.tolist(),
                    traj.min_entries.tolist())
        trace = [dict(t=t, C_t=C, frobenius_residual=r, min_O_entry=m) for t, C, r, m in steps]
        row = {"kind": cfg.kind, "language_index": 0, "seed": 0, "error": "", "_trace": trace}
        [path] = write_outputs(cfg, [row], tmp_path).glob("trace_*.csv")
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["t", "C_t", "frobenius_residual", "min_O_entry"]
        assert len(lines) == len(traj.times) + 1
        first = [float(v) for v in lines[1]]
        assert first[0] == 0.0
        assert abs(first[1] - traj.C[0]) < 1e-8


GOLDEN = Path(__file__).with_name("golden_ntk_flow.json")


class TestPublishedFlowGolden:
    """The benchmark's three languages against golden_ntk_flow.json: the
    float.hex of t_stop, the last C_t and residual, and O_final, as computed
    before the Radau step lost its redundant numpy calls. It pins the bytes
    that the generating machine's numpy and BLAS give, as the step-count pin
    pins its counts, so that a reordered sum cannot pass as a faster step."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_final_state_keeps_its_bytes(self, index):
        want = json.loads(GOLDEN.read_text())[str(index)]
        _, pair, _ = ntk_language(index, L=10)
        traj = integrate_dynamics(pair, t_end=600000.0, stop_residual=1e-5)
        got = {"t_stop": traj.times[-1], "C_last": traj.C[-1],
               "residual_last": traj.residuals[-1], "O_final": traj.O_final}
        assert {key: np.vectorize(float.hex)(value).tolist() for key, value in got.items()} == want


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
