"""Adversarial training: gradients vs finite differences, trainer behavior, ERM."""

import csv
import hashlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from decipher import adversarial
from decipher.adversarial import (
    AVERAGING_MODES,
    OBJECTIVES,
    Generator,
    LinearPositionalDiscriminator,
    PerStepMlpDiscriminator,
    TrainConfig,
    _AdamState,
    _transforms,
    apply_softmax_jacobian,
    discriminator_gradient,
    erm_least_squares,
    generator_gradient,
    objective_value,
    project_row_to_simplex,
    softmax,
    softmax_jacobian,
    train,
)
from decipher.experiments import ExperimentConfig, write_outputs
from decipher.graphs import TransitionMatrix, hamiltonian_cycle_matrix
from decipher.hmm import (
    HmmLanguage,
    empirical_positional_unigrams,
    exact_positional_unigrams,
    random_permutation_emission,
    sample_corpus,
)
from decipher.recovery import phoneme_error_rate


def cycle_language(nx=4, L=8, seed=3):
    # Deterministic cycle with a sharply peaked start: every position
    # distribution is a rotation of pi, so the stacked rows are well
    # conditioned and the pair is exactly decipherable.
    P = hamiltonian_cycle_matrix(list(range(1, nx)) + [0])
    T = TransitionMatrix(P, reversible=False, weights=None, spec=None)
    pi = np.full(nx, 0.05)
    pi[0] = 1.0 - 0.05 * (nx - 1)
    O = random_permutation_emission(nx, seed)
    return HmmLanguage(pi=pi, T=T, O=O, N=1, nx=nx, ny=nx)


def _fake_term(disc, objective, PX, O, averaging):
    # independent recomputation of the generator's payoff for FD checks
    b = _transforms(objective)[2]
    if averaging == "outside_cost":
        return float(np.sum((PX @ O) * b(disc.symbol_scores())))
    if disc.kind == "linear":
        m = disc.w @ O.T
    else:
        pre = np.einsum("lhy,xy->lxh", disc.W, O)
        m = np.einsum("lh,lxh->lx", disc.v, np.maximum(pre, 0.0))
    return float(np.sum(PX * b(m)))


class TestSoftmaxPieces:
    def test_jacobian_psd_with_ones_null_space(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = rng.integers(2, 9)
            p = softmax(rng.normal(0, 2, size=dim))
            H = softmax_jacobian(p)
            assert np.max(np.abs(H - H.T)) < 1e-15
            assert np.max(np.abs(H @ np.ones(dim))) < 1e-12
            assert np.min(np.linalg.eigvalsh(H)) > -1e-12
            # the closed form every trainer uses, against the explicit matrix
            g = rng.normal(0, 1, size=dim)
            closed = apply_softmax_jacobian(p[None, :], g[None, :])[0]
            assert np.max(np.abs(closed - g @ H)) < 1e-15

    @pytest.mark.parametrize("shape", [(1, 3, 3), (5, 4, 6), (36, 5, 5)])
    def test_closed_form_keeps_the_bytes_of_its_sum_form(self, shape):
        # the kernel reduces by np.add.reduce; .sum, its reference here, is
        # the same reduction behind a Python layer
        rng = np.random.default_rng(7)
        P = softmax(rng.normal(0, 2, size=shape), axis=-1)
        G = rng.normal(0, 1, size=shape)
        want = P * (G - (P * G).sum(axis=-1, keepdims=True))
        assert apply_softmax_jacobian(P, G).tobytes() == want.tobytes()

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        U = rng.normal(0, 3, size=(5, 7))
        O = softmax(U, axis=1)
        assert np.allclose(O.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((O > 0) & (O < 1))


class TestObjectiveTerms:
    # _transforms gives the real-term integrand a and the fake-term integrand b

    def test_wasserstein_terms_are_identity(self):
        s = np.array([-2.0, 0.0, 3.5])
        a, _, b, _ = _transforms("wasserstein")
        assert np.array_equal(a(s), s) and np.array_equal(b(s), s)

    def test_jsd_terms_at_zero(self):
        a, _, b, _ = _transforms("jsd")
        assert np.allclose(a(np.zeros(1)), np.log(0.5), atol=1e-12)
        assert np.allclose(b(np.zeros(1)), -np.log(0.5), atol=1e-12)

    def test_jsd_real_term_slope_half_at_zero(self):
        h = 1e-6
        a = _transforms("jsd")[0]
        assert abs((a(np.array([h]))[0] - a(np.array([-h]))[0]) / (2 * h) - 0.5) < 1e-9

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            _transforms("hellinger")


class TestGeneratorDistribution:
    # the generated text distribution at each position is PX @ O

    def test_saturated_diagonal_passes_through(self):
        rng = np.random.default_rng(1)
        PX = rng.dirichlet(np.ones(4), size=6)
        gen = Generator(U=200.0 * np.eye(4))
        assert np.allclose(PX @ gen.O, PX, atol=1e-12)

    def test_zero_logits_give_uniform_rows(self):
        rng = np.random.default_rng(2)
        PX = rng.dirichlet(np.ones(3), size=5)
        gen = Generator(U=np.zeros((3, 4)))
        assert np.allclose(PX @ gen.O, 0.25, atol=1e-12)

    def test_output_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        PX = rng.dirichlet(np.ones(5), size=7)
        gen = Generator.initialize(5, 6, rng)
        assert np.allclose((PX @ gen.O).sum(axis=1), 1.0, atol=1e-12)


class TestGradients:
    def test_all_combinations_match_finite_differences(self):
        rng = np.random.default_rng(7)
        L, nx, ny = 5, 3, 4
        PX = rng.dirichlet(np.ones(nx), size=L)
        PY = rng.dirichlet(np.ones(ny), size=L)
        h = 1e-6
        for objective, kind, averaging in itertools.product(
            ("mmd", "jsd", "wasserstein"), ("linear", "mlp"), ("soft_input", "outside_cost")
        ):
            gen = Generator(U=rng.normal(0, 0.5, size=(nx, ny)))
            if kind == "linear":
                disc = LinearPositionalDiscriminator(L, ny)
                disc.w[:] = rng.normal(0, 0.5, size=(L, ny))
            else:
                disc = PerStepMlpDiscriminator(L, ny, rng, hidden=16)

            dU = generator_gradient(gen, disc, PX, objective, averaging)
            for x in range(nx):
                for y in range(ny):
                    Up = gen.U.copy(); Up[x, y] += h
                    Um = gen.U.copy(); Um[x, y] -= h
                    fd = (_fake_term(disc, objective, PX, softmax(Up, axis=1), averaging)
                          - _fake_term(disc, objective, PX, softmax(Um, axis=1), averaging)) / (2 * h)
                    denom = max(abs(fd), abs(dU[x, y]), 1e-8)
                    assert abs(fd - dU[x, y]) / denom < 1e-4, (objective, kind, averaging)

            grads = discriminator_gradient(disc, objective, PX, PY, gen.O, averaging)
            for p, g in zip(disc.params(), grads):
                flat_p, flat_g = p.reshape(-1), g.reshape(-1)
                for i in rng.choice(flat_p.size, size=min(40, flat_p.size), replace=False):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    Jp = objective_value(disc, objective, PX, PY, gen.O, averaging)
                    flat_p[i] = orig - h
                    Jm = objective_value(disc, objective, PX, PY, gen.O, averaging)
                    flat_p[i] = orig
                    fd = (Jp - Jm) / (2 * h)
                    denom = max(abs(fd), abs(flat_g[i]), 1e-8)
                    assert abs(fd - flat_g[i]) / denom < 1e-4, (objective, kind, averaging)

    def test_generator_gradient_tight_tolerance_example(self):
        rng = np.random.default_rng(19)
        L, nx, ny = 4, 3, 3
        PX = rng.dirichlet(np.ones(nx), size=L)
        gen = Generator(U=rng.normal(0, 0.5, size=(nx, ny)))
        disc = PerStepMlpDiscriminator(L, ny, rng, hidden=16)
        dU = generator_gradient(gen, disc, PX, "jsd", "soft_input")
        h = 1e-6
        worst = 0.0
        for x in range(nx):
            for y in range(ny):
                Up = gen.U.copy(); Up[x, y] += h
                Um = gen.U.copy(); Um[x, y] -= h
                fd = (_fake_term(disc, "jsd", PX, softmax(Up, axis=1), "soft_input")
                      - _fake_term(disc, "jsd", PX, softmax(Um, axis=1), "soft_input")) / (2 * h)
                denom = max(abs(fd), abs(dU[x, y]), 1e-8)
                worst = max(worst, abs(fd - dU[x, y]) / denom)
        assert worst < 1e-5

    def test_linear_mmd_averaging_modes_coincide(self):
        rng = np.random.default_rng(23)
        L, nx, ny = 6, 4, 4
        PX = rng.dirichlet(np.ones(nx), size=L)
        gen = Generator(U=rng.normal(0, 0.5, size=(nx, ny)))
        disc = LinearPositionalDiscriminator(L, ny)
        disc.w[:] = rng.normal(0, 1, size=(L, ny))
        g_soft = generator_gradient(gen, disc, PX, "mmd", "soft_input")
        g_out = generator_gradient(gen, disc, PX, "mmd", "outside_cost")
        assert np.max(np.abs(g_soft - g_out)) < 1e-10

    @pytest.mark.parametrize("objective", ("mmd", "wasserstein"))
    def test_constant_derivatives_skip_scores_byte_for_byte(self, objective):
        # the linear formulas with b'(scores) = 1 written out, for a stack of members
        rng = np.random.default_rng(31)
        B, L, nx, ny = 3, 6, 4, 5
        PX = rng.dirichlet(np.ones(nx), size=(B, L))
        PY = rng.dirichlet(np.ones(ny), size=(B, L))
        gen = Generator(U=rng.normal(0, 0.5, size=(B, nx, ny)))
        disc = LinearPositionalDiscriminator(L, ny, members=B)
        disc.w[:] = rng.normal(0, 1, size=disc.w.shape)
        O, OT = gen.O, np.swapaxes(gen.O, -1, -2)
        ones_m = np.ones_like(disc.w @ OT)
        want = {"soft_input": (PY * np.ones_like(disc.w) - (PX * ones_m) @ O,
                               apply_softmax_jacobian(O, np.swapaxes(PX * ones_m, -1, -2) @ disc.w)),
                "outside_cost": (PY * np.ones_like(disc.w) - (PX @ O) * np.ones_like(disc.w),
                                 apply_softmax_jacobian(O, np.swapaxes(PX, -1, -2) @ disc.w))}
        for averaging, (want_w, want_u) in want.items():
            [got_w] = discriminator_gradient(disc, objective, PX, PY, O, averaging)
            assert got_w.tobytes() == want_w.tobytes()
            assert generator_gradient(gen, disc, PX, objective, averaging).tobytes() == want_u.tobytes()

    def test_gradient_rows_orthogonal_to_ones(self):
        # softmax Jacobian null space: no gradient component along all-ones
        rng = np.random.default_rng(29)
        L, nx, ny = 5, 3, 4
        PX = rng.dirichlet(np.ones(nx), size=L)
        disc = LinearPositionalDiscriminator(L, ny)
        disc.w[:] = rng.normal(0, 1, size=(L, ny))
        disc.w[:] = (disc.w + disc.w[:, ::-1]) / 2  # symmetric per-position scores
        gen = Generator(U=np.zeros((nx, ny)))  # uniform generator
        dU = generator_gradient(gen, disc, PX, "jsd", "soft_input")
        assert np.max(np.abs(dU @ np.ones(ny))) < 1e-12
        gen2 = Generator(U=rng.normal(0, 1, size=(nx, ny)))
        dU2 = generator_gradient(gen2, disc, PX, "wasserstein", "outside_cost")
        assert np.max(np.abs(dU2 @ np.ones(ny))) < 1e-12


class TestTraining:
    def test_one_reset_step_builds_exact_witness(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        gen = Generator.initialize(4, 4, np.random.default_rng(0))
        disc = LinearPositionalDiscriminator(8, 4)
        g = discriminator_gradient(disc, "mmd", pair.PX, pair.PY, gen.O, "soft_input")
        disc.step_from(disc, g)
        gap = pair.PY - pair.PX @ gen.O
        assert np.max(np.abs(disc.w - gap)) < 1e-14
        J = objective_value(disc, "mmd", pair.PX, pair.PY, gen.O, "soft_input")
        assert abs(J - np.linalg.norm(gap) ** 2) < 1e-12

    def test_first_generator_step_moves_each_logit_by_the_fixed_rate(self):
        # bias-corrected first moments are g and g^2, so the step is 0.005 sign(g)
        grad = np.array([[2.0, -0.5], [1e-3, -4.0]])
        step = _AdamState(m=np.zeros_like(grad), v=np.zeros_like(grad)).step(grad)
        assert np.allclose(step, 0.005 * np.sign(grad), rtol=1e-4, atol=0)

    def test_matched_mmd_reset_reaches_target_and_stays_monotone(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        res = train(pair, TrainConfig(objective="mmd", epochs=20000), true_O=lang.O,
                    rngs=[np.random.default_rng(0)])
        assert res.trace[-1]["frobenius_residual"] <= 1e-3
        assert res.trace[-1]["per"] == 0.0
        sq = np.array([r["frobenius_residual"] ** 2 for r in res.trace])
        assert np.max(np.diff(sq)) <= 1e-9
        assert phoneme_error_rate(res.decoded(), lang.O) == 0.0

    def test_generator_rows_stay_stochastic_during_training(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        res = train(pair, TrainConfig(objective="jsd", discriminator="mlp", epochs=40),
                    true_O=lang.O, rngs=[np.random.default_rng(5)])
        O = res.generator.O
        assert np.allclose(O.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((O > 0) & (O < 1))

    def test_zero_epochs_returns_initial_generator(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        res = train(pair, TrainConfig(epochs=0), rngs=[np.random.default_rng(9)])
        expected = np.random.default_rng(9).normal(0.0, 0.01, size=(4, 4))
        assert np.array_equal(res.generator.U, expected)
        assert res.trace == []

    def test_fixed_seed_reproduces_trace(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        cfg = TrainConfig(objective="jsd", discriminator="mlp", reset_discriminator=True, epochs=30)
        t1 = train(pair, cfg, true_O=lang.O, rngs=[np.random.default_rng(4)]).trace
        t2 = train(pair, cfg, true_O=lang.O, rngs=[np.random.default_rng(4)]).trace
        assert t1 == t2

    def test_divergence_guard_raises(self, monkeypatch):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        calls = itertools.count()

        def diverging(*args):
            grads = discriminator_gradient(*args)
            return [np.full_like(g, -np.inf) for g in grads] if next(calls) == 2 else grads

        # jsd's fake-side transform is softplus, and softplus(-inf) = 0, so
        # under outside_cost the generator's step stays finite and only the
        # discriminator diverges
        monkeypatch.setattr(adversarial, "discriminator_gradient", diverging)
        cfg = TrainConfig(objective="jsd", averaging="outside_cost", epochs=5)
        with pytest.raises(RuntimeError) as exc:
            train(pair, cfg, rngs=[np.random.default_rng(0)])
        assert str(exc.value) == "discriminator weights diverged at epoch 2"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="kl")
        with pytest.raises(ValueError):
            TrainConfig(averaging="hard_sample")
        with pytest.raises(ValueError):
            TrainConfig(discriminator="transformer")
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(TypeError):  # the step rule is fixed
            TrainConfig(gen_lr=0.005)

    def test_loss_trace_csv_roundtrip(self, tmp_path):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        res = train(pair, TrainConfig(epochs=5), true_O=lang.O, rngs=[np.random.default_rng(1)])
        cfg = ExperimentConfig(kind="finite_sample_phase", nx_values=(4,), knob_values=(1,),
                               L=8, seeds=(1,), write_traces=True)
        row = {"kind": cfg.kind, "seed": 1, "error": "", "_trace": res.trace}
        [path] = write_outputs(cfg, [row], tmp_path).glob("trace_*.csv")
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["step", "J", "frobenius_residual", "per"]
        assert len(lines) == 6
        first = lines[1]
        assert int(first[0]) == 0
        assert abs(float(first[2]) - res.trace[0]["frobenius_residual"]) < 1e-8


SEEDS = (3, 8, 13)

BATCH_SETTINGS = [
    dict(discriminator=kind, objective=objective, averaging=averaging,
         reset_discriminator=reset)
    for kind, objective, averaging, reset in itertools.product(
        ("linear", "mlp"), ("mmd", "jsd", "wasserstein"), ("soft_input", "outside_cost"),
        (True, False))
]


def member_pairs():
    """One unmatched sampled pair and true assignment per seed in SEEDS."""
    langs = [cycle_language(seed=s) for s in SEEDS]
    pairs = [empirical_positional_unigrams(sample_corpus(lang, 300, 8, matched=False, seed=s))
             for lang, s in zip(langs, SEEDS)]
    return pairs, [lang.O for lang in langs]


def rngs():
    return [np.random.default_rng(s) for s in SEEDS]


def reference_train(pair, cfg, true_O, rng):
    """The single-run loop, on 2-D arrays throughout, with each reset drawn
    from the plain generator in turn: final U, discriminator and full trace."""
    PX, PY = pair.PX, pair.PY
    (L, nx), ny = PX.shape, PY.shape[1]
    gen = Generator.initialize(nx, ny, rng)
    disc = (LinearPositionalDiscriminator(L, ny) if cfg.discriminator == "linear"
            else PerStepMlpDiscriminator(L, ny, rng))
    adam = _AdamState(m=np.zeros_like(gen.U), v=np.zeros_like(gen.U))
    trace = []
    for epoch in range(cfg.epochs):
        if cfg.reset_discriminator:
            disc.reset(rng)
        O = gen.O
        disc.step_from(disc, discriminator_gradient(disc, cfg.objective, PX, PY, O, cfg.averaging))
        dU = generator_gradient(gen, disc, PX, cfg.objective, cfg.averaging)
        gen.U += adam.step(dU)
        O = gen.O
        trace.append({"step": epoch,
                      "J": objective_value(disc, cfg.objective, PX, PY, O, cfg.averaging),
                      "frobenius_residual": float(np.linalg.norm(PX @ O - PY)),
                      "per": float(np.mean(np.argmax(O, axis=1) != np.argmax(true_O, axis=1)))})
    return gen.U, disc, trace


def poison_generator_gradient(monkeypatch, pairs, at_epoch: dict):
    """Make member k's generator step infinite at epoch at_epoch[k].

    Members are found by their PX, so the poison follows them through the
    stack; train calls the gradient once per epoch.
    """
    calls = itertools.count()

    def patched(gen, disc, PX, objective, averaging):
        dU = generator_gradient(gen, disc, PX, objective, averaging)
        epoch = next(calls)
        stack = PX.reshape((-1,) + PX.shape[-2:])
        for k, when in at_epoch.items():
            for i in range(len(stack)):
                if when == epoch and np.array_equal(stack[i], pairs[k].PX):
                    dU.reshape((-1,) + dU.shape[-2:])[i] = np.inf
        return dU

    monkeypatch.setattr(adversarial, "generator_gradient", patched)


class TestBatchedTraining:
    @pytest.mark.parametrize("settings", BATCH_SETTINGS,
                             ids=lambda d: "-".join(str(v) for v in d.values()))
    def test_batch_equals_serial_runs(self, settings):
        pairs, Os = member_pairs()
        cfg = TrainConfig(epochs=12, **settings)
        kept = train(pairs, cfg, true_O=Os, rngs=rngs())
        final = train(pairs, cfg, true_O=Os, rngs=rngs(), keep_trace=False)
        for seed, pair, O, res, last in zip(SEEDS, pairs, Os, kept, final):
            alone = train(pair, cfg, true_O=O, rngs=[np.random.default_rng(seed)])
            U, disc, trace = reference_train(pair, cfg, O, np.random.default_rng(seed))
            assert alone.generator.U.tobytes() == U.tobytes() and alone.trace == trace
            for p, q in zip(alone.discriminator.params(), disc.params()):
                assert p.tobytes() == q.tobytes()
            for r in (res, last):
                assert r.generator.U.tobytes() == alone.generator.U.tobytes()
                assert np.array_equal(r.decoded(), alone.decoded())
                assert r.trace[-1] == alone.trace[-1]
                for p, q in zip(r.discriminator.params(), alone.discriminator.params()):
                    assert p.tobytes() == q.tobytes()
            assert res.trace == alone.trace and len(res.trace) == cfg.epochs
            assert last.trace == alone.trace[-1:]

    def test_one_pair_takes_one_generator(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        cfg = TrainConfig(epochs=5)
        given = train(pair, cfg, rngs=[np.random.default_rng(4)])
        assert given.trace == train([pair], cfg, rngs=[np.random.default_rng(4)])[0].trace
        with pytest.raises(ValueError):
            train(pair, cfg)
        with pytest.raises(ValueError):
            train([pair, pair], cfg)

    def test_diverged_members_leave_the_others_unchanged(self, monkeypatch):
        pairs, Os = member_pairs()
        cfg = TrainConfig(epochs=12)
        serial = [train(p, cfg, true_O=O, rngs=[np.random.default_rng(s)])
                  for s, p, O in zip(SEEDS, pairs, Os)]
        poisoned = {0: 3, 2: 7}
        errors = {}
        with np.errstate(invalid="ignore"):
            for k, epoch in poisoned.items():
                poison_generator_gradient(monkeypatch, pairs, {k: epoch})
                with pytest.raises(RuntimeError) as exc:
                    train(pairs[k], cfg, true_O=Os[k], rngs=[np.random.default_rng(SEEDS[k])])
                errors[k] = str(exc.value)
            poison_generator_gradient(monkeypatch, pairs, poisoned)
            batch = train(pairs, cfg, true_O=Os, rngs=rngs())
        assert errors == {0: "generator weights diverged at epoch 3",
                          2: "generator weights diverged at epoch 7"}
        for k, error in errors.items():
            assert isinstance(batch[k], RuntimeError) and str(batch[k]) == error
        assert batch[1].generator.U.tobytes() == serial[1].generator.U.tobytes()
        assert batch[1].trace == serial[1].trace


class RecordingGenerator(np.random.Generator):
    """default_rng(seed) that records the thread and out array of every
    standard_normal call, and counts the calls still running."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []
        self.running = 0

    def standard_normal(self, *args, **kwargs):
        self.running += 1
        try:
            return super().standard_normal(*args, **kwargs)
        finally:
            self.running -= 1
            self.calls.append((threading.current_thread().name, kwargs.get("out")))


def is_drawer(name: str) -> bool:
    return name.startswith("decipher-reset-draws")


def drawer_threads():
    return [t for t in threading.enumerate() if is_drawer(t.name)]


class TestMlpResetsDrawnAhead:
    @pytest.mark.parametrize("reset", [True, False])
    def test_draws_end_with_training_and_leave_the_stream_in_place(self, reset):
        pairs, Os = member_pairs()
        cfg = TrainConfig(discriminator="mlp", reset_discriminator=reset, epochs=20)
        rng, ref = RecordingGenerator(SEEDS[0]), np.random.default_rng(SEEDS[0])
        [res] = train(pairs[:1], cfg, true_O=Os[:1], rngs=[rng])
        U, disc, trace = reference_train(pairs[0], cfg, Os[0], rng=ref)
        assert not drawer_threads() and rng.running == 0
        drawn = [out for name, out in rng.calls if is_drawer(name)]
        # W then v for each reset, into arrays given, and no draw beyond the last
        assert len(drawn) == (2 * cfg.epochs if reset else 0)
        assert all(out is not None for out in drawn)
        assert rng.bit_generator.state == ref.bit_generator.state
        W, v = res.discriminator.W.copy(), res.discriminator.v.copy()
        assert W.tobytes() == disc.W.tobytes() and v.tobytes() == disc.v.tobytes()
        assert res.generator.U.tobytes() == U.tobytes() and res.trace == trace
        # nothing is left writing into the returned weights
        time.sleep(0.05)
        assert res.discriminator.W.tobytes() == W.tobytes()
        assert res.discriminator.v.tobytes() == v.tobytes()

    def test_concurrent_trainings_under_fast_switching_keep_their_bytes(self):
        # more training threads than cores, each with its own drawer thread,
        # switching every microsecond: a swap out of turn would change bytes
        pairs, Os = member_pairs()
        cfg = TrainConfig(discriminator="mlp", objective="jsd", epochs=15)
        want = [reference_train(p, cfg, O, np.random.default_rng(s))
                for s, p, O in zip(SEEDS, pairs, Os)]
        got = {}

        def run(k):
            got[k] = train(pairs, cfg, true_O=Os, rngs=rngs())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and sorted(got) == [0, 1, 2, 3]
        for batch in got.values():
            for res, (U, disc, trace) in zip(batch, want):
                assert res.generator.U.tobytes() == U.tobytes() and res.trace == trace
                assert res.discriminator.W.tobytes() == disc.W.tobytes()
                assert res.discriminator.v.tobytes() == disc.v.tobytes()
        assert not drawer_threads()

    def test_diverged_member_keeps_its_error_and_its_thread_ends(self, monkeypatch):
        pairs, Os = member_pairs()
        cfg = TrainConfig(discriminator="mlp", epochs=12)
        serial = train(pairs[1], cfg, true_O=Os[1], rngs=[np.random.default_rng(SEEDS[1])])
        threads = threading.active_count()
        with np.errstate(invalid="ignore"):
            poison_generator_gradient(monkeypatch, pairs, {0: 3})
            with pytest.raises(RuntimeError) as exc:
                train(pairs[0], cfg, true_O=Os[0], rngs=[np.random.default_rng(SEEDS[0])])
            assert threading.active_count() == threads
            poison_generator_gradient(monkeypatch, pairs, {0: 3})
            batch = train(pairs, cfg, true_O=Os, rngs=rngs())
        assert threading.active_count() == threads
        assert str(exc.value) == "generator weights diverged at epoch 3"
        assert isinstance(batch[0], RuntimeError) and str(batch[0]) == str(exc.value)
        assert batch[1].generator.U.tobytes() == serial.generator.U.tobytes()
        assert batch[1].trace == serial.trace

    def test_an_exception_in_training_joins_the_thread(self, monkeypatch):
        pairs, Os = member_pairs()
        calls = itertools.count()

        def failing(*args):
            if next(calls) == 5:
                raise KeyError("epoch 5")
            return discriminator_gradient(*args)

        monkeypatch.setattr(adversarial, "discriminator_gradient", failing)
        threads = threading.active_count()
        with pytest.raises(KeyError):
            train(pairs, TrainConfig(discriminator="mlp", epochs=12), rngs=rngs())
        assert threading.active_count() == threads and not drawer_threads()


def lockstep_variants(kind, objective):
    """Four variants of one run: both averagings, each with and without resets."""
    return [TrainConfig(discriminator=kind, objective=objective, epochs=12,
                        averaging=averaging, reset_discriminator=reset)
            for averaging, reset in (("soft_input", True), ("outside_cost", True),
                                     ("outside_cost", False), ("soft_input", False))]


def assert_same_run(got, want):
    assert got.generator.U.tobytes() == want.generator.U.tobytes()
    for p, q in zip(got.discriminator.params(), want.discriminator.params(), strict=True):
        assert p.tobytes() == q.tobytes()
    assert got.trace == want.trace


def poison_variant(monkeypatch, averaging: str, at_call: int):
    """Make the discriminator step of the variant with this averaging turn to
    -inf in its first weight array at its at_call-th gradient call (from 0).
    Under jsd and outside_cost the generator's step stays finite."""
    calls = itertools.count()

    def patched(disc, objective, PX, PY, O, avg):
        grads = discriminator_gradient(disc, objective, PX, PY, O, avg)
        if avg == averaging and next(calls) == at_call:
            grads[0] = np.full_like(grads[0], -np.inf)
        return grads

    monkeypatch.setattr(adversarial, "discriminator_gradient", patched)


class TestVariantsInLockstep:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_variants_equal_separate_calls(self, kind, objective):
        pairs, Os = member_pairs()
        cfgs = lockstep_variants(kind, objective)
        together = train(pairs, cfgs[0], true_O=Os, rngs=rngs(), variants=cfgs)
        last = train(pairs, cfgs[0], true_O=Os, rngs=rngs(), variants=cfgs, keep_trace=False)
        assert len(together) == len(last) == len(cfgs)
        for cfg, runs, final in zip(cfgs, together, last):
            alone = train(pairs, cfg, true_O=Os, rngs=rngs())
            assert len(runs) == len(final) == len(alone) == len(SEEDS)
            for res, res_last, want in zip(runs, final, alone):
                assert_same_run(res, want)
                assert res_last.trace == want.trace[-1:]
                assert res_last.generator.U.tobytes() == want.generator.U.tobytes()

    def test_one_pair_gives_one_outcome_per_variant(self):
        pairs, Os = member_pairs()
        pair, O = pairs[0], Os[0]
        cfgs = lockstep_variants("mlp", "jsd")[:2]
        got = train(pair, cfgs[0], true_O=O, rngs=[np.random.default_rng(SEEDS[0])],
                    variants=cfgs)
        for cfg, [res] in zip(cfgs, got, strict=True):
            assert_same_run(res, train(pair, cfg, true_O=O, rngs=[np.random.default_rng(SEEDS[0])]))

    @pytest.mark.parametrize("field", [dict(epochs=11), dict(discriminator="linear")])
    def test_variants_share_epochs_and_discriminator(self, field):
        pairs, _ = member_pairs()
        cfg = TrainConfig(discriminator="mlp", epochs=12)
        with pytest.raises(ValueError):
            train(pairs, cfg, rngs=rngs(), variants=[cfg, TrainConfig(**{**asdict(cfg), **field})])

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_diverged_variant_leaves_its_sibling_unchanged(self, monkeypatch, kind):
        pairs, Os = member_pairs()
        cfgs = [TrainConfig(discriminator=kind, objective="jsd", epochs=12,
                            averaging=averaging) for averaging in AVERAGING_MODES]
        clean = [train(pairs, cfg, true_O=Os, rngs=rngs()) for cfg in cfgs]
        with np.errstate(invalid="ignore"):
            poison_variant(monkeypatch, "outside_cost", 2)
            alone = train(pairs, cfgs[1], true_O=Os, rngs=rngs())
            poison_variant(monkeypatch, "outside_cost", 2)
            soft, outside = train(pairs, cfgs[0], true_O=Os, rngs=rngs(), variants=cfgs)
        # a linear stack takes every member's step in one call; an MLP member
        # trains alone, so only the first member's third step is poisoned
        diverged = range(len(SEEDS)) if kind == "linear" else [0]
        for b, (res, want) in enumerate(zip(outside, alone, strict=True)):
            if b in diverged:
                assert isinstance(res, RuntimeError) and isinstance(want, RuntimeError)
                assert str(res) == str(want) == "discriminator weights diverged at epoch 2"
            else:
                assert_same_run(res, want)
                assert_same_run(res, clean[1][b])
        for res, want in zip(soft, clean[0], strict=True):
            assert_same_run(res, want)

    def test_each_member_starts_one_drawer_and_ends_its_stream_in_place(self, monkeypatch):
        pairs, Os = member_pairs()
        cfgs = lockstep_variants("mlp", "mmd")
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        threads = threading.active_count()
        gens = [RecordingGenerator(s) for s in SEEDS]
        together = train(pairs, cfgs[0], true_O=Os, rngs=gens, variants=cfgs)
        assert threading.active_count() == threads and not drawer_threads()
        assert [is_drawer(name) for name in started] == [True] * len(SEEDS)
        for b, (seed, rng) in enumerate(zip(SEEDS, gens)):
            # one reset stream for the member: W then v per epoch, whatever the variant count
            assert len([out for name, out in rng.calls if is_drawer(name)]) == 2 * cfgs[0].epochs
            ref = np.random.default_rng(seed)
            U, disc, trace = reference_train(pairs[b], cfgs[0], Os[b], ref)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert together[0][b].generator.U.tobytes() == U.tobytes()
            assert together[0][b].trace == trace


GOLDEN = Path(__file__).with_name("golden_mlp_lockstep.json")


def golden_runs():
    """Small MLP lockstep runs by name: the member of member_pairs each
    trains, and its variants."""
    def variants(objective, changes):
        return [TrainConfig(discriminator="mlp", objective=objective, epochs=30, **change)
                for change in changes]

    averagings = [dict(averaging=averaging) for averaging in AVERAGING_MODES]
    resets = [dict(reset_discriminator=True), dict(reset_discriminator=False)]
    return {"mmd_averaging": (0, variants("mmd", averagings)),
            "jsd_averaging": (1, variants("jsd", averagings)),
            "jsd_reset_pair": (2, variants("jsd", resets))}


def golden_fingerprints(name: str) -> list[dict]:
    """Per variant of golden run name: its final U, its W and v summed over
    the hidden axis (plainly and weighted by a ramp) and its trace, at 12
    significant digits."""
    b, cfgs = golden_runs()[name]
    pairs, Os = member_pairs()
    outcomes = train(pairs[b], cfgs[0], true_O=Os[b], rngs=[np.random.default_rng(SEEDS[b])],
                     variants=cfgs)
    prints = []
    for [res] in outcomes:
        W, v = res.discriminator.W, res.discriminator.v
        ramp = np.linspace(0.0, 1.0, W.shape[1])
        values = {"U": res.generator.U, "W_sum": W.sum(axis=1),
                  "W_ramp": np.einsum("lhy,h->ly", W, ramp), "v_sum": v.sum(axis=1),
                  "v_ramp": v @ ramp,
                  "trace": [[row["J"], row["frobenius_residual"], row["per"]] for row in res.trace]}
        prints.append({key: [float(f"{x:.12g}") for x in np.ravel(a)] for key, a in values.items()})
    return prints


class TestMlpLockstepGolden:
    """The runs of golden_runs against golden_mlp_lockstep.json, which holds
    golden_fingerprints as computed before the MLP epoch wrote into
    preallocated work arrays. reference_train calls the same gradient
    functions as train, so only stored values pin their arithmetic. At 12
    significant digits they catch a changed term, not a reordered sum whose
    last-bit change does not grow within 30 epochs."""

    @pytest.mark.parametrize("name", sorted(golden_runs()))
    def test_final_weights_and_trace(self, name):
        want = json.loads(GOLDEN.read_text())[name]
        got = golden_fingerprints(name)
        assert len(got) == len(want) == 2
        for variant_got, variant_want in zip(got, want):
            assert variant_got.keys() == variant_want.keys()
            for key, values in variant_want.items():
                np.testing.assert_allclose(variant_got[key], values, rtol=1e-11, atol=0,
                                           err_msg=f"{name}: {key}")


GOLDEN_BYTES = Path(__file__).with_name("golden_mlp_bytes.json")


def final_weight_hashes() -> list[dict]:
    """Per variant of one 30-epoch MLP averaging pair over ten units (an
    unmatched pair of cycle_language(nx=10)): sha256 of the bytes of its
    final U, W and v. Ten units, as in the sampled sweeps: over golden_runs'
    four, a product summed in another order still gives the same bytes."""
    lang = cycle_language(nx=10, seed=3)
    pair = empirical_positional_unigrams(sample_corpus(lang, 300, 8, matched=False, seed=3))
    cfgs = [TrainConfig(discriminator="mlp", objective="mmd", epochs=30, averaging=averaging)
            for averaging in AVERAGING_MODES]
    outcomes = train(pair, cfgs[0], true_O=lang.O, rngs=[np.random.default_rng(3)],
                     variants=cfgs)
    return [{key: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
             for key, a in (("U", res.generator.U), ("W", res.discriminator.W),
                            ("v", res.discriminator.v))}
            for [res] in outcomes]


class TestMlpLockstepBytes:
    """final_weight_hashes against golden_mlp_bytes.json, which pins the
    bytes a reordered sum moves where golden_mlp_lockstep.json's 12 digits
    cannot see it. It pins the bytes that the generating machine's numpy and
    BLAS give, as golden_ntk_flow.json does, so on another machine a
    mismatch may come from the library, not from the arithmetic."""

    def test_final_weights_keep_their_bytes(self):
        assert final_weight_hashes() == json.loads(GOLDEN_BYTES.read_text())


class TestMlpTrainingOwnsItsWork:
    def test_results_keep_their_bytes_and_share_no_work_array(self, monkeypatch):
        pairs, Os = member_pairs()
        cfgs = lockstep_variants("mlp", "jsd")
        works, spares = [], []
        init, draw = adversarial._MlpWork.__init__, adversarial._ResetDraws._draw

        def recording_init(work, *args):
            init(work, *args)
            works.append(work)

        def recording_draw(draws, W, v, terms):
            spares.append((W, v, *terms))
            return draw(draws, W, v, terms)

        monkeypatch.setattr(adversarial._MlpWork, "__init__", recording_init)
        monkeypatch.setattr(adversarial._ResetDraws, "_draw", recording_draw)
        first = [res for runs in train(pairs, cfgs[0], true_O=Os, rngs=rngs(), variants=cfgs)
                 for res in runs]
        returned = [a for res in first for a in (res.generator.U, *res.discriminator.params())]
        # every member's work arrays as its training ended, and every spare its drawer filled
        worked = [a for work in works for a in vars(work).values()]
        worked += [a for spare in spares for a in spare]
        assert len(works) == len(SEEDS) and len(spares) == len(SEEDS) * cfgs[0].epochs
        assert not any(np.shares_memory(a, b) for a in returned for b in worked)
        assert all(res.discriminator.work is None for res in first)
        kept = [a.copy() for a in returned]
        train(pairs, cfgs[0], true_O=Os, rngs=rngs(), variants=cfgs)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(returned, kept, strict=True))


class TestMlpDiscriminator:
    def test_reset_uses_fresh_gaussian_scales(self):
        rng = np.random.default_rng(31)
        disc = PerStepMlpDiscriminator(L=20, ny=6, rng=rng, hidden=64)
        w_std = np.std(disc.W)
        v_std = np.std(disc.v)
        assert abs(w_std - np.sqrt(2.0 / (6 + 64))) / np.sqrt(2.0 / (6 + 64)) < 0.1
        assert abs(v_std - np.sqrt(2.0 / 65)) / np.sqrt(2.0 / 65) < 0.1
        before = disc.W.copy()
        disc.reset(rng)
        assert np.max(np.abs(disc.W - before)) > 1e-3

    def test_reset_without_rng_rejected(self):
        rng = np.random.default_rng(33)
        disc = PerStepMlpDiscriminator(L=3, ny=4, rng=rng, hidden=8)
        with pytest.raises(ValueError):
            disc.reset(None)

    def test_symbol_scores_match_soft_scores_on_one_hots(self):
        rng = np.random.default_rng(37)
        disc = PerStepMlpDiscriminator(L=4, ny=5, rng=rng, hidden=16)
        # unit y's posterior row is the one-hot of symbol y
        m = adversarial._soft_unit_scores(disc, np.eye(5))
        assert np.allclose(m, disc.symbol_scores(), atol=1e-12)

    def test_reset_in_place_keeps_the_bytes_of_normal_draws(self):
        L, ny, hidden = 80, 10, 128
        rng, ref = np.random.default_rng(41), np.random.default_rng(41)
        disc = PerStepMlpDiscriminator(L, ny, rng, hidden=hidden)
        for k in range(4):
            if k:
                disc.reset(rng)
            W = ref.normal(0.0, np.sqrt(2.0 / (ny + hidden)), size=(L, hidden, ny))
            v = ref.normal(0.0, np.sqrt(2.0 / (hidden + 1)), size=(L, hidden))
            assert disc.W.tobytes() == W.tobytes() and disc.v.tobytes() == v.tobytes()
            # later draws line up
            assert rng.bit_generator.state == ref.bit_generator.state


def _reference_derivatives(objective):
    # a derivative that _transforms reports as None is the constant 1
    _, ap, _, bp = _transforms(objective)
    one = lambda s: np.ones_like(s)
    return ap or one, bp or one


def _reference_unit_scores(disc, O):
    pre = np.einsum("lhy,xy->lxh", disc.W, O)
    return np.einsum("lh,lxh->lx", disc.v, np.maximum(pre, 0.0))


def _reference_discriminator_gradient(disc, objective, PX, PY, O, averaging):
    """The MLP discriminator gradient in per-element einsums."""
    ap, bp = _reference_derivatives(objective)
    t = np.einsum("lh,lhy->ly", disc.v, np.maximum(disc.W, 0.0))
    real_coeff = PY * ap(t)
    relu_W = np.maximum(disc.W, 0.0)
    mask_W = (disc.W > 0.0).astype(float)
    if averaging == "outside_cost":
        coeff = real_coeff - (PX @ O) * bp(t)
        gv = np.einsum("ly,lhy->lh", coeff, relu_W)
        gW = np.einsum("ly,lh,lhy->lhy", coeff, disc.v, mask_W)
        return [gW, gv]
    gv = np.einsum("ly,lhy->lh", real_coeff, relu_W)
    gW = np.einsum("ly,lh,lhy->lhy", real_coeff, disc.v, mask_W)
    pre = np.einsum("lhy,xy->lxh", disc.W, O)
    relu_soft = np.maximum(pre, 0.0)
    c = PX * bp(np.einsum("lh,lxh->lx", disc.v, relu_soft))
    gv -= np.einsum("lx,lxh->lh", c, relu_soft)
    gW -= np.einsum("lx,lh,lxh,xy->lhy", c, disc.v, (pre > 0.0).astype(float), O, optimize=True)
    return [gW, gv]


def _reference_generator_gradient(gen, disc, PX, objective, averaging):
    """The MLP generator gradient in per-element einsums."""
    b = _transforms(objective)[2]
    _, bp = _reference_derivatives(objective)
    O = gen.O
    if averaging == "outside_cost":
        t = np.einsum("lh,lhy->ly", disc.v, np.maximum(disc.W, 0.0))
        return apply_softmax_jacobian(O, PX.T @ b(t))
    pre = np.einsum("lhy,xy->lxh", disc.W, O)
    c = PX * bp(np.einsum("lh,lxh->lx", disc.v, np.maximum(pre, 0.0)))
    back = np.einsum("lh,lxh,lhy->lxy", disc.v, (pre > 0.0).astype(float), disc.W, optimize=True)
    return apply_softmax_jacobian(O, np.einsum("lx,lxy->xy", c, back))


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestMlpKernels:
    """The per-position matrix products against the per-element einsums, at
    the sampled sweeps' shape (L 80, hidden 128, |X| = |Y| = 10)."""

    TOL = 1e-13

    @staticmethod
    def setting():
        rng = np.random.default_rng(20231018)
        L, nx, ny = 80, 10, 10
        PX = rng.dirichlet(np.ones(nx), size=L)
        PY = rng.dirichlet(np.ones(ny), size=L)
        gen = Generator(U=rng.normal(0.0, 1.0, size=(nx, ny)))
        disc = PerStepMlpDiscriminator(L, ny, rng, hidden=128)
        return PX, PY, gen, disc

    @pytest.mark.parametrize("averaging", adversarial.AVERAGING_MODES)
    @pytest.mark.parametrize("objective", adversarial.OBJECTIVES)
    def test_gradients_match_einsum_forms(self, objective, averaging):
        PX, PY, gen, disc = self.setting()
        got = discriminator_gradient(disc, objective, PX, PY, gen.O, averaging)
        want = _reference_discriminator_gradient(disc, objective, PX, PY, gen.O, averaging)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and _relative_error(g, w) <= self.TOL
        got_u = generator_gradient(gen, disc, PX, objective, averaging)
        want_u = _reference_generator_gradient(gen, disc, PX, objective, averaging)
        assert _relative_error(got_u, want_u) <= self.TOL

    @pytest.mark.parametrize("averaging", adversarial.AVERAGING_MODES)
    def test_jsd_step_forms_relu_W_once(self, monkeypatch, averaging):
        # weights that are no fresh reset: the scores t and the v gradient
        # read one relu(W)
        PX, PY, gen, disc = self.setting()
        assert disc.fresh is None
        relu_W, calls = PerStepMlpDiscriminator.relu_W, []
        monkeypatch.setattr(PerStepMlpDiscriminator, "relu_W",
                            lambda self: calls.append(self) or relu_W(self))
        discriminator_gradient(disc, "jsd", PX, PY, gen.O, averaging)
        assert calls == [disc]

    def test_scores_match_einsum_forms(self):
        PX, PY, gen, disc = self.setting()
        t = np.einsum("lh,lhy->ly", disc.v, np.maximum(disc.W, 0.0))
        assert _relative_error(disc.symbol_scores(), t) <= self.TOL
        m = adversarial._soft_unit_scores(disc, gen.O)
        assert _relative_error(m, _reference_unit_scores(disc, gen.O)) <= self.TOL


class TestErmLeastSquares:
    def test_exact_pair_recovers_permutation(self):
        lang = cycle_language()
        pair = exact_positional_unigrams(lang, L=8)
        sol = erm_least_squares(pair)
        assert np.linalg.norm(pair.PX @ sol.O_projected - pair.PY) < 1e-10
        assert phoneme_error_rate(sol.decoded(), lang.O) == 0.0
        assert np.all(sol.O_projected >= 0)
        assert np.allclose(sol.O_projected.sum(axis=1), 1.0, atol=1e-12)

    def test_empirical_pairs_recover_above_threshold(self):
        # moderate-sample smoke version of the threshold guarantee
        lang = cycle_language()
        failures = 0
        for seed in range(20):
            corpus = sample_corpus(lang, n_sequences=10000, L=8, matched=False, seed=seed)
            pair = empirical_positional_unigrams(corpus)
            sol = erm_least_squares(pair)
            failures += phoneme_error_rate(sol.decoded(), lang.O) > 0
        assert failures == 0

    def test_projection_properties(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = rng.integers(2, 8)
            v = rng.normal(0, 2, size=dim)
            p = project_row_to_simplex(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12
            again = project_row_to_simplex(p)
            assert np.allclose(again, p, atol=1e-12)
            for _ in range(5):
                u = rng.dirichlet(np.ones(dim))
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - u) + 1e-12

    def test_projection_keeps_the_argmax(self):
        # so erm_least_squares decodes exactly as the pseudo-inverse does
        rng = np.random.default_rng(43)
        for _ in range(2000):
            v = rng.normal(0, 2, size=rng.integers(2, 15))
            assert np.argmax(project_row_to_simplex(v)) == np.argmax(v)

    def test_projection_known_points(self):
        assert np.allclose(project_row_to_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(project_row_to_simplex(np.array([1.0, 1.0])), [0.5, 0.5])
        assert np.allclose(project_row_to_simplex(np.array([0.3, 0.7])), [0.3, 0.7])
