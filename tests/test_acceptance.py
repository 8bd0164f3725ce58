"""End-to-end acceptance gate: nine checks covering the full pipeline.

Each test exercises a deliverable at its published scale (full grids, full
seed counts) rather than the reduced settings used by the unit suites, so
this module is the slow one. Run it alone with

    pytest tests/test_acceptance.py -v

Reported-but-not-asserted quantities (transition-edge cells, gap
distributions) go to stdout; add -s or -rA to see them on passing runs.
"""

import itertools
import time
from dataclasses import replace

import numpy as np

from decipher.adversarial import (
    Generator,
    LinearPositionalDiscriminator,
    PerStepMlpDiscriminator,
    TrainConfig,
    _transforms,
    erm_least_squares,
    generator_gradient,
    discriminator_gradient,
    objective_value,
    softmax,
    softmax_jacobian,
    train,
)
from decipher.experiments import default_config, finite_language, run_experiment
from decipher.graphs import (
    TransitionMatrix,
    build_circulant,
    build_debruijn,
    build_hypercube,
    hamiltonian_cycle_matrix,
)
from decipher.hmm import (
    HmmLanguage,
    empirical_positional_unigrams,
    exact_positional_unigrams,
    random_initial_vector,
    random_permutation_emission,
    sample_corpus,
)
from decipher.ntk import discriminator_ntk
from decipher.random_chains import random_reversible_chain
from decipher.recovery import brute_force_oracle, recover_pseudoinverse
from decipher.spectral import (
    NotApplicable,
    sample_size_threshold,
    sigma_min,
    sigma_min_lower_bound,
    spectrum_of_chain,
    symmetric_eigen,
    symmetrized_form,
    debruijn_candidate_values,
)


def _group(rows, *keys):
    out = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(r)
    return out


def _generator_payoff(disc, objective, PX, O, averaging):
    # Independent recomputation of the term the generator ascends (the
    # real-corpus term of the saddle objective has no generator dependence,
    # so its finite differences would only add the opposite-player sign).
    b = _transforms(objective)[2]
    if averaging == "outside_cost":
        return float(np.sum((PX @ O) * b(disc.symbol_scores())))
    if disc.kind == "linear":
        scores = disc.w @ O.T
    else:
        pre = np.einsum("lhy,xy->lxh", disc.W, O)
        scores = np.einsum("lh,lxh->lx", disc.v, np.maximum(pre, 0.0))
    return float(np.sum(PX * b(scores)))


def test_criterion_1_asymptotic_phase_transition():
    # Exact recovery on tiled circulants must flip from impossible to exact
    # as the distinct nonzero eigenvalue count crosses the alphabet size:
    # per-cell mean PER (over the seeded pi/emission draws) is 0 whenever
    # count >= nx and positive whenever count <= nx/2. Cells in between sit
    # on the transition edge and are only reported; off-plateau magnitudes
    # are minimum-norm artifacts and are not asserted.
    t0 = time.perf_counter()
    cfg = default_config("asymptotic_phase", family="circulant")
    rows = run_experiment(cfg, jobs=1)
    elapsed = time.perf_counter() - t0

    assert len(rows) == len(cfg.nx_values) * len(cfg.knob_values) * len(cfg.seeds)
    assert all(r["error"] == "" for r in rows)
    edge = []
    for (nx, knob), cell in _group(rows, "nx", "knob").items():
        counts = {r["distinct_nonzero"] for r in cell}
        assert counts == {knob}, (nx, knob, counts)
        mean_per = float(np.mean([r["per"] for r in cell]))
        if knob >= nx:
            assert mean_per == 0.0, (nx, knob, mean_per)
        elif knob <= nx / 2:
            assert mean_per > 0.0, (nx, knob, mean_per)
        else:
            edge.append(mean_per)
    if edge:
        print(f"transition-edge cells: {len(edge)}, "
              f"mean PER range [{min(edge):.3f}, {max(edge):.3f}]")
    assert elapsed < 300.0, f"asymptotic sweep took {elapsed:.1f}s"


def test_criterion_2_brute_force_equivalence():
    # On every decipherable language the pseudo-inverse recovery must agree
    # with the unique exhaustive-search permutation, as matrices at 1e-8 and
    # as decoded labels. The decipherability screen keeps sigma_min above
    # 1e-3 because the pseudo-inverse route amplifies round-off by
    # 1/sigma_min; languages closer to the degenerate set cannot carry a
    # 1e-8 matrix-level comparison (their decoded labels still match).
    accepted = 0
    draws = 0
    while accepted < 200 and draws < 4000:
        nx = 2 + (draws % 4)
        lang = HmmLanguage(
            pi=random_initial_vector(nx, [7, draws]),
            T=random_reversible_chain(nx, [21, draws]),
            O=random_permutation_emission(nx, [11, draws]),
            N=1, nx=nx, ny=nx,
        )
        pair = exact_positional_unigrams(lang, L=8)
        draws += 1
        if sigma_min(pair.PX) <= 1e-3:
            continue
        hits = brute_force_oracle(pair, tol=1e-8)
        if len(hits) != 1:
            continue
        accepted += 1
        assert np.array_equal(hits[0], lang.O)
        rec = recover_pseudoinverse(pair)
        assert np.allclose(rec.O_hat, hits[0], atol=1e-8), (draws - 1, nx)
        assert np.array_equal(rec.decoded, np.argmax(hits[0], axis=1))
    assert accepted == 200, f"only {accepted} decipherable languages in {draws} draws"

    # Uniform start on a cycle makes every positional row uniform, so every
    # permutation is an exact solution: the oracle must report ambiguity.
    ambiguous = 0
    cases = 0
    for nx, L, undirected in itertools.product((3, 4, 5, 6), (4, 6, 8), (False, True)):
        if undirected:
            T = build_circulant(nx, (1, nx - 1))
        else:
            T = TransitionMatrix(hamiltonian_cycle_matrix(list(range(nx))),
                                 reversible=False)
        lang = HmmLanguage(
            pi=np.full(nx, 1.0 / nx), T=T,
            O=random_permutation_emission(nx, [11, cases]),
            N=1, nx=nx, ny=nx,
        )
        hits = brute_force_oracle(exact_positional_unigrams(lang, L=L), tol=1e-8)
        cases += 1
        ambiguous += len(hits) >= 2
    assert cases >= 20
    assert ambiguous == cases, f"{ambiguous}/{cases} constructions ambiguous"


def test_criterion_3_simple_spectrum():
    # Random reversible chains must have all-distinct spectra: every trial
    # at every size keeps its minimum consecutive gap above 1e-12.
    t0 = time.perf_counter()
    cfg = default_config("smrm_gaps")
    rows = run_experiment(cfg, jobs=1)

    assert {r["size"] for r in rows} == {16, 32, 64}
    assert len(rows) == 3 * cfg.trials == 1500
    for r in rows:
        assert r["error"] == ""
        assert r["min_gap"] > 1e-12 and r["simple_at_1e12"] == 1, (r["size"], r["trial"])
        assert r["distinct_count"] == r["size"], (r["size"], r["trial"])
    for size in (16, 32, 64):
        gaps = np.array([r["min_gap"] for r in rows if r["size"] == size])
        q = np.percentile(gaps, [0, 25, 50, 75, 100])
        print(f"n={size}: min_gap quantiles " + " ".join(f"{v:.3e}" for v in q))
    assert time.perf_counter() - t0 < 600.0


def test_criterion_4_certified_finite_sample_recovery():
    # When the empirical sigma_min clears the delta=0.05 sample-size
    # threshold, least-squares recovery must be exact in at least 95 of 100
    # trials (the guarantee is 1 - 2*delta). The peaked-start directed cycle
    # is conditioned well enough that n=10000 certifies every seed.
    T = TransitionMatrix(hamiltonian_cycle_matrix([1, 2, 3, 0]), reversible=False)
    lang = HmmLanguage(
        pi=np.array([0.85, 0.05, 0.05, 0.05]), T=T,
        O=random_permutation_emission(4, 3), N=1, nx=4, ny=4,
    )
    truth = np.argmax(lang.O, axis=1)
    threshold = sample_size_threshold(10000, 10000, 8, 4, 4, delta=0.05)
    assert threshold < 1.0  # certificate must be non-vacuous at this n

    certified = exact = 0
    for seed in range(100):
        corpus = sample_corpus(lang, n_sequences=10000, L=8, matched=False, seed=seed)
        pair = empirical_positional_unigrams(corpus)
        if sigma_min(pair.PX) <= threshold:
            continue
        certified += 1
        sol = erm_least_squares(pair)
        exact += int(np.all(sol.decoded() == truth))
    assert certified == 100, f"only {certified}/100 seeds cleared the threshold"
    assert exact >= 95, f"exact recovery in {exact}/{certified} certified trials"


def test_criterion_5_finite_sample_plateau():
    # Sampled circulant action-set sweep, unpaired corpora, adversarial
    # training with resets: mean PER must exceed 0.2 at the worst-conditioned
    # end of the sweep and reach 0 at the best-conditioned end. Mid-curve
    # values are not asserted.
    cfg = default_config("finite_sample_phase", family="circulant")
    rows = run_experiment(cfg, jobs=1)
    assert all(r["error"] == "" for r in rows)
    assert len(rows) == len(cfg.knob_values) * len(cfg.seeds)

    mean_per = {k: float(np.mean([r["per"] for r in v]))
                for k, v in _group(rows, "knob").items()}
    # conditioning of the noiseless problem, averaged over the seeded draws
    nx = cfg.nx_values[0]
    exact_sigma = {}
    for knob in cfg.knob_values:
        vals = [sigma_min(exact_positional_unigrams(
                    finite_language("circulant", nx, knob, cfg.ngram, s), cfg.L).PX)
                for s in cfg.seeds]
        exact_sigma[knob] = float(np.mean(vals))

    high = max(cfg.knob_values, key=lambda k: exact_sigma[k])
    low = min(cfg.knob_values, key=lambda k: exact_sigma[k])
    curve = {k: (exact_sigma[k], mean_per[(k,)]) for k in sorted(cfg.knob_values)}
    assert mean_per[(low,)] > 0.2, curve
    assert mean_per[(high,)] == 0.0, curve


def test_criterion_6_matched_mmd_universality():
    # With a paired corpus the empirical targets satisfy PY_hat = PX_hat O
    # exactly, so kernel-discrepancy training must reach PER 0 on every
    # graph family at every sweep point, in at least 9 of 10 seeds per cell.
    for family in ("circulant", "de_bruijn", "hypercube"):
        cfg = default_config("finite_sample_phase", family=family)
        cfg = replace(cfg, matched=True, train=replace(cfg.train, epochs=500))
        assert cfg.train.objective == "mmd" and len(cfg.seeds) == 10
        rows = run_experiment(cfg, jobs=1)
        assert all(r["error"] == "" for r in rows)
        for (knob,), cell in _group(rows, "knob").items():
            zeros = sum(r["per"] == 0.0 for r in cell)
            assert zeros >= 9, (family, knob, sorted(r["per"] for r in cell))


def test_criterion_7_kernel_flow_convergence():
    # Kernel gradient flow, under the generator kernel H(O_t)^2 that moves
    # with O, on 20 random decipherable languages:
    # the Frobenius residual must fall below 1e-4 with a monotone squared
    # distance-to-target and a log-linear tail, one minute per trajectory.
    cfg = default_config("ntk_convergence")
    assert cfg.n_languages == 20 and cfg.L == 10
    rows = run_experiment(cfg, jobs=1)
    assert len(rows) == 20
    # every broken bound of every trajectory, so one failure names them all
    broken = []
    for r in rows:
        checks = {
            "error": r["error"] == "",
            "nx": r["nx"] <= 6,
            "residual": r["residual"] < 1e-4,
            "monotone": r["monotone"] == 1,
            "r_squared": r["r_squared"] >= 0.99,
            "slope": r["slope"] < 0.0,
            "wall_time": r["wall_time"] < 60.0,
        }
        broken += [(r["language_index"], r["nx"], name, r[name])
                   for name, ok in checks.items() if not ok]
    assert not broken, broken


def test_criterion_8_property_suites():
    # Pure property checks, no sweep harness involved.

    # (a) analytic gradients against central differences, every combination
    # of objective, discriminator, and generator-update mode
    rng = np.random.default_rng(7)
    L, nx, ny, h = 5, 3, 4, 1e-6
    PX = rng.dirichlet(np.ones(nx), size=L)
    PY = rng.dirichlet(np.ones(ny), size=L)
    for objective, kind, averaging in itertools.product(
            ("mmd", "jsd", "wasserstein"), ("linear", "mlp"),
            ("soft_input", "outside_cost")):
        combo = (objective, kind, averaging)
        gen = Generator(U=rng.normal(0, 0.5, size=(nx, ny)))
        if kind == "linear":
            disc = LinearPositionalDiscriminator(L, ny)
            disc.w[:] = rng.normal(0, 0.5, size=(L, ny))
        else:
            disc = PerStepMlpDiscriminator(L, ny, rng, hidden=16)

        def J(O):
            return objective_value(disc, objective, PX, PY, O, averaging)

        dU = generator_gradient(gen, disc, PX, objective, averaging)
        for x in range(nx):
            for y in range(ny):
                Up = gen.U.copy(); Up[x, y] += h
                Um = gen.U.copy(); Um[x, y] -= h
                fd = (_generator_payoff(disc, objective, PX, softmax(Up, axis=1), averaging)
                      - _generator_payoff(disc, objective, PX, softmax(Um, axis=1), averaging)) / (2 * h)
                denom = max(abs(fd), abs(dU[x, y]), 1e-8)
                assert abs(fd - dU[x, y]) / denom < 1e-4, combo

        grads = discriminator_gradient(disc, objective, PX, PY, gen.O, averaging)
        for p, g in zip(disc.params(), grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for i in rng.choice(flat_p.size, size=min(25, flat_p.size), replace=False):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = J(gen.O)
                flat_p[i] = orig - h
                down = J(gen.O)
                flat_p[i] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(flat_g[i]), 1e-8)
                assert abs(fd - flat_g[i]) / denom < 1e-4, combo

    # (b) softmax Jacobian: symmetric PSD with the all-ones null direction
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        p = softmax(rng.normal(0, 2, size=dim))
        H = softmax_jacobian(p)
        assert np.max(np.abs(H - H.T)) < 1e-15
        assert np.max(np.abs(H @ np.ones(dim))) < 1e-12
        assert np.min(np.linalg.eigvalsh(H)) > -1e-12

    # (c) per-position discriminator kernel closed form against Monte Carlo
    # at 10^7 Gaussian draws: both entries to three significant digits
    K = discriminator_ntk(4)
    rng = np.random.default_rng(123)
    n = 10_000_000
    s_sq = s_pos = s_cross = 0.0
    done = 0
    while done < n:
        m = min(1_000_000, n - done)
        w = rng.normal(0.0, 1.0, size=(m, 2))
        r = np.maximum(w, 0.0)
        s_sq += float(np.sum(r[:, 0] ** 2))
        s_pos += float(np.sum(w[:, 0] > 0))
        s_cross += float(np.sum(r[:, 0] * r[:, 1]))
        done += m
    diag_mc = s_pos / n + s_sq / n
    off_mc = s_cross / n
    assert abs(diag_mc - K[0, 0]) / K[0, 0] < 1e-3
    assert abs(off_mc - K[0, 1]) / K[0, 1] < 1e-3
    off = K[0, 1]
    assert np.allclose(K, off * np.ones((4, 4)) + (1 - off) * np.eye(4), atol=1e-15)

    # (d) determinism and row-stochasticity invariants
    lang = HmmLanguage(
        pi=np.array([0.85, 0.05, 0.05, 0.05]),
        T=TransitionMatrix(hamiltonian_cycle_matrix([1, 2, 3, 0]), reversible=False),
        O=random_permutation_emission(4, 3), N=1, nx=4, ny=4,
    )
    c1 = sample_corpus(lang, n_sequences=500, L=8, matched=False, seed=9)
    c2 = sample_corpus(lang, n_sequences=500, L=8, matched=False, seed=9)
    assert np.array_equal(c1.speech, c2.speech) and np.array_equal(c1.text, c2.text)
    pair = empirical_positional_unigrams(c1)
    cfg = TrainConfig(objective="jsd", epochs=30)
    r1 = train(pair, cfg, true_O=lang.O, rngs=[np.random.default_rng(5)])
    r2 = train(pair, cfg, true_O=lang.O, rngs=[np.random.default_rng(5)])
    assert r1.trace == r2.trace
    assert np.array_equal(r1.generator.O, r2.generator.O)
    assert np.max(np.abs(r1.generator.O.sum(axis=1) - 1.0)) < 1e-12
    assert np.min(r1.generator.O) >= 0.0

    # (e) conditioning lower bound: never above the true sigma_min on 1000
    # random reversible languages (duplicate-eigenvalue draws are skipped)
    rng = np.random.default_rng(4022)
    tested = violations = 0
    for t in range(1000):
        K_units = int(rng.integers(2, 6))
        L_bound = int(rng.integers(K_units + 1, 13))
        lang = HmmLanguage(
            pi=random_initial_vector(K_units, [19, t]),
            T=random_reversible_chain(K_units, [17, t]),
            O=random_permutation_emission(K_units, [23, t]),
            N=1, nx=K_units, ny=K_units,
        )
        try:
            bound = sigma_min_lower_bound(lang, L_bound)
        except NotApplicable:
            continue
        tested += 1
        actual = sigma_min(exact_positional_unigrams(lang, L_bound).PX)
        violations += not (0.0 <= bound <= actual + 1e-8)
    assert violations == 0
    assert tested >= 950

    # (f) closed-form spectra against a dense symmetric eigensolver on the
    # reversible graphs, and containment in the candidate set for the
    # non-reversible shift construction
    for T in (build_circulant(5, (-1, 1)), build_circulant(12, (-1, 1, -3, 3)),
              build_hypercube(5)):
        rep = spectrum_of_chain(T)
        w, _ = symmetric_eigen(symmetrized_form(T.weights))
        assert np.allclose(np.sort(rep.eigenvalues), w, atol=1e-8)
    for k, m in ((2, 2), (2, 3), (3, 2), (2, 6)):
        rep = spectrum_of_chain(build_debruijn(k, m))
        cands = debruijn_candidate_values(m)
        for v in rep.eigenvalues:
            assert np.min(np.abs(cands - v)) < 1e-8


def test_criterion_9_reset_ablation_direction():
    # Re-initializing the discriminator before each critic phase should not
    # hurt on hard instances: at the three worst-conditioned circulant
    # cells, mean PER with resets must be <= mean PER without in at least
    # 2 of the 3 cells.
    cfg = default_config("reset_ablation")
    assert cfg.train.objective == "jsd" and len(cfg.seeds) == 10
    assert len(cfg.knob_values) == 3
    rows = run_experiment(cfg, jobs=1)
    assert all(r["error"] == "" for r in rows)
    assert len(rows) == 2 * len(cfg.knob_values) * len(cfg.seeds)

    wins = 0
    table = {}
    for knob in cfg.knob_values:
        cells = _group([r for r in rows if r["knob"] == knob], "variant")
        m_reset = float(np.mean([r["per"] for r in cells[("reset",)]]))
        m_none = float(np.mean([r["per"] for r in cells[("no_reset",)]]))
        table[knob] = (m_reset, m_none)
        wins += m_reset <= m_none
    assert wins >= 2, table
