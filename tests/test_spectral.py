from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from decipher.graphs import (
    GraphSpec,
    TransitionMatrix,
    assemble,
    build_circulant,
    build_debruijn,
    build_hypercube,
    hamiltonian_cycle_matrix,
    interpolate_with_hamiltonian,
    sweep_memo,
)
from decipher.experiments import default_config, finite_language
from decipher.hmm import (
    HmmLanguage,
    PositionalUnigramPair,
    exact_positional_unigrams,
    random_initial_vector,
)
from decipher.recovery import recover_pseudoinverse
from decipher.spectral import (
    NonReversibleNoClosedForm,
    NotApplicable,
    circulant_eigenvalues,
    debruijn_candidate_values,
    distinct_eigenvalues,
    hypercube_eigenvalues,
    sample_size_threshold,
    sigma_min,
    sigma_min_lower_bound,
    singular_values,
    spectrum_of_chain,
    symmetric_eigen,
    symmetrized_form,
)


def random_reversible_language(K, seed, low=0.05):
    rng = np.random.default_rng(seed)
    W = rng.uniform(low, 1.0, size=(K, K))
    W = (W + W.T) / 2
    T = TransitionMatrix(W / W.sum(axis=1, keepdims=True), reversible=True, weights=W)
    pi = rng.uniform(low, 1.0, size=K)
    pi /= pi.sum()
    O = np.eye(K)[rng.permutation(K)]
    return HmmLanguage(pi=pi, T=T, O=O, N=1, nx=K, ny=K)


# ---------------------------------------------------------------- eigensolver


def test_symmetric_eigen_identity_and_swap():
    w, V = symmetric_eigen(np.eye(3))
    npt.assert_allclose(w, [1.0, 1.0, 1.0])
    w2, _ = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(w2, [-1.0, 1.0], atol=1e-12)


def test_symmetric_eigen_contract_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        M = rng.normal(size=(12, 12))
        M = (M + M.T) / 2
        w, V = symmetric_eigen(M)
        assert np.all(np.diff(w) >= -1e-12)
        npt.assert_allclose(V @ V.T, np.eye(12), atol=1e-8)
        recon = V @ np.diag(w) @ V.T
        assert np.linalg.norm(recon - M) <= 1e-8 * max(np.linalg.norm(M), 1.0)


def test_symmetric_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_symmetric_eigen_rejects_nan():
    # |NaN - 0.5| > tol is False, and eigh would return finite eigenvalues
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen(np.array([[np.nan, 0.5], [0.5, 1.0]]))


def test_symmetrized_form_rejects_a_nan_degree():
    W = np.array([[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="positive"):
        symmetrized_form(W)


def test_distinct_eigenvalues_rejects_nan():
    # a NaN radius made a NaN tolerance and one group with a NaN mean
    with pytest.raises(ValueError, match="finite"):
        distinct_eigenvalues(np.array([np.nan, 0.5, 1.0]))


def test_symmetric_eigen_hypercube_q3():
    S = symmetrized_form(build_hypercube(3).weights)
    w, _ = symmetric_eigen(S)
    expected = np.sort(hypercube_eigenvalues(3))
    npt.assert_allclose(w, expected, atol=1e-8)
    vals, counts = np.unique(np.round(w, 6), return_counts=True)
    npt.assert_allclose(vals, [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], atol=1e-6)
    npt.assert_array_equal(counts, [1, 3, 3, 1])


@pytest.mark.parametrize("dim", range(1, 17))
def test_hypercube_eigenvalues_count_set_bits(dim):
    loop = 1.0 - 2.0 * np.array([bin(k).count("1") for k in range(2**dim)]) / dim
    assert hypercube_eigenvalues(dim).tobytes() == loop.tobytes()


def test_cluster_eigenvalues_merges():
    groups, reps, tol = distinct_eigenvalues(np.array([0.0, 1e-9, 0.5, 1.0, 1.0 - 1e-9]))
    assert tol == 1e-7  # the shared tolerance at radius 1
    assert len(groups) == 3
    npt.assert_allclose(np.sort(reps), [5e-10, 0.5, 1.0 - 5e-10])


# ------------------------------------------------------------------- spectra


def test_c5_spectrum_closed_form():
    rep = spectrum_of_chain(build_circulant(5, (-1, 1)))
    assert rep.distinct_count == 3
    expected = {1.0, np.cos(2 * np.pi / 5), np.cos(4 * np.pi / 5)}
    for v in expected:
        assert np.min(np.abs(rep.eigenvalues - v)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 12, 39, 100])
def test_circulant_closed_form_matches_numeric(n):
    rng = np.random.default_rng(n)
    for size in range(1, n // 2 + 1, max(1, n // 8)):
        half = rng.choice(np.arange(1, n // 2 + 1), size=size, replace=False)
        action_set = sorted({int(a) for a in half} | {n - int(a) for a in half})
        w, _ = symmetric_eigen(symmetrized_form(build_circulant(n, action_set).weights))
        closed = np.sort(circulant_eigenvalues(n, action_set))
        assert np.max(np.abs(closed - np.sort(w))) <= 1e-12


def test_q2_spectrum_counts_and_gap():
    rep = spectrum_of_chain(build_hypercube(2))
    assert rep.distinct_count == 3
    npt.assert_allclose(np.sort(rep.eigenvalues), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_union_spectrum_shares_selfloop_eigenvalue():
    T = assemble(GraphSpec(family="circulant", n=5, action_set=(-1, 1)), 12)
    rep = spectrum_of_chain(T)
    assert rep.distinct_count == 3
    assert rep.eigenvalues.shape == (12,)


def test_union_spectrum_matches_full_numeric():
    T = assemble(GraphSpec(family="de_bruijn", k=2, m=2), 11)
    rep = spectrum_of_chain(T)
    w, _ = symmetric_eigen(symmetrized_form(T.weights))
    npt.assert_allclose(np.sort(rep.eigenvalues), w, atol=1e-8)


@pytest.mark.parametrize("spec", [
    GraphSpec(family="circulant", n=5, action_set=(1, 4)),
    GraphSpec(family="circulant", n=12, action_set=(-1, 1, -3, 3)),
    GraphSpec(family="de_bruijn", k=2, m=3),
    GraphSpec(family="hypercube", dim=3),
], ids=lambda spec: spec.family)
@pytest.mark.parametrize("states", [48, 50])
@pytest.mark.parametrize("relabelled", [False, True], ids=["consecutive", "relabelled"])
def test_union_spectrum_equals_grouping_the_tiled_list(spec, states, relabelled):
    # grouped over the subgraph's values, the counts equal those of every S
    # tiled value, inside a sweep's memo (twice, the second from the memo) and
    # outside it; each subgraph leaves fillers at one of 48 and 50 states only
    relabel = np.random.default_rng(states).permutation(states) if relabelled else None
    T = assemble(spec, states, relabel=relabel)
    sub = spectrum_of_chain(T.tiling.sub).eigenvalues
    tiled = np.concatenate([np.tile(sub, T.tiling.copies), np.ones(T.tiling.fillers.size)])
    _, reps, tol = distinct_eigenvalues(tiled)
    with sweep_memo():
        reports = [spectrum_of_chain(T), spectrum_of_chain(T)]
    for rep in reports + [spectrum_of_chain(T)]:
        assert rep.distinct_count == len(reps)
        assert rep.nonzero_distinct_count == int(np.sum(np.abs(reps) > tol))
        npt.assert_array_equal(rep.eigenvalues, np.sort(tiled))


@pytest.mark.parametrize("dim", range(1, 17))
def test_hypercube_spectrum_by_count_is_the_sorted_grouping(dim):
    # the level counts give the bytes and counts that sorting and grouping
    # hypercube_eigenvalues gives, untiled and tiled with fillers
    per_node = hypercube_eigenvalues(dim)
    _, reps, tol = distinct_eigenvalues(per_node)
    rep = spectrum_of_chain(build_hypercube(dim))
    assert rep.eigenvalues.tobytes() == np.sort(per_node).tobytes()
    assert (rep.distinct_count, rep.nonzero_distinct_count) == (
        len(reps), int(np.sum(np.abs(reps) > tol)))
    tiled = spectrum_of_chain(assemble(GraphSpec(family="hypercube", dim=dim), 2**dim * 3 + 1))
    assert tiled.eigenvalues.tobytes() == np.sort(np.r_[np.tile(per_node, 3), 1.0]).tobytes()
    assert (tiled.distinct_count, tiled.nonzero_distinct_count) == (
        rep.distinct_count, rep.nonzero_distinct_count)


def test_closed_forms_match_numeric_small_graphs():
    for T in [build_circulant(5, (-1, 1)), build_circulant(12, (-1, 1, -3, 3)), build_hypercube(5)]:
        rep = spectrum_of_chain(T)
        w, _ = symmetric_eigen(symmetrized_form(T.weights))
        npt.assert_allclose(np.sort(rep.eigenvalues), w, atol=1e-8)


def test_debruijn_containment_in_candidate_set():
    for k, m in [(2, 2), (2, 3), (3, 2), (2, 6)]:
        rep = spectrum_of_chain(build_debruijn(k, m))
        cands = debruijn_candidate_values(m)
        for v in rep.eigenvalues:
            assert np.min(np.abs(cands - v)) < 1e-8


def test_spectrum_values_within_unit_interval():
    for T in [build_circulant(9, (-1, 1)), build_debruijn(2, 4), build_hypercube(4)]:
        rep = spectrum_of_chain(T)
        assert np.max(np.abs(rep.eigenvalues)) <= 1.0 + 1e-9
        assert rep.distinct_count <= T.n_states


def test_interpolated_chain_has_no_spectrum_route():
    T = interpolate_with_hamiltonian(build_circulant(6, (-1, 1)), w=0.3)
    with pytest.raises(NonReversibleNoClosedForm):
        spectrum_of_chain(T)


@pytest.mark.parametrize("T", [
    build_circulant(4, (1,)),
    assemble(GraphSpec(family="circulant", n=5, action_set=(1, 2)), 12),
], ids=["directed_c4", "tiled_directed"])
def test_directed_circulant_has_no_spectrum_route(T):
    # a closed form exists, but only reversible chains get a spectrum
    assert T.spec is not None and not T.reversible
    with pytest.raises(NonReversibleNoClosedForm):
        spectrum_of_chain(T)


# ------------------------------------------------------------------ sigma_min


def test_sigma_min_identity_padded():
    PX = np.vstack([np.eye(3), np.zeros((2, 3))])
    assert sigma_min(PX) == pytest.approx(1.0)


def test_sigma_min_duplicated_rows_zero():
    PX = np.array([[0.2, 0.8], [0.2, 0.8]])
    assert sigma_min(PX) <= 1e-8
    pair = PositionalUnigramPair(PX=PX, PY=PX)
    assert recover_pseudoinverse(pair).rank_deficient
    # fewer rows than columns: a null space, so exactly zero
    wide = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    assert sigma_min(wide) == 0.0
    npt.assert_allclose(singular_values(wide)[:2], np.linalg.svd(wide, compute_uv=False))


def _inverse_iteration_sigma(PX, iters=2000):
    # independent oracle: inverse iteration on the Gram matrix
    G = PX.T @ PX
    x = np.full(G.shape[0], 1.0 / np.sqrt(G.shape[0]))
    for _ in range(iters):
        x = np.linalg.solve(G, x)
        x /= np.linalg.norm(x)
    return float(np.sqrt(x @ G @ x))


def test_sigma_min_matches_inverse_iteration():
    rng = np.random.default_rng(17)
    for _ in range(5):
        PX = rng.uniform(0.1, 1.0, size=(9, 4))
        PX /= PX.sum(axis=1, keepdims=True)
        assert sigma_min(PX) == pytest.approx(_inverse_iteration_sigma(PX), abs=1e-6)


def test_sigma_min_matches_svd_on_criterion_5_exact_matrices():
    # near-degenerate matrices: sigma_min sits far below the roundoff floor of PX^T PX
    cfg = default_config("finite_sample_phase", family="circulant")
    for knob in cfg.knob_values:
        lang = finite_language("circulant", cfg.nx_values[0], knob, cfg.ngram, seed=0)
        PX = exact_positional_unigrams(lang, cfg.L).PX
        s = np.linalg.svd(PX, compute_uv=False)
        assert abs(sigma_min(PX) - s[-1]) <= 1e-14 * s[0], knob


# --------------------------------------------------------- decipherability


def test_decipherability_directed_cycle_all_good():
    T = build_circulant(4, (1,))
    pi = np.array([0.85, 0.05, 0.05, 0.05])
    lang = HmmLanguage(pi=pi, T=T, O=np.eye(4), N=1, nx=4, ny=4)
    with pytest.raises(NonReversibleNoClosedForm):
        spectrum_of_chain(T)
    pair = exact_positional_unigrams(lang, 8)
    assert sigma_min(pair.PX) > 1e-8
    assert not recover_pseudoinverse(pair).rank_deficient


def test_decipherability_uniform_pi_kills_assumption2():
    T = build_circulant(4, (1,))
    lang = HmmLanguage(pi=np.full(4, 0.25), T=T, O=np.eye(4), N=1, nx=4, ny=4)
    pair = exact_positional_unigrams(lang, 8)
    # uniform is stationary here: only the constant eigenvector survives, so
    # every row of PX is the same and PX has rank 1
    npt.assert_allclose(pair.PX, np.full((8, 4), 0.25), atol=1e-15)
    assert sigma_min(pair.PX) <= 1e-12
    assert recover_pseudoinverse(pair).rank_deficient


def test_decipherability_c3_too_few_eigenvalues():
    T = build_circulant(3, (-1, 1))
    lang = HmmLanguage(
        pi=random_initial_vector(3, 5), T=T, O=np.eye(3), N=1, nx=3, ny=3
    )
    assert spectrum_of_chain(T).nonzero_distinct_count == 2
    rec = recover_pseudoinverse(exact_positional_unigrams(lang, 6))
    assert rec.rank_deficient
    assert rec.residual <= 1e-12


def test_decipherability_q3_both_directions():
    T = build_hypercube(3)
    pi = random_initial_vector(8, 12)
    assert spectrum_of_chain(T).nonzero_distinct_count == 4
    two = HmmLanguage(pi=pi, T=T, O=np.eye(2), N=3, nx=2, ny=2)
    assert not recover_pseudoinverse(exact_positional_unigrams(two, 6)).rank_deficient  # 4 >= 2
    eight = HmmLanguage(pi=pi, T=T, O=np.eye(8), N=1, nx=8, ny=8)
    assert recover_pseudoinverse(exact_positional_unigrams(eight, 10)).rank_deficient  # 4 < 8


def test_stationary_language_sigma_zero():
    for K in [2, 4, 6]:
        T = build_circulant(K, (-1, 1)) if K > 2 else build_debruijn(2, 1)
        stat = T.weights.sum(axis=1) / T.weights.sum()
        lang = HmmLanguage(pi=stat, T=T, O=np.eye(K), N=1, nx=K, ny=K)
        pair = exact_positional_unigrams(lang, 2 * K)
        assert sigma_min(pair.PX) <= 1e-8


def test_generic_pi_full_rank_100_seeds():
    T = build_circulant(4, (1,))
    failures = 0
    for seed in range(100):
        pi = random_initial_vector(4, seed)
        lang = HmmLanguage(pi=pi, T=T, O=np.eye(4), N=1, nx=4, ny=4)
        pair = exact_positional_unigrams(lang, 8)
        if recover_pseudoinverse(pair).rank_deficient:
            failures += 1
    assert failures == 0


def test_decipherability_interpolated_flags_absent():
    # no spectrum route, but conditioning and recovery need none
    T = interpolate_with_hamiltonian(build_circulant(4, (-1, 1)), w=0.3)
    lang = HmmLanguage(pi=random_initial_vector(4, 3), T=T, O=np.eye(4), N=1, nx=4, ny=4)
    with pytest.raises(NonReversibleNoClosedForm):
        spectrum_of_chain(T)
    pair = exact_positional_unigrams(lang, 8)
    assert singular_values(pair.PX)[0] > 0
    assert recover_pseudoinverse(pair).residual <= 1e-12


# ------------------------------------------------------------ lower bound


def test_lower_bound_2state_example():
    # every 2-state chain is reversible; its symmetric weights are diag(p) T
    # for the stationary p = (2/3, 1/3)
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    T = TransitionMatrix(probs, reversible=True, weights=np.diag([2 / 3, 1 / 3]) @ probs)
    rng = np.random.default_rng(1)
    for _ in range(5):
        pi = rng.uniform(0.05, 1.0, size=2)
        pi /= pi.sum()
        lang = HmmLanguage(pi=pi, T=T, O=np.eye(2), N=1, nx=2, ny=2)
        bound = sigma_min_lower_bound(lang, 4)
        actual = sigma_min(exact_positional_unigrams(lang, 4).PX)
        assert 0.0 < bound <= actual + 1e-8


def test_lower_bound_rejects_a_directed_chain():
    # a lazy directed 3-cycle has distinct nonzero eigenvalues but no
    # symmetric weights, so the bound's assumptions fail
    probs = 0.5 * hamiltonian_cycle_matrix([1, 2, 0]) + 0.5 * np.eye(3)
    lang = HmmLanguage(pi=random_initial_vector(3, 1),
                       T=TransitionMatrix(probs, reversible=False), O=np.eye(3), N=1, nx=3, ny=3)
    with pytest.raises(NotApplicable):
        sigma_min_lower_bound(lang, 6)


def test_lower_bound_rejects_duplicate_eigenvalues():
    lang = HmmLanguage(
        pi=random_initial_vector(5, 2),
        T=build_circulant(5, (-1, 1)),
        O=np.eye(5),
        N=1,
        nx=5,
        ny=5,
    )
    with pytest.raises(NotApplicable):
        sigma_min_lower_bound(lang, 10)


def test_lower_bound_holds_on_1000_random_chains():
    rng = np.random.default_rng(20260816)
    tested = 0
    for _ in range(1000):
        K = int(rng.integers(2, 6))
        L = int(rng.integers(K + 1, 13))
        lang = random_reversible_language(K, int(rng.integers(0, 2**31)))
        try:
            bound = sigma_min_lower_bound(lang, L)
        except NotApplicable:
            continue
        tested += 1
        actual = sigma_min(exact_positional_unigrams(lang, L).PX)
        assert bound <= actual + 1e-8
        assert bound >= 0.0
    assert tested >= 990  # repeated eigenvalues are a measure-zero accident


# ------------------------------------------------------------- threshold


def test_threshold_simplifies_when_balanced():
    n, L, nx, ny, delta = 2560, 80, 10, 10, 0.05
    full = sample_size_threshold(n, n, L, nx, ny, delta)
    simple = np.sqrt(L * (8 * ny + nx) / n) + 10 * np.sqrt(L * np.log(1 / delta) / n)
    assert full == pytest.approx(simple, abs=1e-12)


def test_threshold_monotone_in_sample_sizes():
    base = sample_size_threshold(1000, 1000, 40, 8, 8, 0.05)
    assert sample_size_threshold(2000, 1000, 40, 8, 8, 0.05) < base
    assert sample_size_threshold(1000, 2000, 40, 8, 8, 0.05) < base
    assert sample_size_threshold(4000, 4000, 40, 8, 8, 0.05) < base


def test_threshold_rejects_bad_delta():
    with pytest.raises(ValueError):
        sample_size_threshold(100, 100, 10, 4, 4, 0.0)
    with pytest.raises(ValueError):
        sample_size_threshold(100, 100, 10, 4, 4, 1.0)
    with pytest.raises(ValueError):
        sample_size_threshold(0, 100, 10, 4, 4, 0.5)
