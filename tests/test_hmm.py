from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from decipher.graphs import GraphSpec, assemble, build_circulant, interpolate_with_hamiltonian
from decipher.hmm import (
    UNMATCHED_SEED_SPLIT,
    Corpus,
    HmmLanguage,
    empirical_positional_unigrams,
    exact_positional_unigrams,
    final_unit_selector,
    load_corpus,
    random_initial_vector,
    random_permutation_emission,
    sample_corpus,
    save_corpus,
    _emit_text,
    _expand_states,
    _sample_state_paths,
)


def make_language(n_units=5, N=1, seed=0, graph=None):
    T = graph if graph is not None else build_circulant(n_units**N, (-1, 1))
    pi = random_initial_vector(n_units**N, seed)
    O = random_permutation_emission(n_units, seed + 1)
    return HmmLanguage(pi=pi, T=T, O=O, N=N, nx=n_units, ny=n_units)


def test_random_initial_vector_contract():
    npt.assert_array_equal(random_initial_vector(1, 7), [1.0])
    a = random_initial_vector(6, 42)
    b = random_initial_vector(6, 42)
    npt.assert_array_equal(a, b)
    for seed in range(1000):
        v = random_initial_vector(4, seed)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(v > 0.0)
        assert np.all(v < 1.0)


def test_random_permutation_emission_contract():
    npt.assert_array_equal(random_permutation_emission(1, 3), [[1.0]])
    P = random_permutation_emission(3, 11)
    npt.assert_array_equal(P.sum(axis=0), np.ones(3))
    npt.assert_array_equal(P.sum(axis=1), np.ones(3))
    npt.assert_allclose(P @ P.T, np.eye(3), atol=0)


def test_language_validation():
    T = build_circulant(4, (-1, 1))
    pi = np.full(4, 0.25)
    with pytest.raises(ValueError):
        HmmLanguage(pi=np.array([0.5, 0.5, 0.1, 0.0]), T=T, O=np.eye(4), N=1, nx=4, ny=4)
    with pytest.raises(ValueError):
        HmmLanguage(pi=pi, T=T, O=np.full((4, 4), 0.3), N=1, nx=4, ny=4)
    with pytest.raises(ValueError):
        HmmLanguage(pi=pi, T=T, O=np.eye(4), N=2, nx=4, ny=4)  # dim must be nx**N


def test_selector_sums_leading_digits():
    # 9-state distribution over 2-grams of a 3-letter alphabet: selector
    # marginalizes the leading unit, keeping the final one.
    dist = np.arange(9, dtype=float)
    dist /= dist.sum()
    sel = final_unit_selector(dist, 3)
    npt.assert_allclose(sel, [dist[[0, 3, 6]].sum(), dist[[1, 4, 7]].sum(), dist[[2, 5, 8]].sum()])


def test_exact_unigrams_row0_and_identity_emission():
    lang = make_language(n_units=5, seed=3)
    pair = exact_positional_unigrams(lang, 6)
    npt.assert_allclose(pair.PX[0], final_unit_selector(lang.pi, 5), atol=1e-15)
    npt.assert_allclose(pair.PX @ lang.O, pair.PY, atol=1e-12)
    assert pair.exact

    ident = HmmLanguage(pi=lang.pi, T=lang.T, O=np.eye(5), N=1, nx=5, ny=5)
    pair2 = exact_positional_unigrams(ident, 6)
    npt.assert_array_equal(pair2.PX, pair2.PY)


def test_exact_unigrams_match_matrix_power_oracle():
    lang = make_language(n_units=4, N=2, seed=9, graph=build_circulant(16, (-1, 1)))
    L = 5
    pair = exact_positional_unigrams(lang, L)
    for k in range(L):
        dist = lang.pi @ np.linalg.matrix_power(lang.T.probs, k)
        npt.assert_allclose(pair.PX[k], final_unit_selector(dist, 4), atol=1e-12)


def test_stationary_pi_gives_constant_rows():
    T = build_circulant(6, (-1, 1))
    stat = T.weights.sum(axis=1) / T.weights.sum()
    lang = HmmLanguage(pi=stat, T=T, O=np.eye(6), N=1, nx=6, ny=6)
    pair = exact_positional_unigrams(lang, 8)
    for k in range(1, 8):
        npt.assert_allclose(pair.PX[k], pair.PX[0], atol=1e-12)


def test_sample_corpus_matched_permutation_consistency():
    lang = make_language(n_units=5, seed=21)
    corpus = sample_corpus(lang, 50, 12, matched=True, seed=5)
    perm = np.argmax(lang.O, axis=1)
    npt.assert_array_equal(corpus.text, perm[corpus.speech])
    assert corpus.matched
    assert corpus.speech.shape == (50, 12)


def test_sample_corpus_determinism_and_unmatched_split():
    lang = make_language(n_units=5, N=2, seed=2, graph=build_circulant(25, (-1, 1)))
    a = sample_corpus(lang, 20, 6, matched=True, seed=77)
    b = sample_corpus(lang, 20, 6, matched=True, seed=77)
    npt.assert_array_equal(a.speech, b.speech)
    npt.assert_array_equal(a.text, b.text)
    assert a.speech.shape == (20, 12)  # L*N columns

    u = sample_corpus(lang, 20, 6, matched=False, seed=77)
    assert not u.matched
    # unmatched text comes from an independent stream, so it is not the
    # emission of the speech side
    perm = np.argmax(lang.O, axis=1)
    assert not np.array_equal(u.text, perm[u.speech])
    u2 = sample_corpus(lang, 20, 6, matched=False, seed=77)
    npt.assert_array_equal(u.text, u2.text)


def test_unmatched_corpus_equals_the_two_full_corpora_recipe():
    # the unmatched corpus skips the text of its first child corpus; that
    # emission was the last draw from its stream, so both sides keep the
    # bytes of the recipe that sampled two full corpora
    lang = make_language(n_units=4, N=2, seed=3, graph=build_circulant(16, (-1, 1, 3)))
    lang.O = 0.7 * lang.O + 0.3 / 4  # a noisy emission, so text draws vary

    def full_corpus(child_seed):
        rng = np.random.default_rng(child_seed)
        speech = _expand_states(_sample_state_paths(lang, 30, 7, rng), lang.nx, lang.N)
        return speech, _emit_text(speech, lang.O, rng)

    for seed in (0, 77):
        speech, _ = full_corpus(seed)
        _, text = full_corpus(seed + UNMATCHED_SEED_SPLIT)
        corpus = sample_corpus(lang, 30, 7, matched=False, seed=seed)
        npt.assert_array_equal(corpus.speech, speech)
        npt.assert_array_equal(corpus.text, text)


def test_deterministic_cycle_paths_identical():
    base = build_circulant(4, (-1, 1))
    cyc = interpolate_with_hamiltonian(base, w=1.0)
    pi = np.zeros(4)
    pi[2] = 1.0
    lang = HmmLanguage(pi=pi, T=cyc, O=np.eye(4), N=1, nx=4, ny=4)
    corpus = sample_corpus(lang, 8, 6, matched=True, seed=1)
    for row in corpus.speech:
        npt.assert_array_equal(row, corpus.speech[0])
    npt.assert_array_equal(corpus.speech[0], [2, 3, 0, 1, 2, 3])


def test_empirical_single_sequence_one_hot():
    speech = np.array([[3, 1, 0, 2]])
    text = np.array([[3, 1, 0, 2]])
    corpus = Corpus(speech=speech, text=text, matched=True, seed=0, N=1, L=4, nx=4, ny=4)
    pair = empirical_positional_unigrams(corpus)
    npt.assert_array_equal(pair.PX[0], [0, 0, 0, 1])
    npt.assert_array_equal(pair.PX[2], [1, 0, 0, 0])
    assert not pair.exact
    assert pair.n_speech == 1


def test_empirical_identity_emission_matches():
    lang = make_language(n_units=4, seed=13)
    ident = HmmLanguage(pi=lang.pi, T=lang.T, O=np.eye(4), N=1, nx=4, ny=4)
    corpus = sample_corpus(ident, 200, 5, matched=True, seed=3)
    pair = empirical_positional_unigrams(corpus)
    npt.assert_array_equal(pair.PX, pair.PY)


def test_empirical_concentrates_to_exact():
    lang = make_language(n_units=5, seed=8)
    L, n = 10, 2000
    corpus = sample_corpus(lang, n, L, matched=True, seed=123)
    emp = empirical_positional_unigrams(corpus)
    exact = exact_positional_unigrams(lang, L)
    err = np.linalg.norm(emp.PX - exact.PX)
    assert err <= 3.0 * np.sqrt(L * 5 / n)
    # rows are exact counts over n
    counts = emp.PX * n
    npt.assert_allclose(counts, np.round(counts), atol=1e-9)


def test_empirical_block_position_matches_selector_convention():
    # N=2: the extracted unit must be the block's final unit (sequence index
    # k*N + N - 1), which is what the exact recursion computes. Extracting
    # the block-leading unit instead would not concentrate to exact PX here.
    T = assemble(GraphSpec(family="circulant", n=9, action_set=(-1, 1)), 9)
    pi = random_initial_vector(9, 4)
    lang = HmmLanguage(pi=pi, T=T, O=random_permutation_emission(3, 5), N=2, nx=3, ny=3)
    L, n = 5, 6000
    corpus = sample_corpus(lang, n, L, matched=True, seed=6)
    emp = empirical_positional_unigrams(corpus)
    exact = exact_positional_unigrams(lang, L)
    assert np.linalg.norm(emp.PX - exact.PX) <= 3.0 * np.sqrt(L * 3 / n)

    leading = np.zeros_like(exact.PX)
    for k in range(L):
        col = corpus.speech[:, k * 2]
        leading[k] = np.bincount(col, minlength=3) / n
    assert np.linalg.norm(leading - exact.PX) > 3.0 * np.sqrt(L * 3 / n)


def test_corpus_roundtrip(tmp_path):
    lang = make_language(n_units=5, seed=30)
    corpus = sample_corpus(lang, 12, 7, matched=False, seed=9)
    save_corpus(corpus, tmp_path)
    back = load_corpus(tmp_path)
    npt.assert_array_equal(back.speech, corpus.speech)
    npt.assert_array_equal(back.text, corpus.text)
    assert back.matched == corpus.matched
    assert back.seed == corpus.seed
    assert (back.N, back.L, back.nx, back.ny) == (corpus.N, corpus.L, corpus.nx, corpus.ny)
