from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from decipher.experiments import asymptotic_language
from decipher.graphs import TransitionMatrix, build_circulant
from decipher.hmm import (
    HmmLanguage,
    PositionalUnigramPair,
    exact_positional_unigrams,
    random_initial_vector,
    random_permutation_emission,
)
from decipher.recovery import brute_force_oracle, phoneme_error_rate, recover_pseudoinverse


def directed_cycle_language(n, seed, O=None):
    T = build_circulant(n, (1,))
    pi = random_initial_vector(n, seed)
    if O is None:
        O = random_permutation_emission(n, seed + 100)
    return HmmLanguage(pi=pi, T=T, O=O, N=1, nx=n, ny=n)


def test_exact_recovery_on_decipherable_language():
    lang = directed_cycle_language(4, seed=0)
    pair = exact_positional_unigrams(lang, 8)
    rec = recover_pseudoinverse(pair)
    npt.assert_allclose(rec.O_hat, lang.O, atol=1e-8)
    assert rec.residual <= 1e-10
    assert not rec.rank_deficient
    npt.assert_array_equal(rec.decoded, np.argmax(lang.O, axis=1))


def test_identity_emission_recovers_identity():
    lang = directed_cycle_language(5, seed=3, O=np.eye(5))
    pair = exact_positional_unigrams(lang, 10)
    rec = recover_pseudoinverse(pair)
    npt.assert_allclose(rec.O_hat, np.eye(5), atol=1e-8)


def test_stationary_rank_deficient_minimum_norm():
    T = build_circulant(4, (-1, 1))
    stat = T.weights.sum(axis=1) / T.weights.sum()
    stationary = HmmLanguage(pi=stat, T=T, O=np.eye(4), N=1, nx=4, ny=4)
    # tiled C_3 copies: 2 distinct eigenvalues for 10 units
    tiled = asymptotic_language("circulant", nx=10, knob=2, ngram=2, seed=1)
    for lang, L in ((stationary, 8), (tiled, 20)):
        pair = exact_positional_unigrams(lang, L)
        rec = recover_pseudoinverse(pair)
        assert rec.rank_deficient
        # solution is non-unique but still reproduces the data
        assert rec.residual <= 1e-12


def test_oracle_unique_on_decipherable_language():
    lang = directed_cycle_language(4, seed=7)
    pair = exact_positional_unigrams(lang, 8)
    hits = brute_force_oracle(pair)
    assert len(hits) == 1
    npt.assert_allclose(hits[0], lang.O, atol=0)


def test_oracle_multiple_on_symmetric_stationary():
    T = build_circulant(3, (-1, 1))
    lang = HmmLanguage(pi=np.full(3, 1 / 3), T=T, O=np.eye(3), N=1, nx=3, ny=3)
    pair = exact_positional_unigrams(lang, 6)
    hits = brute_force_oracle(pair)
    assert len(hits) > 1


def test_oracle_trivial_and_caps():
    pair = PositionalUnigramPair(PX=np.ones((3, 1)), PY=np.ones((3, 1)))
    hits = brute_force_oracle(pair)
    assert len(hits) == 1
    npt.assert_array_equal(hits[0], [[1.0]])

    big = PositionalUnigramPair(PX=np.full((2, 9), 1 / 9), PY=np.full((2, 9), 1 / 9))
    with pytest.raises(ValueError):
        brute_force_oracle(big)


def two_state_language(seed):
    T = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]), reversible=False)
    pi = random_initial_vector(2, seed)
    return HmmLanguage(pi=pi, T=T, O=random_permutation_emission(2, seed + 100), N=1, nx=2, ny=2)


def test_oracle_agrees_with_pseudoinverse_small_grid():
    for n in [2, 3, 4, 5]:
        for seed in range(6):
            lang = two_state_language(seed) if n == 2 else directed_cycle_language(n, seed=seed)
            pair = exact_positional_unigrams(lang, 2 * n)
            hits = brute_force_oracle(pair)
            rec = recover_pseudoinverse(pair)
            if len(hits) == 1:
                npt.assert_array_equal(rec.decoded, np.argmax(hits[0], axis=1))
            # least-squares optimality against every passing permutation
            for G in hits:
                assert rec.residual <= np.linalg.norm(pair.PX @ G - pair.PY) + 1e-9


def test_phoneme_error_rate_counting():
    true_O = np.eye(4)
    assert phoneme_error_rate(np.array([0, 1, 2, 3]), true_O) == 0.0
    assert phoneme_error_rate(np.array([1, 2, 3, 0]), true_O) == 1.0
    assert phoneme_error_rate(np.array([0, 1, 2, 0]), true_O) == 0.25
    # the plain mean, not a sum of per-unit weights: 7 misses in 10 units
    # are 0.7, where summing seven 0.1s gives 0.7000000000000001
    assert phoneme_error_rate(np.array([1, 2, 3, 4, 5, 6, 0, 7, 8, 9]), np.eye(10)) == 0.7


def test_phoneme_error_rate_validates_the_unit_count():
    with pytest.raises(ValueError):
        phoneme_error_rate(np.array([0, 1, 0]), np.eye(2))


def test_recovery_from_nonsquare_emission():
    # |Y| > |X|: stochastic wide emission, still exactly recoverable at full rank
    rng = np.random.default_rng(5)
    T = build_circulant(4, (1,))
    pi = random_initial_vector(4, 11)
    O = rng.uniform(0.1, 1.0, size=(4, 6))
    O /= O.sum(axis=1, keepdims=True)
    lang = HmmLanguage(pi=pi, T=T, O=O, N=1, nx=4, ny=6)
    pair = exact_positional_unigrams(lang, 8)
    rec = recover_pseudoinverse(pair)
    npt.assert_allclose(rec.O_hat, O, atol=1e-8)
