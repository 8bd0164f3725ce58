from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from decipher.experiments import finite_language
from decipher.graphs import (
    STATE_COUNT_CAP,
    GraphSpec,
    TransitionMatrix,
    assemble,
    build_circulant,
    build_debruijn,
    interpolate_with_hamiltonian,
)
from decipher.hmm import (
    UNMATCHED_SEED_SPLIT,
    Corpus,
    HmmLanguage,
    PositionalUnigramPair,
    empirical_positional_unigrams,
    exact_positional_unigrams,
    random_initial_vector,
    random_permutation_emission,
    sample_corpus,
    _emit_text,
    _positional_counts,
    _RowSampler,
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


def test_language_rejects_a_nan_initial_vector():
    # NaN < 0 and |NaN - 1| > tol are both False; the checks must still fail
    with pytest.raises(ValueError, match="pi must be a probability vector"):
        HmmLanguage(pi=np.array([np.nan, 0.5, 0.25, 0.25]), T=build_circulant(4, (-1, 1)),
                    O=np.eye(4), N=1, nx=4, ny=4)


def test_unigram_pair_rejects_nan():
    PX = np.full((3, 2), 0.5)
    PX[1, 0] = np.nan
    with pytest.raises(ValueError, match="PX rows must be probability vectors"):
        PositionalUnigramPair(PX=PX, PY=np.full((3, 2), 0.5))


def final_unit_marginal(dist, base):
    """Reference: a big-endian N-gram state distribution marginalized to its
    final unit, state mod base, as a reshape-and-sum."""
    return dist.reshape(-1, base).sum(axis=0)


def test_selector_sums_leading_digits():
    # 9-state distribution over 2-grams of a 3-letter alphabet: selector
    # marginalizes the leading unit, keeping the final one.
    dist = np.arange(9, dtype=float)
    dist /= dist.sum()
    sel = final_unit_marginal(dist, 3)
    npt.assert_allclose(sel, [dist[[0, 3, 6]].sum(), dist[[1, 4, 7]].sum(), dist[[2, 5, 8]].sum()])


def test_exact_unigrams_row0_and_identity_emission():
    lang = make_language(n_units=5, seed=3)
    pair = exact_positional_unigrams(lang, 6)
    npt.assert_allclose(pair.PX[0], final_unit_marginal(lang.pi, 5), atol=1e-15)
    npt.assert_allclose(pair.PX @ lang.O, pair.PY, atol=1e-12)

    ident = HmmLanguage(pi=lang.pi, T=lang.T, O=np.eye(5), N=1, nx=5, ny=5)
    pair2 = exact_positional_unigrams(ident, 6)
    npt.assert_array_equal(pair2.PX, pair2.PY)


def test_exact_unigrams_match_matrix_power_oracle():
    lang = make_language(n_units=4, N=2, seed=9, graph=build_circulant(16, (-1, 1)))
    L = 5
    pair = exact_positional_unigrams(lang, L)
    for k in range(L):
        dist = lang.pi @ np.linalg.matrix_power(lang.T.probs, k)
        npt.assert_allclose(pair.PX[k], final_unit_marginal(dist, 4), atol=1e-12)


@pytest.mark.parametrize("spec", [
    GraphSpec(family="circulant", n=5, action_set=(-1, 1)),
    GraphSpec(family="circulant", n=5, action_set=(1, 2)),
    GraphSpec(family="de_bruijn", k=2, m=3),
    GraphSpec(family="hypercube", dim=3),
])
def test_tiled_unigrams_match_dense_powers(spec):
    nx, N, L = 3, 3, 12
    states = nx**N
    T = assemble(spec, states, relabel=np.random.default_rng(1).permutation(states))
    assert T.tiling.fillers.size > 0
    lang = HmmLanguage(pi=random_initial_vector(states, 2), T=T,
                       O=random_permutation_emission(nx, 3), N=N, nx=nx, ny=nx)
    pair = exact_positional_unigrams(lang, L)
    # reference: pi T^k through the dense layout, final unit of each state
    ref = np.array([(lang.pi @ np.linalg.matrix_power(T.probs, k)).reshape(-1, nx).sum(axis=0)
                    for k in range(L)])
    npt.assert_allclose(pair.PX, ref, rtol=0, atol=1e-14)
    npt.assert_array_equal(pair.PY, pair.PX @ lang.O)


def test_tiled_chain_past_the_cap_gives_exact_unigrams_without_a_dense_layout():
    # 10 units, 4-grams: 10,000 states, 19 copies of Q_9 and 272 fillers
    nx, N, L = 10, 4, 6
    states = nx**N
    assert states > STATE_COUNT_CAP
    T = assemble(GraphSpec(family="hypercube", dim=9), states,
                 relabel=np.random.default_rng(4).permutation(states))
    lang = HmmLanguage(pi=random_initial_vector(states, 5), T=T,
                       O=random_permutation_emission(nx, 6), N=N, nx=nx, ny=nx)
    PX = exact_positional_unigrams(lang, L).PX
    # reference: a hypercube step averages the dim bit-flip neighbours of
    # each copy's nodes, position by position; fillers keep their mass
    blocks = T.tiling.blocks
    flips = [blocks[:, np.arange(512) ^ (1 << bit)] for bit in range(9)]
    dist, ref = lang.pi.copy(), []
    for k in range(L):
        ref.append(np.bincount(np.arange(states) % nx, weights=dist, minlength=nx))
        stepped = dist.copy()
        stepped[blocks] = np.mean([dist[f] for f in flips], axis=0)
        dist = stepped
    npt.assert_allclose(PX, ref, rtol=0, atol=1e-14)
    # the dense S x S layout is what the cap guards
    with pytest.raises(ValueError, match="state-count cap"):
        T.probs


def test_untiled_unigrams_keep_the_dense_loop():
    L = 9
    for T in (build_circulant(16, (1, 3)),
              interpolate_with_hamiltonian(build_debruijn(2, 4), w=0.3)):
        assert T.tiling is None
        lang = make_language(n_units=4, N=2, graph=T)
        dist, rows = lang.pi.copy(), []
        for k in range(L):
            rows.append(dist.reshape(-1, 4).sum(axis=0))
            dist = dist @ T.probs
        assert exact_positional_unigrams(lang, L).PX.tobytes() == np.array(rows).tobytes()
    # one copy of the same circulant, tiled with no relabel and no fillers,
    # steps through the subgraph to the same bytes
    circulant = build_circulant(16, (1, 3))
    tiled = assemble(circulant.spec, 16)
    assert tiled.tiling.copies == 1 and tiled.tiling.fillers.size == 0
    untiled_px, tiled_px = (
        exact_positional_unigrams(make_language(n_units=4, N=2, graph=T), L).PX
        for T in (circulant, tiled))
    assert tiled_px.tobytes() == untiled_px.tobytes()


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
    assert a.speech.shape == (20, 6)  # one selector unit per block

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
        speech = _sample_state_paths(lang, 30, 7, rng) % lang.nx
        return speech, _emit_text(speech, lang.O, lang.N, rng)

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
    corpus = Corpus(speech=speech, text=text, matched=True, L=4, nx=4, ny=4)
    pair = empirical_positional_unigrams(corpus)
    npt.assert_array_equal(pair.PX[0], [0, 0, 0, 1])
    npt.assert_array_equal(pair.PX[2], [1, 0, 0, 0])


def test_corpus_rejects_units_outside_the_alphabet():
    # the positional counts bin every position in one bincount, so a unit id
    # past the alphabet would land in the next position's bins
    good = np.array([[0, 3], [2, 1]])
    for bad_side in ("speech", "text"):
        for bad in (4, -1):
            sides = {"speech": good, "text": good}
            sides[bad_side] = np.array([[0, bad], [2, 1]])
            with pytest.raises(ValueError, match=bad_side):
                Corpus(**sides, matched=True, L=2, nx=4, ny=4)


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
    # N=2: the extracted unit must be the block's final unit (state mod |X|),
    # which is what the exact recursion computes. Extracting the
    # block-leading unit of the full N-gram strings instead would not
    # concentrate to exact PX here.
    T = assemble(GraphSpec(family="circulant", n=9, action_set=(-1, 1)), 9)
    pi = random_initial_vector(9, 4)
    lang = HmmLanguage(pi=pi, T=T, O=random_permutation_emission(3, 5), N=2, nx=3, ny=3)
    L, n = 5, 6000
    corpus = sample_corpus(lang, n, L, matched=True, seed=6)
    emp = empirical_positional_unigrams(corpus)
    exact = exact_positional_unigrams(lang, L)
    assert np.linalg.norm(emp.PX - exact.PX) <= 3.0 * np.sqrt(L * 3 / n)

    full_speech, _ = full_expansion_corpus(lang, n, L, matched=True, seed=6)
    leading = np.zeros_like(exact.PX)
    for k in range(L):
        col = full_speech[:, k * 2]
        leading[k] = np.bincount(col, minlength=3) / n
    assert np.linalg.norm(leading - exact.PX) > 3.0 * np.sqrt(L * 3 / n)


def brute_force_count(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reference inverse CDF: compare each u with its whole CDF row."""
    return (cum_rows < u[:, None]).sum(axis=1)


def oracle_draws(probs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """brute_force_count, with a draw above a row's last CDF value sent to the
    row's last column with positive probability, and a draw of 0 to its first."""
    cum = np.cumsum(probs, axis=1)
    count = brute_force_count(cum[rows], u)
    first = np.array([np.flatnonzero(row > 0)[0] for row in probs])
    last = np.array([np.flatnonzero(row > 0)[-1] for row in probs])
    count = np.where(u == 0.0, first[rows], count)
    return np.where(count == probs.shape[1], last[rows], count)


def probe_draws(probs: np.ndarray, M: int, rng: np.random.Generator):
    """Every row against every CDF value, its float neighbours, each bucket
    edge b/M and its neighbours, 0, the largest double below 1, and random u."""
    cum = np.cumsum(probs, axis=1)
    edges = np.arange(M) / M
    probes = []
    for r in range(probs.shape[0]):
        u = np.concatenate([cum[r], edges, [0.0, 1.0 - 2.0**-53], rng.random(200)])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        probes.append((np.full(u.shape, r), u))
    rows, u = (np.concatenate(part) for part in zip(*probes))
    return rows, u


def assert_sampler_matches_oracle(probs, seed=0):
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    sampler = _RowSampler(probs)
    rows, u = probe_draws(probs, sampler.M, np.random.default_rng(seed))
    npt.assert_array_equal(sampler.draw(rows, u), oracle_draws(probs, rows, u))


def test_row_sampler_leading_and_trailing_zeros():
    assert_sampler_matches_oracle([
        [0.0, 0.0, 0.2, 0.3, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
    ])


def test_row_sampler_cdf_values_on_bucket_edges():
    # every running sum is some b/M, so draws equal to a CDF value and to a
    # bucket edge coincide
    assert_sampler_matches_oracle([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5], [0.125, 0.375, 0.5]])


def test_row_sampler_one_crowded_bucket():
    p = np.zeros(64)
    p[3] = 0.3
    p[4:44] = 1e-7
    p[50] = 1.0 - p.sum()
    sampler = _RowSampler(p)
    cum = np.cumsum(p)
    assert len(set(np.floor(cum[3:44] * sampler.M))) == 1  # 41 CDF values in one bucket
    assert_sampler_matches_oracle(p)


def test_row_sampler_rows_off_one_by_1e_13():
    rng = np.random.default_rng(4)
    rows = rng.random((6, 30)) * (rng.random((6, 30)) < 0.5)
    rows[:, 7] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    for off in (1e-13, -1e-13):
        off_rows = rows.copy()
        off_rows[:, 7] += off
        assert_sampler_matches_oracle(off_rows, seed=1)


def test_row_sampler_random_rows_of_many_lengths():
    rng = np.random.default_rng(9)
    for S in (1, 2, 3, 10, 17, 100, 129):
        probs = rng.random((5, S)) ** 4 * (rng.random((5, S)) < 0.6)
        probs[:, 0] += 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        assert_sampler_matches_oracle(probs, seed=S)


def test_row_sampler_table_is_small():
    for S in (1, 5, 10, 64, 100, 300):
        sampler = _RowSampler(np.full((3, S), 1.0 / S))
        assert sampler.M & (sampler.M - 1) == 0  # a power of two
        assert sampler.pick.dtype == np.int32 and sampler.mixed.dtype == bool
        assert sampler.pick.nbytes + sampler.mixed.nbytes <= 10 * sampler.cum.nbytes


class TopDraws:
    """A generator stub whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_draws_above_a_short_cdf_take_the_last_positive_column():
    # every row sums to 1 - 5e-13, within validation, so the top draw lies
    # above its last CDF value
    short = 5e-13
    pi = np.array([0.1, 0.2, 0.7 - short, 0.0])
    T = np.zeros((4, 4))
    for r in range(4):
        T[r, r] = 0.5
        T[r, (r + 1) % 4] = 0.5 - short
    O = np.array([
        [0.5 - short, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0 - short, 0.0],
        [0.3, 0.0, 0.0, 0.7 - short],
        [1.0 - short, 0.0, 0.0, 0.0],
    ])
    lang = HmmLanguage(pi=pi, T=TransitionMatrix(T, reversible=False), O=O, N=1, nx=4, ny=4)
    # pi's last positive column is 2; rows 2 and 3 of T both end at column 3
    paths = _sample_state_paths(lang, 3, 5, TopDraws())
    npt.assert_array_equal(paths, np.tile([2, 3, 3, 3, 3], (3, 1)))
    text = _emit_text(np.array([[0, 1, 2, 3]]), O, 1, TopDraws())
    npt.assert_array_equal(text, [[1, 2, 3, 0]])


class ZeroDraws:
    """A generator stub whose every uniform is exactly 0."""

    def random(self, size):
        return np.zeros(size)


def test_draws_of_zero_take_the_first_positive_column():
    # C_10 with actions {1, 2}: row r has mass on r + 1 and r + 2 only, and pi
    # sits on state 3; the bare count #{cum < 0} = 0 would give 0, 0, 0, 0
    T = build_circulant(10, (1, 2))
    pi = np.zeros(10)
    pi[3] = 1.0
    lang = HmmLanguage(pi=pi, T=T, O=np.eye(10), N=1, nx=10, ny=10)
    npt.assert_array_equal(_sample_state_paths(lang, 2, 4, ZeroDraws()), [[3, 4, 5, 6]] * 2)
    O = np.array([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
    npt.assert_array_equal(_emit_text(np.array([[0, 1, 2]]), O, 1, ZeroDraws()), [[2, 1, 0]])


def expand_states(paths: np.ndarray, nx: int, N: int) -> np.ndarray:
    """Each state's N units, most significant first: the full N-gram strings."""
    digits = [paths // nx ** (N - 1 - d) % nx for d in range(N)]
    return np.stack(digits, axis=-1).reshape(paths.shape[0], -1)


def full_expansion_corpus(lang: HmmLanguage, n: int, L: int, matched: bool, seed: int):
    """Reference corpus recipe: L*N unit strings with text emitted for every
    unit, a fresh generator call per chain step and brute-force CDF
    comparisons throughout."""
    cum_pi = np.cumsum(lang.pi)[None, :]
    cum_T = np.cumsum(lang.T.probs, axis=1)
    cum_O = np.cumsum(lang.O, axis=1)

    def one_corpus(child_seed):
        rng = np.random.default_rng(child_seed)
        paths = np.empty((n, L), dtype=np.int64)
        paths[:, 0] = brute_force_count(np.repeat(cum_pi, n, axis=0), rng.random(n))
        for k in range(1, L):
            paths[:, k] = brute_force_count(cum_T[paths[:, k - 1]], rng.random(n))
        speech = expand_states(paths, lang.nx, lang.N)
        text = brute_force_count(cum_O[speech.ravel()], rng.random(speech.size))
        return speech, text.reshape(speech.shape)

    speech, text = one_corpus(seed)
    if not matched:
        _, text = one_corpus(seed + UNMATCHED_SEED_SPLIT)
    return speech, text


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("family", ["circulant", "de_bruijn"])
def test_sample_corpus_equals_the_brute_force_recipe(family, N):
    nx = 4
    states = nx**N
    if family == "circulant":
        T = build_circulant(states, (1, 2, states - 1))
    else:
        T = interpolate_with_hamiltonian(build_debruijn(2, 2 * N), w=0.3)
    emission = random_permutation_emission(nx, N)
    emission = 0.6 * emission + 0.4 * np.roll(emission, 1, axis=1)  # a noisy emission
    lang = HmmLanguage(pi=random_initial_vector(states, N), T=T, O=emission, N=N, nx=nx, ny=nx)
    for matched in (True, False):
        for seed in (0, 5):
            corpus = sample_corpus(lang, 40, 9, matched=matched, seed=seed)
            speech, text = full_expansion_corpus(lang, 40, 9, matched, seed)
            assert speech.shape == text.shape == (40, 9 * N)
            npt.assert_array_equal(corpus.speech, speech[:, N - 1 :: N])
            npt.assert_array_equal(corpus.text, text[:, N - 1 :: N])


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("family", ["circulant", "de_bruijn"])
def test_one_hot_emission_equals_the_brute_force_recipe(family, N):
    # a bare permutation O: the text is looked up, no uniform is drawn, and
    # the recipe that draws one for every unit gives the same bytes
    nx = 4
    states = nx**N
    if family == "circulant":
        T = build_circulant(states, (1, 2, states - 1))
    else:
        T = interpolate_with_hamiltonian(build_debruijn(2, 2 * N), w=0.3)
    O = random_permutation_emission(nx, N + 10)
    lang = HmmLanguage(pi=random_initial_vector(states, N), T=T, O=O, N=N, nx=nx, ny=nx)
    for matched in (True, False):
        for seed in (0, 5):
            corpus = sample_corpus(lang, 40, 9, matched=matched, seed=seed)
            speech, text = full_expansion_corpus(lang, 40, 9, matched, seed)
            npt.assert_array_equal(corpus.speech, speech[:, N - 1 :: N])
            npt.assert_array_equal(corpus.text, text[:, N - 1 :: N])


GOLDEN_CORPUS = Path(__file__).with_name("golden_corpus.json")
# family -> (nx, two knobs) of finite_language at ngram 2
GOLDEN_CORPUS_GRID = {"circulant": (10, (2, 74)), "de_bruijn": (8, (0.0, 0.5)),
                      "hypercube": (8, (0.98, 0.99))}


def golden_corpus_hashes() -> dict:
    """sha256 of the int64 speech and text bytes of finite_language corpora,
    2560 sequences of 80 blocks, per family, knob, seed and mode."""
    hashes = {}
    for family, (nx, knobs) in GOLDEN_CORPUS_GRID.items():
        for knob in knobs:
            for seed in (0, 1):
                lang = finite_language(family, nx, knob, 2, seed)
                for matched in (True, False):
                    corpus = sample_corpus(lang, 2560, 80, matched=matched, seed=seed)
                    mode = "matched" if matched else "unmatched"
                    hashes[f"{family} knob={knob!r} seed={seed} {mode}"] = {
                        side: hashlib.sha256(getattr(corpus, side).tobytes()).hexdigest()
                        for side in ("speech", "text")}
    return hashes


def test_finite_corpora_keep_their_bytes():
    """The corpora of golden_corpus_hashes against golden_corpus.json, as
    sampled before emission skipped the draws of a one-hot O. It pins numpy's
    PCG64 streams and the generating numpy's bytes, so that a sampler which
    draws or reads its stream differently cannot pass as a faster one."""
    assert golden_corpus_hashes() == json.loads(GOLDEN_CORPUS.read_text())


def test_positional_counts_equal_the_per_position_loop():
    rng = np.random.default_rng(2)
    for alphabet, L in ((3, 5), (4, 6), (7, 4)):
        seqs = rng.integers(0, alphabet, size=(25, L))
        loop = np.empty((L, alphabet))
        for k in range(L):
            loop[k] = np.bincount(seqs[:, k], minlength=alphabet) / seqs.shape[0]
        npt.assert_array_equal(_positional_counts(seqs, alphabet, L), loop)
