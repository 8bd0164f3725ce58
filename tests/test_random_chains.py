from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from decipher.experiments import ExperimentConfig, run_experiment
from decipher.random_chains import WEIGHT_HIGH, random_reversible_chain
from decipher.spectral import symmetric_eigen, symmetrized_form


def test_chain_rows_and_reversibility():
    chain = random_reversible_chain(16, seed=3)
    npt.assert_allclose(chain.probs.sum(axis=1), 1.0, atol=1e-12)
    assert chain.reversible
    npt.assert_array_equal(chain.weights, chain.weights.T)
    S = symmetrized_form(chain.weights)
    assert np.max(np.abs(S - S.T)) <= 1e-10


def test_weight_moments_million_draws():
    # Uniform(0, 2*sqrt(3)): mean sqrt(3), variance 1
    rng = np.random.default_rng(99)
    draws = rng.uniform(0.0, WEIGHT_HIGH, size=10**6)
    assert abs(draws.mean() - np.sqrt(3.0)) / np.sqrt(3.0) < 0.01
    assert abs(draws.var() - 1.0) < 0.01


def test_sampled_weights_match_declared_law():
    chain = random_reversible_chain(512, seed=7)
    iu = np.triu_indices(512)
    vals = chain.weights[iu]
    assert vals.min() >= 0.0
    assert vals.max() <= WEIGHT_HIGH
    assert abs(vals.mean() - np.sqrt(3.0)) < 0.02
    assert abs(vals.var() - 1.0) < 0.02


def test_spectrum_real_within_unit_interval():
    for seed in range(5):
        chain = random_reversible_chain(24, seed=seed)
        w, _ = symmetric_eigen(symmetrized_form(chain.weights))
        assert w.min() >= -1.0 - 1e-9
        assert w.max() <= 1.0 + 1e-9


def test_chain_determinism_and_validation():
    a = random_reversible_chain(8, seed=11)
    b = random_reversible_chain(8, seed=11)
    npt.assert_array_equal(a.probs, b.probs)
    with pytest.raises(ValueError):
        random_reversible_chain(1, seed=0)


def gap_rows(size, trials, seed):
    """The smrm sweep's rows for one size and seed, in trial order."""
    return run_experiment(ExperimentConfig(kind="smrm_gaps", sizes=(size,), trials=trials,
                                           seeds=(seed,)))


def test_gap_statistics_n2():
    rows = gap_rows(2, trials=50, seed=1)
    assert [r["trial"] for r in rows] == list(range(50))
    assert all(r["error"] == "" for r in rows)
    assert all(r["min_gap"] >= 0.0 for r in rows)
    assert all(r["distinct_count"] <= 2 for r in rows)


def test_gap_statistics_simple_spectrum_n32():
    rows = gap_rows(32, trials=200, seed=5)
    assert [r["distinct_count"] for r in rows] == [32] * 200
    assert all(r["min_gap"] > 1e-12 and r["simple_at_1e12"] == 1 for r in rows)


def test_trial_seeding_is_order_insensitive():
    rows = gap_rows(12, trials=20, seed=42)
    assert [r["min_gap"] for r in rows] == [r["min_gap"] for r in gap_rows(12, trials=20, seed=42)]
    # per-trial chains depend only on (seed, trial), not on how many ran before
    solo = random_reversible_chain(12, [42, 13])
    w, _ = symmetric_eigen(symmetrized_form(solo.weights))
    assert np.diff(w).min() == pytest.approx(rows[13]["min_gap"])
