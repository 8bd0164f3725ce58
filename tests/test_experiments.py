"""Sweep harness: grids, runners, determinism, output formats, CLI."""

import csv
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from decipher import adversarial, experiments, spectral
from decipher.adversarial import TrainConfig, erm_least_squares, generator_gradient, train
from decipher.experiments import (
    KIND_COLUMNS,
    ExperimentConfig,
    default_config,
    finite_language,
    ntk_language,
    run_experiment,
    summarize,
    write_outputs,
)
from decipher.hmm import exact_positional_unigrams, sample_corpus, empirical_positional_unigrams
from decipher.ntk import discriminator_ntk, generator_ntk, integrate_dynamics
from decipher.recovery import phoneme_error_rate
from decipher.spectral import sigma_min, symmetric_eigen
from decipher import cli


def tiny_asymptotic(**kw):
    base = dict(kind="asymptotic_phase", family="circulant", nx_values=(10,),
                knob_values=(2, 10, 12), seeds=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_volatile(rows):
    return [{k: v for k, v in r.items() if k != "wall_time" and not k.startswith("_")}
            for r in rows]


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="asymptotic_phase", nx_values=(), knob_values=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="finite_sample_phase", nx_values=(10,), knob_values=())

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            tiny_asymptotic(seeds=())

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            tiny_asymptotic(family="petersen")

    def test_smrm_and_ntk_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="smrm_gaps", trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ntk_convergence", n_languages=0)

    def test_numpy_knobs_coerced(self):
        cfg = ExperimentConfig(kind="finite_sample_phase", family="de_bruijn", nx_values=(8,),
                               knob_values=tuple(np.linspace(0, 1, 3)))
        assert all(type(k) is float for k in cfg.knob_values)

    def test_integer_valued_float_knob_stays_valid(self):
        cfg = tiny_asymptotic(knob_values=(2.0, 3))
        assert cfg.knob_values == (2.0, 3)

    def test_default_grids(self):
        cfg = default_config("asymptotic_phase", "circulant")
        assert cfg.nx_values == tuple(range(10, 15))
        assert cfg.knob_values == tuple(range(2, 21))
        assert cfg.L == 20 and cfg.ngram == 2
        db = default_config("asymptotic_phase", "de_bruijn")
        assert db.knob_values == (2, 4, 8, 12, 16, 22, 32) and db.ngram == 3
        # one de Bruijn order m = 1..7 per knob, so no two knobs build one language
        assert [experiments._debruijn_order(k) for k in db.knob_values] == list(range(1, 8))
        fin = default_config("finite_sample_phase", "circulant")
        assert fin.knob_values == tuple(range(2, 82, 8))
        assert fin.n_sequences == 2560 and fin.L == 80 and len(fin.seeds) == 10
        hyp = default_config("finite_sample_phase", "hypercube")
        assert min(hyp.knob_values) == pytest.approx(0.98)
        assert max(hyp.knob_values) == pytest.approx(1.0)
        assert default_config("averaging_ablation").train.discriminator == "mlp"
        assert default_config("reset_ablation").train.objective == "jsd"


class TestAsymptoticRunner:
    def test_phase_transition_and_coverage(self):
        cfg = tiny_asymptotic()
        rows = run_experiment(cfg)
        assert len(rows) == len(cfg.nx_values) * len(cfg.knob_values) * len(cfg.seeds)
        by_knob = {}
        for r in rows:
            assert r["error"] == ""
            assert 0.0 <= r["per"] <= 1.0
            assert r["distinct_nonzero"] == r["knob"]
            # exact data: the least-squares fit reproduces PY at every rank
            assert r["residual"] <= 1e-12, r
            assert r["rank_deficient"] == int(r["knob"] < r["nx"])
            by_knob.setdefault(r["knob"], []).append(r["per"])
        assert all(p > 0 for p in by_knob[2])
        assert all(p == 0 for p in by_knob[10] + by_knob[12])

    def test_error_cell_tagged_not_fatal(self):
        # C_101 does not fit in 100 states; the other cell still runs
        rows = run_experiment(tiny_asymptotic(knob_values=(51, 10), seeds=(0,)))
        assert len(rows) == 2
        bad = [r for r in rows if r["knob"] == 51][0]
        good = [r for r in rows if r["knob"] == 10][0]
        assert bad["error"] != "" and np.isnan(bad["per"])
        assert good["error"] == "" and good["per"] == 0.0

    def test_short_px_is_rank_deficient(self):
        # PX is 10 x 11 at L=10, nx=11, so it cannot have full column rank
        # even with 11 distinct eigenvalues
        cfg = replace(default_config("asymptotic_phase", family="de_bruijn"),
                      nx_values=(11,), knob_values=(16,), seeds=(14,))
        [row] = run_experiment(cfg)
        assert row["error"] == "" and row["distinct_nonzero"] >= 11
        assert row["rank_deficient"] == 1
        assert row["per"] == 0.0
        assert row["residual"] < 1e-12

    def test_largest_tiled_cell_lays_out_no_dense_chain(self):
        # 8^4 = 4096 tiled states, where a dense probs and weights pair is 256 MB
        cfg = replace(default_config("asymptotic_phase", family="hypercube"),
                      nx_values=(8,), knob_values=(8,), seeds=(0,))
        assert cfg.ngram == 4
        tracemalloc.start()
        try:
            [row] = experiments._asymptotic_cell(cfg, 8, 8, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["per"] == 0.0
        assert peak < 16 * 2**20

    def test_hypercube_cell_past_the_state_count_cap_runs(self):
        # 10^4 tiled states, over STATE_COUNT_CAP: the cap guards dense layouts only
        cfg = replace(default_config("asymptotic_phase", family="hypercube"),
                      nx_values=(10,), knob_values=(9,), seeds=(0,))
        assert cfg.ngram == 4
        [row] = run_experiment(cfg)
        assert row["error"] == ""
        assert row["distinct_nonzero"] == 10 and row["rank_deficient"] == 0 and row["per"] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_hypercube_knob_past_the_dense_subgraph_runs(self, seed):
        # one Q_13 copy (8,192 nodes) and 1,808 fillers: a dense Q_13 pair is 1 GB
        cfg = replace(default_config("asymptotic_phase", family="hypercube"),
                      nx_values=(10,), knob_values=(13,), seeds=(seed,))
        assert cfg.ngram == 4 and cfg.L == 10
        tracemalloc.start()
        try:
            [row] = experiments._asymptotic_cell(cfg, 10, 13, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["distinct_nonzero"] == 14 and row["rank_deficient"] == 0
        assert row["per"] == 0.0
        assert peak < 16 * 2**20

    def test_rerun_identical(self):
        cfg = tiny_asymptotic(seeds=(3,))
        assert strip_volatile(run_experiment(cfg)) == strip_volatile(run_experiment(cfg))

    def test_each_subgraph_is_diagonalised_once_per_call(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape[0])
            return symmetric_eigen(matrix)

        monkeypatch.setattr(spectral, "symmetric_eigen", counting)
        # DB(2, 1), DB(2, 3) and DB(2, 6), each over two nx and two seeds: 729
        # states leave fillers under each, 1000 under DB(2, 6) only
        cfg = replace(default_config("asymptotic_phase", family="de_bruijn"),
                      nx_values=(9, 10), knob_values=(2, 8, 22), seeds=(0, 1))
        first = run_experiment(cfg)
        assert sorted(calls) == [2, 8, 64] and spectral._sweep_spectra is None
        second = run_experiment(cfg)
        assert sorted(calls) == [2, 2, 8, 8, 64, 64] and spectral._sweep_spectra is None
        assert strip_volatile(first) == strip_volatile(second)
        assert all(row["error"] == "" for row in first)


class TestFiniteRunner:
    def test_erm_row_fields(self):
        cfg = ExperimentConfig(kind="finite_sample_phase", family="circulant",
                               nx_values=(10,), knob_values=(2,), ngram=2, L=40,
                               n_sequences=300, seeds=(0,),
                               train=TrainConfig(objective="mmd", epochs=5))
        row = run_experiment(cfg)[0]
        assert row["error"] == ""
        assert row["sigma_min"] > 0 and row["threshold"] > 0
        assert 0.0 <= row["per"] <= 1.0 and 0.0 <= row["erm_per"] <= 1.0
        assert row["residual"] >= 0

    def test_row_per_equals_its_final_trace_row(self):
        # one PER definition for rows and traces: seven misses in ten units are
        # 0.7 in both, not 0.7000000000000001 from summing seven weights of 0.1
        cfg = ExperimentConfig(kind="finite_sample_phase", family="circulant",
                               nx_values=(10,), knob_values=(2,), ngram=2, L=40,
                               n_sequences=200, seeds=tuple(range(10)),
                               train=TrainConfig(objective="mmd", epochs=5), write_traces=True)
        rows = run_experiment(cfg)
        assert [r["per"] for r in rows] == [r["_trace"][-1]["per"] for r in rows]
        assert 0.7 in [r["per"] for r in rows]

    def test_matched_training_recovers(self):
        cfg = ExperimentConfig(kind="finite_sample_phase", family="de_bruijn",
                               nx_values=(8,), knob_values=(1.0,), ngram=2, L=40,
                               n_sequences=600, matched=True, seeds=(0,),
                               train=TrainConfig(objective="mmd", epochs=500))
        row = run_experiment(cfg)[0]
        assert row["error"] == ""
        assert row["per"] == 0.0

    def test_hamiltonian_endpoint_best_conditioned(self):
        # exact positional matrices across the interpolation sweep: the pure
        # cycle (w=1) has the deterministic, maximally spread row structure
        knobs = tuple(float(w) for w in np.linspace(0.0, 1.0, 10))
        sigs = []
        for w in knobs:
            lang = finite_language("de_bruijn", 8, w, 2, seed=0)
            sigs.append(sigma_min(exact_positional_unigrams(lang, L=40).PX))
        assert int(np.argmax(sigs)) == len(knobs) - 1

    def test_jobs_pool_matches_serial(self):
        cfg = ExperimentConfig(kind="finite_sample_phase", family="circulant",
                               nx_values=(10,), knob_values=(2, 10), ngram=2, L=40,
                               n_sequences=200, seeds=(0,),
                               train=TrainConfig(objective="mmd", epochs=5))
        assert strip_volatile(run_experiment(cfg, jobs=2)) == strip_volatile(run_experiment(cfg))


class TestAblationRunners:
    def test_reset_pairs(self):
        cfg = ExperimentConfig(kind="reset_ablation", family="circulant", nx_values=(10,),
                               knob_values=(58,), ngram=2, L=40, n_sequences=200,
                               train=TrainConfig(objective="jsd", epochs=3), seeds=(5,))
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert {r["variant"] for r in rows} == {"reset", "no_reset"}
        assert all(r["seed"] == 5 and r["error"] == "" for r in rows)

    def test_averaging_requires_mlp(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="averaging_ablation", family="circulant", nx_values=(10,),
                             knob_values=(58,), L=40, n_sequences=200,
                             train=TrainConfig(objective="mmd", epochs=3))

    def test_averaging_pairs(self):
        cfg = ExperimentConfig(kind="averaging_ablation", family="circulant", nx_values=(10,),
                               knob_values=(58,), ngram=2, L=40, n_sequences=200,
                               train=TrainConfig(objective="mmd", epochs=3, discriminator="mlp"),
                               seeds=(0,))
        rows = run_experiment(cfg)
        assert {r["variant"] for r in rows} == {"soft_input", "outside_cost"}
        assert all(r["error"] == "" for r in rows)

    def test_mmd_linear_averaging_traces_coincide(self):
        # for the linear discriminator the two generator averaging modes are
        # algebraically the same MMD update, so whole trajectories coincide
        lang = finite_language("circulant", 10, 10, 2, seed=1)
        corpus = sample_corpus(lang, n_sequences=300, L=40, matched=False, seed=1)
        pair = empirical_positional_unigrams(corpus)
        base = TrainConfig(objective="mmd", epochs=40)
        trace_soft = train(pair, replace(base, averaging="soft_input"),
                           rngs=[np.random.default_rng(9)]).trace
        trace_out = train(pair, replace(base, averaging="outside_cost"),
                          rngs=[np.random.default_rng(9)]).trace
        for a, b in zip(trace_soft, trace_out):
            assert abs(a["J"] - b["J"]) <= 1e-9
            assert abs(a["frobenius_residual"] - b["frobenius_residual"]) <= 1e-9


def small_sampled(kind, **train):
    """A three-seed knob cell of a sampled kind on short corpora."""
    train_cfg = TrainConfig(**{"objective": "mmd", "epochs": 15, **train})
    return ExperimentConfig(kind=kind, family="circulant", nx_values=(10,), knob_values=(58,),
                            ngram=2, L=40, n_sequences=200, seeds=(0, 1, 2), train=train_cfg)


def per_seed_rows(cfg):
    """The rows of cfg, run one seed at a time."""
    return [row for seed in cfg.seeds for row in run_experiment(replace(cfg, seeds=(seed,)))]


def assert_same_rows(got, want):
    assert strip_volatile(got) == strip_volatile(sorted(want, key=experiments._sort_key))
    for a, b in zip(got, sorted(want, key=experiments._sort_key)):
        assert ("_matrix" in a) == ("_matrix" in b)
        if "_matrix" in a:
            assert a["_matrix"].tobytes() == b["_matrix"].tobytes()
        assert a.get("_trace") == b.get("_trace")


SAMPLED_CELLS = {
    "finite_linear": small_sampled("finite_sample_phase"),
    "finite_traces": replace(small_sampled("finite_sample_phase"), write_traces=True),
    "reset_jsd": small_sampled("reset_ablation", objective="jsd"),
    "averaging_mlp": small_sampled("averaging_ablation", discriminator="mlp"),
}


class TestSampledBlocks:
    def test_erm_solved_once_per_seed_and_shared_by_variants(self, monkeypatch):
        cfg = replace(small_sampled("reset_ablation", objective="jsd"), seeds=(0, 1))
        calls = []

        def counting(pair):
            calls.append(pair)
            return erm_least_squares(pair)

        monkeypatch.setattr(experiments, "erm_least_squares", counting)
        rows = run_experiment(cfg)
        assert len(calls) == 2
        for seed in cfg.seeds:
            lang, pair = experiments._sampled_pair(cfg, 10, 58, seed)
            want = phoneme_error_rate(erm_least_squares(pair).decoded(), lang.O)
            pair_rows = [r for r in rows if r["seed"] == seed]
            assert {r["variant"] for r in pair_rows} == {"reset", "no_reset"}
            assert [r["erm_per"] for r in pair_rows] == [want, want]
        cells = summarize(cfg, rows)["cells"]
        assert all("mean_erm_per" in stat for stat in cells.values())

    @pytest.mark.parametrize("name", SAMPLED_CELLS)
    def test_knob_cell_rows_equal_single_seed_runs(self, name):
        cfg = SAMPLED_CELLS[name]
        rows = run_experiment(cfg)
        variants = 1 if cfg.kind == "finite_sample_phase" else 2
        assert len(rows) == variants * len(cfg.seeds)
        assert all(r["error"] == "" for r in rows)
        assert_same_rows(rows, per_seed_rows(cfg))
        # the block's time is shared out evenly over its rows
        assert len({r["wall_time"] for r in rows}) == 1

    def test_diverged_seed_gets_the_serial_error_only(self, monkeypatch):
        cfg = small_sampled("finite_sample_phase")
        clean = per_seed_rows(cfg)
        _, bad = experiments._sampled_pair(cfg, 10, 58, 1)

        def poison():
            # seed 1's generator step turns infinite at epoch 4
            calls = itertools.count()

            def patched(gen, disc, PX, objective, averaging):
                dU = generator_gradient(gen, disc, PX, objective, averaging)
                epoch = next(calls)
                for i, member in enumerate(PX.reshape((-1,) + PX.shape[-2:])):
                    if epoch == 4 and np.array_equal(member, bad.PX):
                        dU.reshape((-1,) + dU.shape[-2:])[i] = np.inf
                return dU
            monkeypatch.setattr(adversarial, "generator_gradient", patched)

        with np.errstate(invalid="ignore"):
            poison()
            rows = run_experiment(cfg)
            poison()
            [alone] = run_experiment(replace(cfg, seeds=(1,)))
        assert alone["error"] == "RuntimeError: generator weights diverged at epoch 4"
        by_seed = {r["seed"]: r for r in rows}
        assert by_seed[1]["error"] == alone["error"]
        assert "_matrix" not in by_seed[1] and np.isnan(by_seed[1]["per"])
        assert by_seed[1]["sigma_min"] == alone["sigma_min"] > 0
        assert_same_rows([by_seed[0], by_seed[2]], [r for r in clean if r["seed"] != 1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_unexpected_exception_costs_only_its_cell(monkeypatch, tmp_path, jobs):
    cfg = tiny_asymptotic()
    clean = read_csv(write_outputs(cfg, run_experiment(cfg), tmp_path / "clean") / "results.csv")
    build = experiments.asymptotic_language

    def failing(family, nx, knob, ngram, seed):
        if (knob, seed) == (10, 1):
            raise KeyError("no such cell")
        return build(family, nx, knob, ngram, seed)

    monkeypatch.setattr(experiments, "asymptotic_language", failing)
    rows = run_experiment(cfg, jobs=jobs)
    got = read_csv(write_outputs(cfg, rows, tmp_path / "failed") / "results.csv")
    assert len(got) == len(clean)
    differ = [i for i, (a, b) in enumerate(zip(got, clean)) if a != b]
    assert len(differ) == 1
    failed = dict(zip(got[0], got[differ[0]]))
    assert (failed["knob"], failed["seed"]) == ("10", "1")
    assert failed["error"] == "KeyError: 'no such cell'"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("site", ["train", "finite_language"])
def test_fault_in_a_sampled_block_costs_one_error_row(monkeypatch, tmp_path, site, jobs):
    # the block at knob 74 fails in train, or its data fails to build at seed 1
    cfg = replace(small_sampled("reset_ablation", objective="jsd"), knob_values=(58, 74),
                  seeds=(0, 1))
    clean = (write_outputs(cfg, run_experiment(cfg), tmp_path / "clean") / "results.csv")
    real = getattr(experiments, site)
    if site == "train":
        _, bad = experiments._sampled_pair(cfg, 10, 74, 0)
        error = "KeyError: 'no such block'"

        def failing(pairs, *args, **kwargs):
            if np.array_equal(pairs[0].PX, bad.PX):
                raise KeyError("no such block")
            return real(pairs, *args, **kwargs)
    else:
        error = "ValueError: no language at seed 1"

        def failing(family, nx, knob, ngram, seed):
            if (knob, seed) == (74, 1):
                raise ValueError("no language at seed 1")
            return real(family, nx, knob, ngram, seed)

    monkeypatch.setattr(experiments, site, failing)
    rows = run_experiment(cfg, jobs=jobs)
    got = (write_outputs(cfg, rows, tmp_path / "failed") / "results.csv").read_text()
    header, *want = clean.read_text().splitlines()
    assert got.splitlines() == [
        header, *[line for line in want if line.split(",")[3] != "74"],
        f"reset_ablation,circulant,10,74,,-1,nan,nan,nan,nan,nan,{error}"]


def traced_config_of_every_kind():
    """One small config of each kind, one seed each, that writes traces."""
    one_seed = dict(seeds=(0,), write_traces=True)
    configs = [
        tiny_asymptotic(**one_seed),
        replace(small_sampled("finite_sample_phase"), **one_seed),
        ExperimentConfig(kind="smrm_gaps", sizes=(8,), trials=2, seeds=(0,)),
        ExperimentConfig(kind="ntk_convergence", n_languages=1, L=10, t_end=20.0,
                         **one_seed),
        replace(small_sampled("reset_ablation", objective="jsd"), **one_seed),
        replace(small_sampled("averaging_ablation", discriminator="mlp"), **one_seed),
    ]
    assert {cfg.kind for cfg in configs} == set(KIND_COLUMNS)
    return configs


@pytest.mark.parametrize("jobs", [1, 2])
def test_workers_return_only_columns_and_artifacts(monkeypatch, jobs):
    # _blank_row drops a key that is no column of the kind, so a misspelt
    # key would vanish; every key a worker returns must be a column or an artifact
    blank_row = experiments._blank_row

    def checked(cfg, **values):
        stray = [key for key in values
                 if key not in KIND_COLUMNS[cfg.kind] and not key.startswith("_")]
        assert not stray, (cfg.kind, stray)
        return blank_row(cfg, **values)

    monkeypatch.setattr(experiments, "_blank_row", checked)
    artifacts = {"asymptotic_phase": {"_matrix"}, "finite_sample_phase": {"_matrix", "_trace"},
                 "smrm_gaps": set(), "ntk_convergence": {"_trace"},
                 "reset_ablation": {"_matrix", "_trace"},
                 "averaging_ablation": {"_matrix", "_trace"}}
    for cfg in traced_config_of_every_kind():
        rows = run_experiment(cfg, jobs=jobs)
        assert rows and all(r["error"] == "" for r in rows), cfg.kind
        for r in rows:
            assert {key for key in r if key.startswith("_")} == artifacts[cfg.kind]


def test_rows_are_plain_data():
    # lists, dicts, numbers and strings, and the _matrix array: json writes
    # every row once its matrix is a nested list (it raises on any other
    # object), and reads back the same text
    for cfg in traced_config_of_every_kind():
        for row in run_experiment(cfg):
            plain = {**row, "_matrix": row["_matrix"].tolist()} if "_matrix" in row else row
            text = json.dumps(plain)
            assert json.dumps(json.loads(text)) == text, cfg.kind


def test_value_and_runtime_errors_keep_their_text(capsys):
    assert experiments._error_text(ValueError("bad grid")) == "ValueError: bad grid"
    assert experiments._error_text(RuntimeError("diverged")) == "RuntimeError: diverged"
    assert capsys.readouterr().err == ""
    assert experiments._error_text(IndexError("out")) == "IndexError: out"
    assert "IndexError: out" in capsys.readouterr().err


class TestSmrmRunner:
    def test_rows_and_gaps(self):
        cfg = ExperimentConfig(kind="smrm_gaps", sizes=(8,), trials=10, seeds=(0,))
        rows = run_experiment(cfg)
        assert len(rows) == 10
        for r in rows:
            assert r["distinct_count"] == 8
            assert r["min_gap"] > 1e-12
            assert r["simple_at_1e12"] == 1


def test_failed_cells_write_their_defaults(monkeypatch, tmp_path):
    # the error rows of the two kinds whose workers are not grid cells
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(experiments, "ntk_language", boom)
    monkeypatch.setattr(experiments, "random_reversible_chain", boom)
    cases = [(ExperimentConfig(kind="ntk_convergence", n_languages=1, seeds=(0,)),
              "ntk_convergence,0,-1,0,-1,nan,nan,nan,nan,nan,0,nan,-1,-1,ValueError: boom"),
             (ExperimentConfig(kind="smrm_gaps", sizes=(16,), trials=3, seeds=(4,)),
              "smrm_gaps,16,-1,4,nan,-1,0,ValueError: boom")]
    for cfg, line in cases:
        out = write_outputs(cfg, run_experiment(cfg), tmp_path / cfg.kind)
        header, row = (out / "results.csv").read_text().splitlines()
        assert header == ",".join(KIND_COLUMNS[cfg.kind]) and row == line


NTK_TWO = ExperimentConfig(kind="ntk_convergence", n_languages=2, L=10, seeds=(0,))


@pytest.fixture(scope="module")
def ntk_rows():
    return run_experiment(NTK_TWO)


class TestNtkRunner:
    def test_convergence_rows(self, ntk_rows):
        assert len(ntk_rows) == 2
        for r in ntk_rows:
            assert r["error"] == ""
            assert r["residual"] < 1e-4
            assert r["r_squared"] >= 0.99
            assert r["monotone"] == 1
            assert r["slope"] < 0
            assert r["sigma_min"] > 0.05
            assert r["steps"] > 0 and r["rejected_steps"] >= 0

    def test_slope_meets_predicted_rate(self, ntk_rows):
        # the tail of C_t decays at least at 2 lambda_D lambda_G lambda_X,
        # from the smallest eigenvalues of the two kernels and of PX^T PX
        for r in ntk_rows:
            assert r["predicted_rate"] > 0
            assert abs(r["slope"]) >= r["predicted_rate"]

    def test_rate_estimates_reported(self, ntk_rows):
        # predicted_rate is 2 lambda_D lambda_G sigma_min^2: lambda_D is the
        # smallest eigenvalue of K_D, and lambda_G the least over the final
        # rows of each generator kernel's second-smallest, by the reference
        # kernel on a run of its own
        lambda_D = 1.0 - 1.0 / (2.0 * np.pi)
        for r in ntk_rows:
            _, pair, _ = ntk_language(r["language_index"], NTK_TWO.L)
            assert abs(np.linalg.eigvalsh(discriminator_ntk(r["nx"]))[0] - lambda_D) < 1e-12
            traj = integrate_dynamics(pair, t_end=NTK_TWO.t_end,
                                      stop_residual=NTK_TWO.stop_residual)
            lambda_G = min(np.linalg.eigvalsh(generator_ntk(row))[1] for row in traj.O_final)
            assert lambda_G > 0
            expected = 2.0 * lambda_D * lambda_G * r["sigma_min"] ** 2
            assert r["predicted_rate"] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_results_bytes_match_across_jobs(self, ntk_rows, tmp_path):
        serial = write_outputs(NTK_TWO, ntk_rows, tmp_path / "serial")
        pooled = write_outputs(NTK_TWO, run_experiment(NTK_TWO, jobs=2), tmp_path / "pooled")
        assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes()
        header = read_csv(serial / "results.csv")[0]
        assert header == KIND_COLUMNS["ntk_convergence"]

    def test_cli_traces_match_across_jobs(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_languages": NTK_TWO.n_languages}))
        traces = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["ntk", "--config", str(cfg_file), "--traces", "--jobs", jobs,
                             "--out", str(out)]) == 0
            traces.append({p.name: p.read_bytes() for p in out.glob("trace_*.csv")})
        assert len(traces[0]) == NTK_TWO.n_languages and traces[0] == traces[1]
        for text in traces[0].values():
            header, *lines = text.decode().splitlines()
            assert header == "t,C_t,frobenius_residual,min_O_entry" and len(lines) > 2


class TestOutputs:
    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = tiny_asymptotic(seeds=(0,))
        rows = run_experiment(cfg)
        out1 = write_outputs(cfg, rows, tmp_path / "a")
        out2 = write_outputs(cfg, run_experiment(cfg), tmp_path / "b")
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_csv_header_and_float_format(self, tmp_path):
        cfg = tiny_asymptotic(seeds=(0,))
        out = write_outputs(cfg, run_experiment(cfg), tmp_path)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(KIND_COLUMNS["asymptotic_phase"])
        assert len(lines) == 1 + len(cfg.knob_values)
        assert "wall_time" not in lines[0]

    def test_traces_and_assignments_written(self, tmp_path):
        cfg = ExperimentConfig(kind="finite_sample_phase", family="circulant",
                               nx_values=(10,), knob_values=(2,), ngram=2, L=40,
                               n_sequences=200, seeds=(0,),
                               train=TrainConfig(objective="mmd", epochs=5),
                               write_traces=True)
        [row] = run_experiment(cfg)
        out = write_outputs(cfg, [row], tmp_path)
        names = sorted(p.name for p in out.iterdir())
        [assign] = [n for n in names if n.startswith("assign_")]
        loaded = np.loadtxt(out / assign, delimiter=",")
        assert np.allclose(loaded, row["_matrix"], rtol=0, atol=1e-10)
        [trace] = [n for n in names if n.startswith("trace_")]
        header, *lines = read_csv(out / trace)
        assert header == ["step", "J", "frobenius_residual", "per"]
        assert len(lines) == cfg.train.epochs
        first = row["_trace"][0]
        assert int(lines[0][0]) == 0
        for value, key in zip(lines[0][1:], header[1:]):
            assert abs(float(value) - first[key]) < 1e-8

        # the NTK flow writes one row per accepted step through the same writer
        cfg = ExperimentConfig(kind="ntk_convergence", n_languages=1, L=10, t_end=20.0,
                               seeds=(0,), write_traces=True)
        [row] = run_experiment(cfg)
        assert not row["error"]
        out = write_outputs(cfg, [row], tmp_path / "ntk")
        [trace] = list(out.glob("trace_*.csv"))
        header, *lines = read_csv(trace)
        assert header == ["t", "C_t", "frobenius_residual", "min_O_entry"]
        steps = row["_trace"]
        assert len(lines) == len(steps) > 1
        assert float(lines[0][0]) == 0.0
        for value, key in zip(lines[0], header):
            assert abs(float(value) - steps[0][key]) < 1e-8
        # one writer for every CSV: the csv module's CRLF line endings throughout
        assert trace.read_bytes().count(b"\r\n") == len(lines) + 1

    def test_summary_aggregates(self):
        cfg = tiny_asymptotic()
        summary = summarize(cfg, run_experiment(cfg))
        assert summary["total_rows"] == 6
        assert summary["total_errors"] == 0
        cell = summary["cells"]["family=circulant nx=10 knob=2"]
        assert cell["rows"] == 2
        assert cell["mean_per"] > 0
        assert json.dumps(summary)  # json-serializable end to end

    def test_paired_per_differences_count_seeds_where_both_variants_trained(self):
        cfg = small_sampled("reset_ablation")

        def row(knob, variant, seed, per, error=""):
            return {"kind": cfg.kind, "family": "circulant", "nx": 10, "knob": knob,
                    "variant": variant, "seed": seed, "per": per, "error": error}

        rows = [row(2, "reset", 0, 0.5), row(2, "no_reset", 0, 0.2),
                row(2, "reset", 1, 0.1), row(2, "no_reset", 1, 0.1),
                row(2, "reset", 2, 0.3), row(2, "no_reset", 2, 0.0),
                # seed 3's second variant diverged: the seed does not count
                row(2, "reset", 3, 0.9), row(2, "no_reset", 3, float("nan"), "RuntimeError: x"),
                row(4, "reset", 0, 0.25), row(4, "no_reset", 0, 0.5),
                # a block that failed as a whole
                row(6, "", -1, float("nan"), "ValueError: y")]
        paired = summarize(cfg, rows)["paired"]
        assert sorted(paired) == [f"family=circulant nx=10 knob={k}" for k in (2, 4, 6)]
        two, four, six = (paired[f"family=circulant nx=10 knob={k}"] for k in (2, 4, 6))
        assert all(p["difference"] == "reset - no_reset" for p in (two, four, six))
        # differences 0.3, 0.0, 0.3: sample deviation sqrt(0.03), over sqrt(3)
        assert two["seeds"] == 3 and two["mean_per_difference"] == pytest.approx(0.2)
        assert two["se_per_difference"] == pytest.approx(0.1)
        assert four == {"difference": "reset - no_reset", "seeds": 1, "mean_per_difference": -0.25}
        assert six == {"difference": "reset - no_reset", "seeds": 0}
        assert "paired" not in summarize(small_sampled("finite_sample_phase"), [])


class TestCli:
    def test_end_to_end(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nx_values": [10], "knob_values": [2, 12],
                                        "seeds": [0], "L": 20}))
        out = tmp_path / "out"
        code = cli.main(["asymptotic", "--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists() and (out / "summary.json").exists()

    def test_train_override_and_seed_flag(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"train": {"epochs": 7, "objective": "jsd"}}))

        class Args:
            command = "finite"
            config = str(cfg_file)
            family = None
            seeds = 3
            traces = False

        cfg = cli.config_from_args(Args())
        assert cfg.train.epochs == 7 and cfg.train.objective == "jsd"
        assert cfg.seeds == (0, 1, 2)
        # untouched defaults survive the merge
        assert cfg.train.discriminator == "linear" and cfg.train.reset_discriminator

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "smrm_gaps"}))

        class Args:
            command = "asymptotic"
            config = str(cfg_file)
            family = None
            seeds = None
            traces = False

        with pytest.raises(ValueError):
            cli.config_from_args(Args())

    @pytest.mark.parametrize("overrides", [
        {"train": {"gen_lr": 0.01}},  # the step rule is fixed
        {"train": {"weight_clip": 0.01}},
        {"train": {"hidden": 16}},  # the MLP width is fixed
        {"solver": "erm"},  # every sampled row carries erm_per
        {"out_dir": "x"},  # --out alone sets the output directory
    ], ids=["gen_lr", "weight_clip", "hidden", "solver", "out_dir"])
    def test_removed_train_field_exit_code(self, tmp_path, overrides):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        assert cli.main(["finite", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results.csv").exists()

    def test_linear_averaging_ablation_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"train": {"discriminator": "linear"}}))
        assert cli.main(["ablate-averaging", "--config", str(cfg_file),
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: averaging ablation requires")

    @pytest.mark.parametrize("argv", [["ntk", "--seeds", "4", "--family", "hypercube"],
                                      ["smrm", "--family", "hypercube"],
                                      ["ablate-reset", "--family", "hypercube"]])
    def test_grid_flags_rejected_where_they_do_nothing(self, tmp_path, argv):
        # ntk reads neither a graph family nor a seed list, smrm and the
        # ablations no family
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("argv, overrides, message", [
        (["finite"], {"knob_values": [2.5, 2], "seeds": [0], "train": {"epochs": 50}},
         "needs integer knob_values"),
        (["asymptotic", "--family", "hypercube"],
         {"nx_values": [5], "knob_values": [3.7, 3], "seeds": [0]}, "needs integer knob_values"),
        (["finite"], {"knob_values": [2], "seeds": [0, 0, 1]}, "seeds repeats a value"),
        (["asymptotic"], {"knob_values": [3, 3], "seeds": [0, 0]},
         "knob_values repeats a value"),
        (["asymptotic", "--family", "de_bruijn"],
         {"nx_values": [9], "knob_values": [4, 6, 22, 28], "seeds": [0]},
         "repeat a graph order: m = [2, 2, 6, 6]"),
    ], ids=["finite-fractional-d", "asymptotic-fractional-dim", "finite-repeated-seed",
            "asymptotic-repeated-knob", "asymptotic-de-bruijn-repeated-order"])
    def test_mislabelled_or_collapsing_grid_exit_code(self, tmp_path, capsys, argv, overrides,
                                                      message):
        # each grid used to run: a truncated knob or a repeated cell under one label
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        assert cli.main(argv + ["--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_smrm_seeds_flag(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"sizes": [8], "trials": 2}))
        assert cli.main(["smrm", "--config", str(cfg_file), "--seeds", "2",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["trial"]) for r in rows] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_config_family_selects_its_published_grid(self, tmp_path):
        grid = {"knob_values": [0.0, 1.0], "seeds": [0], "train": {"epochs": 5}}
        (tmp_path / "file.json").write_text(json.dumps({"family": "de_bruijn", **grid}))
        (tmp_path / "flag.json").write_text(json.dumps(grid))
        assert cli.main(["finite", "--config", str(tmp_path / "file.json"),
                         "--out", str(tmp_path / "file")]) == 0
        assert cli.main(["finite", "--config", str(tmp_path / "flag.json"), "--family",
                         "de_bruijn", "--out", str(tmp_path / "flag")]) == 0
        got = (tmp_path / "file" / "results.csv").read_bytes()
        assert got == (tmp_path / "flag" / "results.csv").read_bytes()
        rows = list(csv.DictReader(got.decode().splitlines()))
        # de Bruijn's published nx 8, not circulant's 10, and no error rows
        assert [(r["family"], r["nx"], r["error"]) for r in rows] == [("de_bruijn", "8", "")] * 2

    def test_family_flag_beats_the_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"family": "de_bruijn"}))

        class Args:
            command = "asymptotic"
            config = str(cfg_file)
            family = "hypercube"
            seeds = None
            traces = False

        assert cli.config_from_args(Args()) == default_config("asymptotic_phase", "hypercube")

    @pytest.mark.parametrize("command, overrides, message", [
        ("ntk", {"L": 0, "n_languages": 2}, "L >= 1"),
        ("smrm", {"sizes": [1], "trials": 2}, "each >= 2"),
        ("asymptotic", {"family": "petersen"}, "unknown graph family"),
    ], ids=["ntk-L0", "smrm-size1", "asymptotic-family"])
    def test_unusable_config_exit_code(self, tmp_path, capsys, command, overrides, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        assert cli.main([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["asymptotic", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("text", ['"x"', "[1, 2]", "3"])
    def test_config_that_is_not_an_object_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli.main(["asymptotic", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config file must hold a JSON object")
        assert not (tmp_path / "results.csv").exists()

    def test_smrm_runs_every_seed(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"sizes": [8], "trials": 2, "seeds": [3, 4]}))
        assert cli.main(["smrm", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one smrm block per seed, each equal to a one-seed run
        assert [(r["seed"], r["trial"]) for r in rows] == [
            ("3", "0"), ("3", "1"), ("4", "0"), ("4", "1")]
        for seed in (3, 4):
            single = run_experiment(ExperimentConfig(kind="smrm_gaps", sizes=(8,), trials=2,
                                                     seeds=(seed,)))
            assert [r["min_gap"] for r in rows if r["seed"] == str(seed)] == [
                experiments._format_cell(r["min_gap"]) for r in single]

    @pytest.mark.parametrize("command, overrides", [
        ("ntk", {"n_languages": 1, "seeds": [5, 6], "family": "hypercube"}),
        ("ntk", {"n_languages": 1, "train": {"epochs": 3}}),
        ("smrm", {"sizes": [8], "trials": 2, "L": 7}),
        ("asymptotic", {"nx_values": [10], "knob_values": [2], "n_sequences": 10}),
        ("finite", {"knob_values": [2], "t_end": 5.0}),
        ("ablate-averaging", {"family": "de_bruijn"}),
        # every row takes its variant's value of the field
        ("ablate-reset", {"train": {"reset_discriminator": False}}),
        ("ablate-averaging", {"train": {"averaging": "outside_cost"}}),
    ], ids=["ntk-seeds-family", "ntk-train", "smrm-L", "asymptotic-n_sequences", "finite-t_end",
            "ablate-averaging-family", "ablate-reset-train.reset_discriminator",
            "ablate-averaging-train.averaging"])
    def test_unread_config_field_exit_code(self, tmp_path, capsys, command, overrides):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        assert cli.main([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "does not read config field" in err
        named = err.split("config field(s) ")[1].strip().split(", ")
        assert len(named) == len(set(named))
        assert not (tmp_path / "results.csv").exists()

    def test_unbuildable_knob_costs_one_error_row(self, tmp_path):
        # the offsets {1..100} of C_100 include 0 mod 100, whatever the seed
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"knob_values": [2, 100], "seeds": [0, 1],
                                        "train": {"epochs": 5}}))
        assert cli.main(["ablate-reset", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 5
        assert [line for line in lines if ",100," in line] == [
            "reset_ablation,circulant,10,100,,-1,nan,nan,nan,nan,nan,"
            "ValueError: action set offsets must be nonzero mod n"]
        # the block's error row counts in each variant's cell, not one of its own
        cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert {label: stat["errors"] for label, stat in cells.items() if "knob=100" in label} == {
            "family=circulant nx=10 knob=100 variant=no_reset": 1,
            "family=circulant nx=10 knob=100 variant=reset": 1}

    def test_unread_config_field_at_its_published_value_runs(self, tmp_path):
        # the benchmark's ntk configs spell out the published seeds
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kind": "ntk_convergence", "n_languages": 1,
                                        "t_end": 50.0, "seeds": [0], "family": "circulant"}))
        assert cli.main(["ntk", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["seeds"] == [0] and summary["total_rows"] == 1
