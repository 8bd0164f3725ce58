"""Each output check accepts correct output and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from decipher import adversarial, cli, experiments  # noqa: E402
from decipher.experiments import default_config  # noqa: E402


@pytest.fixture(scope="module")
def exact_rows(tmp_path_factory):
    """A real asymptotic sweep: hypercube nx 5-6, knobs on both sides of the edge."""
    out = tmp_path_factory.mktemp("exact")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(workloads._asymptotic("hypercube", [5, 6], [3, 6, 9], [0])))
    assert cli.main(["asymptotic", "--config", str(cfg), "--out", str(out)]) == 0
    return checks.read_rows(out / "results.csv")


def _set(rows, where: dict, **values):
    """Copy of rows with the single row matching ``where`` changed."""
    hits = [i for i, r in enumerate(rows) if all(r[k] == v for k, v in where.items())]
    assert len(hits) == 1, hits
    out = [dict(r) for r in rows]
    out[hits[0]].update(values)
    return out


def test_exact_checks_accept_real_output(exact_rows):
    for check in (checks.no_errors, checks.hypercube_counts):
        assert check(exact_rows) == [], check.__name__
    for check in (checks.pinned_assignment, checks.rank_bound):
        assert check(exact_rows, L=10) == [], check.__name__


def test_nonzero_per_at_pinned_cell_rejected(exact_rows):
    bad = _set(exact_rows, {"nx": "5", "knob": "9"}, per="0.2")
    [msg] = checks.pinned_assignment(bad, L=10)
    assert "nx=5 knob=9" in msg


def test_wrong_closed_form_count_rejected(exact_rows):
    bad = _set(exact_rows, {"nx": "6", "knob": "6"}, distinct_nonzero="7")
    [msg] = checks.hypercube_counts(bad)
    assert "nx=6 knob=6" in msg and "!= 6" in msg


def test_rank_deficient_zero_below_bound_rejected(exact_rows):
    bad = _set(exact_rows, {"nx": "6", "knob": "3"}, rank_deficient="0")
    [msg] = checks.rank_bound(bad, L=10)
    assert "nx=6 knob=3" in msg


def test_rank_bound_counts_the_rows_of_px(exact_rows):
    # PX has L rows: with L = 5 no cell at nx 6 can reach full column rank,
    # however many distinct eigenvalues it has (knobs 6 and 9 have 6 and 10)
    at_nx6 = [r for r in exact_rows if r["nx"] == "6"]
    assert checks.rank_bound(at_nx6, L=10) == []
    fails = checks.rank_bound(at_nx6, L=5)
    assert len(fails) == 2 and all("rank_deficient 0" in f for f in fails), fails
    # and the premise of a pinned assignment fails there
    assert checks.pinned_assignment(at_nx6, L=5) == ["pinned_assignment: no cell to check"]


def test_error_row_rejected(exact_rows):
    bad = _set(exact_rows, {"nx": "5", "knob": "3"}, error="boom")
    assert checks.no_errors(bad) == ["error at family=hypercube nx=5 knob=3 seed=0: boom"]


def test_hypercube_closed_form():
    # Q_d spectrum 1 - 2k/d, k = 0..d; the zero at k = d/2 is not counted
    for d in range(1, 12):
        values = {round(1 - 2 * k / d, 12) for k in range(d + 1)} - {0.0}
        assert checks.hypercube_distinct(d) == len(values)


def _matched_rows(zeros_per_knob):
    return [{"knob": str(knob), "seed": str(s), "per": "0" if s < zeros else "0.3"}
            for knob, zeros in zeros_per_knob.items() for s in range(10)]


def test_matched_recovery():
    assert checks.matched_recovery(_matched_rows({2: 10, 18: 9})) == []
    [msg] = checks.matched_recovery(_matched_rows({2: 10, 18: 8}))
    assert msg.startswith("knob 18: 8 of 10")
    # a knob with too few seeds cannot pass on the seeds it has
    assert checks.matched_recovery(_matched_rows({2: 10})[:9])


def test_variant_pairs():
    rows = [{"knob": "58", "seed": "0", "variant": v, "sigma_min": "0.0410973730",
             "threshold": "4.74"} for v in ("outside_cost", "soft_input")]
    assert checks.variant_pairs(rows) == []
    assert checks.variant_pairs(_set(rows, {"variant": "soft_input"}, sigma_min="0.05"))
    assert checks.variant_pairs(rows[:1])


def _ntk_rows():
    return [{"language_index": str(i), "nx": str(3 + i), "seed": str(i), "residual": "9.99e-06",
             "slope": "-0.0006", "r_squared": "0.99999", "monotone": "1", "t_stop": "21245.03"}
            for i in range(3)]


@pytest.mark.parametrize("field,value", [("monotone", "0"), ("residual", "2e-4"),
                                         ("r_squared", "0.98"), ("slope", "0.001"),
                                         ("t_stop", "600000")])
def test_ntk_properties(field, value):
    rows = _ntk_rows()
    assert checks.ntk_convergence(rows, t_end=600000.0) == []
    [msg] = checks.ntk_convergence(_set(rows, {"language_index": "1"}, **{field: value}),
                                   t_end=600000.0)
    assert "language_index=1" in msg


def test_same_bytes(tmp_path):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for p in paths:
        p.write_text("a,b\n1,2\n")
    assert checks.same_bytes(paths) == []
    paths[2].write_text("a,b\n1,3\n")
    assert checks.same_bytes(paths) == [f"{paths[2]} differs from {paths[0]}"]


def _perturbed(fn, pick):
    def wrapped(*args):
        grads = fn(*args)
        arrays = [g.copy() for g in grads] if isinstance(grads, list) else [grads.copy()]
        arrays[min(pick, len(arrays) - 1)].flat[3] += 1e-3
        return arrays if isinstance(grads, list) else arrays[0]
    return wrapped


def test_gradients_accept_the_program():
    assert checks.gradients() == []


@pytest.mark.parametrize("pick", [0, 1])
def test_discriminator_gradient_perturbed_by_1e_3_rejected(pick):
    fails = checks.gradients(
        discriminator_gradient=_perturbed(adversarial.discriminator_gradient, pick))
    # the linear discriminator has one parameter array, the MLP two
    assert any("mlp discriminator" in f for f in fails)
    assert all(f.startswith("discriminator_gradient") for f in fails)


def test_generator_gradient_perturbed_by_1e_3_rejected():
    fails = checks.gradients(generator_gradient=_perturbed(adversarial.generator_gradient, 0))
    assert len(fails) == 4 and all(f.startswith("generator_gradient") for f in fails)


@pytest.mark.parametrize("check", [checks.no_errors, checks.hypercube_counts,
                                   checks.matched_recovery, checks.variant_pairs])
def test_no_cell_to_check_fails(check):
    assert check([])


@pytest.mark.parametrize("check", [checks.pinned_assignment, checks.rank_bound])
def test_no_rank_cell_to_check_fails(check):
    assert check([], L=10)


def _is_narrowing(cfg: dict, published) -> list[str]:
    """Grid fields are subsets of the published grid; every other field matches it."""
    wrong = []
    for key, value in cfg.items():
        if key in ("kind", "seeds", "matched"):
            continue
        if key in ("nx_values", "knob_values"):
            if not set(value) <= set(getattr(published, key)):
                wrong.append(key)
        elif key == "train":
            train = asdict(published.train)
            wrong += [f"train.{k}" for k, v in value.items() if train[k] != v and
                      not (k == "epochs" and cfg.get("matched"))]
        elif key == "n_languages":
            if value > published.n_languages:
                wrong.append(key)
        elif getattr(published, key) != value:
            wrong.append(key)
    return wrong


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_narrow_the_published_grids(workload):
    for seed in (0, 7):
        for name, cfg in {**workloads.sweep(workload, seed),
                          **workloads.warmup(workload, seed)}.items():
            published = default_config(cfg["kind"], family=cfg.get("family", "circulant"))
            if name != "warmup":  # the warm-up may stop the flow early
                assert _is_narrowing(cfg, published) == [], (workload, name)


def test_traced_pass_reports_every_layer_and_restores_the_program(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    original = experiments.assemble
    paths = []
    for name, cfg in {"asym": workloads._asymptotic("hypercube", [5], [3], [0]),
                      "ntk": workloads._ntk(1, 100.0)}.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        def run_pass():
            for path in paths:
                sub = workloads.SUBCOMMAND[json.loads(path.read_text())["kind"]]
                assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / path.stem)]) == 0
        tracer.wrap("bench.pass", run_pass)()
    assert experiments.assemble is original
    layers = spans.layer_metrics(tracer)
    # the worker adds the set-up import time and the untraced comparison
    added = {"cli.import_s", "trace.untraced_sweep_s", "trace.overhead_s"}
    assert set(layers) | added == {m["name"] for m in declared}
    self_total = sum(v for k, v in layers.items() if k in set(spans.LAYER.values()))
    assert abs(self_total - layers["trace.sweep_s"]) < 1e-9
    assert layers["graphs.build_s"] > 0 and layers["ntk.steps"] > 0
    # assemble returns probs and weights over 5^4 states; the NTK blend a 3 x 3 matrix
    assert layers["graphs.dense_mb"] == (2 * 8 * 625**2 + 8 * 3**2) / spans.MB
