"""Experiment sweep harness: grids, one sweep loop, and deterministic CSV/JSON output.

Six experiment kinds cover the phase-transition sweeps (exact recovery vs
eigenvalue diversity, sampled recovery vs sigma_min), random reversible-chain
gap statistics, tangent-kernel convergence runs, and the two training
ablations (discriminator reset, generator averaging). Every kind runs through
run_experiment, one loop over the tasks that TASKS gives for it, each a dict
of grid coordinates. On each task, serially or on a process pool, _run_task
calls the kind's worker as worker(cfg, **coords). A worker returns one dict
per row with only what it computed: column values, _-prefixed artifacts
(_matrix, and _trace, its trace CSV's rows as dicts) and, in a block of
several rows, the row's own coordinate (trial, or seed and variant).
_run_task alone makes rows: through _blank_row, which adds the task's
coordinates and the sentinels in DEFAULTS for the kind's other columns
(KIND_COLUMNS), and with the block's wall time per row, which stays out of
the CSV. The rows are then sorted by the grid coordinates in COORDS, so the
results.csv bytes do not depend on scheduling.

Workers compute their rows from layer calls made through this module's
names, which perfbench's tracer patches: a smrm block runs one gap trial per
row, and an ntk cell reads its predicted decay rate of C_t, 2 lambda_D
lambda_G sigma_min^2, off the flow's final rows.

The sampled kinds (finite_sample_phase and the two ablations) run one block
per (nx, knob): it samples each seed's corpus once, keeps only its unigram
pair, solves the least-squares (ERM) route on that pair once, and trains
every seed and variant in one train call; VARIANTS gives each kind's
variants as changes to its TrainConfig. Each row carries both PERs: per from
adversarial training and erm_per from ERM, which the variants of a seed
share. The variants of a seed share its generator, and with an MLP
discriminator they share one reset stream and one drawer thread. Its rows
equal those of single-seed, single-variant runs.

A task whose worker raises (for example on a subgraph larger than the state
space) gets one error-tagged row at its coordinates, and the sweep goes on; a
sampled block's error row has seed -1 and variant "", also when its data
fails to build, since that failure depends only on (family, nx, knob). Only a
diverged member of a sampled block gets an error row of its own. An error
text is the exception's type name and then its message. Types other than
ValueError and RuntimeError are faults in the program, so their traceback
also goes to stderr.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from .adversarial import TrainConfig, erm_least_squares, softmax_jacobian, train
from .graphs import (
    GraphSpec,
    assemble,
    build_debruijn,
    build_hypercube,
    interpolate_with_hamiltonian,
)
from .hmm import (
    HmmLanguage,
    PositionalUnigramPair,
    empirical_positional_unigrams,
    exact_positional_unigrams,
    random_initial_vector,
    random_permutation_emission,
    sample_corpus,
)
from .ntk import integrate_dynamics, log_linear_tail_fit
from .random_chains import random_reversible_chain
from .recovery import phoneme_error_rate, recover_pseudoinverse
from .spectral import sample_size_threshold, sigma_min, spectrum_of_chain, subgraph_spectrum_memo

FAMILIES = ("circulant", "de_bruijn", "hypercube")

# independent child-seed streams so pi, O, and chain draws never collide
RELABEL_STREAM = 5
PI_STREAM = 7
EMISSION_STREAM = 11
CHAIN_STREAM = 13

CONFIDENCE_DELTA = 0.05

# convergence-run language recipe: random reversible chain blended with a
# Hamiltonian cycle (dense random chains mix in ~2 steps, which collapses the
# positional rows onto the stationary vector and stalls the kernel flow)
NTK_CYCLE_WEIGHT = 0.8
NTK_EMISSION_PEAK = 0.6
NTK_SIGMA_FLOOR = 0.05
NTK_MAX_ATTEMPTS = 50
NTK_NX_CYCLE = (3, 4, 5, 6)

FLOAT_FMT = "%.9g"

KIND_COLUMNS = {
    "asymptotic_phase": ["kind", "family", "nx", "knob", "seed", "distinct_nonzero",
                         "per", "residual", "rank_deficient", "error"],
    "finite_sample_phase": ["kind", "family", "nx", "knob", "seed", "sigma_min",
                            "threshold", "per", "erm_per", "residual", "error"],
    "smrm_gaps": ["kind", "size", "trial", "seed", "min_gap", "distinct_count",
                  "simple_at_1e12", "error"],
    "ntk_convergence": ["kind", "language_index", "nx", "seed", "attempts", "sigma_min",
                        "residual", "slope", "predicted_rate", "r_squared", "monotone",
                        "t_stop", "steps", "rejected_steps", "error"],
    "reset_ablation": ["kind", "family", "nx", "knob", "variant", "seed", "sigma_min",
                       "threshold", "per", "erm_per", "residual", "error"],
    "averaging_ablation": ["kind", "family", "nx", "knob", "variant", "seed", "sigma_min",
                           "threshold", "per", "erm_per", "residual", "error"],
}

# a column's value when neither its task nor its worker gives one
DEFAULTS = {
    "nx": -1, "trial": -1, "seed": -1, "variant": "", "error": "",
    "distinct_nonzero": -1, "per": float("nan"), "residual": float("nan"), "rank_deficient": 0,
    "sigma_min": float("nan"), "threshold": float("nan"), "erm_per": float("nan"),
    "min_gap": float("nan"), "distinct_count": -1, "simple_at_1e12": 0,
    "attempts": -1, "slope": float("nan"), "predicted_rate": float("nan"),
    "r_squared": float("nan"), "monotone": 0, "t_stop": float("nan"), "steps": -1,
    "rejected_steps": -1,
}

# grid coordinates, in sort order; a row holds those of its kind's columns
COORDS = ("family", "size", "nx", "knob", "variant", "language_index", "seed", "trial")

# the variants of each sampled kind, as changes to its TrainConfig
VARIANTS = {
    "finite_sample_phase": {None: {}},
    "reset_ablation": {"reset": {"reset_discriminator": True},
                       "no_reset": {"reset_discriminator": False}},
    "averaging_ablation": {"soft_input": {"averaging": "soft_input"},
                           "outside_cost": {"averaging": "outside_cost"}},
}

# the ExperimentConfig fields each kind's sweep reads, besides kind and write_traces;
# the ablations run on the circulant grid only
_GRID_FIELDS = ("nx_values", "knob_values", "ngram", "L", "seeds")
_SAMPLED_FIELDS = _GRID_FIELDS + ("n_sequences", "matched", "train")
READS = {"asymptotic_phase": ("family",) + _GRID_FIELDS,
         "finite_sample_phase": ("family",) + _SAMPLED_FIELDS,
         "smrm_gaps": ("sizes", "trials", "seeds"),
         "ntk_convergence": ("L", "n_languages", "t_end", "stop_residual"),
         "reset_ablation": _SAMPLED_FIELDS, "averaging_ablation": _SAMPLED_FIELDS}


@dataclass
class ExperimentConfig:
    """One experiment run: kind, grid, training setup, seeds, output options.

    Grid semantics depend on the kind. For asymptotic_phase the knob is the
    requested distinct-eigenvalue count of the tiled subgraph; for
    finite_sample_phase and the ablations it is the circulant action-set size
    d or the Hamiltonian interpolation weight w. A knob that counts (every
    asymptotic_phase knob, and d) must be an integer, and no grid, seed or
    size list may repeat a value. smrm_gaps uses sizes/trials,
    ntk_convergence uses n_languages plus the integration horizon.
    """

    kind: str
    family: str = "circulant"
    nx_values: tuple[int, ...] = ()
    knob_values: tuple = ()
    ngram: int = 2
    L: int = 20
    n_sequences: int = 2560
    matched: bool = False
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    sizes: tuple[int, ...] = (16, 32, 64)
    trials: int = 500
    n_languages: int = 20
    t_end: float = 600_000.0
    stop_residual: float = 1e-5
    write_traces: bool = False

    def __post_init__(self):
        if self.kind not in KIND_COLUMNS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        self.nx_values = tuple(int(v) for v in self.nx_values)
        # plain python scalars so configs stay json-serializable
        self.knob_values = tuple(
            float(k) if isinstance(k, (float, np.floating)) else int(k)
            for k in self.knob_values
        )
        self.seeds = tuple(int(s) for s in self.seeds)
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.seeds) < 1:
            raise ValueError("need at least one seed per cell")
        for name in ("nx_values", "knob_values", "seeds", "sizes"):  # a repeat reruns a cell
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if self.kind == "asymptotic_phase" or self.kind in VARIANTS:
            if self.family not in FAMILIES:
                raise ValueError(f"unknown graph family: {self.family!r}")
            if not self.nx_values or not self.knob_values:
                raise ValueError("grid kinds need nonempty nx_values and knob_values")
            # the knob counts eigenvalues, or circulant offsets; the languages truncate it
            counts = self.kind == "asymptotic_phase" or self.family == "circulant"
            if counts and not all(float(k).is_integer() for k in self.knob_values):
                raise ValueError(f"{self.kind} on {self.family} needs integer knob_values, "
                                 f"got {list(self.knob_values)}")
            if self.kind == "asymptotic_phase" and self.family == "de_bruijn":
                orders = [_debruijn_order(k) for k in self.knob_values]
                if len(set(orders)) != len(orders):  # two knobs would build one language
                    raise ValueError(f"de_bruijn knob_values {list(self.knob_values)} repeat "
                                     f"a graph order: m = {orders}")
            if self.ngram < 1 or self.L < 1:
                raise ValueError("ngram and L must be >= 1")
        if self.kind in VARIANTS:
            if self.n_sequences < 1:
                raise ValueError("n_sequences must be >= 1")
        if self.kind == "averaging_ablation" and self.train.discriminator != "mlp":
            # with a linear discriminator the two modes coincide identically
            # for MMD, so the comparison would be vacuous
            raise ValueError("averaging ablation requires train.discriminator == 'mlp'")
        if self.kind == "smrm_gaps":
            if not self.sizes or min(self.sizes) < 2 or self.trials < 1:
                raise ValueError("smrm_gaps needs nonempty sizes, each >= 2, and trials >= 1")
        if self.kind == "ntk_convergence":
            if self.n_languages < 1 or self.L < 1 or self.t_end <= 0:
                raise ValueError("ntk_convergence needs n_languages >= 1, L >= 1 and t_end > 0")


def default_config(kind: str, family: str = "circulant") -> ExperimentConfig:
    """The published grids for each experiment kind."""
    if family not in FAMILIES:
        raise ValueError(f"unknown graph family: {family!r}")
    if kind == "asymptotic_phase":
        grids = {
            "circulant": dict(nx_values=tuple(range(10, 15)), knob_values=tuple(range(2, 21)),
                              ngram=2, L=20),
            "de_bruijn": dict(nx_values=tuple(range(8, 12)),  # one knob per order m = 1..7
                              knob_values=(2, 4, 8, 12, 16, 22, 32), ngram=3, L=10),
            "hypercube": dict(nx_values=tuple(range(5, 9)), knob_values=tuple(range(2, 10)),
                              ngram=4, L=10),
        }
        return ExperimentConfig(kind=kind, family=family, seeds=tuple(range(5)),
                                **grids[family])
    if kind == "finite_sample_phase":
        grids = {
            "circulant": dict(nx_values=(10,), knob_values=tuple(range(2, 82, 8)), L=80),
            "de_bruijn": dict(nx_values=(8,), knob_values=tuple(np.linspace(0.0, 1.0, 10)), L=40),
            "hypercube": dict(nx_values=(8,), knob_values=tuple(np.linspace(0.98, 1.0, 10)), L=80),
        }
        return ExperimentConfig(
            kind=kind, family=family, ngram=2, n_sequences=2560, seeds=tuple(range(10)),
            train=TrainConfig(objective="mmd", epochs=5000), **grids[family],
        )
    if kind == "smrm_gaps":
        return ExperimentConfig(kind=kind, seeds=(0,))
    if kind == "ntk_convergence":
        return ExperimentConfig(kind=kind, L=10, seeds=(0,))
    if kind in ("reset_ablation", "averaging_ablation"):
        # circulant whatever the family asked for: the three highest
        # action-set sizes, the floor of the circulant sigma_min sweep,
        # where the reset effect is visible
        train_cfg = TrainConfig(objective="jsd", epochs=500)
        if kind == "averaging_ablation":
            train_cfg = TrainConfig(objective="mmd", epochs=500, discriminator="mlp")
        return ExperimentConfig(
            kind=kind, family="circulant", nx_values=(10,), knob_values=(58, 66, 74),
            ngram=2, L=80, n_sequences=2560, seeds=tuple(range(10)), train=train_cfg,
        )
    raise ValueError(f"unknown experiment kind: {kind!r}")


# ---------------------------------------------------------------------------
# language construction


def _debruijn_order(knob) -> int:
    """The order m of DB(2, m) whose candidate spectrum has about knob values."""
    return max(1, round(math.sqrt(2.0 * knob)) - 1)


def asymptotic_language(family: str, nx: int, knob: int, ngram: int, seed: int) -> HmmLanguage:
    """Tiled-subgraph language whose distinct-eigenvalue count tracks knob.

    circulant: copies of the undirected cycle C_{2*knob-1} (knob distinct
    nonzero cosine values). de_bruijn: copies of DB(2, m) with m chosen so the
    candidate spectrum has about knob values. hypercube: copies of Q_knob.
    The chain is assembled once under a seeded relabel, and its tiling
    gives spectrum_of_chain the copy and filler counts and
    exact_positional_unigrams the copies' positions.
    """
    states = nx**ngram
    if family == "circulant":
        cycle = 2 * int(knob) - 1
        spec = GraphSpec(family="circulant", n=cycle, action_set=(1, cycle - 1))
    elif family == "de_bruijn":
        spec = GraphSpec(family="de_bruijn", k=2, m=_debruijn_order(knob))
    elif family == "hypercube":
        spec = GraphSpec(family="hypercube", dim=int(knob))
    else:
        raise ValueError(f"unknown graph family: {family!r}")
    # A consecutive copy layout can share a factor with the alphabet size, in
    # which case every copy projects identically through the final-unit
    # selector and the visible diversity collapses below the eigenvalue
    # count. A seeded relabeling puts the selector in generic position.
    relabel = np.random.default_rng([RELABEL_STREAM, seed]).permutation(states)
    T = assemble(spec, states, relabel=relabel)
    pi = random_initial_vector(states, [PI_STREAM, seed])
    O = random_permutation_emission(nx, [EMISSION_STREAM, seed])
    return HmmLanguage(pi=pi, T=T, O=O, N=ngram, nx=nx, ny=nx)


def finite_language(family: str, nx: int, knob, ngram: int, seed: int) -> HmmLanguage:
    """Single-graph language for the sampled sweeps.

    circulant: one C_{nx^ngram} with action set {1..d}, d = knob. The other
    two families blend the full graph with its Hamiltonian cycle at weight
    w = knob, so larger knobs mean slower mixing and better conditioning.
    """
    states = nx**ngram
    if family == "circulant":
        spec = GraphSpec(family="circulant", n=states, action_set=tuple(range(1, int(knob) + 1)))
        T = assemble(spec, states)
    elif family in ("de_bruijn", "hypercube"):
        m = round(math.log2(states))
        if 2**m != states:
            raise ValueError(f"{family} interpolation needs a power-of-two state count, got {states}")
        base = build_debruijn(2, m) if family == "de_bruijn" else build_hypercube(m)
        T = interpolate_with_hamiltonian(base, w=float(knob))
    else:
        raise ValueError(f"unknown graph family: {family!r}")
    pi = random_initial_vector(states, [PI_STREAM, seed])
    O = random_permutation_emission(nx, [EMISSION_STREAM, seed])
    return HmmLanguage(pi=pi, T=T, O=O, N=ngram, nx=nx, ny=nx)


def ntk_language(index: int, L: int) -> tuple[HmmLanguage, PositionalUnigramPair, int]:
    """Random decipherable language with an interior target emission.

    Resamples (chain, pi, permutation) until the exact positional matrix
    clears NTK_SIGMA_FLOOR; one-hot targets freeze the generator kernels
    quadratically, so the emission is a peaked mixture instead of the bare
    permutation. Returns the language, its exact unigram pair and how many
    draws were rejected.
    """
    nx = NTK_NX_CYCLE[index % len(NTK_NX_CYCLE)]
    for attempt in range(NTK_MAX_ATTEMPTS + 1):
        base = random_reversible_chain(nx, [CHAIN_STREAM, index, attempt])
        T = interpolate_with_hamiltonian(base, w=NTK_CYCLE_WEIGHT)
        pi = random_initial_vector(nx, [PI_STREAM, index, attempt])
        perm = random_permutation_emission(nx, [EMISSION_STREAM, index, attempt])
        O = NTK_EMISSION_PEAK * perm + (1.0 - NTK_EMISSION_PEAK) / nx
        lang = HmmLanguage(pi=pi, T=T, O=O, N=1, nx=nx, ny=nx)
        pair = exact_positional_unigrams(lang, L=L)
        if sigma_min(pair.PX) > NTK_SIGMA_FLOOR:
            return lang, pair, attempt
    raise RuntimeError(f"no decipherable language in {NTK_MAX_ATTEMPTS + 1} draws at index {index}")


# ---------------------------------------------------------------------------
# cell workers: the values of a task's rows (module level so a pool can pickle them)


def _error_text(exc: Exception) -> str:
    """A failed cell's error text: the exception's type name and message.
    ValueError and RuntimeError are the failures cells expect; any other type
    is a fault in the program, so its traceback also goes to stderr."""
    if not isinstance(exc, (ValueError, RuntimeError)):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _asymptotic_cell(cfg: ExperimentConfig, nx: int, knob, seed: int) -> list[dict]:
    lang = asymptotic_language(cfg.family, nx, knob, cfg.ngram, seed)
    report = spectrum_of_chain(lang.T)
    pair = exact_positional_unigrams(lang, L=cfg.L)
    rec = recover_pseudoinverse(pair)
    return [dict(distinct_nonzero=report.nonzero_distinct_count,
                 per=phoneme_error_rate(rec.decoded, lang.O),
                 residual=rec.residual, rank_deficient=int(rec.rank_deficient),
                 _matrix=rec.O_hat)]


def _sampled_pair(cfg: ExperimentConfig, nx: int, knob, seed: int):
    """One seed's language and empirical pair; its corpus is freed on return."""
    lang = finite_language(cfg.family, nx, knob, cfg.ngram, seed)
    corpus = sample_corpus(lang, n_sequences=cfg.n_sequences, L=cfg.L,
                           matched=cfg.matched, seed=seed)
    return lang, empirical_positional_unigrams(corpus)


def _sampled_block(cfg: ExperimentConfig, nx: int, knob) -> list[dict]:
    """Every seed and variant of one (nx, knob) cell of the sampled kinds.

    Each seed's pair is built and solved by ERM once and shared by the
    variants, and one train call runs every seed and variant of the block.
    A member that diverges gets an error row of its own. Whatever else
    fails, data that does not build included, fails the whole block: every
    such failure depends only on (family, nx, knob), not on the seed.
    """
    variants = VARIANTS[cfg.kind]
    shared, Os, pairs = [], [], []  # per seed: the values every variant shares, O, pair
    for seed in cfg.seeds:
        lang, pair = _sampled_pair(cfg, nx, knob, seed)
        shared.append(dict(
            seed=seed, sigma_min=sigma_min(pair.PX),
            threshold=sample_size_threshold(cfg.n_sequences, cfg.n_sequences, pair.L,
                                            lang.nx, lang.ny, delta=CONFIDENCE_DELTA),
            erm_per=phoneme_error_rate(erm_least_squares(pair).decoded(), lang.O)))
        Os.append(lang.O)
        pairs.append(pair)
    # per variant, per seed: a TrainResult or the RuntimeError of a divergence
    outcomes = train(pairs, cfg.train, true_O=Os,
                     rngs=[np.random.default_rng(seed) for seed in cfg.seeds],
                     keep_trace=cfg.write_traces,
                     variants=[replace(cfg.train, **change) for change in variants.values()])
    rows = []
    for variant, results in zip(variants, outcomes):
        for found, O, pair, res in zip(shared, Os, pairs, results):
            # finite_sample_phase's one variant, None, is no column
            row = dict(found, variant=variant) if variant else dict(found)
            rows.append(row)
            if isinstance(res, RuntimeError):
                row["error"] = _error_text(res)
                continue
            O_hat = res.generator.O
            row.update(per=phoneme_error_rate(res.decoded(), O),
                       residual=float(np.linalg.norm(pair.PX @ O_hat - pair.PY)),
                       _matrix=O_hat)
            if cfg.write_traces:
                row["_trace"] = res.trace
    return rows


def _ntk_cell(cfg: ExperimentConfig, language_index: int, seed: int) -> list[dict]:
    """One convergence run; its seed coordinate is language_index."""
    lang, pair, attempts = ntk_language(language_index, cfg.L)
    traj = integrate_dynamics(pair, t_end=cfg.t_end, stop_residual=cfg.stop_residual)
    slope, r2 = log_linear_tail_fit(traj)
    sigma = sigma_min(pair.PX)
    # lambda_D is 1 - 1/(2 pi); H(p)^2 kills the all-ones vector, so take its second
    lambda_G = min(np.linalg.eigvalsh(H @ H)[1] for H in map(softmax_jacobian, traj.O_final))
    found = dict(nx=lang.nx, attempts=attempts, sigma_min=sigma,
                 residual=float(traj.residuals[-1]), slope=slope,
                 predicted_rate=2.0 * (1.0 - 1.0 / (2.0 * np.pi)) * float(lambda_G) * sigma**2,
                 r_squared=r2, monotone=int(bool(np.all(np.diff(traj.C) <= 1e-10))),
                 t_stop=float(traj.times[-1]), steps=len(traj.times) - 1,
                 rejected_steps=traj.halvings)
    if cfg.write_traces:  # one row per accepted step
        columns = (traj.times, traj.C, traj.residuals, traj.min_entries)
        found["_trace"] = [dict(t=t, C_t=C, frobenius_residual=r, min_O_entry=m)
                           for t, C, r, m in zip(*(a.tolist() for a in columns))]
    return [found]


def _smrm_block(cfg: ExperimentConfig, size: int, seed: int) -> list[dict]:
    """One row per gap trial, on the chain drawn from [seed, trial]."""
    rows = []
    for trial in range(cfg.trials):
        report = spectrum_of_chain(random_reversible_chain(size, [seed, trial]))
        min_gap = float(np.diff(report.eigenvalues).min())
        rows.append(dict(trial=trial, min_gap=min_gap, distinct_count=report.distinct_count,
                         simple_at_1e12=int(min_gap > 1e-12)))
    return rows


# ---------------------------------------------------------------------------
# the sweep loop


def _grid(cfg: ExperimentConfig) -> list[dict]:
    return [dict(nx=nx, knob=knob) for nx in cfg.nx_values for knob in cfg.knob_values]


# kind -> (worker, the tasks of a config); each task is the coordinates of one block of rows
TASKS = {
    "asymptotic_phase": (_asymptotic_cell, lambda cfg: [
        dict(cell, seed=seed) for cell in _grid(cfg) for seed in cfg.seeds]),
    "finite_sample_phase": (_sampled_block, _grid),
    "smrm_gaps": (_smrm_block, lambda cfg: [
        dict(size=size, seed=seed) for size in cfg.sizes for seed in cfg.seeds]),
    "ntk_convergence": (_ntk_cell, lambda cfg: [
        dict(language_index=i, seed=i) for i in range(cfg.n_languages)]),
    "reset_ablation": (_sampled_block, _grid),
    "averaging_ablation": (_sampled_block, _grid),
}


def _blank_row(cfg: ExperimentConfig, **values) -> dict:
    """A row of cfg's kind: the given values, DEFAULTS for the rest, then the
    given _-prefixed artifacts. Values for other columns are dropped."""
    given = {**DEFAULTS, "kind": cfg.kind, "family": cfg.family, **values}
    return {**{col: given[col] for col in KIND_COLUMNS[cfg.kind]},
            **{key: value for key, value in values.items() if key.startswith("_")}}


def _run_task(worker, cfg: ExperimentConfig, coords: dict) -> list[dict]:
    """The rows of one task: worker's values at coords, or one error row for
    coords if it raises, each with the block's wall time per row. Module
    level, so that a pool can pickle partial(_run_task, worker, cfg)."""
    t0 = perf_counter()
    try:
        found = worker(cfg, **coords)
    except Exception as exc:
        found = [{"error": _error_text(exc)}]
    elapsed = (perf_counter() - t0) / len(found)
    return [{**_blank_row(cfg, **coords, **values), "wall_time": elapsed} for values in found]


def _sort_key(row: dict) -> tuple:
    return tuple(row[key] for key in COORDS if key in row)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Every row of cfg's sweep, sorted by grid coordinates.

    The cells of one call share a subgraph spectrum memo, which starts empty
    (spectral.subgraph_spectrum_memo): a tiled subgraph is diagonalised once
    per call, or once per pool worker, and again in the next call.
    """
    worker, tasks = TASKS[cfg.kind]
    run = functools.partial(_run_task, worker, cfg)
    with subgraph_spectrum_memo():
        if jobs <= 1:
            blocks = [run(coords) for coords in tasks(cfg)]
        else:
            # imported here: about 6 ms of the CLI's import that a serial run
            # never uses
            import multiprocessing

            with multiprocessing.Pool(jobs) as pool:
                blocks = pool.map(run, tasks(cfg))
    return sorted((row for block in blocks for row in block), key=_sort_key)


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_results_csv(rows: Iterable[dict], path, columns: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in columns])


def _cell_label(row: dict) -> str:
    return " ".join(f"{key}={_format_cell(row[key])}" for key in COORDS
                    if key in row and key not in ("trial", "seed"))


def _paired_differences(cfg: ExperimentConfig, rows: Sequence[dict]) -> dict:
    """Per (nx, knob) cell of a two-variant ablation, over the seeds where
    both variants trained: the mean of the first variant's PER minus the
    second's, its standard error (sample deviation over root seed count) and
    the seed count."""
    first, second = VARIANTS[cfg.kind]
    cells: dict[str, dict[int, dict[str, float]]] = {}
    for row in rows:
        cell = {key: value for key, value in row.items() if key != "variant"}
        seeds = cells.setdefault(_cell_label(cell), {})
        if not row["error"]:
            seeds.setdefault(row["seed"], {})[row["variant"]] = row["per"]
    paired = {}
    for label, seeds in sorted(cells.items()):
        diffs = [pers[first] - pers[second] for pers in seeds.values() if len(pers) == 2]
        stat = {"difference": f"{first} - {second}", "seeds": len(diffs)}
        if diffs:
            stat["mean_per_difference"] = float(np.mean(diffs))
        if len(diffs) > 1:
            stat["se_per_difference"] = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
        paired[label] = stat
    return paired


def summarize(cfg: ExperimentConfig, rows: Sequence[dict]) -> dict:
    """Per-cell aggregates over seeds, plus the config echo. A sampled
    block's error row, whose variant is "", counts in every variant's cell.
    The two-variant ablations add their paired PER differences per (nx, knob)."""
    cells: dict[str, list[dict]] = {}
    for row in rows:
        variants = VARIANTS[cfg.kind] if row.get("variant") == "" else [None]
        for variant in variants:
            labelled = {**row, "variant": variant} if variant else row
            cells.setdefault(_cell_label(labelled), []).append(row)
    cell_stats = {}
    for label, group in sorted(cells.items()):
        good = [r for r in group if not r["error"]]
        stat = {"rows": len(group), "errors": len(group) - len(good)}
        for metric in ("per", "erm_per", "residual", "min_gap", "r_squared", "sigma_min"):
            values = [r[metric] for r in good if isinstance(r.get(metric), float)
                      and not math.isnan(r[metric])]
            if values:
                stat[f"mean_{metric}"] = float(np.mean(values))
                stat[f"min_{metric}"] = float(np.min(values))
                stat[f"max_{metric}"] = float(np.max(values))
        cell_stats[label] = stat
    summary = {"config": asdict(cfg), "cells": cell_stats,
               "total_rows": len(rows), "total_errors": sum(1 for r in rows if r["error"])}
    if len(VARIANTS.get(cfg.kind, ())) == 2:
        summary["paired"] = _paired_differences(cfg, rows)
    return summary


def _artifact_stem(row: dict) -> str:
    parts = [str(row.get("kind", "run"))]
    parts += [f"{key}-{_format_cell(row[key]).replace('.', 'p')}" for key in COORDS if key in row]
    return "_".join(parts)


def write_outputs(cfg: ExperimentConfig, rows: Sequence[dict], out_dir,
                  summary: dict | None = None) -> Path:
    """results.csv + summary.json (+ per-run traces and recovered matrices).
    summary is summarize(cfg, rows), formed here unless the caller has it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(rows, out / "results.csv", KIND_COLUMNS[cfg.kind])
    if summary is None:
        summary = summarize(cfg, rows)
    # one write: json.dump would write once per token
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.write_traces:
        for row in rows:
            stem = _artifact_stem(row)
            if "_trace" in row:  # one row per training epoch or accepted step
                trace = row["_trace"]
                # a run of 0 epochs keeps the GAN header
                columns = list(trace[0]) if trace else ["step", "J", "frobenius_residual"]
                write_results_csv(trace, out / f"trace_{stem}.csv", columns)
            if "_matrix" in row:
                np.savetxt(out / f"assign_{stem}.csv", row["_matrix"], fmt="%.12g",
                           delimiter=",", newline="\r\n")
    return out
