"""Correctness checks on the outputs a workload's sweep writes.

Each check takes rows read back from a ``results.csv`` (strings, as
``csv.DictReader`` gives them) and returns a list of failure messages, empty
when the check holds. Every check compares against a closed form, a property
the method must have, or a recomputation made here, never against a stored
copy of earlier output. A check that finds no cell to apply to fails, so a
narrowed workload cannot turn it into a no-op.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from pathlib import Path

import numpy as np

from decipher import adversarial


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cell(row: dict) -> str:
    keys = ("family", "nx", "knob", "variant", "seed", "language_index")
    return " ".join(f"{k}={row[k]}" for k in keys if k in row)


def _vacuous(name: str, checked: int) -> list[str]:
    return [] if checked else [f"{name}: no cell to check"]


def no_errors(rows: list[dict]) -> list[str]:
    fails = [f"error at {_cell(r)}: {r['error']}" for r in rows if r["error"]]
    return fails + _vacuous("no_errors", len(rows))


def same_bytes(paths: list[Path]) -> list[str]:
    """Every pass of one call writes a byte-identical results.csv."""
    first = paths[0].read_bytes()
    return [f"{p} differs from {paths[0]}" for p in paths[1:] if p.read_bytes() != first]


def hypercube_distinct(d: int) -> int:
    """Distinct nonzero eigenvalues of Q_d: 1 - 2k/d for k = 0..d, zero at k = d/2."""
    return d + 1 - (1 if d % 2 == 0 else 0)


def hypercube_counts(rows: list[dict]) -> list[str]:
    cube = [r for r in rows if r["family"] == "hypercube"]
    fails = [f"distinct_nonzero {r['distinct_nonzero']} != {hypercube_distinct(int(r['knob']))} "
             f"at {_cell(r)}" for r in cube
             if int(r["distinct_nonzero"]) != hypercube_distinct(int(r["knob"]))]
    return fails + _vacuous("hypercube_counts", len(cube))


def pinned_assignment(rows: list[dict], L: int) -> list[str]:
    """At least nx distinct eigenvalues pin the assignment: PER 0.

    The premise is that the L x nx matrix PX can have full column rank,
    which needs nx <= L; cells above that are left to ``rank_bound``.
    """
    pinned = [r for r in rows
              if int(r["distinct_nonzero"]) >= int(r["nx"]) and int(r["nx"]) <= L]
    fails = [f"PER {r['per']} with {r['distinct_nonzero']} distinct eigenvalues at {_cell(r)}"
             for r in pinned if float(r["per"]) != 0.0]
    return fails + _vacuous("pinned_assignment", len(pinned))


def rank_bound(rows: list[dict], L: int) -> list[str]:
    """PX has L rows, which lie in the span of distinct_nonzero + 1
    eigencomponents: its rank is at most min(distinct_nonzero + 1, L)."""
    short = [r for r in rows if min(int(r["distinct_nonzero"]) + 1, L) < int(r["nx"])]
    fails = [f"rank_deficient {r['rank_deficient']} below the rank bound at {_cell(r)}"
             for r in short if int(r["rank_deficient"]) != 1]
    return fails + _vacuous("rank_bound", len(short))


def matched_recovery(rows: list[dict], seeds: int = 10, need: int = 9) -> list[str]:
    """A paired corpus gives PY = PX O exactly: most seeds must reach PER 0."""
    by_knob = defaultdict(list)
    for r in rows:
        by_knob[r["knob"]].append(float(r["per"]))
    fails = []
    for knob, pers in by_knob.items():
        zeros = sum(p == 0.0 for p in pers)
        if len(pers) != seeds or zeros < need:
            fails.append(f"knob {knob}: {zeros} of {len(pers)} seeds at PER 0, need {need} of {seeds}")
    return fails + _vacuous("matched_recovery", len(by_knob))


def variant_pairs(rows: list[dict]) -> list[str]:
    """Both averaging variants of a (knob, seed) share data, so sigma_min and threshold."""
    pairs = defaultdict(dict)
    for r in rows:
        pairs[(r["knob"], r["seed"])][r["variant"]] = (r["sigma_min"], r["threshold"])
    fails = []
    for (knob, seed), variants in pairs.items():
        if set(variants) != {"soft_input", "outside_cost"}:
            fails.append(f"knob {knob} seed {seed}: variants {sorted(variants)}")
        elif variants["soft_input"] != variants["outside_cost"]:
            fails.append(f"knob {knob} seed {seed}: (sigma_min, threshold) "
                         f"{variants['soft_input']} != {variants['outside_cost']}")
    return fails + _vacuous("variant_pairs", len(pairs))


def ntk_convergence(rows: list[dict], t_end: float) -> list[str]:
    """Criterion 7: converged, monotone, log-linear tail, stopped on the residual."""
    fails = []
    for r in rows:
        broken = []
        if not float(r["residual"]) < 1e-4:
            broken.append(f"residual {r['residual']}")
        if int(r["monotone"]) != 1:
            broken.append("monotone 0")
        if not (float(r["r_squared"]) >= 0.99 and float(r["slope"]) < 0.0):
            broken.append(f"tail fit R^2 {r['r_squared']} slope {r['slope']}")
        if not float(r["t_stop"]) < t_end:
            broken.append(f"t_stop {r['t_stop']} reached t_end {t_end:g}")
        if broken:
            fails.append(f"{_cell(r)}: " + ", ".join(broken))
    return fails + _vacuous("ntk_convergence", len(rows))


def for_call(cfg: dict, rows: list[dict], paths: list[Path]) -> dict[str, list[str]]:
    """Failures of every check that applies to one call, by check name.

    ``rows`` are the first pass's results; ``paths`` hold every pass's
    results.csv.
    """
    found = {"no_errors": no_errors(rows), "same_bytes": same_bytes(paths)}
    if cfg["kind"] == "asymptotic_phase":
        if cfg["family"] == "hypercube":
            found["hypercube_counts"] = hypercube_counts(rows)
        found["pinned_assignment"] = pinned_assignment(rows, cfg["L"])
        found["rank_bound"] = rank_bound(rows, cfg["L"])
    elif cfg["kind"] == "finite_sample_phase":
        found["matched_recovery"] = matched_recovery(rows)
    elif cfg["kind"] == "averaging_ablation":
        found["variant_pairs"] = variant_pairs(rows)
    elif cfg["kind"] == "ntk_convergence":
        found["ntk_convergence"] = ntk_convergence(rows, cfg["t_end"])
    return found


# ---------------------------------------------------------------------------
# gradients against central finite differences of a payoff computed here


def _score(disc, l: int, p: np.ndarray) -> float:
    """Position-l score of a text distribution p, one position at a time."""
    if disc.kind == "linear":
        return float(disc.w[l] @ p)
    return float(disc.v[l] @ np.maximum(disc.W[l] @ p, 0.0))


def _fake_term(disc, PX: np.ndarray, O: np.ndarray, averaging: str) -> float:
    L, nx = PX.shape
    ny = O.shape[1]
    if averaging == "soft_input":
        return sum(PX[l, x] * _score(disc, l, O[x]) for l in range(L) for x in range(nx))
    eye = np.eye(ny)
    gen = PX @ O
    return sum(gen[l, y] * _score(disc, l, eye[y]) for l in range(L) for y in range(ny))


def _payoff(disc, PX: np.ndarray, PY: np.ndarray, O: np.ndarray, averaging: str) -> float:
    """MMD saddle objective: real-corpus term minus fake term."""
    eye = np.eye(PY.shape[1])
    real = sum(PY[l, y] * _score(disc, l, eye[y])
               for l in range(PY.shape[0]) for y in range(PY.shape[1]))
    return real - _fake_term(disc, PX, O, averaging)


def _softmax_rows(U: np.ndarray) -> np.ndarray:
    e = np.exp(U - U.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _central_differences(f, params: list[np.ndarray], eps: float) -> list[np.ndarray]:
    out = []
    for p in params:
        g = np.empty_like(p)
        for idx in np.ndindex(p.shape):
            keep = p[idx]
            p[idx] = keep + eps
            up = f()
            p[idx] = keep - eps
            down = f()
            p[idx] = keep
            g[idx] = (up - down) / (2.0 * eps)
        out.append(g)
    return out


GRADIENT_TOL = 1e-6


def gradients(discriminator_gradient=adversarial.discriminator_gradient,
              generator_gradient=adversarial.generator_gradient) -> list[str]:
    """Hand-derived gradients of the linear and MLP discriminators against
    finite differences, on fixed small inputs, in both averaging modes."""
    rng = np.random.default_rng(20230612)
    L, nx, ny, hidden = 6, 4, 4, 8
    PX = rng.dirichlet(np.ones(nx), size=L)
    PY = rng.dirichlet(np.ones(ny), size=L)
    gen = adversarial.Generator(U=rng.normal(0.0, 1.0, size=(nx, ny)))
    linear = adversarial.LinearPositionalDiscriminator(L, ny)
    linear.w[:] = rng.normal(0.0, 1.0, size=linear.w.shape)
    mlp = adversarial.PerStepMlpDiscriminator(L, ny, rng, hidden=hidden)
    fails = []
    for disc in (linear, mlp):
        for averaging in adversarial.AVERAGING_MODES:
            where = f"{disc.kind} discriminator, {averaging}"
            O = gen.O
            got = discriminator_gradient(disc, "mmd", PX, PY, O, averaging)
            want = _central_differences(lambda: _payoff(disc, PX, PY, O, averaging),
                                        disc.params(), 1e-6)
            if len(got) != len(want):
                fails.append(f"discriminator_gradient ({where}): {len(got)} arrays for "
                             f"{len(want)} parameters")
            for name, g, w in zip(("first", "second"), got, want):
                err = float(np.max(np.abs(g - w)))
                if err > GRADIENT_TOL * max(1.0, float(np.max(np.abs(w)))):
                    fails.append(f"discriminator_gradient ({where}), {name} parameter: "
                                 f"max error {err:.3g}")
            got_u = generator_gradient(gen, disc, PX, "mmd", averaging)
            [want_u] = _central_differences(
                lambda: _fake_term(disc, PX, _softmax_rows(gen.U), averaging),
                [gen.U], 1e-6)
            err = float(np.max(np.abs(got_u - want_u)))
            if err > GRADIENT_TOL * max(1.0, float(np.max(np.abs(want_u)))):
                fails.append(f"generator_gradient ({where}): max error {err:.3g}")
    return fails
