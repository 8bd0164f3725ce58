"""The benchmark's three workloads: fixed sweeps of published experiment cells.

Each workload is a list of calls to the ``decipher`` entry point, one
config file per call. Every grid is a narrowing of the published grid that
``decipher.experiments.default_config`` gives for its kind (fewer nx values,
knobs and seeds, nothing retuned); ``test_checks.py`` asserts this. Configs
spell out the grid, corpus and training fields rather than inherit them, so
a later change to the defaults does not silently change the workload.

The workload seed picks the cell seeds of ``exact_tiled`` and
``sampled_gan``. ``ntk_flow`` runs the first three published languages,
which are fixed by index.
"""

from __future__ import annotations

WORKLOADS = ("exact_tiled", "sampled_gan", "ntk_flow")

# published asymptotic_phase grid parameters per family
_ASYMPTOTIC = {
    "hypercube": {"ngram": 4, "L": 10},
    "de_bruijn": {"ngram": 3, "L": 10},
}

# circulant finite_sample_phase / averaging_ablation setting
_SAMPLED = {"family": "circulant", "nx_values": [10], "ngram": 2, "L": 80, "n_sequences": 2560}

NTK_T_END = 600_000.0


def _asymptotic(family: str, nx_values, knob_values, seeds) -> dict:
    return {"kind": "asymptotic_phase", "family": family, "nx_values": list(nx_values),
            "knob_values": list(knob_values), "seeds": list(seeds), **_ASYMPTOTIC[family]}


def _matched_linear(knob_values, seeds) -> dict:
    # criterion 6: paired corpora, linear-discriminator MMD at 500 epochs
    return {"kind": "finite_sample_phase", **_SAMPLED, "knob_values": list(knob_values),
            "matched": True, "seeds": list(seeds),
            "train": {"objective": "mmd", "epochs": 500, "discriminator": "linear",
                      "averaging": "soft_input"}}


def _mlp_averaging(knob_values, seeds) -> dict:
    return {"kind": "averaging_ablation", **_SAMPLED, "knob_values": list(knob_values),
            "matched": False, "seeds": list(seeds),
            "train": {"objective": "mmd", "epochs": 500, "discriminator": "mlp"}}


def _ntk(n_languages: int, t_end: float) -> dict:
    return {"kind": "ntk_convergence", "n_languages": n_languages, "L": 10, "t_end": t_end,
            "stop_residual": 1e-5, "seeds": [0]}


SUBCOMMAND = {
    "asymptotic_phase": "asymptotic",
    "finite_sample_phase": "finite",
    "averaging_ablation": "ablate-averaging",
    "ntk_convergence": "ntk",
}


def sweep(workload: str, seed: int) -> dict[str, dict]:
    """Configs of one timed pass, by call name, in the order they run."""
    if workload == "exact_tiled":
        return {
            # 4096 tiled states: one rank-deficient knob and one pinned knob
            "hypercube_nx8": _asymptotic("hypercube", [8], [5, 8], [seed]),
            "hypercube_nx5-7": _asymptotic("hypercube", [5, 6, 7], [3, 6, 9], [seed]),
            # symmetrized numeric spectrum route; nx <= L keeps PX able to
            # reach full column rank
            "de_bruijn": _asymptotic("de_bruijn", [9, 10], [2, 16, 32], [seed]),
        }
    if workload == "sampled_gan":
        return {
            # the two ends of the published knob range; more knobs would not
            # let three passes fit into a run beside the MLP pair
            "matched_linear": _matched_linear([2, 74], range(10 * seed, 10 * seed + 10)),
            "mlp_averaging": _mlp_averaging([58], [seed]),
        }
    if workload == "ntk_flow":
        return {"ntk": _ntk(3, NTK_T_END)}
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int) -> dict[str, dict]:
    """One small cell per workload, run during set-up."""
    if workload == "exact_tiled":
        return {"warmup": _asymptotic("hypercube", [5], [3], [seed])}
    if workload == "sampled_gan":
        return {"warmup": _matched_linear([2], [seed])}
    if workload == "ntk_flow":
        return {"warmup": _ntk(1, 100.0)}
    raise ValueError(f"unknown workload {workload!r}")
