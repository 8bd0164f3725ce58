"""Spans around the calls into each decipher layer, recorded from outside.

``instrument`` replaces each traced function at the name its caller looks
up (``experiments.assemble``, ``adversarial.discriminator_gradient``, a
class attribute for methods) with a wrapper that records one span: name,
start, end and the span open when it was called. Spans stay in memory as
flat arrays and are written when the run ends. Counts (epochs, NTK steps,
halvings, dense bytes) are read at the same boundaries, from arguments and
return values. The originals are restored on exit, so untraced passes in
the same process run the program unchanged.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from decipher import adversarial, cli, experiments, graphs, ntk, spectral

MB = 2.0**20

# span name -> per-layer metric its self time is added to
LAYER = {
    "bench.pass": "bench.self_s",
    "cli.main": "cli.self_s",
    "experiments.run_experiment": "experiments.self_s",
    "experiments.write_outputs": "experiments.write_s",
    "graphs.assemble": "graphs.build_s",
    "graphs.build_subgraph": "graphs.build_s",
    "graphs.build_circulant": "graphs.build_s",
    "graphs.build_debruijn": "graphs.build_s",
    "graphs.build_hypercube": "graphs.build_s",
    "graphs.interpolate_with_hamiltonian": "graphs.build_s",
    "graphs.TransitionMatrix": "graphs.build_s",
    "hmm.exact_positional_unigrams": "hmm.exact_s",
    "hmm.sample_corpus": "hmm.sample_s",
    "hmm.empirical_positional_unigrams": "hmm.empirical_s",
    "spectral.spectrum_of_chain": "spectral.spectrum_s",
    "spectral.sigma_min": "spectral.sigma_min_s",
    "recovery.recover_pseudoinverse": "recovery.pinv_s",
    "random_chains.random_reversible_chain": "random_chains.chain_s",
    "adversarial.train": "adversarial.train_s",
    "adversarial.discriminator_gradient": "adversarial.disc_grad_s",
    "adversarial.generator_gradient": "adversarial.gen_grad_s",
    "adversarial.objective_value": "adversarial.objective_s",
    "adversarial.reset": "adversarial.reset_s",
    "ntk.integrate_dynamics": "ntk.integrate_s",
    "ntk.apply_generator_ntk": "ntk.kernel_s",
}

_GRAPH_CALLS = {name for name in LAYER
                if name.startswith("graphs.") and name != "graphs.TransitionMatrix"}


class Tracer:
    """In-memory spans of one traced pass, plus counts taken at span ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = defaultdict(float)

    def open_name(self) -> str | None:
        """Name of the innermost open span, the caller of the current call."""
        i = self._open[-1]
        return None if i < 0 else self.names[self.name[i]]

    def wrap(self, name: str, fn, on_return=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
            if on_return is not None:
                on_return(self, args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Span time minus the time its child spans cover, summed by span name."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        by_name = np.bincount(np.frombuffer(self.name, dtype=np.int32), weights=dur - covered,
                              minlength=len(self.names))
        return dict(zip(self.names, by_name.tolist()))

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# --- counts read at span ends -------------------------------------------------


def _dense_bytes(tracer: Tracer, args, result, elapsed) -> None:
    """Bytes of the dense S x S arrays an outermost graph call returns."""
    if tracer.open_name() in _GRAPH_CALLS:
        return
    passed = {id(a) for a in args} | {id(getattr(a, f, None)) for a in args
                                      for f in ("probs", "weights")}
    for arr in (result.probs, result.weights):
        if arr is not None and id(arr) not in passed:
            tracer.counts["graphs.dense_bytes"] += arr.nbytes


def _train_epochs(tracer: Tracer, args, result, elapsed) -> None:
    cfg = args[1]
    tracer.counts[f"adversarial.{cfg.discriminator}.epochs"] += cfg.epochs
    tracer.counts[f"adversarial.{cfg.discriminator}.train_s"] += elapsed


def _ntk_steps(tracer: Tracer, args, result, elapsed) -> None:
    tracer.counts["ntk.steps"] += len(result.times) - 1
    tracer.counts["ntk.halvings"] += result.halvings
    tracer.counts["ntk.integrate_incl_s"] += elapsed


def _targets():
    """(owner, attribute, span name, count hook) for every traced call."""
    dense = _dense_bytes
    return [
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "experiments.run_experiment", None),
        (cli, "write_outputs", "experiments.write_outputs", None),
        (experiments, "assemble", "graphs.assemble", dense),
        (experiments, "build_debruijn", "graphs.build_debruijn", dense),
        (experiments, "build_hypercube", "graphs.build_hypercube", dense),
        (experiments, "interpolate_with_hamiltonian", "graphs.interpolate_with_hamiltonian", dense),
        (graphs, "build_subgraph", "graphs.build_subgraph", dense),
        (spectral, "build_subgraph", "graphs.build_subgraph", dense),
        (graphs, "build_circulant", "graphs.build_circulant", dense),
        (graphs, "build_debruijn", "graphs.build_debruijn", dense),
        (graphs, "build_hypercube", "graphs.build_hypercube", dense),
        (graphs.TransitionMatrix, "__post_init__", "graphs.TransitionMatrix", None),
        (experiments, "exact_positional_unigrams", "hmm.exact_positional_unigrams", None),
        (experiments, "sample_corpus", "hmm.sample_corpus", None),
        (experiments, "empirical_positional_unigrams", "hmm.empirical_positional_unigrams", None),
        (experiments, "spectrum_of_chain", "spectral.spectrum_of_chain", None),
        (experiments, "sigma_min", "spectral.sigma_min", None),
        (experiments, "recover_pseudoinverse", "recovery.recover_pseudoinverse", None),
        (experiments, "random_reversible_chain", "random_chains.random_reversible_chain", None),
        (experiments, "train", "adversarial.train", _train_epochs),
        (adversarial, "discriminator_gradient", "adversarial.discriminator_gradient", None),
        (adversarial, "generator_gradient", "adversarial.generator_gradient", None),
        (adversarial, "objective_value", "adversarial.objective_value", None),
        (adversarial.LinearPositionalDiscriminator, "reset", "adversarial.reset", None),
        (adversarial.PerStepMlpDiscriminator, "reset", "adversarial.reset", None),
        (experiments, "integrate_dynamics", "ntk.integrate_dynamics", _ntk_steps),
        (ntk, "apply_generator_ntk", "ntk.apply_generator_ntk", None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced call through ``tracer`` until the block exits."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, whose root span is the first."""
    out = {metric: 0.0 for metric in LAYER.values()}
    for name, seconds in tracer.self_times().items():
        out[LAYER[name]] += seconds
    c = tracer.counts
    out["graphs.dense_mb"] = c["graphs.dense_bytes"] / MB
    out["spectral.sigma_min_calls"] = float(tracer.calls().get("spectral.sigma_min", 0))
    for kind in adversarial.DISCRIMINATORS:
        epochs = c[f"adversarial.{kind}.epochs"]
        out[f"adversarial.{kind}.epoch_us"] = (
            1e6 * c[f"adversarial.{kind}.train_s"] / epochs if epochs else 0.0)
    steps = c["ntk.steps"]
    out["ntk.steps"] = steps
    out["ntk.halvings"] = c["ntk.halvings"]
    out["ntk.step_us"] = 1e6 * c["ntk.integrate_incl_s"] / steps if steps else 0.0
    out["trace.sweep_s"] = tracer.end[0] - tracer.start[0]
    return out
