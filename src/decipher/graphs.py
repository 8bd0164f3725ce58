"""Markov transition-graph constructions with controllable spectra.

Three families are supported: circulant graphs on n nodes with an arbitrary
offset action set, undirected De Bruijn graphs DB(k, m), and hypercube graphs
Q_n. Graphs can be tiled into disjoint unions padded with self-loop filler
nodes under a node relabeling, and any row-stochastic matrix can be
interpolated toward a deterministic Hamiltonian cycle.

All constructors return a TransitionMatrix carrying the row-stochastic
probabilities plus enough provenance (undirected edge weights, originating
GraphSpec, and for a tiled union its Tiling) for downstream spectral analysis
and exact unigrams. Two kinds of chain are made without dense arrays: a tiled
union, laid out from its Tiling, and a hypercube Q_n, laid out from its
dimension, each only when its probabilities or weights are first read. Exact
unigrams step a chain through TransitionMatrix.step, which moves Q_n by its n
bit flips, so the asymptotic sweeps lay out no hypercube.

Inside sweep_memo, the block each sweep runs in, what its cells share is
made once: assemble's subgraph per GraphSpec, and whatever else a caller
keys through memoised (the asymptotic languages' draws, the subgraph
spectra). Outside it nothing is kept.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

# Hard cap on the side of a dense S x S array, checked wherever one is laid
# out: probs (and weights when reversible) take 16 * S^2 bytes for the pair.
# A circulant or De Bruijn graph is built dense. A tiled union and a
# hypercube are validated and stepped through their structure and lay that
# pair out only when something reads it (row sampling, interpolation), so the
# cap applies to their state count only then. The asymptotic sweeps make no
# S x S array, and no 2^knob x 2^knob one for a Q_knob subgraph, at any size.
STATE_COUNT_CAP = 8192

ROW_SUM_TOL = 1e-12

# What the cells of one sweep share, by key, or None outside one (see sweep_memo)
_sweep_memo: Optional[dict] = None


@contextmanager
def sweep_memo():
    """Within the block, memoised makes each key's value once. The memo
    starts empty and is dropped when the block exits; a process pool forked
    inside it gives each worker its own."""
    global _sweep_memo
    _sweep_memo = {}
    try:
        yield
    finally:
        _sweep_memo = None


def memoised(key: Hashable, make: Callable[[], Any]) -> Any:
    """make(), or inside sweep_memo the value it first made for key. A key
    names its kind first, as ("subgraph", spec) does, so kinds cannot
    collide. Cells share the value, so make returns its arrays read-only."""
    if _sweep_memo is None:
        return make()
    if key not in _sweep_memo:
        _sweep_memo[key] = make()
    return _sweep_memo[key]


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of a (possibly tiled) transition graph.

    family: "circulant" | "de_bruijn" | "hypercube"
    circulant: node count ``n`` and offset ``action_set`` (nonzero mod n)
    de_bruijn: arity ``k`` and word length ``m`` (k^m nodes)
    hypercube: dimension ``dim`` (2^dim nodes)
    """

    family: str
    n: Optional[int] = None
    action_set: Optional[tuple[int, ...]] = None
    k: Optional[int] = None
    m: Optional[int] = None
    dim: Optional[int] = None

    def __post_init__(self):
        if self.family not in ("circulant", "de_bruijn", "hypercube"):
            raise ValueError(f"unknown graph family: {self.family!r}")
        if self.action_set is not None:
            object.__setattr__(self, "action_set", tuple(int(a) for a in self.action_set))


class TransitionMatrix:
    """Row-stochastic transition matrix with graph provenance.

    probs: (S, S) row-stochastic matrix.
    reversible: True when derived from an undirected weighted graph.
    weights: the symmetric edge-weight matrix when reversible, else None.
    spec: originating GraphSpec when built by this module, else None.
    tiling: for a tiled union (see assemble), the subgraph and where each
    copy sits, else None.

    A matrix given its probs is validated densely: entries in [0, 1], rows
    summing to 1 within ROW_SUM_TOL, symmetric weights. Two kinds are made
    without dense arrays (probs None), and probs and weights are laid out on
    first read, and kept:
    - a tiled one, validated through its tiling in O(S). Its layout holds
      only the validated subgraph's entries and the fillers' 1.0, so its
      ranges, symmetry and row sums follow from the subgraph's (a row holds
      a subgraph row's nonzeros, so it sums to 1 within about 1e-15);
    - a hypercube (spec family "hypercube", no tiling), validated by its
      structure in O(S * dim): dim >= 1, and the step on a row of ones
      (column sums, equal to the row sums of the symmetric 1/dim pattern)
      gives ones. Its layout is build_hypercube's dense construction.
    step moves a distribution through the chain without laying it out.
    """

    def __init__(self, probs: Optional[np.ndarray], reversible: bool,
                 weights: Optional[np.ndarray] = None, spec: Optional[GraphSpec] = None,
                 tiling: Optional[Tiling] = None):
        self._probs = probs
        self.reversible = reversible
        self._weights = weights
        self.spec = spec
        self.tiling = tiling
        # stepped by its bit flips: a hypercube made without dense arrays
        self._bit_flips = probs is None and tiling is None
        # a method of its own, looked up on the class, so the benchmark's
        # tracer (perfbench/spans.py) can time validation under this name
        self.__post_init__()

    def __post_init__(self):
        if self.tiling is not None:
            if self._probs is not None or self._weights is not None:
                raise ValueError("a tiled chain is made without dense probs or weights")
            self.tiling.check()
            return
        if self._bit_flips:
            if self.spec is None or self.spec.family != "hypercube" or self._weights is not None:
                raise ValueError("a chain without dense probs needs a tiling or a hypercube spec")
            if self.spec.dim < 1:
                raise ValueError("hypercube dimension must be >= 1")
            row_err = np.max(np.abs(self.step(np.ones(self.n_states)) - 1.0))
            if not row_err <= ROW_SUM_TOL:
                raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, max error {row_err:.3e}")
            return
        P = np.asarray(self._probs, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got {P.shape}")
        # each check is written to fail on NaN, for which every comparison is False
        if not (np.all(P >= -ROW_SUM_TOL) and np.all(P <= 1 + ROW_SUM_TOL)):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
        if not row_err <= ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, max error {row_err:.3e}")
        if self.reversible and self._weights is not None:
            W = np.asarray(self._weights, dtype=float)
            if W.shape != P.shape:
                raise ValueError("weights shape must match probs")
            if not np.max(np.abs(W - W.T)) <= 1e-10:
                raise ValueError("edge weights must be symmetric")
        self._probs = P

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = (_hypercube_weights(self.spec.dim) / self.spec.dim if self._bit_flips
                           else self.tiling.lay_out(self.tiling.sub.probs))
        return self._probs

    @property
    def weights(self) -> Optional[np.ndarray]:
        if self._weights is None and self._bit_flips:
            self._weights = _hypercube_weights(self.spec.dim)
        elif self._weights is None and self.reversible and self.tiling is not None:
            self._weights = self.tiling.lay_out(self.tiling.sub.weights)
        return self._weights

    @property
    def n_states(self) -> int:
        if self.tiling is not None:
            return self.tiling.n_states
        return 2**self.spec.dim if self._bit_flips else self.probs.shape[0]

    def step(self, D: np.ndarray) -> np.ndarray:
        """One step of the distributions along D's last axis: D @ probs.

        A hypercube made without dense arrays takes the mean of its dim bit
        flips, D[..., i ^ (1 << b)] over b, which equals D @ probs up to
        roundoff and lays nothing out. Each flip XORs its mask into one
        reused S-long index buffer and gathers with take, along the first
        axis of a C-ordered copy of D.T, so a stack of many short rows (a
        tiled union's copies) is gathered a whole row of copies at a time.
        The flips are summed from bit 0 up and divided by dim last.
        Any other chain multiplies by its (for a tiled one, laid out) probs.
        """
        if not self._bit_flips:
            return D @ self.probs
        states_first = np.ascontiguousarray(D.T)
        idx = np.arange(self.n_states)
        flip = np.bitwise_xor(idx, 1)
        out = states_first.take(flip, axis=0)
        for bit in range(1, self.spec.dim):
            out += states_first.take(np.bitwise_xor(idx, 1 << bit, out=flip), axis=0)
        out /= self.spec.dim
        return np.ascontiguousarray(out.T)


@dataclass(frozen=True)
class Tiling:
    """Where the copies of one subgraph sit in a tiled union.

    sub: the validated subgraph every copy repeats.
    blocks: (copies, s) positions; node i of copy c sits at blocks[c, i].
    fillers: the positions left over, each a probability-1 self-loop.
    """

    sub: TransitionMatrix
    blocks: np.ndarray
    fillers: np.ndarray

    @property
    def copies(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_states(self) -> int:
        return self.blocks.size + self.fillers.size

    def check(self) -> None:
        """Blocks s wide, and blocks plus fillers each position exactly once."""
        if self.blocks.ndim != 2 or self.blocks.shape[1] != self.sub.n_states:
            raise ValueError(f"tiling blocks must be (copies, {self.sub.n_states}), "
                             f"got {self.blocks.shape}")
        positions = np.concatenate([self.blocks.ravel(), self.fillers.ravel()])
        if positions.min() < 0 or positions.max() >= positions.size:
            raise ValueError(f"tiling positions must cover range({positions.size})")
        if np.any(np.bincount(positions) != 1):
            raise ValueError("tiling positions must be distinct")

    def lay_out(self, block: np.ndarray) -> np.ndarray:
        """Dense S x S union: block on every copy, 1.0 on every filler."""
        _check_cap(self.n_states)
        M = np.zeros((self.n_states, self.n_states))
        M[self.blocks[:, :, None], self.blocks[:, None, :]] = block
        M[self.fillers, self.fillers] = 1.0
        return M


def _check_cap(n_nodes: int) -> None:
    if n_nodes > STATE_COUNT_CAP:
        raise ValueError(f"{n_nodes} nodes exceeds the state-count cap {STATE_COUNT_CAP}")


def build_circulant(n: int, action_set: Sequence[int]) -> TransitionMatrix:
    """Circulant graph: node i steps to (i + a) mod n with probability 1/|A|.

    Reversible exactly when the action set is symmetric (a in A => -a in A);
    in that case the uniform edge weights are attached for symmetrization.
    """
    if n < 3:
        raise ValueError("circulant graphs need n >= 3")
    _check_cap(n)
    if not action_set:
        raise ValueError("action set must be nonempty")
    offsets = sorted({int(a) % n for a in action_set})
    if 0 in offsets:
        raise ValueError("action set offsets must be nonzero mod n")
    if len(offsets) != len(action_set):
        raise ValueError("action set offsets must be distinct mod n")

    P = np.zeros((n, n))
    idx = np.arange(n)
    for a in offsets:
        P[idx, (idx + a) % n] = 1.0 / len(offsets)
    symmetric = all((n - a) % n in offsets for a in offsets)
    weights = P * len(offsets) if symmetric else None
    spec = GraphSpec("circulant", n=n, action_set=tuple(offsets))
    return TransitionMatrix(P, reversible=symmetric, weights=weights, spec=spec)


def build_debruijn(k: int, m: int) -> TransitionMatrix:
    """Undirected De Bruijn graph DB(k, m), row-normalized.

    Directed edges follow the numeral-shift rule: i -> j when the last m-1
    k-ary digits of i equal the first m-1 digits of j. The undirected weight
    matrix counts each directed edge once in each endpoint's row (W = B + B^T),
    so shift-rule self-loops and two-cycles keep their multiplicity and W
    stays symmetric.
    """
    if k < 2 or m < 1:
        raise ValueError("need arity k >= 2 and word length m >= 1")
    size = k**m
    _check_cap(size)
    B = np.zeros((size, size))
    idx = np.arange(size)
    shifted = (idx % (k ** (m - 1))) * k
    for d in range(k):
        B[idx, shifted + d] = 1.0
    W = B + B.T
    P = W / W.sum(axis=1, keepdims=True)
    spec = GraphSpec("de_bruijn", k=k, m=m)
    return TransitionMatrix(P, reversible=True, weights=W, spec=spec)


def _hypercube_weights(n: int) -> np.ndarray:
    """Dense 0/1 adjacency of Q_n: node i joins i ^ (1 << bit) for each bit."""
    size = 2**n
    _check_cap(size)
    W = np.zeros((size, size))
    idx = np.arange(size)
    for bit in range(n):
        W[idx, idx ^ (1 << bit)] = 1.0
    return W


def build_hypercube(n: int) -> TransitionMatrix:
    """Hypercube graph Q_n: 2^n nodes, uniform steps across Hamming-1 neighbors.

    Made without dense arrays at any n: it is checked and stepped through its
    bit flips (TransitionMatrix.step), and its probs W / n and weights W are
    laid out on first read, under the state-count cap.
    """
    return TransitionMatrix(None, reversible=True, spec=GraphSpec("hypercube", dim=n))


def build_subgraph(spec: GraphSpec) -> TransitionMatrix:
    """Build one copy of the subgraph a GraphSpec describes."""
    if spec.family == "circulant":
        return build_circulant(spec.n, spec.action_set)
    if spec.family == "de_bruijn":
        return build_debruijn(spec.k, spec.m)
    return build_hypercube(spec.dim)


def inverse_permutation(order: Sequence[int], size: int) -> np.ndarray:
    """position with position[order[i]] = i for a permutation order of
    range(size), equal to np.argsort(order), in O(size): one bincount checks
    that order holds size integers, none negative, each of range(size) once
    (an entry past the range lengthens the count), and one scatter inverts
    it. Raises ValueError for anything else."""
    order = np.asarray(order)
    if (order.shape != (size,) or order.dtype.kind not in "iu" or np.any(order < 0)
            or not np.all(np.bincount(order, minlength=size) == 1)):
        raise ValueError(f"order must be a permutation of range({size})")
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    return position


def _read_only_subgraph(spec: GraphSpec) -> TransitionMatrix:
    """build_subgraph(spec), its dense probs and weights, if any, read-only."""
    sub = build_subgraph(spec)
    for arr in (sub._probs, sub._weights):
        if arr is not None:
            arr.flags.writeable = False
    return sub


def assemble(spec: GraphSpec, target_states: int,
             relabel: Optional[Sequence[int]] = None) -> TransitionMatrix:
    """Tile target_states // s copies of the s-node subgraph block-diagonally;
    leftover nodes become probability-1 self-loops.

    The consecutive layout puts copy c on nodes c*s .. (c+1)*s - 1 and the
    fillers last. Node i of the result is node relabel[i] of that layout, so
    the result equals the consecutive layout indexed with np.ix_(relabel,
    relabel). The relabel must be an integer permutation of
    range(target_states), checked and inverted in O(target_states) by
    inverse_permutation. The result carries no dense arrays: its tiling
    records the subgraph and each copy's positions, validation and exact
    unigrams go through it, and probs and weights are laid out from it on
    first read (by row sampling, for one). The distinct-eigenvalue set of the
    union is the subgraph's, plus eigenvalue 1 for the fillers. Inside
    sweep_memo the subgraph is built once per spec and shared.
    """
    sub = memoised(("subgraph", spec), lambda: _read_only_subgraph(spec))
    s = sub.n_states
    if target_states < s:
        raise ValueError(f"subgraph has {s} nodes but target_states is only {target_states}")
    # node k of the consecutive layout lands at position[k]
    position = (np.arange(target_states) if relabel is None
                else inverse_permutation(relabel, target_states))
    copies = target_states // s
    tiling = Tiling(sub, blocks=position[:copies * s].reshape(copies, s),
                    fillers=position[copies * s:])
    return TransitionMatrix(None, reversible=sub.reversible, spec=spec, tiling=tiling)


def hamiltonian_cycle_matrix(order: Sequence[int]) -> np.ndarray:
    """Deterministic cycle transition matrix visiting nodes in the given order,
    a permutation of range(n) (checked by inverse_permutation)."""
    order = np.asarray(order)
    n = order.size
    inverse_permutation(order, n)
    C = np.zeros((n, n))
    C[order, np.roll(order, -1)] = 1.0
    return C


def interpolate_with_hamiltonian(base: TransitionMatrix, w: float = 0.0) -> TransitionMatrix:
    """Convex combination (1-w)*base + w*cycle of the Hamiltonian cycle
    0 -> 1 -> ... -> S-1 -> 0.

    The result is non-reversible for every w > 0.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"interpolation weight must be in [0, 1], got {w}")
    if w == 0.0:
        return base
    # base.probs first: a tiled base checks the state-count cap as it lays out
    P = (1.0 - w) * base.probs + w * hamiltonian_cycle_matrix(np.arange(base.n_states))
    # the blended matrix no longer has the base graph's spectrum: drop the
    # provenance so no closed-form route is taken downstream
    return TransitionMatrix(P, reversible=False, weights=None, spec=None)
