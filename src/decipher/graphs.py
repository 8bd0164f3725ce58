"""Markov transition-graph constructions with controllable spectra.

Three families are supported: circulant graphs on n nodes with an arbitrary
offset action set, undirected De Bruijn graphs DB(k, m), and hypercube graphs
Q_n. Graphs can be tiled into disjoint unions padded with self-loop filler
nodes under a node relabeling, and any row-stochastic matrix can be
interpolated toward a deterministic Hamiltonian cycle.

All constructors return a TransitionMatrix carrying the row-stochastic
probabilities plus enough provenance (undirected edge weights, originating
GraphSpec, and for a tiled union its Tiling) for downstream spectral analysis
and exact unigrams. A tiled union's dense probabilities and weights are laid
out from its Tiling only when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Hard cap on state counts. An untiled chain holds a dense S x S probs (and
# weights when reversible), 16 * S^2 bytes for the pair. A tiled chain is
# validated and propagated through its subgraph and builds that pair only
# when something reads it (row sampling, interpolation), so the asymptotic
# sweeps make no S x S array. The largest grid in the experiment sweeps is
# 8^4 = 4096 states.
STATE_COUNT_CAP = 8192

ROW_SUM_TOL = 1e-12


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

    An untiled matrix is validated densely: entries in [0, 1], rows summing
    to 1 within ROW_SUM_TOL, symmetric weights. A tiled one is validated
    through its tiling, in O(S), and may be made without its dense arrays
    (probs None): probs and weights are then laid out from the tiling when
    first read, and kept. They hold only the already validated subgraph's
    entries and the fillers' 1.0, so their ranges, symmetry and row sums
    follow from the subgraph's (each row has the nonzeros of a subgraph row,
    so it sums to 1 within about 1e-15).
    """

    def __init__(self, probs: Optional[np.ndarray], reversible: bool,
                 weights: Optional[np.ndarray] = None, spec: Optional[GraphSpec] = None,
                 tiling: Optional[Tiling] = None):
        self._probs = probs
        self.reversible = reversible
        self._weights = weights
        self.spec = spec
        self.tiling = tiling
        # a method of its own, looked up on the class, so the benchmark's
        # tracer (perfbench/spans.py) can time validation under this name
        self.__post_init__()

    def __post_init__(self):
        if self._probs is None and self.tiling is not None:
            # checked through the tiling alone, so the layout stays unbuilt
            self.tiling.check(self.tiling.n_states)
            return
        P = np.asarray(self._probs, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got {P.shape}")
        W = None
        if self.reversible and self._weights is not None:
            W = np.asarray(self._weights, dtype=float)
            if W.shape != P.shape:
                raise ValueError("weights shape must match probs")
        if self.tiling is not None:
            self.tiling.check(P.shape[0])
        else:
            if np.any(P < -ROW_SUM_TOL) or np.any(P > 1 + ROW_SUM_TOL):
                raise ValueError("transition probabilities must lie in [0, 1]")
            row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
            if row_err > ROW_SUM_TOL:
                raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, max error {row_err:.3e}")
            if W is not None and np.max(np.abs(W - W.T)) > 1e-10:
                raise ValueError("edge weights must be symmetric")
        self._probs = P

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = self.tiling.lay_out(self.tiling.sub.probs)
        return self._probs

    @property
    def weights(self) -> Optional[np.ndarray]:
        if self._weights is None and self.reversible and self.tiling is not None:
            self._weights = self.tiling.lay_out(self.tiling.sub.weights)
        return self._weights

    @property
    def n_states(self) -> int:
        return self.probs.shape[0] if self.tiling is None else self.tiling.n_states


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

    def check(self, n_states: int) -> None:
        """Blocks s wide, and blocks plus fillers each position exactly once."""
        if self.blocks.ndim != 2 or self.blocks.shape[1] != self.sub.n_states:
            raise ValueError(f"tiling blocks must be (copies, {self.sub.n_states}), "
                             f"got {self.blocks.shape}")
        positions = np.concatenate([self.blocks.ravel(), self.fillers.ravel()])
        if positions.size != n_states or positions.min() < 0 or positions.max() >= n_states:
            raise ValueError(f"tiling positions must cover range({n_states})")
        if np.any(np.bincount(positions, minlength=n_states) != 1):
            raise ValueError("tiling positions must be distinct")

    def lay_out(self, block: np.ndarray) -> np.ndarray:
        """Dense S x S union: block on every copy, 1.0 on every filler."""
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


def build_hypercube(n: int) -> TransitionMatrix:
    """Hypercube graph Q_n: 2^n nodes, uniform steps across Hamming-1 neighbors."""
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    size = 2**n
    _check_cap(size)
    W = np.zeros((size, size))
    idx = np.arange(size)
    for bit in range(n):
        W[idx, idx ^ (1 << bit)] = 1.0
    P = W / n
    spec = GraphSpec("hypercube", dim=n)
    return TransitionMatrix(P, reversible=True, weights=W, spec=spec)


def build_subgraph(spec: GraphSpec) -> TransitionMatrix:
    """Build one copy of the subgraph a GraphSpec describes."""
    if spec.family == "circulant":
        return build_circulant(spec.n, spec.action_set)
    if spec.family == "de_bruijn":
        return build_debruijn(spec.k, spec.m)
    return build_hypercube(spec.dim)


def assemble(spec: GraphSpec, target_states: int,
             relabel: Optional[Sequence[int]] = None) -> TransitionMatrix:
    """Tile target_states // s copies of the s-node subgraph block-diagonally;
    leftover nodes become probability-1 self-loops.

    The consecutive layout puts copy c on nodes c*s .. (c+1)*s - 1 and the
    fillers last. Node i of the result is node relabel[i] of that layout, so
    the result equals the consecutive layout indexed with np.ix_(relabel,
    relabel). The result carries no dense arrays: its tiling records the
    subgraph and each copy's positions, validation and exact unigrams go
    through it, and probs and weights are laid out from it on first read
    (by row sampling, for one). The distinct-eigenvalue set of the union is
    the subgraph's, plus eigenvalue 1 for the fillers.
    """
    sub = build_subgraph(spec)
    s = sub.n_states
    if target_states < s:
        raise ValueError(f"subgraph has {s} nodes but target_states is only {target_states}")
    _check_cap(target_states)
    order = np.arange(target_states) if relabel is None else np.asarray(relabel)
    if not np.array_equal(np.sort(order), np.arange(target_states)):
        raise ValueError("relabel must be a permutation of range(target_states)")
    # node k of the consecutive layout lands at position[k]
    position = np.argsort(order)
    copies = target_states // s
    tiling = Tiling(sub, blocks=position[:copies * s].reshape(copies, s),
                    fillers=position[copies * s:])
    return TransitionMatrix(None, reversible=sub.reversible, spec=spec, tiling=tiling)


def hamiltonian_cycle_matrix(order: Sequence[int]) -> np.ndarray:
    """Deterministic cycle transition matrix visiting nodes in the given order."""
    order = np.asarray(order, dtype=int)
    n = order.size
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("cycle order must be a permutation of range(n_states)")
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
    C = hamiltonian_cycle_matrix(np.arange(base.n_states))
    P = (1.0 - w) * base.probs + w * C
    # the blended matrix no longer has the base graph's spectrum: drop the
    # provenance so no closed-form route is taken downstream
    return TransitionMatrix(P, reversible=False, weights=None, spec=None)
