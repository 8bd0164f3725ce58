"""Hidden-Markov languages over non-overlapping N-gram states.

A language is (pi, T, O): an initial distribution and transition matrix over
|X|^N states, plus a row-stochastic emission matrix mapping each of the |X|
speech units to |Y| text units. States encode N-grams big-endian: state s of
the block (x_1, ..., x_N) is sum_i x_i * |X|^(N-i), so the block's final unit
is s mod |X|.

Positional unigram matrices stack, for block positions k = 0..L-1, the
marginal distribution of the unit the block-sum selector extracts. Under the
big-endian encoding that selector reads the FINAL unit of each block, state
mod |X|: the exact recursion bins states by blocks % |X|, and the sampler
keeps paths % |X|, so a corpus holds only those L units of a sequence and
their emissions; spectral's sigma_min bound bins its eigenvector rows the
same way. Empirical and exact unigrams must agree on the selector or
nothing downstream lines up.

Sampling is an exact inverse CDF. A uniform draw u in [0, 1) against a
probability row with running sums cum picks #{j : cum[j] < u}, the number of
CDF entries below u, so a corpus is a fixed function of its seed. The running
sums of a valid row may end just below 1 (rows are checked to 1e-12, and
u reaches 1 - 2^-53); a draw above the last one would count the whole row, an
index outside the alphabet, and takes the row's last column with positive
probability instead. Likewise a draw of exactly 0 would count no entry and
pick column 0 even where that column has probability 0; it takes the row's
first column with positive probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import TransitionMatrix

PROB_TOL = 1e-12

# Child-seed offset for the independent text half of an unmatched corpus.
UNMATCHED_SEED_SPLIT = 2**31


@dataclass
class HmmLanguage:
    """(pi, T, O) with alphabet sizes; states are N-grams over X."""

    pi: np.ndarray
    T: TransitionMatrix
    O: np.ndarray
    N: int
    nx: int
    ny: int

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.O = np.asarray(self.O, dtype=float)
        states = self.nx**self.N
        if self.T.n_states != states:
            raise ValueError(f"T has {self.T.n_states} states, expected |X|^N = {states}")
        if self.pi.shape != (states,):
            raise ValueError(f"pi must have shape ({states},)")
        if np.any(self.pi < 0) or abs(self.pi.sum() - 1.0) > PROB_TOL:
            raise ValueError("pi must be a probability vector")
        if self.O.shape != (self.nx, self.ny):
            raise ValueError(f"O must be |X|x|Y| = ({self.nx}, {self.ny})")
        if np.any(self.O < 0) or np.max(np.abs(self.O.sum(axis=1) - 1.0)) > PROB_TOL:
            raise ValueError("O rows must be probability vectors")


@dataclass
class Corpus:
    """Sampled speech and text sequences of the selector unit of each of L
    blocks: a state's final unit, and that unit's emission."""

    speech: np.ndarray  # (n_speech, L) ints in [0, |X|)
    text: np.ndarray  # (n_text, L) ints in [0, |Y|)
    matched: bool
    L: int
    nx: int
    ny: int

    def __post_init__(self):
        self.speech = np.asarray(self.speech, dtype=np.int64)
        self.text = np.asarray(self.text, dtype=np.int64)
        for name, arr, size in (("speech", self.speech, self.nx), ("text", self.text, self.ny)):
            if arr.ndim != 2 or arr.shape[1] != self.L:
                raise ValueError(f"{name} sequences must all have length L = {self.L}")
            if arr.size and (arr.min() < 0 or arr.max() >= size):
                raise ValueError(f"{name} units must lie in [0, {size})")
        if self.matched and self.speech.shape[0] != self.text.shape[0]:
            raise ValueError("matched corpora need equally many speech and text sequences")


@dataclass
class PositionalUnigramPair:
    """L x |X| speech and L x |Y| text positional unigram matrices."""

    PX: np.ndarray
    PY: np.ndarray

    def __post_init__(self):
        self.PX = np.asarray(self.PX, dtype=float)
        self.PY = np.asarray(self.PY, dtype=float)
        if self.PX.ndim != 2 or self.PY.ndim != 2 or self.PX.shape[0] != self.PY.shape[0]:
            raise ValueError("PX and PY must be 2-D with a common number of block positions")
        tol = 1e-10
        for name, M in (("PX", self.PX), ("PY", self.PY)):
            if np.any(M < -tol) or np.max(np.abs(M.sum(axis=1) - 1.0)) > tol:
                raise ValueError(f"{name} rows must be probability vectors")

    @property
    def L(self) -> int:
        return self.PX.shape[0]


def random_initial_vector(states: int, seed) -> np.ndarray:
    """Uniform(0,1) coefficients, normalized to sum 1. Entries strictly positive."""
    if states < 1:
        raise ValueError("states must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 1.0, size=states)
    # A literal 0.0 draw is possible in principle; nudge away so positivity holds.
    v = np.maximum(v, np.finfo(float).tiny)
    return v / v.sum()


def random_permutation_emission(size: int, seed) -> np.ndarray:
    """Random row permutation of the identity; requires |X| = |Y| = size."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    return np.eye(size)[perm]


def exact_positional_unigrams(lang: HmmLanguage, L: int) -> PositionalUnigramPair:
    """Analytic positional unigrams: row k of PX marginalizes pi T^k.

    pi evolves copy by copy: D = pi[blocks] takes one TransitionMatrix.step
    per position (never matrix powers), and row k bins D by each position's
    final unit, plus the fillers' mass, which never moves. A tiled T (see
    graphs.assemble) steps by its subgraph; any other T is one copy of itself
    with no fillers. A dense chain steps as D @ probs; a Q_n from
    graphs.build_hypercube, tiled or not, as the mean of its n bit flips, so
    it is laid out at no size. PY = PX @ O holds by construction.
    """
    if L < 1:
        raise ValueError("need at least one block position")
    tiling = lang.T.tiling
    blocks, fillers, step = (
        (np.arange(lang.pi.size)[None], np.arange(0), lang.T.step) if tiling is None
        else (tiling.blocks, tiling.fillers, tiling.sub.step))
    # the selector reads position p's final unit, p mod |X|
    units = (blocks % lang.nx).ravel()
    resting = np.bincount(fillers % lang.nx, weights=lang.pi[fillers], minlength=lang.nx)
    PX = np.empty((L, lang.nx))
    dist = lang.pi[blocks]
    for k in range(L):
        PX[k] = np.bincount(units, weights=dist.ravel(), minlength=lang.nx) + resting
        if k + 1 < L:
            dist = step(dist)
    return PositionalUnigramPair(PX=PX, PY=PX @ lang.O)


class _RowSampler:
    """Exact inverse-CDF draws from the rows of a row-stochastic matrix.

    A draw u from row r returns #{j : cum[r, j] < u}, the count the module
    docstring promises, through a guide table (Chen & Asau 1974): the unit
    interval is cut into M = 2^m buckets, so b = floor(u * M) and b / M are
    exact. pick[r, b] = #{j : cum[r, j] < b / M} is the answer for every u in
    bucket b unless a CDF value of row r lies inside the bucket; only draws
    that land in such a bucket compare u with the whole row. The count is
    then clipped to the row's first and last columns with positive
    probability: a count above the last one is S (u above the row's last CDF
    value), and a count below the first one needs u = 0 against a leading
    zero. Only slow draws can reach either: a row that sums to within 1/M of
    1 has its last CDF value in the top bucket or above it, and a leading
    zero puts a CDF value 0 in bucket 0.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.atleast_2d(probs)
        self.cum = np.cumsum(probs, axis=1)
        rows, S = self.cum.shape
        # about 8 buckets per column: a row of S values touches at most S of
        # them, so at least 7 draws in 8 read the table alone
        self.M = M = 1 << (8 * S - 1).bit_length()
        self.first = np.argmax(probs > 0, axis=1)
        self.last = S - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
        # bucket of every CDF value (values >= 1 go to the overflow slot M);
        # u < b / M  <=>  floor(u * M) < b, exactly, since M is a power of two
        bucket = np.minimum(np.floor(self.cum * M), M).astype(np.int64)
        hits = np.bincount(
            (bucket + (M + 1) * np.arange(rows)[:, None]).ravel(), minlength=rows * (M + 1)
        ).reshape(rows, M + 1)[:, :M]
        self.mixed = hits > 0
        self.pick = (np.cumsum(hits, axis=1) - hits).astype(np.int32)

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One draw per entry: u[i] against the CDF row rows[i]."""
        b = (u * self.M).astype(np.int64)
        out = self.pick[rows, b].astype(np.int64)
        slow = np.flatnonzero(self.mixed[rows, b])
        if slow.size:
            r = rows[slow]
            count = (self.cum[r] < u[slow, None]).sum(axis=1)
            out[slow] = np.clip(count, self.first[r], self.last[r])
        return out


def _sample_state_paths(
    lang: HmmLanguage, n_sequences: int, L: int, rng: np.random.Generator
) -> np.ndarray:
    # one call yields the stream of the first draw plus the L - 1 step draws
    u = rng.random((L, n_sequences))
    paths = np.empty((n_sequences, L), dtype=np.int64)
    paths[:, 0] = _RowSampler(lang.pi).draw(np.zeros(n_sequences, dtype=np.int64), u[0])
    step = _RowSampler(lang.T.probs)
    for k in range(1, L):
        paths[:, k] = step.draw(paths[:, k - 1], u[k])
    return paths


def _emit_text(units: np.ndarray, O: np.ndarray, N: int, rng: np.random.Generator) -> np.ndarray:
    """Text for each block's final unit. One uniform is drawn for each of a
    sequence's L*N units, in order, and each block keeps its final unit's,
    so the stream is that of emitting every unit of every N-gram."""
    n, L = units.shape
    u = rng.random((n, L * N))[:, N - 1 :: N]
    return _RowSampler(O).draw(units.ravel(), u.ravel()).reshape(units.shape)


def sample_corpus(
    lang: HmmLanguage, n_sequences: int, L: int, matched: bool, seed: int
) -> Corpus:
    """Ancestral sampling of n_sequences state paths, kept as the final unit
    of each block (the selector's unit) with its emitted text.

    Matched mode runs emission on the sampled speech. Unmatched mode draws two
    independent corpora from child seeds (seed, seed + 2^31) and keeps the
    speech side of the first and the text side of the second. The first
    corpus's text is never emitted: emission is the last draw from its
    stream, so skipping it leaves the speech side unchanged.
    """
    if n_sequences < 1:
        raise ValueError("need at least one sequence")

    def one_corpus(child_seed: int, emit: bool = True):
        rng = np.random.default_rng(child_seed)
        speech = _sample_state_paths(lang, n_sequences, L, rng) % lang.nx
        return speech, _emit_text(speech, lang.O, lang.N, rng) if emit else None

    if matched:
        speech, text = one_corpus(seed)
    else:
        speech, _ = one_corpus(seed, emit=False)
        _, text = one_corpus(seed + UNMATCHED_SEED_SPLIT)
    return Corpus(speech=speech, text=text, matched=matched, L=L, nx=lang.nx, ny=lang.ny)


def _positional_counts(seqs: np.ndarray, alphabet: int, L: int) -> np.ndarray:
    # one bincount over all positions: position k's units land in bins
    # k*alphabet .. k*alphabet + alphabet - 1
    keys = seqs + alphabet * np.arange(L)
    return np.bincount(keys.ravel(), minlength=L * alphabet).reshape(L, alphabet) / seqs.shape[0]


def empirical_positional_unigrams(corpus: Corpus) -> PositionalUnigramPair:
    """Relative frequencies of the selector unit at each block position, the
    same unit the analytic extraction reads."""
    if corpus.speech.shape[0] == 0 or corpus.text.shape[0] == 0:
        raise ValueError("corpus must contain sequences on both sides")
    PX = _positional_counts(corpus.speech, corpus.nx, corpus.L)
    PY = _positional_counts(corpus.text, corpus.ny, corpus.L)
    return PositionalUnigramPair(PX=PX, PY=PY)
