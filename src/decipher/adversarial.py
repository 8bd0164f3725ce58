"""Adversarial recovery of the unit assignment from positional unigrams.

Generator: one linear layer with no bias per speech unit, row-softmaxed into
an assignment matrix O. Discriminators are decomposable: the score of a
sequence distribution is a sum of per-position scores, either a linear
functional per position (one 1xL convolution with no bias, flattened here to
an L x |Y| weight array) or a per-position 2-layer ReLU perceptron.

Each epoch is one fixed step rule on the full batch: one plain gradient step
of the discriminator up the chosen objective (rate 1.0), then one
adaptive-moment step of the generator up its fake-term payoff through the
softmax Jacobian (rate GEN_LR). Two generator averaging strategies are
implemented: soft_input feeds per-unit posterior rows straight into the
discriminator; outside_cost weights the per-symbol transform values by the
generated distribution. All gradients are hand-derived and checked against
finite differences in tests.

The MLP works through per-position matrix products. The hidden activations of
every input row at every position come from one (rows x |Y|) @ (|Y| x
L*hidden) product, laid out rows x L x hidden so that elementwise work runs
along the hidden axis; the output layer is one small product per position,
and the generator's dF/dO is one (|X| x L*hidden) @ (L*hidden x |Y|) product.
Under mmd and wasserstein every score derivative is the constant 1: the
scores that would feed it are skipped, and the generator step takes its
activity mask from the pre-activations, with no ReLU pass.

An MLP epoch makes no float temporary as large as W or as the hidden layer
of all input rows. Each member's training owns work arrays (_MlpWork) that its
variants share, and every such array is written into one of them with out=:
the hidden pre-activations, which are then overwritten by their
back-propagated values, their activity mask, the soft_input fake side's W
gradient, and relu(W) and W > 0 of weights that are not a fresh reset. A
discriminator step writes its W gradient into the work arrays' spare W, adds
the start's W into it in place and takes that array as its own W, so its old
W is the next spare. The work arrays belong to one train call, and the
discriminators it returns do not hold them.

An MLP reset draws L x hidden x (|Y| + 1) standard normals, which take about
as long as the rest of the epoch, and the draws depend only on the member's
generator. So the variants of a member (configs that differ only in
objective, averaging or reset, such as the two averaging modes) train in
lockstep on one reset stream: each epoch the member's reset is drawn once,
and every variant that resets takes its step from those weights into its
own arrays. The resets are drawn one epoch ahead on a second thread: while
one epoch trains, the thread draws the next reset into spare weight arrays,
scales them and forms the terms that depend only on the reset, relu(W) and
W > 0, which every resetting variant's step reads; the reset swaps them all
in. Each variant keeps the bytes of its own run with resets drawn in turn.
The thread belongs to a one-worker executor that lives for one member's
training, so a member's variants share one drawer thread; under --jobs N
each worker process adds one such thread.

The generator, the linear discriminator and their gradients also accept a
leading member axis, so one call trains several independent runs in the same
array operations. Stacked matmul multiplies member by member, so each member
gets the bytes of its own 2-D products.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hmm import PositionalUnigramPair
from .recovery import phoneme_error_rate, recover_pseudoinverse

OBJECTIVES = ("mmd", "jsd", "wasserstein")
AVERAGING_MODES = ("soft_input", "outside_cost")
DISCRIMINATORS = ("linear", "mlp")

# the generator's initial logit scale and Adam step; the discriminator's
# plain step has rate 1.0
INIT_SCALE = 0.01
GEN_LR = 0.005
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# the MLP discriminator's width
HIDDEN = 128


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_jacobian(prob_row: np.ndarray) -> np.ndarray:
    """H = diag(p) - p p^T: symmetric, PSD, annihilates the all-ones vector."""
    p = np.asarray(prob_row, dtype=float)
    return np.diag(p) - np.outer(p, p)


def apply_softmax_jacobian(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row x is H(P_x) G_x for every row at once: H(p) g = p * (g - <p, g>)
    needs no |Y| x |Y| Jacobian per row. The reduction is .sum's without
    its Python layer, which costs as much as the arithmetic at these sizes."""
    return P * (G - np.add.reduce(P * G, axis=-1, keepdims=True))


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: a.T for one member, per member for a stack."""
    return np.swapaxes(a, -1, -2)


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s, dtype=float)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(s: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, s)


def _transforms(objective: str):
    """a, a', b, b' for the chosen objective, vectorized over scores.

    A derivative that is the constant 1 (mmd, wasserstein) is None: callers
    skip the scores it would read, since x * 1.0 == x.
    """
    if objective == "jsd":
        return (
            lambda s: -_softplus(-np.asarray(s, dtype=float)),  # log sigmoid
            lambda s: _sigmoid(-np.asarray(s, dtype=float)),
            lambda s: _softplus(np.asarray(s, dtype=float)),  # -log(1 - sigmoid)
            lambda s: _sigmoid(np.asarray(s, dtype=float)),
        )
    if objective in ("mmd", "wasserstein"):
        ident = lambda s: np.asarray(s, dtype=float)
        return ident, None, ident, None
    raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


@dataclass
class Generator:
    U: np.ndarray  # |X| x |Y| logits, or members x |X| x |Y|

    @classmethod
    def initialize(cls, nx: int, ny: int, rng: np.random.Generator):
        return cls(U=rng.normal(0.0, INIT_SCALE, size=(nx, ny)))

    @property
    def O(self) -> np.ndarray:
        return softmax(self.U, axis=-1)


class LinearPositionalDiscriminator:
    """Per-position linear functional; score(P) = sum_l <w_l, P_l>.

    With ``members`` the weights gain a leading member axis, one independent
    discriminator per member.
    """

    kind = "linear"

    def __init__(self, L: int, ny: int, members: Optional[int] = None):
        self.w = np.zeros((L, ny) if members is None else (members, L, ny))

    def member(self, i: int) -> "LinearPositionalDiscriminator":
        """Member i of a stacked discriminator; it shares the stack's weights."""
        view = copy.copy(self)
        view.w = self.w[i]
        return view

    def symbol_scores(self) -> np.ndarray:
        # score of the one-hot symbol y at position l
        return self.w

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        self.w[:] = 0.0

    def params(self) -> list[np.ndarray]:
        return [self.w]

    def step_from(self, start: "LinearPositionalDiscriminator", grads: list[np.ndarray]) -> None:
        """The weights become start's weights plus the step grads; start may be self."""
        np.add(start.w, grads[0], out=self.w)


class PerStepMlpDiscriminator:
    """Per-position 2-layer ReLU perceptron |Y| -> hidden -> 1, no biases.

    W is L x hidden x |Y| and v is L x hidden; a reset draws them in that order.
    While a train call owns it, work holds that call's work arrays; fresh
    holds relu(W) and W > 0 while W is a reset that a _ResetDraws formed them
    for.
    """

    kind = "mlp"

    def __init__(self, L: int, ny: int, rng: np.random.Generator, hidden: int = HIDDEN):
        self.hidden = hidden
        self.ny = ny
        self.L = L
        self.W = np.empty((L, hidden, ny))
        self.v = np.empty((L, hidden))
        self.work: Optional[_MlpWork] = None
        self.fresh: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.reset(rng)

    def reset(self, rng: Optional[np.random.Generator | _ResetDraws] = None) -> None:
        """Fresh weights from the standard normals of a generator, or the
        scaled ones, with their reset-only terms, that a _ResetDraws drew
        ahead for this reset."""
        if rng is None:
            raise ValueError("mlp reset needs a generator for fresh weights")
        if isinstance(rng, _ResetDraws):
            self.W, self.v, self.fresh = rng.swap(self.W, self.v, self.fresh)
        else:
            rng.standard_normal(out=self.W)
            rng.standard_normal(out=self.v)
            _scale_draws(self.W, self.v)
            self.fresh = None

    def member(self, i: int) -> "PerStepMlpDiscriminator":
        # an MLP discriminator is never stacked: it trains one member
        return self

    def work_for(self, rows: int) -> "_MlpWork":
        """The owning train call's work arrays, or new ones for one call outside training."""
        return self.work if self.work is not None else _MlpWork(self.W, rows)

    # relu(W) and W > 0: a fresh reset's, or else formed into the work arrays
    def relu_W(self) -> np.ndarray:
        if self.fresh is not None:
            return self.fresh[0]
        return np.maximum(self.W, 0.0, out=None if self.work is None else self.work.relu_W)

    def active_W(self) -> np.ndarray:
        if self.fresh is not None:
            return self.fresh[1]
        return np.greater(self.W, 0.0, out=None if self.work is None else self.work.active_W)

    def symbol_scores(self) -> np.ndarray:
        # one-hot input selects a column of W: t[l, y] = v_l . relu(W_l[:, y])
        return (self.v[:, None, :] @ self.relu_W())[:, 0, :]

    def params(self) -> list[np.ndarray]:
        return [self.W, self.v]

    def step_from(self, start: "PerStepMlpDiscriminator", grads: list[np.ndarray]) -> None:
        """The weights become start's weights plus the step grads; start may be self.

        A W gradient in the work arrays' grad_W takes start's W in place and
        becomes this discriminator's W; the old W is the next grad_W.
        """
        gW, gv = grads
        if self.work is not None and gW is self.work.grad_W:
            np.add(start.W, gW, out=gW)
            self.W, self.work.grad_W = gW, self.W
        else:
            np.add(start.W, gW, out=self.W)
        np.add(start.v, gv, out=self.v)
        self.fresh = None


def _scale_draws(W: np.ndarray, v: np.ndarray) -> None:
    """Standard normal draws to a reset's weights. normal(0, s) returns 0 + s * z
    for the same standard draws z, so scaling in place keeps its bytes without a copy."""
    _, hidden, ny = W.shape
    W *= np.sqrt(2.0 / (ny + hidden))
    v *= np.sqrt(2.0 / (hidden + 1))


class _MlpWork:
    """The work arrays of one MLP member's training, which its variants share.

    Every float array of an epoch that is as large as W, or as the hidden layer
    of all |X| input rows, is written into one of these with out=. They belong
    to one train call: the discriminators drop them when the member's training ends.
    """

    def __init__(self, W: np.ndarray, rows: int):
        L, hidden, _ = W.shape
        # hidden pre-activations of the input rows, then their back-propagated values
        self.pre = np.empty((rows, L * hidden))
        self.active = np.empty((rows, L, hidden), dtype=bool)
        self.fake_W = np.empty_like(W)  # the soft_input fake side's W gradient
        self.grad_W = np.empty_like(W)  # the next W gradient, which a step takes as its W
        self.relu_W = np.empty_like(W)  # relu(W) and W > 0 of weights that are no fresh reset
        self.active_W = np.empty(W.shape, dtype=bool)


class _ResetDraws:
    """The weights of an MLP member's per-epoch resets, drawn one epoch ahead
    by a one-worker executor, with their reset-only terms.

    At most one draw is pending, and only it uses the member's generator. It
    fills a spare W, v pair with the next reset's standard draws, W then v as
    reset draws them, scales them and forms relu(W) and W > 0 into a spare
    pair of term arrays. swap hands those to the discriminator and submits
    the old ones as the spares for the draw after. Exactly count draws are
    submitted, so the stream ends where resets drawn in turn would leave it.
    The block shuts the executor down on exit, also when training raises.
    """

    def __init__(self, rng: np.random.Generator, disc: PerStepMlpDiscriminator, count: int):
        # imported here: concurrent.futures brings in logging, about 10 ms and
        # 0.5 MB that only MLP training needs
        from concurrent.futures import ThreadPoolExecutor

        # the worker starts on the first submit, so count 0 starts none
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="decipher-reset-draws")
        self._rng = rng
        self._left = count  # swaps still to come
        if count:
            self._pending = self._pool.submit(self._draw, np.empty_like(disc.W),
                                              np.empty_like(disc.v), _term_arrays(disc.W))

    def _draw(self, W: np.ndarray, v: np.ndarray, terms: tuple[np.ndarray, np.ndarray]):
        # only array fills run here: they release the GIL, and they open no
        # span of perfbench's tracer, whose open-span stack is one thread's
        self._rng.standard_normal(out=W)
        self._rng.standard_normal(out=v)
        _scale_draws(W, v)
        np.maximum(W, 0.0, out=terms[0])
        np.greater(W, 0.0, out=terms[1])
        return W, v, terms

    def swap(self, W: np.ndarray, v: np.ndarray, terms: Optional[tuple[np.ndarray, np.ndarray]]):
        """The next reset's weights and their relu(W) and W > 0; W, v and
        terms (None before the first swap) become the next spares."""
        drawn = self._pending.result()
        self._left -= 1
        if self._left:
            self._pending = self._pool.submit(self._draw, W, v, terms or _term_arrays(W))
        return drawn

    def __enter__(self) -> "_ResetDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True)


def _term_arrays(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.empty_like(W), np.empty(W.shape, dtype=bool)


def _mlp_pre(disc: PerStepMlpDiscriminator, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """pre[r, l, h]: hidden pre-activations of input row r at every position l,
    from one (r x |Y|) @ (|Y| x L*hidden) product into out."""
    L, hidden, ny = disc.W.shape
    np.matmul(rows, disc.W.reshape(L * hidden, ny).T, out=out)
    return out.reshape(len(rows), L, hidden)


def _mlp_scores(disc: PerStepMlpDiscriminator, relu: np.ndarray) -> np.ndarray:
    """m[l, r] = v_l . relu[r, l]: one (r x hidden) @ (hidden x 1) product per position."""
    return (relu.transpose(1, 0, 2) @ disc.v[:, :, None])[:, :, 0]


def _mlp_backprop(disc: PerStepMlpDiscriminator, hidden: np.ndarray, active: np.ndarray,
                  coeff: np.ndarray) -> np.ndarray:
    """D[r, l, h] = coeff[l, r] v[l, h] active[r, l, h], the derivative of
    sum coeff[l, r] m[l, r] in the hidden pre-activations, written over hidden."""
    np.multiply(coeff.T[:, :, None], disc.v, out=hidden)
    hidden *= active
    return hidden


def _check_averaging(averaging: str) -> None:
    if averaging not in AVERAGING_MODES:
        raise ValueError(f"unknown averaging {averaging!r}; expected one of {AVERAGING_MODES}")


def objective_value(disc, objective: str, PX: np.ndarray, PY: np.ndarray, O: np.ndarray,
                    averaging: str) -> float:
    """J = real term - fake term under the chosen averaging of the fake side."""
    _check_averaging(averaging)
    a, _, b, _ = _transforms(objective)
    t = disc.symbol_scores()  # L x ny
    real = float(np.sum(PY * a(t)))
    if averaging == "outside_cost":
        fake = float(np.sum((PX @ O) * b(t)))
    else:
        m = _soft_unit_scores(disc, O)  # L x nx
        fake = float(np.sum(PX * b(m)))
    return real - fake


def _soft_unit_scores(disc, O: np.ndarray) -> np.ndarray:
    """m[l, x]: position-l score of the posterior row of unit x."""
    if disc.kind == "linear":
        return disc.w @ O.T
    pre = _mlp_pre(disc, O, disc.work_for(len(O)).pre)
    return _mlp_scores(disc, np.maximum(pre, 0.0, out=pre))


def discriminator_gradient(disc, objective: str, PX: np.ndarray, PY: np.ndarray,
                           O: np.ndarray, averaging: str) -> list[np.ndarray]:
    """Ascent direction of J in the discriminator parameters."""
    _check_averaging(averaging)
    _, ap, _, bp = _transforms(objective)
    if disc.kind == "mlp":
        return _mlp_discriminator_gradient(disc, ap, bp, PX, PY, O, averaging)
    real_coeff = PY if ap is None else PY * ap(disc.w)  # d real / d w
    if averaging == "outside_cost":
        fake_coeff = PX @ O if bp is None else (PX @ O) * bp(disc.w)
        return [real_coeff - fake_coeff]
    c = PX if bp is None else PX * bp(disc.w @ _mT(O))
    return [real_coeff - c @ O]


def _mlp_discriminator_gradient(disc: PerStepMlpDiscriminator, ap, bp, PX: np.ndarray,
                                PY: np.ndarray, O: np.ndarray,
                                averaging: str) -> list[np.ndarray]:
    work = disc.work_for(len(O))
    if averaging == "soft_input":
        # the fake side sees the posterior rows of O
        relu = _mlp_pre(disc, O, work.pre)
        np.maximum(relu, 0.0, out=relu)
        c = PX if bp is None else PX * bp(_mlp_scores(disc, relu))  # L x nx
        fake_v = (c[:, None, :] @ relu.transpose(1, 0, 2))[:, 0, :]
        active = np.greater(relu, 0.0, out=work.active)
        back = _mlp_backprop(disc, relu, active, c).reshape(len(O), -1)
        np.matmul(back.T, O, out=work.fake_W.reshape(back.shape[1], -1))
    # the real side, and the fake side under outside_cost, sees one-hot inputs;
    # t is disc.symbol_scores(), from the one relu(W) that gv also reads
    relu_W = disc.relu_W()
    t = None if ap is None else (disc.v[:, None, :] @ relu_W)[:, 0, :]
    coeff = PY if ap is None else PY * ap(t)  # L x ny, d J / d t[l,y]
    if averaging == "outside_cost":
        fake = PX @ O
        coeff = coeff - (fake if bp is None else fake * bp(t))
    gv = (relu_W @ coeff[:, :, None])[:, :, 0]
    # v (x) coeff by einsum, twice as fast as the broadcast product. Where that
    # product is -0 the einsum writes +0; a step adds the entry to weights that
    # are not zero, so the weights keep their bytes
    gW = np.einsum("lh,ly->lhy", disc.v, coeff, out=work.grad_W)
    gW *= disc.active_W()
    if averaging == "outside_cost":
        return [gW, gv]
    return [np.subtract(gW, work.fake_W, out=gW), gv - fake_v]


def generator_gradient(gen: Generator, disc, PX: np.ndarray, objective: str,
                       averaging: str) -> np.ndarray:
    """Ascent direction, in the logits U, of the generator's fake-term payoff.

    outside_cost: dF/dO = PX^T b(t) with t the per-symbol scores; soft_input:
    dF/dO[x] = sum_l PX[l,x] b'(m[l,x]) dm/d(input row). Either way the O
    gradient is pushed through each row's softmax Jacobian.
    """
    _check_averaging(averaging)
    _, _, b, bp = _transforms(objective)
    O = gen.O
    if averaging == "outside_cost":
        dF_dO = _mT(PX) @ b(disc.symbol_scores())
    elif disc.kind == "linear":
        c = PX if bp is None else PX * bp(disc.w @ _mT(O))
        dF_dO = _mT(c) @ disc.w
    else:
        work = disc.work_for(len(O))
        hidden = _mlp_pre(disc, O, work.pre)
        if bp is None:
            # no scores to read, and relu > 0 is pre > 0: the ReLU pass is skipped
            c = PX
        else:
            np.maximum(hidden, 0.0, out=hidden)
            c = PX * bp(_mlp_scores(disc, hidden))
        active = np.greater(hidden, 0.0, out=work.active)
        # every position's back-propagated rows at once: (x x L*h) @ (L*h x y)
        back = _mlp_backprop(disc, hidden, active, c).reshape(len(O), -1)
        dF_dO = back @ disc.W.reshape(-1, disc.ny)
    return apply_softmax_jacobian(O, dF_dO)


@dataclass
class _AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        mhat = self.m / (1.0 - BETA1**self.t)
        vhat = self.v / (1.0 - BETA2**self.t)
        return GEN_LR * mhat / (np.sqrt(vhat) + EPS)


@dataclass
class TrainConfig:
    objective: str = "mmd"
    epochs: int = 100
    reset_discriminator: bool = True
    averaging: str = "soft_input"
    discriminator: str = "linear"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.averaging not in AVERAGING_MODES:
            raise ValueError(f"unknown averaging {self.averaging!r}")
        if self.discriminator not in DISCRIMINATORS:
            raise ValueError(f"unknown discriminator {self.discriminator!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainResult:
    generator: Generator
    discriminator: object
    trace: list[dict] = field(default_factory=list)

    def decoded(self) -> np.ndarray:
        return np.argmax(self.generator.O, axis=1)


def train(pair: PositionalUnigramPair | Sequence[PositionalUnigramPair], cfg: TrainConfig,
          true_O=None, rngs: Optional[Sequence[np.random.Generator]] = None,
          keep_trace: bool = True, variants: Optional[Sequence[TrainConfig]] = None):
    """Alternating full-batch training on positional unigram pairs.

    One epoch = one discriminator ascent step (after an optional reset)
    followed by one generator ascent step. The trace records,
    per epoch, the averaging-consistent objective J and the Frobenius
    residual ||PX O - PY||_F, plus the decoded error rate when the true
    assignment is supplied; with keep_trace False it holds the final
    epoch's row only.

    Every call takes one generator per pair in rngs. One pair trains one
    run and returns its TrainResult; a diverged run raises RuntimeError. A
    sequence of B pairs of one shape trains B independent members, with
    true_O a sequence of B assignments (or None), and returns one entry per
    member: its TrainResult, or the RuntimeError that stopped it.

    variants, if given, are configs that differ from cfg only in objective,
    averaging and reset_discriminator. Each trains on the same
    pairs from the same generators, and the call returns one list of member
    outcomes per variant. The variants run in lockstep, epoch by epoch.
    Linear members train together over a leading member axis; MLP members
    train one after another. A member's variants share its initial draws
    and, each epoch, one reset: it is drawn one epoch ahead on one second
    thread per member, which is joined before the member's outcomes are
    kept. Either way each member of each variant ends with the bytes of its
    own run. A diverged member keeps its slot in a linear stack, and its
    steps go on unread; stacked matmul works member by member, so they do
    not touch the others' bytes.
    """
    if isinstance(pair, PositionalUnigramPair):
        outcomes = train([pair], cfg, [true_O], rngs, keep_trace, variants)
        if variants is not None:
            return outcomes
        [outcome] = outcomes
        if isinstance(outcome, RuntimeError):
            raise outcome
        return outcome
    if rngs is None or len(rngs) != len(pair):
        raise ValueError("training needs one generator per pair")
    cfgs = [cfg] if variants is None else list(variants)
    if any((c.epochs, c.discriminator) != (cfg.epochs, cfg.discriminator) for c in cfgs):
        raise ValueError("variants must share cfg's epochs and discriminator")
    PX = np.stack([np.asarray(p.PX, dtype=float) for p in pair])
    PY = np.stack([np.asarray(p.PY, dtype=float) for p in pair])
    B, L, nx = PX.shape
    ny = PY.shape[2]
    truths = list(true_O) if true_O is not None else [None] * B
    if cfg.discriminator == "linear":
        U = np.stack([Generator.initialize(nx, ny, rng).U for rng in rngs])
        discs = [LinearPositionalDiscriminator(L, ny, members=B) for _ in cfgs]
        # a linear reset is all zeros, so one unstacked discriminator serves every member
        outcomes = _train_members(PX, PY, U, LinearPositionalDiscriminator(L, ny), None, discs,
                                  truths, cfgs, cfg.epochs, keep_trace)
    else:
        outcomes = [[] for _ in cfgs]
        for b, rng in enumerate(rngs):
            member = _train_mlp_member(PX[b], PY[b], rng, truths[b], cfgs, keep_trace)
            for kept, [outcome] in zip(outcomes, member):
                kept.append(outcome)
    return outcomes if variants is not None else outcomes[0]


def _train_mlp_member(PX, PY, rng, truth, cfgs, keep_trace: bool) -> list[list]:
    """One MLP member's variants in lockstep. Its work arrays and its reset
    draws belong to this call: the returned discriminators hold neither."""
    (L, nx), ny = PX.shape, PY.shape[1]
    epochs = cfgs[0].epochs
    resets = epochs if any(c.reset_discriminator for c in cfgs) else 0
    U = Generator.initialize(nx, ny, rng).U
    shared = PerStepMlpDiscriminator(L, ny, rng)
    discs = [copy.deepcopy(shared) for _ in cfgs]
    work = _MlpWork(shared.W, nx)
    for disc in [shared, *discs]:
        disc.work = work
    with _ResetDraws(rng, shared, resets) as draws:
        member = _train_members(PX, PY, U, shared, draws, discs, [truth], cfgs, epochs,
                                keep_trace)
    for disc in discs:
        disc.work = None
    return member


def _train_members(PX, PY, U, shared, draws, discs, truths, cfgs, epochs: int,
                   keep_trace: bool) -> list[list]:
    """The epoch loop of train, for the variants cfgs in lockstep.

    Each variant starts from a copy of U, whose leading axis stacks the
    members (or which is one member's 2-D logits), and from its own
    discriminator in discs. Each epoch shared is reset once, from draws, if
    a variant still training resets; every such variant then takes its
    discriminator step from shared's weights into its own, which leaves
    shared intact for the next, and the others step from their own. Returns
    one list of member outcomes per variant.
    """
    runs = [_Run(c, Generator(U=U.copy()), d, PX, PY, len(truths)) for c, d in zip(cfgs, discs)]
    live = runs
    for epoch in range(epochs):
        if any(run.cfg.reset_discriminator for run in live):
            # a linear reset draws nothing; an MLP member takes the draws made ahead for it
            shared.reset(draws)
        for run in live:
            run.epoch(epoch, shared, truths, keep_trace or epoch == epochs - 1)
        live = [run for run in live if None in run.outcomes]
    return [run.results() for run in runs]


class _Run:
    """One variant's state in the epoch loop: its generator and Adam moments,
    its discriminator, and every member's trace and outcome. The stack keeps
    its shape: a member is live while its outcome is None."""

    def __init__(self, cfg: TrainConfig, gen: Generator, disc, PX, PY, count: int):
        self.cfg, self.gen, self.disc, self.PX, self.PY = cfg, gen, disc, PX, PY
        self.adam = _AdamState(m=np.zeros_like(gen.U), v=np.zeros_like(gen.U))
        self.outcomes: list = [None] * count
        self.traces: list[list[dict]] = [[] for _ in range(count)]

    def stacked(self, a: np.ndarray) -> np.ndarray:
        return a.reshape((len(self.outcomes),) + a.shape[-2:])

    def results(self) -> list:
        """Each member's error, or its TrainResult if it trained to the end."""
        return [TrainResult(generator=Generator(U=self.stacked(self.gen.U)[i]),
                            discriminator=self.disc.member(i), trace=self.traces[i])
                if outcome is None else outcome for i, outcome in enumerate(self.outcomes)]

    def epoch(self, epoch: int, shared, truths, record: bool) -> None:
        """The discriminator's step, from shared's weights if this variant
        resets, then the generator's. A live member whose weights stop being
        finite gets its error, once. With record, each live member appends
        its trace row."""
        cfg, gen, disc = self.cfg, self.gen, self.disc
        start = shared if cfg.reset_discriminator else disc
        disc.step_from(start, discriminator_gradient(start, cfg.objective, self.PX, self.PY,
                                                     gen.O, cfg.averaging))
        gen.U += self.adam.step(generator_gradient(gen, disc, self.PX, cfg.objective,
                                                   cfg.averaging))
        count = len(self.outcomes)
        # per member and array: are all its entries finite?
        ok = [np.isfinite(a).reshape(count, -1).all(axis=1) for a in [gen.U, *disc.params()]]
        gen_ok, disc_ok = ok[0], np.logical_and.reduce(ok[1:])
        for i in np.flatnonzero(~(gen_ok & disc_ok)):
            if self.outcomes[i] is None:
                part = "generator" if not gen_ok[i] else "discriminator"
                self.outcomes[i] = RuntimeError(f"{part} weights diverged at epoch {epoch}")
        if record:
            O = gen.O
            for i, (PX_i, PY_i, O_i) in enumerate(
                    zip(self.stacked(self.PX), self.stacked(self.PY), self.stacked(O))):
                if self.outcomes[i] is not None:
                    continue
                row = {
                    "step": epoch,
                    "J": objective_value(disc.member(i), cfg.objective, PX_i, PY_i, O_i,
                                         cfg.averaging),
                    "frobenius_residual": float(np.linalg.norm(PX_i @ O_i - PY_i)),
                }
                if truths[i] is not None:
                    row["per"] = phoneme_error_rate(np.argmax(O_i, axis=1), truths[i])
                self.traces[i].append(row)


def project_row_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorted threshold)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class ErmSolution:
    O_projected: np.ndarray

    def decoded(self) -> np.ndarray:
        return np.argmax(self.O_projected, axis=1)


def erm_least_squares(pair: PositionalUnigramPair) -> ErmSolution:
    """Pseudo-inverse fit of PX @ O ~ PY, its rows projected onto the simplex. The
    projection keeps each row's argmax, so this decodes as recover_pseudoinverse."""
    O_hat = recover_pseudoinverse(pair).O_hat
    return ErmSolution(O_projected=np.array([project_row_to_simplex(row) for row in O_hat]))
