"""Losses, optimizers, and the six training regimes.

``REGIME_TABLE`` is the only description of a regime: (feature source, gate
mode, trains features). The feature source is where the gates come from:
``self`` (the network's own ReLUs), ``relu`` (a ReLU feature net),
``linear`` (a deep linear feature net) or ``shallow`` (per-layer shallow
linear maps of the input).

* ``DNN``            — self, hard; a plain ReLU network
* ``DGN_FR``         — relu, hard, frozen at its random init
* ``DGN_FL``         — relu, hard, pre-trained as a ReLU classifier, then frozen
* ``DGN_STANDALONE`` — relu, soft, trained jointly with the value net
* ``DLGN``           — linear, soft, trained jointly
* ``DLGN_SF``        — shallow, soft, trained jointly

The value net always trains. A frozen feature net is checked to be
bit-identical after training; soft gates are the logistic gate with the
architecture's beta. ``Model`` alone routes the gates, by its ``perm``
(checked by ``arch.check_perm``) and its constant-1 value input
``ones_input``, identically in training and evaluation.

``Model.gates`` returns the gates the value network uses, one per gated
layer: a DNN's own ReLU gates, or those of the regime's feature network,
an ``arch.FeatureNet``. A DNN reads neither the routing nor a separate
value input, so ``TrainConfig`` refuses ``x_v="ones"`` and a ``perm`` for
it, and ``Model`` a ``perm`` and ``ones_input=True``, when built.

Every pass here runs on plain arrays (``arch.ARRAYS``), with no autodiff
graph: the value network is ``arch.run_stack`` under the regime's gates and
the feature network an ``arch.FeatureNet``. A training step is that
forward pass, the loss, then ``arch.stack_vjp`` of the value network and,
where the features train, the VJP of the feature network from its gates'
cotangents, routed back through ``perm``; a frozen feature net is only
read. The trained arrays are views into one float64 vector, which each
optimizer step updates in one pass after one finiteness check of the flat
gradient; the SGD schedule spans the ``ceil(n / batch_size)`` steps of
every epoch. ``Model.named_params`` names every parameter array as
``params.npz`` does. Inference (``Model.logits``, ``predict``,
``evaluate``) runs over blocks of ``LOGITS_BLOCK_ROWS`` rows and builds a
DLGN's hyperplanes once per call. The report records the time spent in
``evaluate`` as ``eval_s``.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .arch import (
    ArchSpec,
    FeatureNet,
    HARD,
    SOFT,
    Tape,
    _ensure_batch,
    check_perm,
    init_params,
    run_stack,
    self_gate,
    shallow_layer_specs,
    stack_vjp,
    weight_layer_specs,
)
from .numerics import check_positive, make_rng

DNN = "DNN"
DGN_FR = "DGN_FR"
DGN_FL = "DGN_FL"
DGN_STANDALONE = "DGN_STANDALONE"
DLGN = "DLGN"
DLGN_SF = "DLGN_SF"

# regime -> (feature source, gate mode, trains features); see the module docstring
REGIME_TABLE = {
    DNN: ("self", HARD, False),
    DGN_FR: ("relu", HARD, False),
    DGN_FL: ("relu", HARD, False),
    DGN_STANDALONE: ("relu", SOFT, True),
    DLGN: ("linear", SOFT, True),
    DLGN_SF: ("shallow", SOFT, True),
}
REGIMES = tuple(REGIME_TABLE)

# Model.logits runs the forward pass over blocks of this many rows, so that
# inference on a large dataset reuses arrays of a bounded size.
LOGITS_BLOCK_ROWS = 256


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def loss_softmax_ce(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    logits: (n, k); labels: (n,) integer array. The gradient is
    (softmax - onehot) / n, matching the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): {labels[(labels < 0) | (labels >= k)][0]}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[np.arange(n), labels]))
    p /= total
    p[np.arange(n), labels] -= 1.0
    return loss, p / n


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def appendix_schedule(total_iters: int) -> Callable[[int], float]:
    """4-phase piecewise learning rate {0.01, 0.1, 0.01, 0.001}.

    The reference breakpoints {400, 32000, 48000} out of 64000 iterations are
    rescaled proportionally to `total_iters` for desk-scale runs.
    """
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    fracs = (400 / 64000, 32000 / 64000, 48000 / 64000)
    breaks = [max(1, int(round(f * total_iters))) for f in fracs]
    values = (0.01, 0.1, 0.01, 0.001)

    def lr(t: int) -> float:
        for b, v in zip(breaks, values):
            if t < b:
                return v
        return values[-1]

    return lr


class SGDMomentum:
    """v <- mu v - eta g; theta <- theta + v. Optional per-iteration schedule."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9,
                 schedule: Callable[[int], float] | None = None):
        if lr <= 0 or not 0.0 <= momentum < 1.0:
            raise ValueError("need lr > 0 and 0 <= momentum < 1")
        self.lr, self.momentum, self.schedule = lr, momentum, schedule
        self.t = 0
        self.velocity: np.ndarray | float = 0.0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        """Update the parameter vector theta in place from its gradient g."""
        eta = self.schedule(self.t) if self.schedule else self.lr
        self.velocity = self.momentum * self.velocity - eta * g
        theta += self.velocity
        self.t += 1


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 3e-4):
        if lr <= 0:
            raise ValueError("need lr > 0")
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | float = 0.0
        self.v: np.ndarray | float = 0.0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        """Update the parameter vector theta in place from its gradient g."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def make_optimizer(name: str, lr: float, momentum: float = 0.9,
                   schedule_iters: int | None = None) -> SGDMomentum | Adam:
    if name == "adam":
        return Adam(lr=lr)
    if name == "sgd":
        sched = appendix_schedule(schedule_iters) if schedule_iters else None
        return SGDMomentum(lr=lr, momentum=momentum, schedule=sched)
    raise ValueError(f"unknown optimizer {name!r}; choose adam or sgd")


# ---------------------------------------------------------------------------
# Config / report
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    regime: str = DNN
    x_v: str = "data"  # "data" or "ones" (constant-1 value input)
    perm: tuple[int, ...] | None = None  # gate routing permutation
    optimizer: str = "adam"
    lr: float = 3e-3
    momentum: float = 0.9
    use_schedule: bool = False  # 4-phase schedule (sgd only)
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    init: str = "normal"  # "normal" or "bernoulli" (+-sigma)
    pretrain_epochs: int = 15  # DGN_FL feature pre-training

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown train.regime {self.regime!r}; choose from {REGIMES}")
        if self.x_v not in ("data", "ones"):
            raise ValueError(f"train.x_v must be 'data' or 'ones', got {self.x_v!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"train.optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.init not in ("normal", "bernoulli"):
            raise ValueError(f"train.init must be 'normal' or 'bernoulli', got {self.init!r}")
        for key, low in (("epochs", 1), ("batch_size", 1), ("pretrain_epochs", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"train.{key} must be >= {low}, got {getattr(self, key)}")
        check_positive("train.lr", self.lr)
        if self.use_schedule and self.optimizer != "sgd":
            raise ValueError("train.use_schedule=true needs train.optimizer='sgd', "
                             f"got {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"train.momentum must be in [0, 1), got {self.momentum}")
        if self.perm is not None:
            if not isinstance(self.perm, (list, tuple)) or not all(
                    isinstance(p, (int, np.integer)) and not isinstance(p, bool)
                    for p in self.perm):
                raise ValueError(f"train.perm must be null or a list of ints, got {self.perm!r}")
            self.perm = tuple(int(p) for p in self.perm)
        _refuse_routing(self.regime, **{"train.x_v": (self.x_v, "data"),
                                         "train.perm": (self.perm, None)})


def _refuse_routing(regime: str, **fields: tuple) -> None:
    """Refuse each ``name=(value, default)`` off its default for a DNN, which gates itself."""
    for key, (value, default) in fields.items():
        if REGIME_TABLE[regime][0] == "self" and value != default:
            raise ValueError(f"{key}={value!r} needs a gated regime; "
                             f"{regime} uses its own ReLU gates")


@dataclass
class TrainReport:
    regime: str
    seed: int
    config: dict
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    final_test_accuracy: float | None = None
    wall_clock_s: float = 0.0
    eval_s: float = 0.0  # the part of wall_clock_s spent in evaluate()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A trained (or initialized) network plus everything needed to run it.
    Frozen, so the ``perm`` it checks when built is the one it runs."""

    arch: ArchSpec
    regime: str
    params_f: dict[str, np.ndarray] | None
    params_v: dict[str, np.ndarray]
    perm: tuple[int, ...] | None = None
    ones_input: bool = False

    def __post_init__(self):
        check_perm(self.arch, self.perm)
        _refuse_routing(self.regime, perm=(self.perm, None), ones_input=(self.ones_input, False))

    def _features(self) -> FeatureNet | None:
        """The regime's feature network on arrays; None for a DNN, which gates itself."""
        source = REGIME_TABLE[self.regime][0]
        return None if source == "self" else FeatureNet(self.arch, self.params_f, source)

    def _run(self, X: np.ndarray, features: FeatureNet | None) -> tuple[Tape, tuple | None]:
        """The value network on the rows X under the regime's gates: its tape,
        and the state of the feature gates for `FeatureNet.vjp` (None for a DNN)."""
        arch = self.arch
        if features is None:
            return run_stack(arch, self.params_v, X, self_gate), None
        gates, state = features.gates(X, REGIME_TABLE[self.regime][1])
        routed = gates if self.perm is None else [gates[j] for j in self.perm]
        X_v = np.ones_like(X) if self.ones_input else X
        return run_stack(arch, self.params_v, X_v, lambda i, q: routed[i]), state

    def gates(self, X: np.ndarray) -> list[np.ndarray]:
        """The gates the value network uses on X, one array per gated layer
        with a batch axis, before routing: a DNN's own ReLU gates, or those of
        the regime's feature network."""
        X, _ = _ensure_batch(X, self.arch.d_in)
        features = self._features()
        if features is None:
            return self._run(X, None)[0].gates
        return features.gates(X, REGIME_TABLE[self.regime][1])[0]

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Logits of a batch (n, d_in), one forward pass per LOGITS_BLOCK_ROWS
        rows, or of one sample (d_in,) as a batch of one. A DLGN builds its
        hyperplanes at most once per call."""
        X, _ = _ensure_batch(X, self.arch.d_in)
        features = self._features()
        return np.concatenate([self._run(X[i:i + LOGITS_BLOCK_ROWS], features)[0].y
                               for i in range(0, max(len(X), 1), LOGITS_BLOCK_ROWS)])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(X), axis=1)

    def named_params(self) -> dict[str, np.ndarray]:
        """Every parameter array under its ``params.npz`` key: ``v.<layer>``
        for the value net, then ``f.<layer>`` for a feature net."""
        named = {f"v.{k}": v for k, v in self.params_v.items()}
        if self.params_f is not None:
            named.update({f"f.{k}": v for k, v in self.params_f.items()})
        return named


def evaluate(model: Model, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    return float(np.mean(model.predict(dataset.X) == dataset.y))


def _timed_evaluate(report: TrainReport, model: Model, dataset) -> float:
    """evaluate(), with its time added to report.eval_s."""
    t0 = time.perf_counter()
    accuracy = evaluate(model, dataset)
    report.eval_s += time.perf_counter() - t0
    return accuracy


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _init_net(arch: ArchSpec, rng, how: str, source: str | None = None) -> dict[str, np.ndarray]:
    """Normal or Bernoulli +/-sigma parameters at the fan-in scale: the
    per-layer shallow maps for feature source "shallow", else the weight
    layers (the value network and the other feature networks)."""
    specs = shallow_layer_specs(arch) if source == "shallow" else weight_layer_specs(arch)
    if how == "bernoulli":
        return init_params(arch, rng, specs=specs)
    return {name: rng.normal(scale=arch.init_sigma(kind), size=shape)
            for name, shape, kind in specs}


def _trained(model: Model) -> dict[str, np.ndarray]:
    """The named arrays the regime trains: the value net's, which
    `Model.named_params` lists first, and the feature net's unless it is frozen."""
    named = model.named_params()
    n = len(named) if REGIME_TABLE[model.regime][2] else len(model.params_v)
    return dict(itertools.islice(named.items(), n))


def _batch_grads(model: Model, Xb, yb):
    """The batch loss and its gradient in every array of `_trained(model)`:
    one explicit forward pass, then the VJP of the value network and, where
    the features train, of the feature network from its gates' cotangents."""
    arch, features = model.arch, model._features()
    tape, state = model._run(Xb, features)
    loss, dlogits = loss_softmax_ce(tape.y, yb)
    grads, dgated = stack_vjp(arch, model.params_v, tape, dlogits)
    if REGIME_TABLE[model.regime][2]:
        # gate i of the value net is feature gate perm[i]
        routed = [d * q for d, q in zip(dgated, tape.qs)]
        dgates = routed if model.perm is None else [routed[i] for i in np.argsort(model.perm)]
        grads_f = features.vjp(Xb, state, dgates)
        grads += [grads_f[k] for k in model.params_f]
    return loss, dict(zip(_trained(model), grads))


def _flatten(model: Model) -> np.ndarray:
    """Move the arrays `_trained(model)` names into one contiguous float64
    vector, in that order; the parameter dicts then hold views into it."""
    nets = [model.params_v, model.params_f] if REGIME_TABLE[model.regime][2] else [model.params_v]
    flat = np.concatenate([v.ravel() for net in nets for v in net.values()])
    start = 0
    for net in nets:
        for name, v in net.items():
            net[name] = flat[start:start + v.size].reshape(v.shape)
            start += v.size
    return flat


def _run_epochs(model: Model, dataset, config: TrainConfig, epochs: int, rng,
                report: TrainReport | None = None, test=None):
    """Train `_trained(model)` for `epochs` epochs of `config.batch_size`
    samples, with the optimizer `config` names. The trained arrays become
    views into one vector, which each step checks and updates in one pass."""
    n, batch_size = dataset.n, config.batch_size
    iters = epochs * -(-n // batch_size)
    opt = make_optimizer(config.optimizer, config.lr, config.momentum,
                         iters if config.use_schedule else None)
    theta = _flatten(model)
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = _batch_grads(model, dataset.X[idx], dataset.y[idx])
            flat = np.concatenate([g.ravel() for g in grads.values()])
            if not np.isfinite(flat).all():
                name = next(k for k, g in grads.items() if not np.isfinite(g).all())
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            opt.step(theta, flat)
            losses.append(loss)
        if report is not None:
            report.train_loss.append(float(np.mean(losses)))
            report.train_accuracy.append(_timed_evaluate(report, model, dataset))
            if test is not None:
                report.test_accuracy.append(_timed_evaluate(report, model, test))


# Overflow shows up as a non-finite gradient, which _run_epochs reports by name.
@np.errstate(over="ignore", invalid="ignore")
def train(arch: ArchSpec, dataset, config: TrainConfig, test=None):
    """Run one regime on a dataset. Returns (TrainReport, Model)."""
    if arch.n_out != dataset.k:
        raise ValueError(f"arch.n_out={arch.n_out} != dataset classes k={dataset.k}")
    if arch.d_in != dataset.d_in:
        raise ValueError(f"arch.d_in={arch.d_in} != dataset d_in={dataset.d_in}")

    t0 = time.perf_counter()
    source = REGIME_TABLE[config.regime][0]
    params_f = None if source == "self" else _init_net(
        arch, make_rng(config.seed, stream=1), config.init, source)
    model = Model(arch=arch, regime=config.regime, params_f=params_f,
                  params_v=_init_net(arch, make_rng(config.seed, stream=2), config.init),
                  perm=config.perm, ones_input=config.x_v == "ones")
    report = TrainReport(regime=config.regime, seed=config.seed, config=asdict(config))

    if config.regime == DGN_FL:
        # pre-train the feature net as a plain ReLU classifier on y_hat_f,
        # same loss and optimizer family as the main run
        pre = Model(arch=arch, regime=DNN, params_f=None, params_v=params_f)
        _run_epochs(pre, dataset, config, config.pretrain_epochs, make_rng(config.seed, stream=4))

    trained = _trained(model)
    frozen = {k: v.copy() for k, v in model.named_params().items() if k not in trained}
    _run_epochs(model, dataset, config, config.epochs, make_rng(config.seed, stream=3),
                report, test)
    for k, v in frozen.items():
        if not np.array_equal(v, model.named_params()[k]):
            raise AssertionError(f"frozen feature parameter {k!r} changed during training")

    if test is not None:
        report.final_test_accuracy = _timed_evaluate(report, model, test)
    report.wall_clock_s = time.perf_counter() - t0
    return report, model
