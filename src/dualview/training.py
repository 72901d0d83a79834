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
architecture's beta. The gate routing permutation and the constant-1 value
input are applied identically during training and evaluation.

``Model.gates`` returns the gates the value network uses, one per gated
layer: a DNN's own ReLU gates, or ``arch.feature_gates`` of the regime's
feature source. ``Model.logits_node`` is ``forward_relu`` for DNN and
``forward_gated`` on ``Model.gates`` for every other regime. A DNN reads
neither the routing nor a separate value input, so ``train()`` rejects
``x_v="ones"`` and a ``perm`` for it.

Training steps run the differentiable ``Model.logits_node`` on one batch;
inference (``Model.logits``, ``predict``, ``evaluate``) runs it over blocks
of ``LOGITS_BLOCK_ROWS`` rows. The report records the time spent in
``evaluate`` as ``eval_s``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

import numpy as np

from .arch import (
    ArchSpec,
    GateRouting,
    HARD,
    SOFT,
    feature_gates,
    forward_gated,
    forward_relu,
    shallow_layer_specs,
    weight_layer_specs,
)
from .autodiff import Node, backward
from .numerics import init_bernoulli, make_rng

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

    logits: (n, k) or (k,); labels: (n,) integer array or a scalar.
    The gradient is (softmax - onehot) / n, matching the mean loss.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    if single:
        logits = logits[None, :]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k}): {labels[(labels < 0) | (labels >= k)][0]}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    grad = p / n
    return loss, (grad[0] if single else grad)


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


class Optimizer:
    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        raise NotImplementedError


def _check_finite(name: str, g: np.ndarray) -> None:
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite gradient for parameter {name!r}")


class SGDMomentum(Optimizer):
    """v <- mu v - eta g; theta <- theta + v. Optional per-iteration schedule."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9,
                 schedule: Callable[[int], float] | None = None):
        if lr <= 0 or not 0.0 <= momentum < 1.0:
            raise ValueError("need lr > 0 and 0 <= momentum < 1")
        self.lr, self.momentum, self.schedule = lr, momentum, schedule
        self.t = 0
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        eta = self.schedule(self.t) if self.schedule else self.lr
        for name, g in grads.items():
            _check_finite(name, g)
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(params[name])
            v = self.momentum * v - eta * g
            self.velocity[name] = v
            params[name] += v
        self.t += 1


class Adam(Optimizer):
    def __init__(self, lr: float = 3e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("need lr > 0")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            _check_finite(name, g)
            m = self.m.get(name, np.zeros_like(params[name]))
            v = self.v.get(name, np.zeros_like(params[name]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[name], self.v[name] = m, v
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(name: str, lr: float, momentum: float = 0.9,
                   schedule_iters: int | None = None) -> Optimizer:
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
            raise ValueError(f"unknown regime {self.regime!r}; choose from {REGIMES}")
        if self.x_v not in ("data", "ones"):
            raise ValueError(f"x_v must be 'data' or 'ones', got {self.x_v!r}")
        if self.init not in ("normal", "bernoulli"):
            raise ValueError(f"init must be 'normal' or 'bernoulli', got {self.init!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.pretrain_epochs < 0:
            raise ValueError(f"train.pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.perm is not None:
            if not isinstance(self.perm, (list, tuple)) or not all(
                    isinstance(p, (int, np.integer)) and not isinstance(p, bool)
                    for p in self.perm):
                raise ValueError(f"train.perm must be null or a list of ints, got {self.perm!r}")
            self.perm = tuple(int(p) for p in self.perm)

    def routing(self) -> GateRouting:
        return GateRouting(perm=self.perm, constant_one_input=(self.x_v == "ones"))


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

    @classmethod
    def from_json(cls, text: str) -> "TrainReport":
        return cls(**json.loads(text))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class Model:
    """A trained (or initialized) network plus everything needed to run it."""

    arch: ArchSpec
    regime: str
    params_f: dict[str, np.ndarray] | None
    params_v: dict[str, np.ndarray]
    routing: GateRouting

    def gates(self, X: np.ndarray, nodes_f=None) -> list:
        """The gates the value network uses on X, one per gated layer, before
        routing: a DNN's own ReLU gates, or those of the regime's feature
        network (run on `nodes_f` in place of `params_f` when given)."""
        source, mode, _ = REGIME_TABLE[self.regime]
        if source == "self":
            return forward_relu(self.arch, self.params_v, X).gates
        pf = self.params_f if nodes_f is None else nodes_f
        return feature_gates(self.arch, pf, X, source, mode)

    def logits_node(self, X: np.ndarray, nodes_f=None, nodes_v=None) -> Node:
        pv = self.params_v if nodes_v is None else nodes_v
        if REGIME_TABLE[self.regime][0] == "self":
            return forward_relu(self.arch, pv, X).y_node
        return forward_gated(self.arch, pv, self.gates(X, nodes_f), self.routing, X).y_node

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Logits of a batch (n, d_in), one forward pass per LOGITS_BLOCK_ROWS
        rows, or of one sample (d_in,)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1 or len(X) <= LOGITS_BLOCK_ROWS:
            return self.logits_node(X).value
        return np.concatenate([self.logits_node(X[i:i + LOGITS_BLOCK_ROWS]).value
                               for i in range(0, len(X), LOGITS_BLOCK_ROWS)])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(X), axis=1)


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
        return {name: init_bernoulli(shape, arch.init_sigma(kind), rng)
                for name, shape, kind in specs}
    return {name: rng.normal(scale=arch.init_sigma(kind), size=shape)
            for name, shape, kind in specs}


def _batch_grads(model: Model, Xb, yb):
    nodes_v = {k: Node(v) for k, v in model.params_v.items()}
    nodes_f = None
    if model.params_f is not None:
        nodes_f = {k: Node(v) for k, v in model.params_f.items()}
    out = model.logits_node(Xb, nodes_f=nodes_f, nodes_v=nodes_v)
    loss, dlogits = loss_softmax_ce(out.value, yb)
    cot = backward(out, seed=dlogits)

    def collect(prefix, nodes):
        g = {}
        for name, node in nodes.items():
            c = cot.get(id(node))
            g[f"{prefix}{name}"] = np.zeros_like(node.value) if c is None else c
        return g

    grads = collect("v.", nodes_v)
    _, _, trains_features = REGIME_TABLE[model.regime]
    if trains_features:
        grads.update(collect("f.", nodes_f))
    return loss, grads


def _run_epochs(model: Model, dataset, opt: Optimizer, epochs, batch_size, rng,
                report: TrainReport | None, test=None):
    """Train the value net, and the feature net if the regime trains it.

    The optimizer updates the parameter arrays in place.
    """
    n = dataset.n
    _, _, trains_features = REGIME_TABLE[model.regime]
    flat = {f"v.{name}": arr for name, arr in model.params_v.items()}
    if trains_features:
        flat.update({f"f.{name}": arr for name, arr in model.params_f.items()})
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grads = _batch_grads(model, dataset.X[idx], dataset.y[idx])
            opt.step(flat, grads)
            losses.append(loss)
        if report is not None:
            report.train_loss.append(float(np.mean(losses)))
            report.train_accuracy.append(_timed_evaluate(report, model, dataset))
            if test is not None:
                report.test_accuracy.append(_timed_evaluate(report, model, test))


# Overflow shows up as a non-finite gradient, which the optimizer reports by name.
@np.errstate(over="ignore", invalid="ignore")
def train(arch: ArchSpec, dataset, config: TrainConfig, test=None):
    """Run one regime on a dataset. Returns (TrainReport, Model)."""
    if arch.n_out != dataset.k:
        raise ValueError(f"arch.n_out={arch.n_out} != dataset classes k={dataset.k}")
    if arch.d_in != dataset.d_in:
        raise ValueError(f"arch.d_in={arch.d_in} != dataset d_in={dataset.d_in}")
    source, _, trains_features = REGIME_TABLE[config.regime]
    if source == "self":
        # a DNN gates itself, so nothing reads the value input or the routing
        for key, value, default in (("x_v", config.x_v, "data"), ("perm", config.perm, None)):
            if value != default:
                raise ValueError(f"train.{key}={value!r} needs a gated regime; "
                                 f"{config.regime} uses its own ReLU gates")
    routing = config.routing()
    routing.validate(arch)

    t0 = time.perf_counter()
    rng_f = make_rng(config.seed, stream=1)
    rng_v = make_rng(config.seed, stream=2)
    rng_batch = make_rng(config.seed, stream=3)

    params_f = None if source == "self" else _init_net(arch, rng_f, config.init, source)
    params_v = _init_net(arch, rng_v, config.init)
    model = Model(arch=arch, regime=config.regime, params_f=params_f,
                  params_v=params_v, routing=routing)

    report = TrainReport(regime=config.regime, seed=config.seed, config=asdict(config))

    if config.regime == DGN_FL:
        # pre-train the feature net as a plain ReLU classifier on y_hat_f,
        # same loss and optimizer family as the main run
        pre = Model(arch=arch, regime=DNN, params_f=None, params_v=params_f,
                    routing=GateRouting())
        iters = config.pretrain_epochs * max(1, dataset.n // config.batch_size)
        pre_opt = make_optimizer(config.optimizer, config.lr, config.momentum,
                                 iters if config.use_schedule else None)
        _run_epochs(pre, dataset, pre_opt, config.pretrain_epochs, config.batch_size,
                    make_rng(config.seed, stream=4), report=None)

    frozen_before = None
    if params_f is not None and not trains_features:
        frozen_before = {k: v.copy() for k, v in params_f.items()}

    iters = config.epochs * max(1, dataset.n // config.batch_size)
    opt = make_optimizer(config.optimizer, config.lr, config.momentum,
                         iters if config.use_schedule else None)
    _run_epochs(model, dataset, opt, config.epochs, config.batch_size, rng_batch,
                report, test=test)

    if frozen_before is not None:
        for k, v in frozen_before.items():
            if not np.array_equal(v, model.params_f[k]):
                raise AssertionError(f"frozen feature parameter {k!r} changed during training")

    if test is not None:
        report.final_test_accuracy = _timed_evaluate(report, model, test)
    report.wall_clock_s = time.perf_counter() - t0
    return report, model
