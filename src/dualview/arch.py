"""Architecture specs and forward passes for DNN, DGN and DLGN variants.

Three families are supported:

* ``fc``       — fully connected, depth d, width w
* ``conv_gap`` — 1-D circular convolutions + global average pooling + FC head
* ``res``      — residual: (b+2) fully connected blocks, b identity skips

No bias terms exist anywhere: biases would break the path-product
decomposition the whole package is built around. The hard gate at a
pre-activation of exactly 0 evaluates to 0 (strict inequality).

Each network is one chain of weight layers, :func:`weight_layer_specs`,
built once per spec; :func:`run_stack` runs it, and every layer of it but
the last is gated, by a gate shaped as that layer's output for one sample.
Gates are a plain list with one array (or Node) per gated layer, in forward
order: ``forward_relu`` returns a ReLU network's own hard gates,
``feature_gates`` the gates of a ``relu``, ``linear`` or ``shallow`` feature
network, and ``forward_gated`` runs a GaLU value network on any such list.

A ``linear`` (DLGN) or ``shallow`` (DLGN-SF) feature network is linear in
its input, so it collapses into one hyperplane matrix ``U_l`` per gated
layer: ``q_l(x) = x @ U_l`` (the paper's "primal linearity").
``FeatureNet.hyperplanes`` computes every ``U_l`` from one pass of the
feature maps over the identity basis. A deep linear conv_gap net gates
through them, one matmul per gated layer in place of its circular
convolutions, wherever that takes fewer multiply-adds than running the net
on the batch: when the input is narrow next to the batch and to the conv
channels. Every other case runs the feature maps on the batch.

The weight stack, :func:`run_stack`, and the feature network,
:class:`FeatureNet`, are each written once and run on an op set. Training
runs them on :data:`ARRAYS`, numpy on plain arrays with no graph, and
differentiates them with :func:`stack_vjp` and :meth:`FeatureNet.vjp`.
``forward_relu``, ``forward_gated`` and ``feature_gates`` run them on the
graph ops of :mod:`dualview.autodiff`: they are what the kernels run and
the graph oracle the tests compare with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import (Node, circular_conv, circular_conv_vjp_theta, circular_conv_vjp_z,
                       soft_gate, value_of)
from .numerics import check_positive, init_bernoulli

FC = "fc"
CONV_GAP = "conv_gap"
RES = "res"

HARD = "hard"
SOFT = "soft"


@dataclass(frozen=True)
class ArchSpec:
    """Declarative description of one network, with all dimensional constants."""

    family: str
    d_in: int
    # fc
    depth: int = 0
    width: int = 0
    # conv_gap
    d_cv: int = 0
    d_fc: int = 0
    w_cv: int = 0
    # res
    b: int = 0
    d_blk: int = 0
    # common
    n_out: int = 1
    c_scale: float = 1.0
    beta: float = 10.0

    def __post_init__(self):
        if self.family not in (FC, CONV_GAP, RES):
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("d_in", "width", "n_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_positive("c_scale", self.c_scale)
        check_positive("beta", self.beta)
        if self.family == FC and self.depth < 2:
            raise ValueError("fc family needs depth >= 2")
        if self.family == CONV_GAP:
            if self.d_cv < 1 or self.d_fc < 1:
                raise ValueError("conv_gap needs d_cv >= 1 and d_fc >= 1")
            if not (1 <= self.w_cv < self.d_in):
                raise ValueError("conv_gap needs 1 <= w_cv < d_in")
        if self.family == RES and (self.b < 0 or self.d_blk < 1):
            raise ValueError("res needs b >= 0 and d_blk >= 1")

    @cached_property
    def _weight_layers(self) -> tuple[tuple[str, tuple[int, ...], str], ...]:
        """The weight-layer chain, built once per spec (see :func:`weight_layer_specs`)."""
        w, conv = self.width, ()
        if self.family == FC:
            dense = [f"fc{l}" for l in range(1, self.depth + 1)]
        elif self.family == CONV_GAP:
            conv = tuple((f"cv{l}", (self.w_cv, 1 if l == 1 else w, w), "conv")
                         for l in range(1, self.d_cv + 1))
            dense = [f"fc{l}" for l in range(1, self.d_fc + 1)]
        else:  # res: block j's layer l, for blocks 0..b+1
            dense = [f"b{j}l{l}" for j in range(self.b + 2) for l in range(1, self.d_blk + 1)]
        # the dense layers chain from d_in (or the pooled channels) to n_out
        dims = [w if conv else self.d_in] + [w] * (len(dense) - 1) + [self.n_out]
        return conv + tuple((name, (dims[i], dims[i + 1]), "fc") for i, name in enumerate(dense))

    @cached_property
    def _skips(self) -> dict[int, int]:
        """res: per block 1..b, the index of its last weight layer -> that of
        its first, whose input the identity skip adds to the last one's output."""
        d = self.d_blk
        return {j * d + d - 1: j * d for j in range(1, self.b + 1)} if self.family == RES else {}

    def n_gate_layers(self) -> int:
        """Every weight layer but the last is gated."""
        return len(self._weight_layers) - 1

    def gate_layer_shapes(self) -> list[tuple[int, ...]]:
        """Per gated layer, the shape of one sample's gate array: the layer's
        output, (d_in, c_out) for a conv layer and (c_out,) for a dense one."""
        return [(self.d_in, shape[-1]) if kind == "conv" else (shape[-1],)
                for _, shape, kind in self._weight_layers[:-1]]

    def init_sigma(self, kind: str) -> float:
        """Fan-in weight scale: c/sqrt(w) for dense layers, c/sqrt(w * w_cv) for conv."""
        fan = self.width * self.w_cv if kind == "conv" else self.width
        return self.c_scale / math.sqrt(fan)


def weight_layer_specs(arch: ArchSpec) -> tuple[tuple[str, tuple[int, ...], str], ...]:
    """(name, shape, kind) per weight layer, in forward order.

    kind is 'conv' for circular-conv tensors (w_cv, c_in, c_out) and 'fc'
    for dense matrices (in, out).
    """
    return arch._weight_layers


def shallow_layer_specs(arch: ArchSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """Per gated layer, an independent single map from the raw input (DLGN-SF)."""
    specs = []
    for i, shape in enumerate(arch.gate_layer_shapes()):
        if len(shape) == 2:  # conv gate layer (d_in, w)
            specs.append((f"sf{i + 1}", (arch.w_cv, 1, arch.width), "conv"))
        else:
            specs.append((f"sf{i + 1}", (arch.d_in, arch.width), "fc"))
    return specs


def init_params(
    arch: ArchSpec,
    rng: np.random.Generator,
    sigma: float | None = None,
    specs: list[tuple[str, tuple[int, ...], str]] | None = None,
) -> dict[str, np.ndarray]:
    """Bernoulli +/-sigma weights of the value network, or of `specs` when
    given; default sigma is `arch.init_sigma(kind)` per layer.

    One `init_bernoulli` draw covers all layers, in order: of +/-sigma when
    a float `sigma` overrides every layer, else of +/-1 signs that each
    layer scales by its own sigma.
    """
    if specs is None:
        specs = weight_layer_specs(arch)
    sizes = [math.prod(shape) for _, shape, _ in specs]
    values = init_bernoulli((sum(sizes),), 1.0 if sigma is None else sigma, rng)
    params, start = {}, 0
    for (name, shape, kind), size in zip(specs, sizes):
        w = values[start:start + size]
        if sigma is None:
            w *= arch.init_sigma(kind)
        params[name] = w.reshape(shape)
        start += size
    return params


@dataclass(frozen=True)
class GateRouting:
    """Optional permutation of the gate layers and constant-1 value input."""

    perm: tuple[int, ...] | None = None
    constant_one_input: bool = False

    def validate(self, arch: ArchSpec) -> None:
        if self.perm is None:
            return
        shapes = arch.gate_layer_shapes()
        if sorted(self.perm) != list(range(len(shapes))):
            raise ValueError(f"perm must be a permutation of 0..{len(shapes) - 1}")
        for i, j in enumerate(self.perm):
            if shapes[i] != shapes[j]:
                raise ValueError(
                    f"routing permutes layers of unequal gate shape: {shapes[i]} vs {shapes[j]}"
                )

    def apply(self, gates: Sequence) -> list:
        if self.perm is None:
            return list(gates)
        return [gates[j] for j in self.perm]


IDENTITY_ROUTING = GateRouting()


# Hard or soft gate values, one array per gated layer in forward order.
Gates = Sequence[np.ndarray]

# The op set of :func:`run_stack` and :class:`FeatureNet` on plain arrays:
# numpy under the names of the graph ops of :mod:`dualview.autodiff`, which
# is the other op set.
ARRAYS = SimpleNamespace(
    matmul=np.matmul, mul=np.multiply, add=np.add, reshape=np.reshape,
    conv_circular=circular_conv, global_avg_pool=partial(np.mean, axis=1), logistic=soft_gate,
)


def _ensure_batch(x, d_in: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != d_in:
            raise ValueError(f"input length {x.shape[0]} != d_in {d_in}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != d_in:
            raise ValueError(f"input width {x.shape[1]} != d_in {d_in}")
        return x, False
    raise ValueError(f"input must be 1-D or 2-D, got shape {x.shape}")


# A gate is a Node when something differentiates through it (soft gates of
# a trained feature network) and a plain array otherwise.
Gate = Node | np.ndarray
GateRule = Callable[[int, Node | np.ndarray], Gate]


class Tape:
    """What one run of the weight stack keeps: per weight layer run, its
    input z and pre-activation q; per gated layer, its gate; and the output
    of the last layer run."""

    __slots__ = ("zs", "qs", "gates", "y")

    def __init__(self):
        self.zs, self.qs, self.gates, self.y = [], [], [], None


def self_gate(idx: int, q: Node | np.ndarray) -> np.ndarray:
    """Hard gate 1{q > 0} of an array or a Node's value: the one hard-gate
    rule, for the DNN's own units and every hard feature gate. An exact 0
    gates to 0, so its gradient takes the subgradient 0 there."""
    return (value_of(q) > 0.0).astype(np.float64)


def run_stack(arch: ArchSpec, params: Mapping, X: np.ndarray, gate_rule: GateRule | None,
              n_layers: int | None = None, ops=ARRAYS) -> Tape:
    """Run the first `n_layers` weight layers (all by default) on the rows X
    with the op set `ops`, gating every layer but the network's last via
    `gate_rule`.

    `ops` is :data:`ARRAYS`, or the module :mod:`dualview.autodiff`, whose
    ops build Nodes: then `params` holds arrays, or Nodes where a caller
    differentiates, and every pre-activation is a Node, which a backward
    pass from the output reaches. `gate_rule(idx, q)` returns the gate (with
    a batch axis) of gated layer idx from its pre-activation; None runs the
    layers linear (a deep linear feature network). The tape is what
    :func:`stack_vjp` reads.
    """
    chain, skips = arch._weight_layers, arch._skips
    conv = arch.family == CONV_GAP
    pool_at = arch.d_cv if conv else -1  # the fc head reads the pooled channels
    n_gated = len(chain) - 1 if gate_rule is not None else 0
    tape = Tape()
    z = ops.reshape(X, (-1, arch.d_in, 1)) if conv else X
    for i, (name, _, kind) in enumerate(chain[:n_layers]):
        if i == pool_at:
            z = ops.global_avg_pool(z)
        q = (ops.conv_circular if kind == "conv" else ops.matmul)(z, params[name])
        tape.zs.append(z)
        tape.qs.append(q)
        z = q
        if i < n_gated:
            gate = gate_rule(i, q)
            tape.gates.append(gate)
            z = ops.mul(q, gate)
        if i in skips:
            z = ops.add(tape.zs[skips[i]], z)
    tape.y = z
    return tape


class ForwardResult:
    """One run of the whole weight stack on autodiff's ops: the output `y`
    and the gate values, without the batch axis for a single sample, the
    output Node and the run's tape."""

    __slots__ = ("y", "gates", "y_node", "tape")

    def __init__(self, arch: ArchSpec, tape: Tape, squeeze: bool):
        y = tape.y.value
        gates = [g.value if isinstance(g, Node) else g for g in tape.gates]  # a soft gate is a Node
        if squeeze:
            y = float(y[0, 0]) if arch.n_out == 1 else y[0]
            gates = [g[0] for g in gates]
        self.y, self.gates, self.y_node, self.tape = y, gates, tape.y, tape

    @property
    def layers(self) -> list[tuple[np.ndarray | Node, Node]]:
        """Per weight layer, in forward order: (layer input, pre-activation Node)."""
        return list(zip(self.tape.zs, self.tape.qs))


def forward_relu(arch: ArchSpec, params: Mapping, x) -> ForwardResult:
    """Plain DNN with ReLUs: every hidden unit is q * 1{q > 0}."""
    X, squeeze = _ensure_batch(x, arch.d_in)
    return ForwardResult(arch, run_stack(arch, params, X, self_gate, ops=ad), squeeze)


def forward_gated(
    arch: ArchSpec,
    params_v: Mapping,
    external_gates: Sequence[Gate],
    routing: GateRouting = IDENTITY_ROUTING,
    x_v=None,
) -> ForwardResult:
    """Value network of GaLUs driven by externally supplied gates.

    `external_gates` holds one gate array or Node per gated layer (unrouted;
    `routing.perm` is applied here). Gated layer i takes a gate
    array of shape `arch.gate_layer_shapes()[i]`, broadcast over the batch,
    or a gate of shape `(n,) + arch.gate_layer_shapes()[i]`, used as is.
    `routing.constant_one_input` replaces the value input by ones.
    """
    routing.validate(arch)
    seq = list(external_gates)
    if len(seq) != arch.n_gate_layers():
        raise ValueError(f"expected {arch.n_gate_layers()} gate layers, got {len(seq)}")
    X, squeeze = _ensure_batch(x_v, arch.d_in)
    if routing.constant_one_input:
        X = np.ones_like(X)
    routed = []
    for i, (g, shape) in enumerate(zip(routing.apply(seq), arch.gate_layer_shapes())):
        if not isinstance(g, Node):
            g = np.asarray(g, dtype=np.float64)
            if g.shape == shape:
                g = np.repeat(g[None], len(X), axis=0)
        if g.shape != (len(X),) + shape:
            raise ValueError(
                f"gate shape {g.shape} at gated layer {i} is neither {shape} "
                f"nor {(len(X),) + shape}"
            )
        routed.append(g)
    tape = run_stack(arch, params_v, X, lambda idx, q: routed[idx], ops=ad)
    return ForwardResult(arch, tape, squeeze)


def _collapse_pays(arch: ArchSpec, n: int) -> bool:
    """Whether gating n rows through the linear feature network's
    hyperplanes takes fewer multiply-adds than running the network on them.

    The hyperplanes cost one run of the network on d_in rows, and `X @ U_l`
    costs d_in * prod(gate shape) per row and gated layer, so the collapse
    pays when the input is narrow next to the batch and to the conv channels
    (w_cv * width) of two or more conv layers. Only a conv_gap network can
    gain: an fc or res one already runs one dense matmul per layer, and the
    collapse's extra graph operations cost more than it saves. The shallow
    maps never gain either: none of them costs more per row than its matmul.
    It never pays for n = d_in, the rows of the hyperplanes' own run.
    """
    if arch.family != CONV_GAP:
        return False
    run = sum(math.prod(shape) * (arch.d_in if kind == "conv" else 1)
              for _, shape, kind in weight_layer_specs(arch))
    matmuls = arch.d_in * sum(math.prod(shape) for shape in arch.gate_layer_shapes())
    return arch.d_in * run + n * matmuls < n * run


def feature_gates(arch: ArchSpec, params_f: Mapping, x_f, source: str, mode: str) -> list[Gate]:
    """Gates, one per gated layer, produced by the `source` feature network
    on x_f: :meth:`FeatureNet.gates` on autodiff's ops.

    source "relu": a ReLU feature network (DGN); "linear": a deep linear
    feature network (DLGN); "shallow": per-layer independent single maps of
    the input (DLGN-SF). Gates always carry a batch axis. Soft gates are
    logistic Nodes, differentiable in whichever of `params_f` are Nodes;
    hard gates are constant arrays.
    """
    if mode not in (HARD, SOFT):
        raise ValueError(f"gate mode must be hard or soft, got {mode!r}")
    if source not in ("relu", "linear", "shallow"):
        raise ValueError(f"unknown feature source {source!r}; choose relu, linear or shallow")
    X, _ = _ensure_batch(x_f, arch.d_in)
    return FeatureNet(arch, params_f, source, ops=ad).gates(X, mode)[0]


def _value_input(x_f, x_v):
    """x_v, defaulting to x_f; both must be single samples or both batches."""
    if x_v is None:
        return x_f
    if np.ndim(x_f) != np.ndim(x_v):
        raise ValueError("x_f and x_v must have the same batch structure")
    return x_v


def forward_dlgn(
    arch: ArchSpec,
    params_f: Mapping,
    params_v: Mapping,
    x_f,
    x_v=None,
    mode: str = SOFT,
    routing: GateRouting = IDENTITY_ROUTING,
    source: str = "linear",
) -> ForwardResult:
    """DGN or DLGN: the `source` feature network (see :func:`feature_gates`)
    on x_f gates a GaLU value network on x_v."""
    gates = feature_gates(arch, params_f, x_f, source, mode)
    return forward_gated(arch, params_v, gates, routing, _value_input(x_f, x_v))


def stack_vjp(arch: ArchSpec, params: Mapping, tape: Tape, dy: np.ndarray | None,
              dq: Sequence[np.ndarray] | None = None) -> tuple[list, list]:
    """The VJP of :func:`run_stack` with its gates fixed.

    `dy` is the cotangent at the output (None when nothing downstream reads
    it) and `dq[i]`, when given, is added at gated layer i's pre-activation.
    With the gates fixed, each weight gradient is `z_{l-1}^T delta_l` and
    `delta_{l-1} = (delta_l W_l^T) * G_{l-1}` (conv layers use the transposed
    per-tap shift, the pooling spreads evenly, res skips add their
    cotangent). Returns, per layer run, its weight gradient, and per gated
    layer the cotangent of its gated output `q * gate`, whose product with q
    is the gate's cotangent.
    """
    chain, skips = arch._weight_layers, arch._skips
    pool_at = arch.d_cv if arch.family == CONV_GAP else -1
    n_gated = len(tape.gates)
    grads, dgated, skipped = [None] * len(tape.qs), [None] * n_gated, {}
    dz = dy
    for i in reversed(range(len(tape.qs))):
        name, _, kind = chain[i]
        if i in skips and dz is not None:
            skipped[skips[i]] = dz
        delta = dz
        if i < n_gated:
            dgated[i] = dz
            delta = None if dz is None else dz * tape.gates[i]
        if dq is not None:
            delta = dq[i] if delta is None else delta + dq[i]
        w = params[name]
        if kind == "conv":
            grads[i] = circular_conv_vjp_theta(tape.zs[i], delta, w.shape[0])
        else:
            grads[i] = tape.zs[i].T @ delta
        if i == 0:
            break
        dz = circular_conv_vjp_z(delta, w) if kind == "conv" else delta @ w.T
        if i == pool_at:
            dz = np.repeat(dz[:, None, :] / arch.d_in, arch.d_in, axis=1)
        if i in skipped:
            dz = dz + skipped.pop(i)
    return grads, dgated


class FeatureNet:
    """The `source` feature network of :func:`feature_gates` on the op set
    `ops` (see :func:`run_stack`) and, on :data:`ARRAYS`, the VJP of its
    soft gates.

    The linear source gates through its :meth:`hyperplanes` wherever
    `_collapse_pays`. They are built at most once per instance, so an
    instance must not outlive a change of `params`.
    """

    def __init__(self, arch: ArchSpec, params: Mapping, source: str, ops=ARRAYS):
        self.arch, self.params, self.source, self.ops = arch, params, source, ops
        self.planes: list | None = None
        self.plane_tape: Tape | None = None

    def hyperplanes(self) -> list:
        """The hyperplane matrix U_l of each gated layer, of shape
        (d_in, prod(gate shape)), such that the feature network's
        pre-activation of gated layer l on a batch X is `X @ U_l`.

        U_l holds the pre-activations of the identity basis, from one pass of
        the feature maps over eye(d_in): the linear stack for source
        "linear"; for "shallow", each DLGN-SF map, which gives the parameter
        itself for an fc map and the circulant of the filter for a conv map.
        On autodiff's ops, U_l is a Node differentiable in whichever of
        `params` are Nodes.
        """
        if self.source not in ("linear", "shallow"):
            raise ValueError(f"unknown feature source {self.source!r}; "
                             "hyperplanes need linear or shallow")
        if self.planes is None:
            d_in = self.arch.d_in
            qs, self.plane_tape = self._preacts(np.eye(d_in))
            self.planes = [self.ops.reshape(q, (d_in, -1)) for q in qs]
        return self.planes

    def _preacts(self, X: np.ndarray) -> tuple[list, Tape | None]:
        """Each gated layer's pre-activation on the rows X, and the tape of
        the stack run behind them (None for the shallow maps)."""
        arch, params, ops = self.arch, self.params, self.ops
        if self.source == "shallow":
            return [ops.conv_circular(X[:, :, None], params[name]) if kind == "conv"
                    else ops.matmul(X, params[name])
                    for name, _, kind in shallow_layer_specs(arch)], None
        if self.source == "linear" and _collapse_pays(arch, len(X)):
            planes = self.hyperplanes()
            return [ops.reshape(ops.matmul(X, U), (len(X), *shape))
                    for U, shape in zip(planes, arch.gate_layer_shapes())], self.plane_tape
        tape = run_stack(arch, params, X, self_gate if self.source == "relu" else None,
                         arch.n_gate_layers(), ops=ops)
        return tape.qs, tape

    def gates(self, X: np.ndarray, mode: str) -> tuple[list, tuple]:
        """The gates of the rows X, one per gated layer, and what :meth:`vjp` needs."""
        qs, tape = self._preacts(X)
        if mode == HARD:
            gates = [self_gate(i, q) for i, q in enumerate(qs)]
        else:
            gates = [self.ops.logistic(q, self.arch.beta) for q in qs]
        return gates, (tape, gates)

    def vjp(self, X: np.ndarray, state: tuple, dgates: Sequence[np.ndarray]) -> dict:
        """The gradient in every feature parameter from the cotangents of the
        soft gates of X: `dQ_l = dG_l * beta G_l (1 - G_l)`, then back
        through the feature maps (`dU_l = X^T dQ_l` where collapsed)."""
        tape, gates = state
        dqs = [ad.soft_gate_vjp(dg, s, self.arch.beta) for dg, s in zip(dgates, gates)]
        if self.source == "shallow":
            return {name: circular_conv_vjp_theta(X[:, :, None], dq, shape[0]) if kind == "conv"
                    else X.T @ dq
                    for (name, shape, kind), dq in zip(shallow_layer_specs(self.arch), dqs)}
        if tape is self.plane_tape:
            dqs = [(X.T @ dq.reshape(len(X), -1)).reshape(q.shape) for dq, q in zip(dqs, tape.qs)]
        grads, _ = stack_vjp(self.arch, self.params, tape, None, dqs)
        # the output layer of a relu or linear feature network feeds no gate
        return {name: grads[i] if i < len(grads) else np.zeros(shape)
                for i, (name, shape, _) in enumerate(self.arch._weight_layers)}
