"""Architecture specs and forward passes for DNN, DGN and DLGN variants.

Three families are supported:

* ``fc``       — fully connected, depth d, width w
* ``conv_gap`` — 1-D circular convolutions + global average pooling + FC head
* ``res``      — residual: (b+2) fully connected blocks, b identity skips

No bias terms exist anywhere: biases would break the path-product
decomposition the whole package is built around. The hard gate at a
pre-activation of exactly 0 evaluates to 0 (strict inequality).

Gates are a plain list with one array (or Node) per gated layer, in forward
order: ``forward_relu`` returns a ReLU network's own hard gates,
``feature_gates`` the gates of a ``relu``, ``linear`` or ``shallow`` feature
network, and ``forward_gated`` runs a GaLU value network on any such list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node

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
        if self.d_in < 1 or self.width < 1 or self.n_out < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.c_scale <= 0 or self.beta <= 0:
            raise ValueError("c_scale and beta must be positive")
        if self.family == FC and self.depth < 2:
            raise ValueError("fc family needs depth >= 2")
        if self.family == CONV_GAP:
            if self.d_cv < 1 or self.d_fc < 1:
                raise ValueError("conv_gap needs d_cv >= 1 and d_fc >= 1")
            if not (1 <= self.w_cv < self.d_in):
                raise ValueError("conv_gap needs 1 <= w_cv < d_in")
        if self.family == RES and (self.b < 0 or self.d_blk < 1):
            raise ValueError("res needs b >= 0 and d_blk >= 1")

    def n_gate_layers(self) -> int:
        if self.family == FC:
            return self.depth - 1
        if self.family == CONV_GAP:
            return self.d_cv + (self.d_fc - 1)
        return (self.b + 2) * self.d_blk - 1

    def gate_layer_shapes(self) -> list[tuple[int, ...]]:
        """Per gated layer, the shape of one sample's gate array."""
        if self.family == FC:
            return [(self.width,)] * (self.depth - 1)
        if self.family == CONV_GAP:
            conv = [(self.d_in, self.width)] * self.d_cv
            fc = [(self.width,)] * (self.d_fc - 1)
            return conv + fc
        return [(self.width,)] * self.n_gate_layers()

    def init_sigma(self, kind: str) -> float:
        """Fan-in weight scale: c/sqrt(w) for dense layers, c/sqrt(w * w_cv) for conv."""
        fan = self.width * self.w_cv if kind == "conv" else self.width
        return self.c_scale / math.sqrt(fan)


def weight_layer_specs(arch: ArchSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, kind) per weight layer, in forward order.

    kind is 'conv' for circular-conv tensors (w_cv, c_in, c_out) and 'fc'
    for dense matrices (in, out).
    """
    w, k = arch.width, arch.n_out
    if arch.family == FC:
        dims = [arch.d_in] + [w] * (arch.depth - 1) + [k]
        return [(f"fc{l}", (dims[l - 1], dims[l]), "fc") for l in range(1, arch.depth + 1)]
    if arch.family == CONV_GAP:
        specs = []
        for l in range(1, arch.d_cv + 1):
            c_in = 1 if l == 1 else w
            specs.append((f"cv{l}", (arch.w_cv, c_in, w), "conv"))
        dims = [w] * arch.d_fc + [k]
        for l in range(1, arch.d_fc + 1):
            specs.append((f"fc{l}", (dims[l - 1], dims[l]), "fc"))
        return specs
    # res: block 0 enters from d_in, block b+1 exits to n_out
    specs = []
    for j in range(arch.b + 2):
        for l in range(1, arch.d_blk + 1):
            ins = arch.d_in if (j == 0 and l == 1) else w
            outs = k if (j == arch.b + 1 and l == arch.d_blk) else w
            specs.append((f"b{j}l{l}", (ins, outs), "fc"))
    return specs


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
) -> dict[str, np.ndarray]:
    """Bernoulli +/-sigma weights of the value network; default sigma is
    `arch.init_sigma(kind)` per layer.

    A float `sigma` overrides every layer.
    """
    from .numerics import init_bernoulli

    return {name: init_bernoulli(shape, arch.init_sigma(kind) if sigma is None else sigma, rng)
            for name, shape, kind in weight_layer_specs(arch)}


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


@dataclass
class ForwardResult:
    y: float | np.ndarray
    gates: list[np.ndarray]  # one array per gated layer, in forward order
    y_node: Node
    # per weight layer, in forward order: (layer input, pre-activation Node)
    layers: list[tuple[np.ndarray | Node, Node]]


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
GateRule = Callable[[int, Node], Gate]


def _relu_gate(idx: int, q: Node) -> np.ndarray:
    """Hard self-gate 1{q > 0} of a ReLU unit."""
    return ad.hard_gate_values(q.value, warn=False)


def _stack(
    arch: ArchSpec,
    params: Mapping,
    X: np.ndarray,
    gate_rule: GateRule | None,
    input_leaf: bool = False,
) -> tuple[Node, list[tuple[np.ndarray | Node, Node]], list[Gate]]:
    """Run the weight stack, gating each hidden layer via `gate_rule`.

    `params` holds arrays, or Nodes where a caller differentiates.
    `gate_rule(idx, q)` returns the gate for gated layer `idx` given its
    pre-activation node; None runs the stack fully linear (deep linear
    feature network). `input_leaf` makes the network input a leaf Node, so
    that a backward pass reaches every layer when no parameter is a Node.
    Returns (output, layers, gates), where layers holds each weight layer's
    (input, pre-activation) pair in forward order.
    """
    layers: list[tuple[np.ndarray | Node, Node]] = []
    gates: list[Gate] = []

    def layer(op, z, name: str, is_gated: bool) -> Node:
        q = op(z, params[name])
        layers.append((z, q))
        if not is_gated or gate_rule is None:
            return q
        g = gate_rule(len(gates), q)
        gates.append(g)
        return ad.mul(q, g)

    z = X[:, :, None] if arch.family == CONV_GAP else X
    if input_leaf:
        z = Node(z)

    if arch.family == FC:
        for l in range(1, arch.depth + 1):
            z = layer(ad.matmul, z, f"fc{l}", is_gated=(l < arch.depth))
        return z, layers, gates

    if arch.family == CONV_GAP:
        for l in range(1, arch.d_cv + 1):
            z = layer(ad.conv_circular, z, f"cv{l}", is_gated=True)
        z = ad.global_avg_pool(z)
        for l in range(1, arch.d_fc + 1):
            z = layer(ad.matmul, z, f"fc{l}", is_gated=(l < arch.d_fc))
        return z, layers, gates

    # res
    total_layers = (arch.b + 2) * arch.d_blk
    layer_no = 0
    for j in range(arch.b + 2):
        block_in = z
        for l in range(1, arch.d_blk + 1):
            layer_no += 1
            z = layer(ad.matmul, z, f"b{j}l{l}", is_gated=(layer_no < total_layers))
        if 1 <= j <= arch.b:
            z = ad.add(block_in, z)
    return z, layers, gates


def _squeeze_result(
    arch: ArchSpec, y_node: Node, layers: list, gates: list[Gate], squeeze: bool
) -> ForwardResult:
    gate_vals = [ad.value_of(g) for g in gates]
    if squeeze:
        gate_vals = [g[0] for g in gate_vals]
    y = y_node.value
    if squeeze:
        y = float(y[0, 0]) if arch.n_out == 1 else y[0]
    return ForwardResult(y=y, gates=gate_vals, y_node=y_node, layers=layers)


def forward_relu(arch: ArchSpec, params: Mapping, x) -> ForwardResult:
    """Plain DNN with ReLUs: every hidden unit is q * 1{q > 0}."""
    X, squeeze = _ensure_batch(x, arch.d_in)
    return _squeeze_result(arch, *_stack(arch, params, X, _relu_gate), squeeze)


def forward_gated(
    arch: ArchSpec,
    params_v: Mapping,
    external_gates: Sequence[Gate],
    routing: GateRouting = IDENTITY_ROUTING,
    x_v=None,
    input_leaf: bool = False,
) -> ForwardResult:
    """Value network of GaLUs driven by externally supplied gates.

    `external_gates` holds one gate array or Node per gated layer (unrouted;
    `routing.perm` is applied here). Gated layer i takes a gate
    array of shape `arch.gate_layer_shapes()[i]`, broadcast over the batch,
    or a gate of shape `(n,) + arch.gate_layer_shapes()[i]`, used as is.
    `routing.constant_one_input` replaces the value input by ones.
    `input_leaf` makes the value input a leaf Node (see :func:`_stack`).
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
    stack = _stack(arch, params_v, X, lambda idx, q: routed[idx], input_leaf)
    return _squeeze_result(arch, *stack, squeeze)


def feature_gates(arch: ArchSpec, params_f: Mapping, x_f, source: str, mode: str) -> list[Gate]:
    """Gates, one per gated layer, produced by the `source` feature network on x_f.

    source "relu": a ReLU feature network (DGN); "linear": a deep linear
    feature network (DLGN); "shallow": per-layer independent single maps of
    the input (DLGN-SF). Gates always carry a batch axis. Soft gates are
    logistic Nodes, differentiable in whichever of `params_f` are Nodes;
    hard gates are constant arrays.
    """
    if mode not in (HARD, SOFT):
        raise ValueError(f"gate mode must be hard or soft, got {mode!r}")
    X, _ = _ensure_batch(x_f, arch.d_in)

    def to_gate(q: Node) -> Gate:
        if mode == SOFT:
            return ad.logistic(q, arch.beta)
        return ad.hard_gate_values(q.value)

    if source == "shallow":
        gates = []
        for name, _, kind in shallow_layer_specs(arch):
            if kind == "conv":
                q = ad.conv_circular(X[:, :, None], params_f[name])
            else:
                q = ad.matmul(X, params_f[name])
            gates.append(to_gate(q))
        return gates
    if source not in ("relu", "linear"):
        raise ValueError(f"unknown feature source {source!r}; choose relu, linear or shallow")

    # A ReLU feature network propagates its hidden units with hard
    # self-gates; either way the exported gates tap the pre-activations of
    # the gated layers (all but the output layer).
    _, layers, _ = _stack(arch, params_f, X, _relu_gate if source == "relu" else None)
    return [to_gate(q) for _, q in layers[:-1]]


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
