"""Architecture specs and forward passes for DNN, DGN and DLGN variants.

Three families are supported:

* ``fc``       — fully connected, depth d, width w
* ``conv_gap`` — 1-D circular convolutions + global average pooling + FC head
* ``res``      — residual: (b+2) fully connected blocks, b identity skips

No bias terms exist anywhere: biases would break the path-product
decomposition the whole package is built around. The hard gate at a
pre-activation of exactly 0 evaluates to 0 (strict inequality).

Each network is one chain of weight layers, :func:`weight_layer_specs`,
built once per spec; the forward passes run it, and every layer of it but
the last is gated, by a gate shaped as that layer's output for one sample.
Gates are a plain list with one array (or Node) per gated layer, in forward
order: ``forward_relu`` returns a ReLU network's own hard gates,
``feature_gates`` the gates of a ``relu``, ``linear`` or ``shallow`` feature
network, and ``forward_gated`` runs a GaLU value network on any such list.

A ``linear`` (DLGN) or ``shallow`` (DLGN-SF) feature network is linear in
its input, so it collapses into one hyperplane matrix ``U_l`` per gated
layer: ``q_l(x) = x @ U_l`` (the paper's "primal linearity").
``hyperplanes`` computes every ``U_l`` from one pass of the feature maps over
the identity basis. ``feature_gates`` gates a deep linear conv_gap net
through them, one matmul per gated layer in place of its circular
convolutions, wherever that takes fewer multiply-adds than running the net
on the batch: when the input is narrow next to the batch and to the conv
channels. Every other case runs the feature maps on the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node
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
    """Hard self-gate 1{q > 0} of a ReLU unit: `ad.hard_gate_values` without its tie warning."""
    return (q.value > 0.0).astype(np.float64)


def _stack(
    arch: ArchSpec,
    params: Mapping,
    X: np.ndarray,
    gate_rule: GateRule | None,
    input_leaf: bool = False,
) -> tuple[Node, list[tuple[np.ndarray | Node, Node]], list[Gate]]:
    """Run the weight stack, gating every weight layer but the last via `gate_rule`.

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
    chain = arch._weight_layers
    n_gated = len(chain) - 1 if gate_rule is not None else 0
    conv = arch.family == CONV_GAP
    pool_at = arch.d_cv if conv else -1  # the fc head reads the pooled channels
    # res: an identity skip around each of blocks 1..b, from the input of its
    # first weight layer (by index) to the output of its last
    d = arch.d_blk
    skips = {j * d + d - 1: j * d for j in range(1, arch.b + 1)} if arch.family == RES else {}
    z = X[:, :, None] if conv else X
    if input_leaf:
        z = Node(z)
    for i, (name, _, kind) in enumerate(chain):
        if i == pool_at:
            z = ad.global_avg_pool(z)
        q = (ad.conv_circular if kind == "conv" else ad.matmul)(z, params[name])
        layers.append((z, q))
        z = q
        if i < n_gated:
            gate = gate_rule(i, q)
            gates.append(gate)
            z = ad.mul(q, gate)
        if i in skips:
            z = ad.add(layers[skips[i]][0], z)
    return z, layers, gates


def _squeeze_result(
    arch: ArchSpec, y_node: Node, layers: list, gate_values: list[np.ndarray], squeeze: bool
) -> ForwardResult:
    """The ForwardResult of a `_stack` run; `squeeze` drops a single sample's batch axis."""
    y = y_node.value
    if squeeze:
        y = float(y[0, 0]) if arch.n_out == 1 else y[0]
        gate_values = [g[0] for g in gate_values]
    return ForwardResult(y=y, gates=gate_values, y_node=y_node, layers=layers)


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
    y_node, layers, gates = _stack(arch, params_v, X, lambda idx, q: routed[idx], input_leaf)
    # a soft gate is a Node
    return _squeeze_result(arch, y_node, layers, [ad.value_of(g) for g in gates], squeeze)


def _feature_preacts(arch: ArchSpec, params_f: Mapping, X: np.ndarray, source: str) -> list[Node]:
    """Each gated layer's pre-activation of the `source` feature network on the rows X."""
    if source == "shallow":
        return [ad.conv_circular(X[:, :, None], params_f[name]) if kind == "conv"
                else ad.matmul(X, params_f[name]) for name, _, kind in shallow_layer_specs(arch)]
    # a ReLU feature network propagates its hidden units with hard
    # self-gates, a linear one runs fully linear; the gates tap the
    # pre-activations of the gated layers (all but the output layer)
    _, layers, _ = _stack(arch, params_f, X, _relu_gate if source == "relu" else None)
    return [q for _, q in layers[:-1]]


def hyperplanes(arch: ArchSpec, params_f: Mapping, source: str) -> list[Node]:
    """The hyperplane matrix U_l of each gated layer, of shape
    (d_in, prod(gate shape)), such that the `source` feature network's
    pre-activation of gated layer l on a batch X is `X @ U_l`.

    U_l holds the pre-activations of the identity basis, from one pass of the
    feature maps over eye(d_in): the linear `_stack` for source "linear";
    for "shallow", each DLGN-SF map, which gives the parameter itself for an
    fc map and the circulant of the filter for a conv map. U_l is a Node
    differentiable in whichever of `params_f` are Nodes.
    """
    if source not in ("linear", "shallow"):
        raise ValueError(f"unknown feature source {source!r}; hyperplanes need linear or shallow")
    return [ad.reshape(q, (arch.d_in, -1))
            for q in _feature_preacts(arch, params_f, np.eye(arch.d_in), source)]


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
    """
    if arch.family != CONV_GAP:
        return False
    run = sum(math.prod(shape) * (arch.d_in if kind == "conv" else 1)
              for _, shape, kind in weight_layer_specs(arch))
    matmuls = arch.d_in * sum(math.prod(shape) for shape in arch.gate_layer_shapes())
    return arch.d_in * run + n * matmuls < n * run


def feature_gates(arch: ArchSpec, params_f: Mapping, x_f, source: str, mode: str) -> list[Gate]:
    """Gates, one per gated layer, produced by the `source` feature network on x_f.

    source "relu": a ReLU feature network (DGN); "linear": a deep linear
    feature network (DLGN); "shallow": per-layer independent single maps of
    the input (DLGN-SF). The linear source gates through its `hyperplanes`
    wherever that saves work (see `_collapse_pays`); otherwise the feature
    maps run on x_f. Gates always carry a batch axis. Soft gates are logistic Nodes,
    differentiable in whichever of `params_f` are Nodes; hard gates are
    constant arrays.
    """
    if mode not in (HARD, SOFT):
        raise ValueError(f"gate mode must be hard or soft, got {mode!r}")
    if source not in ("relu", "linear", "shallow"):
        raise ValueError(f"unknown feature source {source!r}; choose relu, linear or shallow")
    X, _ = _ensure_batch(x_f, arch.d_in)
    if source == "linear" and _collapse_pays(arch, len(X)):
        qs = [ad.reshape(ad.matmul(X, U), (len(X), *shape))
              for U, shape in zip(hyperplanes(arch, params_f, source), arch.gate_layer_shapes())]
    else:
        qs = _feature_preacts(arch, params_f, X, source)
    if mode == SOFT:
        return [ad.logistic(q, arch.beta) for q in qs]
    return [ad.hard_gate_values(q.value) for q in qs]


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
