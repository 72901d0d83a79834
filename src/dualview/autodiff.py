"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations needed by the supported forward graphs are provided:
dense matmul, elementwise add/mul, circular 1-D convolution, global average
pooling and the scaled logistic. Hard gates are constant 0/1 masks from
:func:`hard_gate_values`, so a ReLU is a ``mul`` by its gate. Values are
float64 throughout.

Every op takes float64 arrays or Nodes and returns a Node, but only its Node
operands become parents and get a VJP. A constant (an input, a fixed gate, a
parameter nobody differentiates) therefore costs no graph node and no
backward work. A backward pass reaches every Node between the output and the
leaf Nodes; with no parameter a Node, a leaf input still gives the cotangent
of every layer. Nodes are immutable after construction; gradients are
returned from :func:`backward` rather than stored on shared state, so graphs
are safe to evaluate concurrently.
"""

from __future__ import annotations

import warnings

import numpy as np


class NondifferentiablePointWarning(UserWarning):
    """A hard gate saw a pre-activation exactly equal to zero.

    The gradient uses the subgradient 0 at that point.
    """


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        # vjps[i](g) maps the output cotangent to parent i's cotangent
        self.vjps = vjps

    @property
    def shape(self):
        return self.value.shape


def value_of(x) -> np.ndarray:
    """The value of a Node, or the array `x` itself."""
    return x.value if isinstance(x, Node) else x


def _op(value, a, vjp_a, b=None, vjp_b=None) -> Node:
    """A Node over `value` whose parents are those of `a`, `b` that are Nodes."""
    if isinstance(a, Node):
        if isinstance(b, Node):
            return Node(value, (a, b), (vjp_a, vjp_b))
        return Node(value, (a,), (vjp_a,))
    if isinstance(b, Node):
        return Node(value, (b,), (vjp_b,))
    return Node(value)


def matmul(a, b) -> Node:
    av, bv = value_of(a), value_of(b)
    return _op(av @ bv, a, lambda g: g @ bv.T, b, lambda g: av.T @ g)


def add(a, b) -> Node:
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ValueError(f"add shape mismatch: {av.shape} vs {bv.shape}")
    return _op(av + bv, a, lambda g: g, b, lambda g: g)


def mul(a, b) -> Node:
    """Elementwise product, shapes must match exactly (no broadcasting)."""
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ValueError(f"mul shape mismatch: {av.shape} vs {bv.shape}")
    return _op(av * bv, a, lambda g: g * bv, b, lambda g: g * av)


def conv_circular(z, theta) -> Node:
    """Circular 1-D convolution.

    z: (n, d_in, c_in) layer input, theta: (w_cv, c_in, c_out).
    Output q: (n, d_in, c_out) with
    q[n, p, j] = sum_{c, i} theta[c, i, j] * z[n, (p + c) % d_in, i],
    one (n * d_in, c_in) @ (c_in, c_out) matmul per filter tap c. Each tap
    shifts z into one buffer with two slice copies, and the VJPs recompute
    the shifted z of each tap instead of keeping w_cv copies alive.
    """
    zv, tv = value_of(z), value_of(theta)
    w_cv, c_in, c_out = tv.shape
    d_in = zv.shape[1]

    def tap(c, out):  # rows n * d_in + p hold z[n, (p + c) % d_in]
        if not c:
            return zv.reshape(-1, c_in)
        out[:, :d_in - c] = zv[:, c:]
        out[:, d_in - c:] = zv[:, :c]
        return out.reshape(-1, c_in)

    shifted = np.empty(zv.shape)
    q = tap(0, shifted) @ tv[0]
    for c in range(1, w_cv):
        q += tap(c, shifted) @ tv[c]

    def vjp_z(g):  # q[n, p] received z[n, (p + c) % d_in] @ theta[c]
        g2 = g.reshape(-1, c_out)
        dz = (g2 @ tv[0].T).reshape(zv.shape)
        for c in range(1, w_cv):
            dc = (g2 @ tv[c].T).reshape(zv.shape)
            dz[:, c:] += dc[:, :-c]
            dz[:, :c] += dc[:, -c:]
        return dz

    def vjp_theta(g):
        g2, out = g.reshape(-1, c_out), np.empty(zv.shape)
        return np.stack([tap(c, out).T @ g2 for c in range(w_cv)])

    return _op(q.reshape(*zv.shape[:2], c_out), z, vjp_z, theta, vjp_theta)


def global_avg_pool(z) -> Node:
    """Mean over the spatial axis: (n, d_in, w) -> (n, w)."""
    zv = value_of(z)
    d_in = zv.shape[1]
    return _op(zv.mean(axis=1), z, lambda g: np.repeat(g[:, None, :] / d_in, d_in, axis=1))


def logistic(q, beta: float) -> Node:
    """Scaled logistic 1 / (1 + exp(-beta * q)), differentiable gate."""
    s = 1.0 / (1.0 + np.exp(-beta * value_of(q)))
    return _op(s, q, lambda g: g * beta * s * (1.0 - s))


def hard_gate_values(q: np.ndarray, warn: bool = True) -> np.ndarray:
    """Indicator 1{q > 0}; exactly-zero pre-activations gate to 0."""
    q = np.asarray(q)
    if warn and np.any(q == 0.0):
        warnings.warn(
            "hard gate pre-activation exactly 0; using subgradient 0",
            NondifferentiablePointWarning,
            stacklevel=2,
        )
    return (q > 0.0).astype(np.float64)


def backward(out: Node, seed=None) -> dict[int, np.ndarray]:
    """Reverse-mode sweep from `out`; returns {id(node): cotangent}.

    `seed` defaults to ones (scalar outputs are the common case).
    """
    if seed is None:
        seed = np.ones_like(out.value)
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(out): np.asarray(seed, dtype=np.float64)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(g)
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    return grads
