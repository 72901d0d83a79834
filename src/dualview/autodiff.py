"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations needed by the supported forward graphs are provided:
dense matmul, elementwise add/mul, circular 1-D convolution, global average
pooling and the scaled logistic. Hard gates are
constant 0/1 masks from :func:`hard_gate_values`, so a ReLU is a ``mul`` by
its gate. Values are float64
throughout. Nodes are immutable after construction; gradients are returned
from :func:`backward` rather than stored on shared state, so graphs are safe
to evaluate concurrently.
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


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = a.value @ b.value
    return Node(
        out,
        parents=(a, b),
        vjps=(lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Node(a.value + b.value, parents=(a, b), vjps=(lambda g: g, lambda g: g))


def mul(a, b) -> Node:
    """Elementwise product, shapes must match exactly (no broadcasting)."""
    a, b = as_node(a), as_node(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Node(
        a.value * b.value,
        parents=(a, b),
        vjps=(lambda g: g * b.value, lambda g: g * a.value),
    )


def conv_circular(z, theta) -> Node:
    """Circular 1-D convolution.

    z: (n, d_in, c_in) layer input, theta: (w_cv, c_in, c_out).
    Output q: (n, d_in, c_out) with
    q[n, p, j] = sum_{c, i} theta[c, i, j] * z[n, (p + c) % d_in, i],
    one (n * d_in, c_in) @ (c_in, c_out) matmul per filter tap c. The VJPs
    recompute the rolled z of each tap instead of keeping w_cv copies alive.
    """
    z, theta = as_node(z), as_node(theta)
    zv, tv = z.value, theta.value
    w_cv, c_in, c_out = tv.shape

    def tap(c):  # tap(c)[n * d_in + p] = z[n, (p + c) % d_in]
        return (np.roll(zv, -c, axis=1) if c else zv).reshape(-1, c_in)

    q = tap(0) @ tv[0]
    for c in range(1, w_cv):
        q += tap(c) @ tv[c]

    def vjp_z(g):  # q[n, p] received z[n, (p + c) % d_in] @ theta[c]
        g2 = g.reshape(-1, c_out)
        dz = (g2 @ tv[0].T).reshape(zv.shape)
        for c in range(1, w_cv):
            dz += np.roll((g2 @ tv[c].T).reshape(zv.shape), c, axis=1)
        return dz

    def vjp_theta(g):
        return np.stack([tap(c).T @ g.reshape(-1, c_out) for c in range(w_cv)])

    return Node(q.reshape(*zv.shape[:2], c_out), parents=(z, theta), vjps=(vjp_z, vjp_theta))


def global_avg_pool(z) -> Node:
    """Mean over the spatial axis: (n, d_in, w) -> (n, w)."""
    z = as_node(z)
    d_in = z.value.shape[1]
    return Node(z.value.mean(axis=1), parents=(z,),
                vjps=(lambda g: np.repeat(g[:, None, :] / d_in, d_in, axis=1),))


def logistic(q, beta: float) -> Node:
    """Scaled logistic 1 / (1 + exp(-beta * q)), differentiable gate."""
    q = as_node(q)
    s = 1.0 / (1.0 + np.exp(-beta * q.value))
    return Node(s, parents=(q,), vjps=(lambda g: g * beta * s * (1.0 - s),))


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
