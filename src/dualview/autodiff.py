"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations needed by the supported forward graphs are provided:
dense matmul, elementwise add/mul, reshape, circular 1-D convolution, global
average pooling and the scaled logistic. Hard gates are constant 0/1 masks from
:func:`hard_gate_values`, so a ReLU is a ``mul`` by its gate. Values are
float64 throughout. The circular convolution, the soft gate and their VJPs are
array functions (:func:`circular_conv`, :func:`circular_conv_vjp_z`,
:func:`circular_conv_vjp_theta`, :func:`soft_gate`, :func:`soft_gate_vjp`),
which the graph ops and the graph-free training engine in
:mod:`dualview.arch` both call.

This module is one of the two op sets that ``arch.run_stack`` and
``arch.FeatureNet`` run on. ``arch.ARRAYS``, the other, holds the same
names on plain arrays: ``matmul``, ``mul``, ``add``, ``reshape``,
``conv_circular``, ``global_avg_pool`` and ``logistic``. Each gives the
``value`` of its graph op here, bit for bit.

Every op takes float64 arrays or Nodes and returns a Node, but only its Node
operands become parents and get a VJP; an op tests each operand once and
builds no VJP closure for a constant. A constant (an input, a fixed gate, a
parameter nobody differentiates) therefore costs no graph node and no
backward work. A backward pass reaches every Node the output was computed
from. An op on constants alone still returns a Node, a leaf, so with no
parameter a Node a backward pass still reaches every layer's pre-activation.
Nodes are immutable after construction; gradients are returned from
:func:`backward` rather than stored on shared state, so graphs are safe to
evaluate concurrently.
"""

from __future__ import annotations

import warnings

import numpy as np

_FLOAT64 = np.dtype(np.float64)


class NondifferentiablePointWarning(UserWarning):
    """A hard gate saw a pre-activation exactly equal to zero.

    The gradient uses the subgradient 0 at that point.
    """


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value, parents=(), vjps=()):
        # every op hands over a float64 ndarray, which needs no conversion
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
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
    """A Node over `value` whose parents are the operands given a VJP.

    An op passes a falsy VJP for an operand that is not a Node.
    """
    if vjp_a:
        if vjp_b:
            return Node(value, (a, b), (vjp_a, vjp_b))
        return Node(value, (a,), (vjp_a,))
    if vjp_b:
        return Node(value, (b,), (vjp_b,))
    return Node(value)


def matmul(a, b) -> Node:
    a_node, b_node = isinstance(a, Node), isinstance(b, Node)
    av, bv = a.value if a_node else a, b.value if b_node else b
    return _op(av @ bv, a, a_node and (lambda g: g @ bv.T), b, b_node and (lambda g: av.T @ g))


def add(a, b) -> Node:
    a_node, b_node = isinstance(a, Node), isinstance(b, Node)
    av, bv = a.value if a_node else a, b.value if b_node else b
    if av.shape != bv.shape:
        raise ValueError(f"add shape mismatch: {av.shape} vs {bv.shape}")
    return _op(av + bv, a, a_node and (lambda g: g), b, b_node and (lambda g: g))


def mul(a, b) -> Node:
    """Elementwise product, shapes must match exactly (no broadcasting)."""
    a_node, b_node = isinstance(a, Node), isinstance(b, Node)
    av, bv = a.value if a_node else a, b.value if b_node else b
    if av.shape != bv.shape:
        raise ValueError(f"mul shape mismatch: {av.shape} vs {bv.shape}")
    return _op(av * bv, a, a_node and (lambda g: g * bv), b, b_node and (lambda g: g * av))


def reshape(a, shape) -> Node:
    """`a` with a new shape of the same size; the VJP reshapes back."""
    a_node = isinstance(a, Node)
    av = a.value if a_node else a
    return _op(av.reshape(shape), a, a_node and (lambda g: g.reshape(av.shape)))


def _tap(z: np.ndarray, c: int, out: np.ndarray) -> np.ndarray:
    """Rows n * d_in + p hold z[n, (p + c) % d_in]: z itself for c = 0, else
    z shifted into `out` with two slice copies."""
    if not c:
        return z.reshape(-1, z.shape[2])
    d_in = z.shape[1]
    out[:, :d_in - c] = z[:, c:]
    out[:, d_in - c:] = z[:, :c]
    return out.reshape(-1, z.shape[2])


def circular_conv(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Circular 1-D convolution on arrays.

    z: (n, d_in, c_in) layer input, theta: (w_cv, c_in, c_out).
    Output q: (n, d_in, c_out) with
    q[n, p, j] = sum_{c, i} theta[c, i, j] * z[n, (p + c) % d_in, i],
    one (n * d_in, c_in) @ (c_in, c_out) matmul per filter tap c. The VJPs
    recompute the shifted z of each tap instead of keeping w_cv copies alive.
    """
    shifted = np.empty(z.shape)
    q = _tap(z, 0, shifted) @ theta[0]
    for c in range(1, theta.shape[0]):
        q += _tap(z, c, shifted) @ theta[c]
    return q.reshape(*z.shape[:2], theta.shape[2])


def circular_conv_vjp_z(g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Cotangent of z from the cotangent g of q: q[n, p] received
    z[n, (p + c) % d_in] @ theta[c]. Each tap's part is shifted back into
    one buffer with two slice copies and added whole, which numpy does
    faster than two in-place adds into slices of dz."""
    w_cv, c_in, c_out = theta.shape
    g2, shape = g.reshape(-1, c_out), (*g.shape[:2], c_in)
    dz, shifted = (g2 @ theta[0].T).reshape(shape), np.empty(shape)
    for c in range(1, w_cv):
        dc = (g2 @ theta[c].T).reshape(shape)
        shifted[:, c:] = dc[:, :-c]
        shifted[:, :c] = dc[:, -c:]
        dz += shifted
    return dz


def circular_conv_vjp_theta(z: np.ndarray, g: np.ndarray, w_cv: int) -> np.ndarray:
    """Cotangent of the (w_cv, c_in, c_out) filter from the cotangent g of q."""
    g2, out = g.reshape(-1, g.shape[2]), np.empty(z.shape)
    dtheta = np.empty((w_cv, z.shape[2], g.shape[2]))
    for c in range(w_cv):
        np.matmul(_tap(z, c, out).T, g2, out=dtheta[c])
    return dtheta


def conv_circular(z, theta) -> Node:
    """:func:`circular_conv` as a graph op."""
    z_node, t_node = isinstance(z, Node), isinstance(theta, Node)
    zv, tv = z.value if z_node else z, theta.value if t_node else theta
    return _op(circular_conv(zv, tv),
               z, z_node and (lambda g: circular_conv_vjp_z(g, tv)),
               theta, t_node and (lambda g: circular_conv_vjp_theta(zv, g, tv.shape[0])))


def global_avg_pool(z) -> Node:
    """Mean over the spatial axis: (n, d_in, w) -> (n, w)."""
    z_node = isinstance(z, Node)
    zv = z.value if z_node else z
    d_in = zv.shape[1]
    return _op(zv.mean(axis=1), z,
               z_node and (lambda g: np.repeat(g[:, None, :] / d_in, d_in, axis=1)))


def soft_gate(q: np.ndarray, beta: float) -> np.ndarray:
    """The scaled logistic 1 / (1 + exp(-beta * q)) of an array, in one
    buffer. Below beta * q of about -709 the exp overflows to inf and the
    gate is exactly 0, so the overflow is not reported."""
    s = np.multiply(q, -beta)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def soft_gate_vjp(g: np.ndarray, s: np.ndarray, beta: float) -> np.ndarray:
    """Cotangent g * beta * s * (1 - s) of q from the cotangent g of the gate s."""
    dq = g * beta
    dq *= s
    dq *= 1.0 - s
    return dq


def logistic(q, beta: float) -> Node:
    """:func:`soft_gate` as a graph op, the differentiable gate."""
    q_node = isinstance(q, Node)
    s = soft_gate(q.value if q_node else q, beta)
    return _op(s, q, q_node and (lambda g: soft_gate_vjp(g, s, beta)))


def hard_gate_values(q: np.ndarray) -> np.ndarray:
    """Indicator 1{q > 0}; exactly-zero pre-activations gate to 0, with a warning."""
    q = np.asarray(q)
    if np.any(q == 0.0):
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
