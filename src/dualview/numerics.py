"""Seeded randomness, Bernoulli initialisation and gradient utilities.

RNG: numpy's Philox counter-based bit generator, keyed through a
``SeedSequence(seed, spawn_key=(stream,))``. Same (seed, stream) gives a
bit-identical draw sequence across runs and platforms; parallel work uses
distinct stream indices. This choice is part of the package contract and is
versioned with it.

Bernoulli draws: each value is bit 31 of one 32-bit half of a raw 64-bit
Philox word, read little-endian, so the low half comes first. These are the
values, and the stream position, of ``rng.integers(0, 2, dtype=np.uint32)``:
with a range of 2, Lemire's bounded method keeps the top bit of
``next_uint32``, and Philox serves each word's low half, then its high half.
Only Philox generators are accepted.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import Node, backward

ParamDict = Mapping[str, np.ndarray]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless `value` is finite and > 0."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def init_bernoulli(shape: Sequence[int], sigma: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. entries in {-sigma, +sigma}, each with probability 1/2.

    An entry is +sigma where bit 31 of its 32-bit half-word is set: the
    values, and the generator state after the call, are those of
    ``rng.integers(0, 2, shape, dtype=np.uint32) * 2 * sigma - sigma``
    (see the module docstring). `rng` must run on Philox.
    """
    check_positive("sigma", sigma)
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("shape must be nonempty")
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        raise ValueError(f"init_bernoulli needs a Philox generator, got {type(bitgen).__name__}")
    n = math.prod(shape)
    out = np.empty(n)
    # a half-word left buffered by an earlier uint32 draw comes first, and
    # an odd tail is drawn through integers, which buffers the unused half
    head = 1 if n and bitgen.state["has_uint32"] else 0
    words = (n - head) // 2
    if head:
        out[0] = rng.integers(0, 2, 1, dtype=np.uint32)[0]
    halves = bitgen.random_raw(words).astype("<u8", copy=False).view("<u4")
    out[head:head + 2 * words] = np.right_shift(halves, 31, out=halves)
    if head + 2 * words < n:
        out[-1] = rng.integers(0, 2, 1, dtype=np.uint32)[0]
    # 0 or 1 times 2 sigma, minus sigma, is exact
    out *= 2.0 * sigma
    out -= sigma
    return out.reshape(shape)


def grad(
    forward: Callable[[Mapping[str, Node]], Node],
    params: ParamDict,
) -> np.ndarray:
    """Flat gradient of a scalar-output forward closure.

    `forward` receives {name: Node} and must return a scalar Node. The flat
    ordering is the declaration order of `params`, each tensor flattened
    C-order.
    """
    nodes = {k: Node(v) for k, v in params.items()}
    out = forward(nodes)
    if out.value.size != 1:
        raise ValueError(f"forward output must be scalar, got shape {out.value.shape}")
    grads = backward(out)
    parts = []
    for node in nodes.values():
        g = grads.get(id(node))
        if g is None:
            g = np.zeros_like(node.value)
        parts.append(np.asarray(g).ravel())
    return np.concatenate(parts)


def finite_diff_grad(
    forward: Callable[[Mapping[str, Node]], Node],
    params: ParamDict,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient oracle, step scaled by parameter magnitude."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}

    def value() -> float:
        nodes = {k: Node(v) for k, v in work.items()}
        return forward(nodes).value.reshape(()).item()

    parts = []
    for arr in work.values():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            theta = arr[idx]
            h = step * max(1.0, abs(theta))
            arr[idx] = theta + h
            f_plus = value()
            arr[idx] = theta - h
            f_minus = value()
            arr[idx] = theta
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        parts.append(g.ravel())
    return np.concatenate(parts)
