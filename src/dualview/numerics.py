"""Seeded randomness, Bernoulli initialisation and gradient utilities.

RNG: numpy's Philox counter-based bit generator, keyed through a
``SeedSequence(seed, spawn_key=(stream,))``. Same (seed, stream) gives a
bit-identical draw sequence across runs and platforms; parallel work uses
distinct stream indices. This choice is part of the package contract and is
versioned with it.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import Node, backward

ParamDict = Mapping[str, np.ndarray]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def init_bernoulli(shape: Sequence[int], sigma: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. entries in {-sigma, +sigma}, each with probability 1/2."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("shape must be nonempty")
    signs = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    return signs * sigma


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
