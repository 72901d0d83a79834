"""Seeded randomness, Bernoulli initialisation and the autodiff gradient.

RNG: numpy's Philox counter-based bit generator, keyed through a
``SeedSequence(seed, spawn_key=(stream,))``. Same (seed, stream) gives a
bit-identical draw sequence across runs and platforms; parallel work uses
distinct stream indices. This choice is part of the package contract and is
versioned with it.

Bernoulli draws (contract v2, 0.2.0): value i of a draw is +sigma where bit
``i % 64`` of raw Philox word ``i // 64`` is set, least significant bit first;
the unused high bits of the last word are dropped. ``random_raw`` leaves a
half-word buffered by an earlier uint32 draw in place. 0.1.0 kept one bit per
32-bit half-word, so Bernoulli-drawn outputs (MC NTK samples, ``dualview
kernel``'s ``gram.*``, Bernoulli ``params.npz``, ``verify.json``'s MC fields)
differ from 0.1.0 for the same seed. Only Philox generators are accepted.
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

    Entry i (C order) is +sigma where bit ``i % 64`` of raw Philox word
    ``i // 64`` is set (see the module docstring): all 64 bits of every word
    are used, and a half-word buffered by an earlier uint32 draw stays
    buffered. `rng` must run on Philox.
    """
    check_positive("sigma", sigma)
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("shape must be nonempty")
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        raise ValueError(f"init_bernoulli needs a Philox generator, got {type(bitgen).__name__}")
    n = math.prod(shape)
    words = bitgen.random_raw(-(-n // 64)).astype("<u8", copy=False)
    signs = np.unpackbits(words.view(np.uint8), bitorder="little", count=n).view(np.int8)
    # 0/1 to -1/+1 in int8, then +/-1.0 times sigma, which is exact
    signs *= 2
    signs -= 1
    out = signs.astype(np.float64)
    out *= sigma
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
