"""Brute-force path enumeration and the exact dual objects.

Everything here is the oracle side: neural path features / values are built
by explicit enumeration and checked against the closed-form kernels
elsewhere. Enumeration is exponential, so it refuses more than
``DEFAULT_BUDGET`` paths; production-scale kernels must use the closed forms.

Every family enumerates into one :class:`PathTable`. Each path stores its
input node and, per gated step, the flat index of the gate it passes in the
concatenated gate layers. Each weight-sharing bundle stores, per weight
layer, the flat index of the weight it traverses in the concatenated weight
layers. Both concatenations end in a constant 1 that pads the rows of
shorter paths (the res sub-FCNs). A bundle is a single path for fc and res;
for conv_gap it is the d_in paths, one per input node, that share their
weights, and every activity carries the 1/d_in pooling scale. Activities,
values and dual vectors are gathers, products and per-bundle sums with no
family branch; only :func:`enumerate_paths` knows the families, and it is
the only function that builds a table: every other function here takes the
table it reads.

Path ordering is lexicographic in (input node, layer-1 index, layer-2
index, ...) so dual vectors align across calls. Res paths are grouped by
sub-FCN in the mask order of :func:`enumerate_subfcns`, where a mask is the
tuple of the skipped blocks (ids 1..b) that a sub-FCN includes. Conv paths
are ordered bundle-major, lexicographic in (window offset, filter) per conv
layer then the hidden fc units, with the d_in member paths (one per input
node) contiguous.

The per-path reference that walks the same paths from the architecture
alone, without reading a table, belongs to the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .arch import ArchSpec, CONV_GAP, FC, RES, Gates, check_sample, weight_layer_specs

DEFAULT_BUDGET = 10**6


class PathBudgetError(RuntimeError):
    """Requested enumeration exceeds ``DEFAULT_BUDGET`` paths."""


def count_paths(arch: ArchSpec) -> int:
    """Closed-form total path count per family."""
    if arch.family == FC:
        return arch.d_in * arch.width ** (arch.depth - 1)
    if arch.family == CONV_GAP:
        return arch.d_in * (arch.w_cv * arch.width) ** arch.d_cv * arch.width ** (arch.d_fc - 1)
    total = sum(
        math.comb(arch.b, i) * arch.width ** ((i + 2) * arch.d_blk - 1)
        for i in range(arch.b + 1)
    )
    return arch.d_in * total


def enumerate_subfcns(arch: ArchSpec) -> list[tuple[int, ...]]:
    """All 2^b sub-FCN masks of a res arch, in the order of the bits of
    0..2^b - 1 (bit j includes block j + 1). The sub-FCN of a mask is an fc
    chain of `(len(mask) + 2) * arch.d_blk` weight layers."""
    if arch.family != RES:
        raise ValueError("enumerate_subfcns requires the res family")
    return [tuple(j + 1 for j in range(arch.b) if (m >> j) & 1) for m in range(2 ** arch.b)]


def res_gate_indices(arch: ArchSpec, mask: tuple[int, ...]) -> list[int]:
    """Global gated-layer indices (into the ResNet gate list) for one sub-FCN.

    The sub-FCN's own final layer is ungated, so the last traversed layer is
    dropped; every other traversed layer maps to block_id * d_blk + layer.
    """
    idxs = [j * arch.d_blk + l for j in (0, *mask, arch.b + 1) for l in range(arch.d_blk)]
    return idxs[:-1]


@dataclass
class PathTable:
    """Every path of `arch` as flat indices into its gates and weights."""

    arch: ArchSpec
    node: np.ndarray  # (P,) input node of each path
    gate_idx: np.ndarray  # (L, P) flat gate index per gated step
    weight_idx: np.ndarray  # (M, B) flat weight index per weight layer, per bundle
    bundle_start: np.ndarray  # (B,) first path of each bundle; its paths are contiguous
    pool: float = 1.0  # pooling scale of every activity
    # (sub-FCN mask, path slice) per res sub-FCN; fc: one block with mask
    # None; conv tables leave it empty
    sub_blocks: list[tuple[tuple[int, ...] | None, slice]] = field(default_factory=list)


def _offsets(shapes) -> list[int]:
    """Start of each array in a flat concatenation; the last entry indexes the trailing 1."""
    return np.cumsum([0, *(math.prod(s) for s in shapes)]).tolist()


def _flat(arrays) -> np.ndarray:
    return np.concatenate([*(np.ravel(a) for a in arrays), [1.0]])


def enumerate_paths(arch: ArchSpec) -> PathTable:
    """Full path table for the architecture; refuses beyond ``DEFAULT_BUDGET`` paths."""
    n = count_paths(arch)
    if n > DEFAULT_BUDGET:
        raise PathBudgetError(f"enumeration of {n} paths exceeds budget {DEFAULT_BUDGET}")
    shapes = [s for _, s, _ in weight_layer_specs(arch)]
    g_off, w_off = _offsets(arch.gate_layer_shapes()), _offsets(shapes)
    if arch.family == CONV_GAP:
        return _conv_table(arch, shapes, g_off, w_off)
    if arch.family == FC:
        chains = [(None, list(range(arch.depth)))]
    else:
        chains = [(m, [*res_gate_indices(arch, m), len(shapes) - 1])
                  for m in enumerate_subfcns(arch)]
    # fc and every res sub-FCN: a chain of weight layers where gate layer k
    # gates weight layer k, except the chain's last layer
    node = np.empty(n, np.int32)
    gate_idx = np.full((arch.n_gate_layers(), n), g_off[-1], np.int32)
    weight_idx = np.full((len(shapes), n), w_off[-1], np.int32)
    blocks, stop = [], 0
    for mask, layers in chains:
        units = np.indices((arch.d_in,) + (arch.width,) * (len(layers) - 1), dtype=np.int32)
        units = [*units.reshape(len(layers), -1), 0]
        s = slice(stop, stop + units[0].size)
        node[s], stop = units[0], s.stop
        for r, k in enumerate(layers):
            weight_idx[r, s] = w_off[k] + units[r] * shapes[k][-1] + units[r + 1]
        for r, k in enumerate(layers[:-1]):
            gate_idx[r, s] = g_off[k] + units[r + 1]
        blocks.append((mask, s))
    return PathTable(arch, node, gate_idx, weight_idx, np.arange(n, dtype=np.int32),
                     sub_blocks=blocks)


def _conv_table(arch: ArchSpec, shapes, g_off, w_off) -> PathTable:
    d_in, n_cv = arch.d_in, 2 * arch.d_cv
    dims = (arch.w_cv, arch.width) * arch.d_cv + (arch.width,) * (arch.d_fc - 1) + (d_in,)
    grid = np.indices(dims, dtype=np.int32).reshape(len(dims), -1)
    node, windows, filters, hidden = grid[-1], grid[0:n_cv:2], grid[1:n_cv:2], grid[n_cv:-1]
    gate_idx = np.empty((arch.n_gate_layers(), node.size), np.int32)
    pos = node
    for l in range(arch.d_cv):
        pos = (pos - windows[l]) % d_in
        gate_idx[l] = g_off[l] + pos * arch.width + filters[l]
    for m in range(arch.d_fc - 1):
        gate_idx[arch.d_cv + m] = g_off[arch.d_cv + m] + hidden[m]
    # a bundle's weights are those of its path from input node 0; weight
    # layer r maps channel chain[r] to chain[r + 1]
    first = grid[:, ::d_in]
    chain = [0, *first[1:n_cv:2], *first[n_cv:-1], 0]
    weight_idx = np.empty((len(shapes), first.shape[1]), np.int32)
    for r, shape in enumerate(shapes):
        weight_idx[r] = w_off[r] + chain[r] * shape[-1] + chain[r + 1]
    for l in range(arch.d_cv):
        weight_idx[l] += first[2 * l] * (shapes[l][1] * shapes[l][2])
    return PathTable(arch, node, gate_idx, weight_idx,
                     np.arange(0, node.size, d_in, dtype=np.int32), pool=1.0 / d_in)


# ---------------------------------------------------------------------------
# Dual vectors
# ---------------------------------------------------------------------------


@dataclass
class DualVectors:
    npf: np.ndarray
    npv: np.ndarray

    def output(self) -> float:
        return float(self.npf @ self.npv)


def _products(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Product of `flat` gathered at each row of `idx`, taken in row order."""
    out = flat[idx[0]]
    for row in idx[1:]:
        out *= flat[row]
    return out


def _activities(table: PathTable, gates: Gates) -> np.ndarray:
    """Gate product of every path, without the pooling scale."""
    return _products(_flat(gates), table.gate_idx)


def _path_npf(table: PathTable, x, gates: Gates) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[table.node] * _activities(table, gates) * table.pool


def dual_vectors(
    arch: ArchSpec, params: Mapping[str, np.ndarray], x, gates: Gates, table: PathTable
) -> DualVectors:
    """Neural path feature / value vectors over `table`, which must be
    `arch`'s; conv entries are per bundle."""
    if table.arch != arch:
        raise ValueError(f"path table is for {table.arch}, not {arch}")
    check_sample(arch, x, gates)
    weights = _flat(params[name] for name, _, _ in weight_layer_specs(arch))
    return DualVectors(np.add.reduceat(_path_npf(table, x, gates), table.bundle_start),
                       _products(weights, table.weight_idx))
