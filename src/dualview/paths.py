"""Brute-force path enumeration and the exact dual objects.

Everything here is the oracle side: neural path features / values are built
by explicit enumeration (paths, weight-sharing bundles for the conv family,
sub-FCNs for the residual family) and checked against the closed-form
kernels elsewhere. Enumeration is exponential, so a hard budget applies;
production-scale kernels must use the closed forms.

Path ordering is lexicographic in (input node, layer-1 index, layer-2
index, ...) so dual vectors align across calls. Conv paths are ordered
bundle-major with the d_in member paths (one per input node) contiguous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .arch import ArchSpec, GateTensor, CONV_GAP, FC, HARD, RES

DEFAULT_BUDGET = 10**6


class PathBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured path budget."""

    def __init__(self, n_paths: int, budget: int):
        super().__init__(f"enumeration of {n_paths} paths exceeds budget {budget}")
        self.n_paths = n_paths
        self.budget = budget


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


@dataclass(frozen=True)
class SubFcnMask:
    """Subset of the b skipped blocks included in one sub-FCN."""

    included: tuple[int, ...]  # block ids in 1..b

    def depth_blocks(self) -> int:
        return len(self.included) + 2


def enumerate_subfcns(arch: ArchSpec) -> list[tuple[SubFcnMask, ArchSpec]]:
    """All 2^b sub-FCN masks with the equivalent FC spec for each."""
    if arch.family != RES:
        raise ValueError("enumerate_subfcns requires the res family")
    out = []
    for m in range(2 ** arch.b):
        included = tuple(j + 1 for j in range(arch.b) if (m >> j) & 1)
        mask = SubFcnMask(included)
        fc = ArchSpec(
            family=FC,
            d_in=arch.d_in,
            depth=mask.depth_blocks() * arch.d_blk,
            width=arch.width,
            n_out=arch.n_out,
            c_scale=arch.c_scale,
            beta=arch.beta,
        )
        out.append((mask, fc))
    return out


def _res_block_sequence(arch: ArchSpec, mask: SubFcnMask) -> list[int]:
    return [0, *mask.included, arch.b + 1]


def res_gate_indices(arch: ArchSpec, mask: SubFcnMask) -> list[int]:
    """Global gated-layer indices (into the ResNet gate list) for one sub-FCN.

    The sub-FCN's own final layer is ungated, so the last traversed layer is
    dropped; every other traversed layer maps to block_id * d_blk + layer.
    """
    seq = _res_block_sequence(arch, mask)
    idxs = [j * arch.d_blk + l for j in seq for l in range(arch.d_blk)]
    return idxs[:-1]


def res_weight_names(arch: ArchSpec, mask: SubFcnMask) -> list[str]:
    seq = _res_block_sequence(arch, mask)
    return [f"b{j}l{l}" for j in seq for l in range(1, arch.d_blk + 1)]


def _fc_index_grid(d_in: int, width: int, n_hidden: int) -> np.ndarray:
    """(P, 1 + n_hidden) lexicographic index table: input node then hidden units."""
    dims = [d_in] + [width] * n_hidden
    grids = np.indices(dims)
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass
class FcPathTable:
    arch: ArchSpec  # an FC spec
    idx: np.ndarray  # (P, depth): column 0 input node, columns 1..d-1 hidden units

    @property
    def n_paths(self) -> int:
        return self.idx.shape[0]


@dataclass
class ConvPathTable:
    arch: ArchSpec
    cv_c: np.ndarray  # (B, d_cv) window offsets, 0-based
    cv_j: np.ndarray  # (B, d_cv) filter indices
    fc_k: np.ndarray  # (B, d_fc - 1) hidden fc indices

    @property
    def n_bundles(self) -> int:
        return self.cv_c.shape[0]

    @property
    def n_paths(self) -> int:
        return self.n_bundles * self.arch.d_in

    def positions(self, input_node: int) -> np.ndarray:
        """(B, d_cv) spatial position of each bundle's path from `input_node`."""
        shifts = np.cumsum(self.cv_c, axis=1)
        return (input_node - shifts) % self.arch.d_in


@dataclass
class ResPathTable:
    arch: ArchSpec
    sub_tables: list[tuple[SubFcnMask, FcPathTable]]

    @property
    def n_paths(self) -> int:
        return sum(t.n_paths for _, t in self.sub_tables)


PathTable = FcPathTable | ConvPathTable | ResPathTable


def enumerate_paths(arch: ArchSpec, budget: int = DEFAULT_BUDGET) -> PathTable:
    """Full path table for the architecture; refuses beyond `budget` paths."""
    n = count_paths(arch)
    if n > budget:
        raise PathBudgetError(n, budget)
    if arch.family == FC:
        return FcPathTable(arch, _fc_index_grid(arch.d_in, arch.width, arch.depth - 1))
    if arch.family == CONV_GAP:
        w, w_cv = arch.width, arch.w_cv
        dims = []
        for _ in range(arch.d_cv):
            dims.extend([w_cv, w])
        dims.extend([w] * (arch.d_fc - 1))
        grids = np.indices(dims) if dims else np.zeros((0, 1), dtype=int)
        cols = [g.ravel() for g in grids]
        n_b = cols[0].size if cols else 1
        cv_c = np.stack(cols[0 : 2 * arch.d_cv : 2], axis=1)
        cv_j = np.stack(cols[1 : 2 * arch.d_cv : 2], axis=1)
        if arch.d_fc > 1:
            fc_k = np.stack(cols[2 * arch.d_cv :], axis=1)
        else:
            fc_k = np.zeros((n_b, 0), dtype=int)
        return ConvPathTable(arch, cv_c, cv_j, fc_k)
    subs = []
    for mask, fc_spec in enumerate_subfcns(arch):
        subs.append(
            (mask, FcPathTable(fc_spec, _fc_index_grid(arch.d_in, arch.width, fc_spec.depth - 1)))
        )
    return ResPathTable(arch, subs)


# ---------------------------------------------------------------------------
# Vectorized activities / values
# ---------------------------------------------------------------------------


def _fc_activities(table: FcPathTable, gate_layers: list[np.ndarray]) -> np.ndarray:
    act = np.ones(table.n_paths)
    for l, g in enumerate(gate_layers, start=1):
        act = act * np.asarray(g)[table.idx[:, l]]
    return act


def _fc_values(table: FcPathTable, weights: list[np.ndarray]) -> np.ndarray:
    idx = table.idx
    depth = len(weights)
    v = weights[0][idx[:, 0], idx[:, 1] if depth > 1 else 0]
    for l in range(2, depth + 1):
        col_out = idx[:, l] if l < depth else np.zeros(table.n_paths, dtype=int)
        v = v * weights[l - 1][idx[:, l - 1], col_out]
    return v


def conv_activity_matrix(
    table: ConvPathTable, gates: GateTensor, include_pool: bool = True
) -> np.ndarray:
    """(d_in, B) activity of each bundle's path from each input node.

    `include_pool=False` drops the 1/d_in pooling factor; used when the
    activity product should count gates only (overlap counting).
    """
    arch = table.arch
    conv_gates = gates.layers[: arch.d_cv]
    fc_gates = gates.layers[arch.d_cv :]
    out = np.empty((arch.d_in, table.n_bundles))
    fc_act = np.ones(table.n_bundles)
    for m, g in enumerate(fc_gates):
        fc_act = fc_act * np.asarray(g)[table.fc_k[:, m]]
    for i in range(arch.d_in):
        pos = table.positions(i)
        act = np.ones(table.n_bundles)
        for l in range(arch.d_cv):
            act = act * np.asarray(conv_gates[l])[pos[:, l], table.cv_j[:, l]]
        out[i] = act * fc_act
    if include_pool:
        out = out / arch.d_in
    return out


def conv_bundle_values(table: ConvPathTable, params: Mapping[str, np.ndarray]) -> np.ndarray:
    arch = table.arch
    v = np.ones(table.n_bundles)
    j_prev = np.zeros(table.n_bundles, dtype=int)  # single input channel
    for l in range(arch.d_cv):
        theta = np.asarray(params[f"cv{l + 1}"])
        v = v * theta[table.cv_c[:, l], j_prev, table.cv_j[:, l]]
        j_prev = table.cv_j[:, l]
    k_prev = j_prev
    for m in range(arch.d_fc):
        w_mat = np.asarray(params[f"fc{m + 1}"])
        k_next = table.fc_k[:, m] if m < arch.d_fc - 1 else np.zeros(table.n_bundles, dtype=int)
        v = v * w_mat[k_prev, k_next]
        k_prev = k_next
    return v


def _res_sub_activities(
    table: ResPathTable, mask: SubFcnMask, sub: FcPathTable, gates: GateTensor
) -> np.ndarray:
    gate_ids = res_gate_indices(table.arch, mask)
    return _fc_activities(sub, [gates.layers[g] for g in gate_ids])


def _res_sub_values(
    table: ResPathTable, mask: SubFcnMask, sub: FcPathTable, params: Mapping[str, np.ndarray]
) -> np.ndarray:
    names = res_weight_names(table.arch, mask)
    return _fc_values(sub, [np.asarray(params[n]) for n in names])


# ---------------------------------------------------------------------------
# Single-path objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """One enumerated path: input node plus per-layer index maps."""

    arch: ArchSpec
    input_node: int
    hidden: tuple[int, ...] = ()  # fc/res hidden unit indices per gated layer
    windows: tuple[int, ...] = ()  # conv window offsets, 0-based
    filters: tuple[int, ...] = ()  # conv filter indices
    subfcn: SubFcnMask | None = None  # res only


def iter_paths(table: PathTable):
    """Paths in table order (oracle scale only)."""
    if isinstance(table, FcPathTable):
        for row in table.idx:
            yield Path(table.arch, int(row[0]), hidden=tuple(int(v) for v in row[1:]))
    elif isinstance(table, ConvPathTable):
        for b in range(table.n_bundles):
            for i in range(table.arch.d_in):
                yield Path(
                    table.arch,
                    i,
                    hidden=tuple(int(v) for v in table.fc_k[b]),
                    windows=tuple(int(v) for v in table.cv_c[b]),
                    filters=tuple(int(v) for v in table.cv_j[b]),
                )
    else:
        for mask, sub in table.sub_tables:
            for row in sub.idx:
                yield Path(
                    table.arch,
                    int(row[0]),
                    hidden=tuple(int(v) for v in row[1:]),
                    subfcn=mask,
                )


def path_activity(gates: GateTensor, p: Path) -> float:
    """Product of the path's gate values; conv includes the 1/d_in pool factor."""
    arch = p.arch
    if arch.family == FC:
        return float(np.prod([gates.layers[l][j] for l, j in enumerate(p.hidden)]))
    if arch.family == CONV_GAP:
        act = 1.0
        pos = p.input_node
        for l, (c, j) in enumerate(zip(p.windows, p.filters)):
            pos = (pos - c) % arch.d_in
            act *= float(gates.layers[l][pos, j])
        act *= 1.0 / arch.d_in
        for m, k in enumerate(p.hidden):
            act *= float(gates.layers[arch.d_cv + m][k])
        return act
    gate_ids = res_gate_indices(arch, p.subfcn)
    return float(np.prod([gates.layers[g][j] for g, j in zip(gate_ids, p.hidden)]))


def path_value(params: Mapping[str, np.ndarray], p: Path) -> float:
    """Product of the traversed weights (bundle-shared for the conv family)."""
    arch = p.arch
    if arch.family == FC:
        names = [f"fc{l}" for l in range(1, arch.depth + 1)]
        chain = (p.input_node, *p.hidden, 0)
        return float(np.prod([params[n][chain[l], chain[l + 1]] for l, n in enumerate(names)]))
    if arch.family == CONV_GAP:
        v = 1.0
        j_prev = 0
        for l, (c, j) in enumerate(zip(p.windows, p.filters)):
            v *= float(params[f"cv{l + 1}"][c, j_prev, j])
            j_prev = j
        chain = (j_prev, *p.hidden, 0)
        for m in range(arch.d_fc):
            v *= float(params[f"fc{m + 1}"][chain[m], chain[m + 1]])
        return v
    names = res_weight_names(arch, p.subfcn)
    chain = (p.input_node, *p.hidden, 0)
    return float(np.prod([params[n][chain[l], chain[l + 1]] for l, n in enumerate(names)]))


# ---------------------------------------------------------------------------
# Dual vectors, overlap
# ---------------------------------------------------------------------------


@dataclass
class DualVectors:
    npf: np.ndarray
    npv: np.ndarray

    def output(self) -> float:
        return float(self.npf @ self.npv)


def dual_vectors(
    arch: ArchSpec,
    params: Mapping[str, np.ndarray],
    x,
    gates: GateTensor,
    table: PathTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DualVectors:
    """Neural path feature / value vectors; conv entries are per bundle."""
    x = np.asarray(x, dtype=np.float64)
    if table is None:
        table = enumerate_paths(arch, budget=budget)
    if arch.family == FC:
        act = _fc_activities(table, gates.layers)
        npf = x[table.idx[:, 0]] * act
        npv = _fc_values(table, [np.asarray(params[f"fc{l}"]) for l in range(1, arch.depth + 1)])
        return DualVectors(npf, npv)
    if arch.family == CONV_GAP:
        act = conv_activity_matrix(table, gates, include_pool=True)  # (d_in, B)
        npf = x @ act
        npv = conv_bundle_values(table, params)
        return DualVectors(npf, npv)
    npfs, npvs = [], []
    for mask, sub in table.sub_tables:
        act = _res_sub_activities(table, mask, sub, gates)
        npfs.append(x[sub.idx[:, 0]] * act)
        npvs.append(_res_sub_values(table, mask, sub, params))
    return DualVectors(np.concatenate(npfs), np.concatenate(npvs))


def conv_path_npf(table: ConvPathTable, x, gates: GateTensor) -> np.ndarray:
    """Unbundled per-path NPF for the conv family, shape (d_in, B)."""
    x = np.asarray(x, dtype=np.float64)
    act = conv_activity_matrix(table, gates, include_pool=True)
    return x[:, None] * act


def _require_hard(gates: GateTensor) -> None:
    for g in gates.layers:
        g = np.asarray(g)
        if not np.all((g == 0.0) | (g == 1.0)):
            raise ValueError("overlap counts require hard gates")


def overlap(
    i: int,
    gates_x: GateTensor,
    gates_x2: GateTensor,
    arch: ArchSpec,
    table: PathTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of paths from input node `i` active for both gate patterns.

    Conv activities are counted gates-only (the constant pooling mask is
    excluded so the result stays an integer count).
    """
    _require_hard(gates_x)
    _require_hard(gates_x2)
    if table is None:
        table = enumerate_paths(arch, budget=budget)
    if arch.family == FC:
        joint = _fc_activities(table, gates_x.layers) * _fc_activities(table, gates_x2.layers)
        return int(round(joint[table.idx[:, 0] == i].sum()))
    if arch.family == CONV_GAP:
        a = conv_activity_matrix(table, gates_x, include_pool=False)
        a2 = conv_activity_matrix(table, gates_x2, include_pool=False)
        return int(round((a[i] * a2[i]).sum()))
    total = 0.0
    for mask, sub in table.sub_tables:
        joint = _res_sub_activities(table, mask, sub, gates_x) * _res_sub_activities(
            table, mask, sub, gates_x2
        )
        total += joint[sub.idx[:, 0] == i].sum()
    return int(round(total))


def overlap_vector(
    gates_x: GateTensor,
    gates_x2: GateTensor,
    arch: ArchSpec,
    table: PathTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    if table is None:
        table = enumerate_paths(arch, budget=budget)
    return np.array(
        [overlap(i, gates_x, gates_x2, arch, table=table) for i in range(arch.d_in)],
        dtype=np.float64,
    )

