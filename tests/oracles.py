"""Reference implementations that only the tests compare against.

The library computes the dual objects from a :class:`dualview.paths.PathTable`
with no family branch. The oracles here check that side independently:
:func:`iter_paths` walks the paths from the architecture alone, and
:func:`path_activity` / :func:`path_value` evaluate one path from the gate and
weight arrays, so a table that drops, duplicates or misindexes paths does not
pass its own reference. :func:`conv_path_npf` unbundles the conv features,
:func:`overlap_vector` counts the paths two hard gate patterns share, and
:func:`finite_diff_grad` checks the autodiff gradients. :func:`logits_node`
and :func:`batch_grads` run a model through the autodiff graph, the oracle
of the explicit forward and VJP that training uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from dualview.arch import (ArchSpec, CONV_GAP, FC, RES, Gates, feature_gates, forward_gated,
                           forward_relu)
from dualview.autodiff import Node, backward
from dualview.numerics import ParamDict
from dualview.paths import PathTable, _activities, _path_npf, enumerate_subfcns, \
    res_gate_indices
from dualview.training import REGIME_TABLE, Model, _trained, loss_softmax_ce


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


# ---------------------------------------------------------------------------
# Models through the autodiff graph
# ---------------------------------------------------------------------------


def logits_node(model: Model, X) -> Node:
    """Logits of X as a Node, differentiable in any parameter that is a Node:
    ``forward_relu`` for a DNN, ``forward_gated`` on the regime's routed
    ``feature_gates`` otherwise, on ones for a constant-1 value input."""
    source, mode, _ = REGIME_TABLE[model.regime]
    if source == "self":
        return forward_relu(model.arch, model.params_v, X).y_node
    gates = feature_gates(model.arch, model.params_f, X, source, mode)
    gates = gates if model.perm is None else [gates[j] for j in model.perm]
    X_v = np.ones_like(X) if model.ones_input else X
    return forward_gated(model.arch, model.params_v, gates, X_v).y_node


def batch_grads(model: Model, Xb, yb):
    """The batch loss and its gradient in every array of `_trained(model)`,
    by one backward sweep of the graph in which only those arrays are Nodes."""
    trained = _trained(model)
    nodes = {id(v): Node(v) for v in trained.values()}

    def wrap(params):
        return params and {k: nodes.get(id(v), v) for k, v in params.items()}

    out = logits_node(replace(model, params_f=wrap(model.params_f),
                              params_v=wrap(model.params_v)), Xb)
    loss, dlogits = loss_softmax_ce(out.value, yb)
    cot = backward(out, seed=dlogits)
    grads = {}
    for name, v in trained.items():
        c = cot.get(id(nodes[id(v)]))
        grads[name] = np.zeros_like(v) if c is None else c
    return loss, grads


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
    subfcn: tuple[int, ...] | None = None  # res only: the included blocks


def iter_paths(table: PathTable):
    """Paths in table order, walked from `table.arch` alone (oracle scale only)."""
    arch = table.arch
    units = [range(arch.width)]
    if arch.family == CONV_GAP:
        n_cv = 2 * arch.d_cv
        cv = [range(arch.w_cv), range(arch.width)] * arch.d_cv
        for *idx, i in itertools.product(*cv, *units * (arch.d_fc - 1), range(arch.d_in)):
            yield Path(arch, i, hidden=tuple(idx[n_cv:]), windows=tuple(idx[0:n_cv:2]),
                       filters=tuple(idx[1:n_cv:2]))
        return
    chains = ([(m, (len(m) + 2) * arch.d_blk) for m in enumerate_subfcns(arch)]
              if arch.family == RES else [(None, arch.depth)])
    for mask, depth in chains:
        for i, *hidden in itertools.product(range(arch.d_in), *units * (depth - 1)):
            yield Path(arch, i, hidden=tuple(hidden), subfcn=mask)


def path_activity(gates: Gates, p: Path) -> float:
    """Product of the path's gate values; conv includes the 1/d_in pool factor."""
    arch = p.arch
    if arch.family == FC:
        return float(np.prod([gates[l][j] for l, j in enumerate(p.hidden)]))
    if arch.family == CONV_GAP:
        act = 1.0
        pos = p.input_node
        for l, (c, j) in enumerate(zip(p.windows, p.filters)):
            pos = (pos - c) % arch.d_in
            act *= float(gates[l][pos, j])
        act *= 1.0 / arch.d_in
        for m, k in enumerate(p.hidden):
            act *= float(gates[arch.d_cv + m][k])
        return act
    gate_ids = res_gate_indices(arch, p.subfcn)
    return float(np.prod([gates[g][j] for g, j in zip(gate_ids, p.hidden)]))


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
    blocks = (0, *p.subfcn, arch.b + 1)
    names = [f"b{j}l{l}" for j in blocks for l in range(1, arch.d_blk + 1)]
    chain = (p.input_node, *p.hidden, 0)
    return float(np.prod([params[n][chain[l], chain[l + 1]] for l, n in enumerate(names)]))


# ---------------------------------------------------------------------------
# Unbundled features, overlap
# ---------------------------------------------------------------------------


def conv_path_npf(table: PathTable, x, gates: Gates) -> np.ndarray:
    """Unbundled per-path NPF, shape (d_in, B): bundle b's path from input node i at (i, b)."""
    n_bundles = table.bundle_start.size
    sizes = np.diff(table.bundle_start, append=table.node.size)
    out = np.zeros((table.arch.d_in, n_bundles))
    out[table.node, np.repeat(np.arange(n_bundles), sizes)] = _path_npf(table, x, gates)
    return out


def _require_hard(gates: Gates) -> None:
    for g in gates:
        g = np.asarray(g)
        if not np.all((g == 0.0) | (g == 1.0)):
            raise ValueError("overlap counts require hard gates")


def overlap_vector(gates_x: Gates, gates_x2: Gates, table: PathTable) -> np.ndarray:
    """Per input node i, the number of paths of `table` from i active for
    both hard gate patterns, as floats.

    Conv activities are counted gates-only (the constant pooling mask is
    excluded so each entry stays an integer count).
    """
    _require_hard(gates_x)
    _require_hard(gates_x2)
    joint = _activities(table, gates_x) * _activities(table, gates_x2)
    return np.bincount(table.node, weights=joint, minlength=table.arch.d_in)
