import numpy as np
import pytest

from conftest import ALL_SMALL, CONV_SMALL, FC_SMALL, RES_SMALL, normal_params
from oracles import conv_path_npf, iter_paths, overlap_vector, path_activity, path_value

from dualview import paths
from dualview.arch import ArchSpec, forward_relu
from dualview.numerics import make_rng
from dualview.paths import (
    PathBudgetError,
    count_paths,
    dual_vectors,
    enumerate_paths,
    enumerate_subfcns,
    res_gate_indices,
)


def test_count_paths_closed_forms():
    # fc: d_in * w^(depth-1)
    assert count_paths(FC_SMALL) == 3 * 4**2
    # conv: d_in * (w_cv * w)^d_cv * w^(d_fc - 1)
    assert count_paths(CONV_SMALL) == 5 * (2 * 3) ** 2 * 3
    # res: d_in * sum_i C(b, i) w^((i+2) d_blk - 1)
    assert count_paths(RES_SMALL) == 3 * (4**1 + 2 * 4**2 + 4**3)


@pytest.mark.parametrize("arch", ALL_SMALL, ids=lambda a: a.family)
def test_table_sizes_match_count(arch):
    table = enumerate_paths(arch)
    assert table.node.size == count_paths(arch)


def test_budget_refusal(monkeypatch):
    big = ArchSpec(family="fc", d_in=10, depth=8, width=12)
    assert count_paths(big) > 10**6
    with pytest.raises(PathBudgetError):
        enumerate_paths(big)
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", count_paths(FC_SMALL) - 1)
    with pytest.raises(PathBudgetError):
        enumerate_paths(FC_SMALL)
    monkeypatch.setattr(paths, "DEFAULT_BUDGET", count_paths(FC_SMALL))
    enumerate_paths(FC_SMALL)  # exact budget is allowed


def test_conv_bundles_have_d_in_paths():
    table = enumerate_paths(CONV_SMALL)
    n_bundles = table.bundle_start.size
    assert table.node.size == n_bundles * CONV_SMALL.d_in
    # each bundle holds one contiguous path from every input node
    members = table.node.reshape(n_bundles, CONV_SMALL.d_in)
    assert np.array_equal(members, np.tile(np.arange(CONV_SMALL.d_in), (n_bundles, 1)))


def test_subfcn_enumeration():
    masks = enumerate_subfcns(RES_SMALL)
    assert masks == [(), (1,), (2,), (1, 2)]
    # sub-FCN depth counts the always-on first and last blocks: the table
    # holds d_in * width^(depth - 1) paths per sub-FCN, in mask order
    table = enumerate_paths(RES_SMALL)
    assert [m for m, _ in table.sub_blocks] == masks
    for mask, s in table.sub_blocks:
        depth = (len(mask) + 2) * RES_SMALL.d_blk
        assert s.stop - s.start == RES_SMALL.d_in * RES_SMALL.width ** (depth - 1)
    # gate indices partition consistently: full mask uses every gate layer
    full = res_gate_indices(RES_SMALL, (1, 2))
    assert full == list(range(RES_SMALL.n_gate_layers()))


@pytest.mark.parametrize("arch", ALL_SMALL, ids=lambda a: a.family)
def test_path_identity(arch):
    # y(x) = <phi(x), v> exactly, the core duality
    rng = make_rng(21)
    p = normal_params(arch, rng)
    table = enumerate_paths(arch)
    for _ in range(5):
        x = rng.normal(size=arch.d_in)
        res = forward_relu(arch, p, x)
        dv = dual_vectors(arch, p, x, res.gates, table=table)
        assert abs(dv.output() - float(res.y)) <= 1e-9 * (1 + abs(float(res.y)))


@pytest.mark.parametrize("arch", ALL_SMALL, ids=lambda a: a.family)
def test_scalar_path_walk_matches_vectorized(arch):
    rng = make_rng(22)
    p = normal_params(arch, rng)
    x = rng.normal(size=arch.d_in)
    gates = forward_relu(arch, p, x).gates
    table = enumerate_paths(arch)
    dv = dual_vectors(arch, p, x, gates, table=table)
    total = sum(
        x[pth.input_node] * path_activity(gates, pth) * path_value(p, pth)
        for pth in iter_paths(table)
    )
    assert abs(total - dv.output()) <= 1e-9 * (1 + abs(dv.output()))


def test_overlap_is_integer_and_symmetric():
    rng = make_rng(23)
    p = normal_params(FC_SMALL, rng)
    x, x2 = rng.normal(size=3), rng.normal(size=3)
    gx = forward_relu(FC_SMALL, p, x).gates
    gx2 = forward_relu(FC_SMALL, p, x2).gates
    table = enumerate_paths(FC_SMALL)
    for i in range(3):
        o = overlap_vector(gx, gx2, table)[i]
        assert o == int(o) >= 0
        assert o == overlap_vector(gx2, gx, table)[i]
    # self-overlap at i counts the active paths from i
    o_self = overlap_vector(gx, gx, table)
    assert np.all(o_self >= overlap_vector(gx, gx2, table) * 0)


def test_overlap_requires_hard_gates():
    rng = make_rng(24)
    p = normal_params(FC_SMALL, rng)
    x = rng.normal(size=3)
    gates = forward_relu(FC_SMALL, p, x).gates
    gates[0] = np.full_like(np.asarray(gates[0]), 0.5)
    with pytest.raises(ValueError):
        overlap_vector(gates, gates, enumerate_paths(FC_SMALL))


def test_lemma_overlap_identity_all_families():
    # <phi(x), phi(x')> = sum_i x_i x'_i overlap(i, x, x')
    rng = make_rng(25)
    for arch in ALL_SMALL:
        p = normal_params(arch, rng)
        x = rng.normal(size=arch.d_in)
        x2 = x + 0.4 * rng.normal(size=arch.d_in)
        gx = forward_relu(arch, p, x).gates
        gx2 = forward_relu(arch, p, x2).gates
        table = enumerate_paths(arch)
        if arch.family == "conv_gap":
            # per-path features; each activity carries one 1/d_in pooling factor
            lhs = float(np.sum(conv_path_npf(table, x, gx) * conv_path_npf(table, x2, gx2)))
            scale = 1.0 / arch.d_in**2  # overlap counts exclude the pooling mask
        else:
            lhs = float(
                dual_vectors(arch, p, x, gx, table=table).npf
                @ dual_vectors(arch, p, x2, gx2, table=table).npf
            )
            scale = 1.0
        ovl = overlap_vector(gx, gx2, table)
        rhs = scale * float((x * x2) @ ovl)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
