"""Property tests over randomly drawn small architectures and batch sizes."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import feature_params, normal_params
from oracles import (batch_grads, iter_paths, logits_node, overlap_vector, path_activity,
                     path_value)

from dualview import autodiff as ad
from dualview.arch import (HARD, SOFT, ArchSpec, FeatureNet, _collapse_pays,
                           feature_gates, forward_gated, forward_relu, init_params,
                           shallow_layer_specs, weight_layer_specs)
from dualview.autodiff import conv_circular, matmul, value_of
from dualview.data import Dataset
from dualview.kernels import (gate_correlations, mc_target, npk, npk_fc, npk_res_ensemble,
                              ntk_expectation_mc, ntk_fixed_gates, rot)
from dualview.numerics import grad, make_rng
from dualview.paths import (count_paths, dual_vectors, enumerate_paths, enumerate_subfcns,
                            res_gate_indices)
from dualview.training import REGIME_TABLE, REGIMES, Model, _batch_grads, evaluate


@st.composite
def small_arch(draw, families=("fc", "conv_gap", "res")):
    family = draw(st.sampled_from(families))
    n_out = draw(st.integers(1, 2))
    width = draw(st.integers(1, 4))
    if family == "fc":
        return ArchSpec(family="fc", d_in=draw(st.integers(1, 4)), depth=draw(st.integers(2, 4)),
                        width=width, n_out=n_out)
    if family == "conv_gap":
        d_in = draw(st.integers(2, 5))
        return ArchSpec(family="conv_gap", d_in=d_in, w_cv=draw(st.integers(1, d_in - 1)),
                        width=width, d_cv=draw(st.integers(1, 2)), d_fc=draw(st.integers(1, 2)),
                        n_out=n_out)
    return ArchSpec(family="res", d_in=draw(st.integers(1, 3)), b=draw(st.integers(0, 2)),
                    d_blk=draw(st.integers(1, 2)), width=width, n_out=n_out)


@st.composite
def arch_params_batch(draw):
    arch = draw(small_arch())
    n = draw(st.one_of(st.just(arch.d_in), st.integers(1, 6)))
    rng = make_rng(draw(st.integers(0, 2**16)))
    return arch, normal_params(arch, rng), rng.normal(size=(n, arch.d_in))


@settings(max_examples=60, deadline=None)
@given(arch_params_batch())
def test_gate_layers_follow_the_weight_layer_chain(case):
    # one gate per weight layer but the last, shaped as that layer's output
    arch, p, X = case
    relu = forward_relu(arch, p, X)
    assert len(relu.gates) == arch.n_gate_layers()
    assert len(relu.tape.qs) == len(weight_layer_specs(arch))
    for g, shape, q in zip(relu.gates, arch.gate_layer_shapes(), relu.tape.qs):
        assert g.shape[1:] == shape == q.value.shape[1:]
    # a table of an architecture that differs only in n_out is refused
    other = replace(arch, n_out=3 - arch.n_out)
    with pytest.raises(ValueError, match="path table is for"):
        dual_vectors(arch, p, X[0], [g[0] for g in relu.gates], enumerate_paths(other))


@settings(max_examples=80, deadline=None)
@given(arch_params_batch())
def test_relu_gates_replay_the_relu_network(case):
    arch, p, X = case
    relu = forward_relu(arch, p, X)
    assert np.array_equal(forward_gated(arch, p, relu.gates, x_v=X).y, relu.y)


@settings(max_examples=80, deadline=None)
@given(arch_params_batch())
def test_single_sample_gates_broadcast_over_batch(case):
    arch, p, X = case
    gates = forward_relu(arch, p, X[0]).gates
    batch = forward_gated(arch, p, gates, x_v=X).y
    rows = np.array([forward_gated(arch, p, gates, x_v=x).y for x in X]).reshape(batch.shape)
    assert np.allclose(batch, rows, rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(small_arch(), st.integers(0, 2**16))
def test_output_is_path_features_dot_path_values(arch, seed):
    arch = replace(arch, n_out=1)  # the dual view has a scalar output
    rng = make_rng(seed)
    p, x = normal_params(arch, rng), rng.normal(size=arch.d_in)
    relu = forward_relu(arch, p, x)
    dv = dual_vectors(arch, p, x, relu.gates, table=enumerate_paths(arch))
    terms = float(np.abs(dv.npf) @ np.abs(dv.npv))
    assert abs(float(relu.y) - dv.output()) <= 1e-12 * terms


@st.composite
def arch_params_pair(draw, families=("fc", "conv_gap", "res")):
    arch = draw(small_arch(families))
    rng = make_rng(draw(st.integers(0, 2**16)))
    return arch, normal_params(arch, rng), rng.normal(size=arch.d_in), rng.normal(size=arch.d_in)


@settings(max_examples=60, deadline=None)
@given(arch_params_pair(families=("conv_gap",)))
def test_conv_gates_of_a_rotated_input_are_rolled_gates(case):
    # circular convolution rolls the conv-layer gates with the input and
    # pooling leaves the FC-head gates as they are, so the NPK of a pair
    # rotated together does not change
    arch, p, x, x2 = case
    gates, gates2 = forward_relu(arch, p, x).gates, forward_relu(arch, p, x2).gates
    base = npk(arch, x, x2, gates, gates2)
    for r in range(arch.d_in):
        direct = forward_relu(arch, p, rot(x, r)).gates
        direct2 = forward_relu(arch, p, rot(x2, r)).gates
        rolled = [np.roll(g, -r, axis=0) if l < arch.d_cv else g for l, g in enumerate(gates)]
        assert all(np.array_equal(a, b) for a, b in zip(rolled, direct, strict=True))
        rotated = npk(arch, rot(x, r), rot(x2, r), direct, direct2)
        assert abs(rotated - base) <= 1e-12 * max(1.0, abs(base))


@settings(max_examples=80, deadline=None)
@given(arch_params_pair())
def test_npk_matches_path_enumeration(case):
    arch, p, x, x2 = case
    table = enumerate_paths(arch)
    gx, gx2 = forward_relu(arch, p, x).gates, forward_relu(arch, p, x2).gates
    npf = dual_vectors(arch, p, x, gx, table=table).npf
    npf2 = dual_vectors(arch, p, x2, gx2, table=table).npf
    terms = float(np.abs(npf) @ np.abs(npf2))
    assert abs(npk(arch, x, x2, gx, gx2) - float(npf @ npf2)) <= 1e-12 * terms


@pytest.mark.parametrize("source", ["relu", "linear"])
@settings(max_examples=80, deadline=None)
@given(case=arch_params_pair())
def test_npk_matches_path_enumeration_for_soft_gates(source, case):
    # the logistic gates a relu (DGN) or linear (DLGN) feature network on
    # the same parameters trains with
    arch, p, x, x2 = case
    table = enumerate_paths(arch)
    gx, gx2 = ([value_of(g)[0] for g in feature_gates(arch, p, xx, source, SOFT)]
               for xx in (x, x2))
    npf = dual_vectors(arch, p, x, gx, table=table).npf
    npf2 = dual_vectors(arch, p, x2, gx2, table=table).npf
    terms = float(np.abs(npf) @ np.abs(npf2))
    assert abs(npk(arch, x, x2, gx, gx2) - float(npf @ npf2)) <= 1e-12 * terms


@st.composite
def hyperplane_case(draw):
    arch, source = draw(small_arch()), draw(st.sampled_from(("linear", "shallow")))
    rng = make_rng(draw(st.integers(0, 2**16)))
    specs = shallow_layer_specs(arch) if source == "shallow" else weight_layer_specs(arch)
    params_f = {name: rng.normal(scale=0.8, size=shape) for name, shape, _ in specs}
    return arch, source, params_f, rng.normal(size=(draw(st.integers(1, 6)), arch.d_in))


@settings(max_examples=120, deadline=None)
@given(hyperplane_case())
def test_hyperplanes_reproduce_the_feature_preactivations(case):
    # q_l(X) = X @ U_l against the feature network run on X itself: for
    # "linear" the value-network stack with every gate 1, for "shallow" each
    # DLGN-SF map
    arch, source, pf, X = case
    n, shapes = len(X), arch.gate_layer_shapes()
    if source == "linear":
        qs = forward_gated(arch, pf, [np.ones(s) for s in shapes], x_v=X).tape.qs
        direct = [q.value for q in qs[:-1]]
    else:
        direct = [(conv_circular(X[:, :, None], pf[name]) if kind == "conv"
                   else matmul(X, pf[name])).value for name, _, kind in shallow_layer_specs(arch)]
    Us = [value_of(U) for U in FeatureNet(arch, pf, source, ad).hyperplanes()]
    assert len(Us) == len(direct) == arch.n_gate_layers()
    for l, (U, q, shape) in enumerate(zip(Us, direct, shapes)):
        assert U.shape == (arch.d_in, int(np.prod(shape)))
        scale = (np.abs(X) @ np.abs(U)).reshape(n, *shape)
        assert np.all(np.abs((X @ U).reshape(n, *shape) - q) <= 1e-12 * scale)
        if arch.family != "conv_gap":
            continue
        # rolling the input rolls a conv layer's q_l along its positions and
        # leaves a linear net's FC-head q_l (after pooling) as it is
        conv = l < arch.d_cv
        if not conv and source == "shallow":
            continue
        for r in range(1, arch.d_in):
            rolled = (np.roll(X, r, axis=1) @ U).reshape(n, *shape)
            want, tol = (np.roll(q, r, axis=1), np.roll(scale, r, axis=1)) if conv else (q, scale)
            assert np.all(np.abs(rolled - want) <= 1e-12 * tol)


@settings(max_examples=150, deadline=None)
@given(small_arch(), st.integers(0, 2**16))
def test_path_table_matches_the_independent_walk(arch, seed):
    # iter_paths walks the architecture without reading the table's indices
    arch = replace(arch, n_out=1)
    rng = make_rng(seed)
    p, x, x2 = normal_params(arch, rng), rng.normal(size=arch.d_in), rng.normal(size=arch.d_in)
    gx, gx2 = forward_relu(arch, p, x).gates, forward_relu(arch, p, x2).gates
    table = enumerate_paths(arch)
    walk = list(iter_paths(table))
    assert len(walk) == table.node.size == count_paths(arch)
    conv = arch.family == "conv_gap"

    def bundle(q):  # a conv bundle's paths differ only in their input node
        return q.windows, q.filters, q.hidden, q.subfcn, None if conv else q.input_node

    ids = np.cumsum([i == 0 or bundle(q) != bundle(walk[i - 1]) for i, q in enumerate(walk)]) - 1
    dv = dual_vectors(arch, p, x, gx, table=table)
    assert ids[-1] + 1 == table.bundle_start.size
    npf = np.bincount(ids, [x[q.input_node] * path_activity(gx, q) for q in walk])
    assert np.allclose(npf, dv.npf, rtol=0, atol=1e-12)
    assert np.allclose([path_value(p, q) for q in walk], dv.npv[ids], rtol=1e-12, atol=0)
    pool = 1.0 / arch.d_in if conv else 1.0
    joint = [path_activity(gx, q) * path_activity(gx2, q) / pool**2 for q in walk]
    nodes = [q.input_node for q in walk]
    assert np.allclose(np.bincount(nodes, joint, minlength=arch.d_in),
                       overlap_vector(gx, gx2, table), rtol=1e-12, atol=1e-12)


@st.composite
def res_gate_pair(draw):
    arch = ArchSpec(family="res", d_in=draw(st.integers(1, 3)), b=draw(st.integers(0, 5)),
                    d_blk=draw(st.integers(1, 3)), width=draw(st.integers(1, 4)))
    rng = make_rng(draw(st.integers(0, 2**16)))
    mode, density = draw(st.sampled_from((HARD, SOFT))), draw(st.floats(0.3, 1.0))

    def gates():
        return [(rng.random(s) < density) * (1.0 if mode == HARD else rng.random(s))
                for s in arch.gate_layer_shapes()]

    return arch, rng.normal(size=arch.d_in), rng.normal(size=arch.d_in), gates(), gates()


@settings(max_examples=100, deadline=None)
@given(res_gate_pair(), st.one_of(st.none(), st.floats(0.1, 2.0)))
def test_res_closed_forms_match_sub_fcn_sums(case, sigma):
    # the NPK sums the 2^b sub-FCN product kernels; the MC target weights
    # each by D sigma^(2(D-1)) for its depth D
    arch, x, x2, gx, gx2 = case
    s = arch.init_sigma("fc") if sigma is None else sigma
    corr = gate_correlations(gx, gx2)
    terms = [((len(mask) + 2) * arch.d_blk,
              float(x @ x2) * float(np.prod(corr[res_gate_indices(arch, mask)])))
             for mask in enumerate_subfcns(arch)]
    want_npk = sum(k for _, k in terms)
    want_mc = sum(d * s ** (2 * (d - 1)) * k for d, k in terms)
    assert abs(npk(arch, x, x2, gx, gx2) - want_npk) <= 1e-12 * abs(want_npk)
    assert abs(mc_target(arch, x, x2, gx, gx2, sigma=sigma) - want_mc) <= 1e-12 * abs(want_mc)


@st.composite
def gate_list_pair(draw):
    """Inputs and two lists of 1-10 gate arrays of matching shapes, with hard
    0/1 gates or soft values in [0, 1)."""
    rng = make_rng(draw(st.integers(0, 2**16)))
    shapes = draw(st.lists(st.one_of(st.tuples(st.integers(1, 5)),
                                      st.tuples(st.integers(1, 3), st.integers(1, 3))),
                           min_size=1, max_size=10))
    soft = draw(st.booleans())

    def gates():
        return [rng.random(s) if soft else (rng.random(s) < 0.7).astype(np.float64)
                for s in shapes]

    d_in = draw(st.integers(1, 4))
    return rng.normal(size=d_in), rng.normal(size=d_in), gates(), gates()


@settings(max_examples=200, deadline=None)
@given(gate_list_pair())
def test_npk_fc_multiplies_the_gate_correlations_in_layer_order(case):
    # bit for bit: soft gates give non-integer correlations, whose product
    # depends on the order of the multiplications
    x, x2, gx, gx2 = case
    want = float(x @ x2) * float(np.prod(gate_correlations(gx, gx2)))
    assert npk_fc(x, x2, gx, gx2).hex() == want.hex()


@st.composite
def soft_res_gate_pair(draw):
    """A res arch with up to 8 blocks, inputs and two lists of soft gates."""
    arch = ArchSpec(family="res", d_in=draw(st.integers(1, 3)), b=draw(st.integers(0, 8)),
                    d_blk=draw(st.integers(1, 3)), width=draw(st.integers(1, 4)))
    rng = make_rng(draw(st.integers(0, 2**16)))
    x, x2 = rng.normal(size=arch.d_in), rng.normal(size=arch.d_in)
    return arch, x, x2, *([rng.random(s) for s in arch.gate_layer_shapes()] for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(soft_res_gate_pair())
def test_npk_res_ensemble_multiplies_the_block_correlations_in_layer_order(case):
    # bit for bit against the ndarray formula: per-block products of the
    # layer correlations, then C_0 C_{b+1} prod_j (1 + C_j)
    arch, x, x2, gx, gx2 = case
    c = np.append(gate_correlations(gx, gx2), 1.0).reshape(arch.b + 2, arch.d_blk).prod(axis=1)
    want = float(x @ x2) * float(c[0] * c[-1] * np.prod(1.0 + c[1:-1]))
    assert npk_res_ensemble(arch, x, x2, gx, gx2).hex() == want.hex()


@st.composite
def ntk_case(draw, families=("fc", "conv_gap", "res")):
    arch = replace(draw(small_arch(families)), n_out=1)  # the NTK of a scalar output
    rng = make_rng(draw(st.integers(0, 2**16)))
    p = normal_params(arch, rng)
    x, x2 = rng.normal(size=arch.d_in), rng.normal(size=arch.d_in)
    if draw(st.booleans()):
        gx, gx2 = forward_relu(arch, p, x).gates, forward_relu(arch, p, x2).gates
    else:
        gx, gx2 = ([rng.random(s) for s in arch.gate_layer_shapes()] for _ in range(2))
    return arch, p, gx, gx2, x, x2


@settings(max_examples=150, deadline=None)
@given(ntk_case(), st.one_of(st.none(), st.floats(0.1, 2.0)))
def test_mc_target_matches_the_per_family_constants(case, sigma):
    # the one per-layer rule against its hand expansion for each family
    arch, _, gx, gx2, x, x2 = case
    s_fc = arch.init_sigma("fc") if sigma is None else sigma
    kernel = npk(arch, x, x2, gx, gx2)
    if arch.family == "fc":
        want = arch.depth * s_fc ** (2 * (arch.depth - 1)) * kernel
    elif arch.family == "conv_gap":
        s_cv = arch.init_sigma("conv") if sigma is None else sigma
        d_cv, d_fc = arch.d_cv, arch.d_fc
        want = kernel * (d_cv * s_cv ** (2 * (d_cv - 1)) * s_fc ** (2 * d_fc)
                         + d_fc * s_cv ** (2 * d_cv) * s_fc ** (2 * (d_fc - 1)))
    else:  # each sub-FCN of depth D weighted by D sigma^(2(D-1))
        c = np.append(gate_correlations(gx, gx2), 1.0).reshape(arch.b + 2, arch.d_blk).prod(1)
        want = 0.0
        for mask in itertools.product((0, 1), repeat=arch.b):
            depth = (sum(mask) + 2) * arch.d_blk
            blocks = c[0] * c[-1] * np.prod([c_j for c_j, on in zip(c[1:-1], mask) if on])
            want += depth * s_fc ** (2 * (depth - 1)) * float(x @ x2) * blocks
    assert abs(mc_target(arch, x, x2, gx, gx2, sigma=sigma) - want) <= 1e-14 * abs(want)


@settings(max_examples=150, deadline=None)
@given(ntk_case())
def test_ntk_contraction_matches_weight_gradients(case):
    # the per-layer cotangent contraction against the inner product of the
    # two flat weight gradients from autodiff
    arch, p, gx, gx2, x, x2 = case

    def weight_grad(gates, xx):
        return grad(lambda nodes: forward_gated(arch, nodes, gates, x_v=xx).y_node, p)

    g, g2 = weight_grad(gx, x), weight_grad(gx2, x2)
    terms = float(np.abs(g) @ np.abs(g2))
    assert abs(ntk_fixed_gates(arch, p, gx, gx2, x, x2) - float(g @ g2)) <= 1e-12 * terms


def _raw_word_bernoulli(arch, rng, sigma=None):
    """init_params by hand: one run of raw Philox words for the whole
    network, value i (layers in forward order, each C order) +sigma where
    bit i % 64 of word i // 64 is set, by integer bit ops."""
    specs = weight_layer_specs(arch)
    sizes = [int(np.prod(shape)) for _, shape, _ in specs]
    words = [int(w) for w in rng.bit_generator.random_raw(-(-sum(sizes) // 64))]
    out, start = {}, 0
    for (name, shape, kind), size in zip(specs, sizes):
        s = arch.init_sigma(kind) if sigma is None else sigma
        out[name] = np.array([s if (words[i // 64] >> (i % 64)) & 1 else -s
                              for i in range(start, start + size)]).reshape(shape)
        start += size
    return out


FAMILIES = ["fc", "conv_gap", "res"]


@pytest.mark.parametrize("sigma", [None, 0.7], ids=["default_sigma", "sigma"])
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_init_params_slices_one_raw_word_draw(family, sigma, data, seed):
    arch = data.draw(small_arch((family,)))
    rng, ref = make_rng(seed), make_rng(seed)
    for _ in range(2):  # the second draw starts on the word after the first's last
        got, want = init_params(arch, rng, sigma=sigma), _raw_word_bernoulli(arch, ref, sigma)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes()
    assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32),
                          ref.integers(0, 2**32, 3, dtype=np.uint32))


@pytest.mark.parametrize("sigma", [None, 0.7], ids=["default_sigma", "sigma"])
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mc_samples_match_a_per_sample_reference_loop(family, sigma, data, seed):
    arch, _, gx, gx2, x, x2 = data.draw(ntk_case((family,)))
    res = ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=100, rng=make_rng(seed),
                             sigma=sigma)
    ref = make_rng(seed)
    want = [ntk_fixed_gates(arch, _raw_word_bernoulli(arch, ref, sigma), gx, gx2, x, x2)
            for _ in range(100)]
    assert res.samples.tobytes() == np.array(want).tobytes()


@st.composite
def model_batch(draw):
    arch, regime = draw(small_arch()), draw(st.sampled_from(REGIMES))
    # one row, and row counts on both sides of one and two blocks of 256
    n = draw(st.sampled_from((1, 255, 256, 257, 519)))
    rng = make_rng(draw(st.integers(0, 2**16)))
    source = REGIME_TABLE[regime][0]
    params_f = feature_params(arch, rng, source)
    model = Model(arch=arch, regime=regime, params_f=params_f,
                  params_v=init_params(arch, rng, init="normal"))
    k = max(2, arch.n_out)
    return model, Dataset(rng.normal(size=(n, arch.d_in)), rng.integers(0, k, size=n), k)


@settings(max_examples=60, deadline=None)
@given(model_batch())
def test_blocked_logits_match_one_forward_pass(case):
    # BLAS may round a block's rows differently from the whole batch's
    # (by ~1e-16 for wide layers), so blocks are not bit-equal in general
    model, ds = case
    one_pass = logits_node(model, ds.X).value
    blocked = model.logits(ds.X)
    assert blocked.shape == one_pass.shape
    scale = np.abs(one_pass).max()
    assert np.all(np.abs(blocked - one_pass) <= 1e-12 * np.maximum(np.abs(one_pass), scale))
    assert evaluate(model, ds) == float(np.mean(np.argmax(one_pass, axis=1) == ds.y))
    x = ds.X[0]  # one sample runs unblocked, as one forward pass
    assert model.logits(x).tobytes() == logits_node(model, x).value.tobytes()


@settings(max_examples=60, deadline=None)
@given(model_batch())
def test_model_gates_replay_the_logits(case):
    # the value network on Model.gates is the model, for DNN's own gates too
    model, ds = case
    gated = forward_gated(model.arch, model.params_v, model.gates(ds.X), ds.X)
    assert gated.y.tobytes() == logits_node(model, ds.X).value.tobytes()


@st.composite
def collapsing_conv(draw):
    """A conv_gap arch whose linear feature net collapses into its
    hyperplanes beyond a batch of a few rows."""
    d_in = draw(st.integers(3, 5))
    return ArchSpec(family="conv_gap", d_in=d_in, w_cv=d_in - 1, width=draw(st.integers(3, 4)),
                    d_cv=2, d_fc=draw(st.integers(1, 2)), n_out=draw(st.integers(1, 2)))


@st.composite
def engine_case(draw):
    arch, regime = draw(st.one_of(small_arch(), collapsing_conv())), draw(st.sampled_from(REGIMES))
    source = REGIME_TABLE[regime][0]
    perm, ones = None, False
    if source != "self":  # a DNN reads neither the routing nor x_v
        if draw(st.booleans()):  # a valid perm swaps only gate layers of one shape
            shapes = arch.gate_layer_shapes()
            perm = list(range(len(shapes)))
            for shape in set(shapes):
                idx = [i for i, s in enumerate(shapes) if s == shape]
                for i, j in zip(idx, draw(st.permutations(idx))):
                    perm[i] = j
            perm = tuple(perm)
        ones = draw(st.booleans())
    # batch sizes on both sides of the hyperplane collapse, where it pays
    pays = [n for n in range(1, 65) if _collapse_pays(arch, n)]
    n = draw(st.sampled_from([1, 5] + (pays[:1] + [pays[0] - 1] if pays else [])))
    rng = make_rng(draw(st.integers(0, 2**16)))
    params_f = feature_params(arch, rng, source)
    model = Model(arch=arch, regime=regime, params_f=params_f,
                  params_v=init_params(arch, rng, init="normal"),
                  perm=perm, ones_input=ones)
    return model, rng.normal(size=(n, arch.d_in)), rng.integers(0, arch.n_out, size=n)


@settings(max_examples=150, deadline=None)
@given(engine_case())
def test_explicit_forward_and_vjp_match_the_graph(case):
    # training's explicit forward and VJP against the autodiff graph, in
    # every regime, routing, value input and side of the collapse
    model, X, y = case
    loss, grads = _batch_grads(model, X, y)
    want_loss, want = batch_grads(model, X, y)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert list(grads) == list(want)
    for k in want:
        assert np.linalg.norm(grads[k] - want[k]) <= 1e-12 * np.linalg.norm(want[k])
    logits, want_logits = model.logits(X), logits_node(model, X).value
    assert np.linalg.norm(logits - want_logits) <= 1e-12 * np.linalg.norm(want_logits)
