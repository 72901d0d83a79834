import ast
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_SMALL, CONV_SMALL, FC_SMALL, RES_SMALL, normal_params

from dualview import autodiff as ad
from dualview.arch import (
    ARRAYS,
    ArchSpec,
    FeatureNet,
    HARD,
    SOFT,
    _collapse_pays,
    check_perm,
    feature_gates,
    forward_dlgn,
    forward_gated,
    forward_relu,
    init_params,
    shallow_layer_specs,
    weight_layer_specs,
)
from dualview.numerics import make_rng


def test_archspec_validation():
    with pytest.raises(ValueError):
        ArchSpec(family="mlp", d_in=3, depth=2, width=2)
    with pytest.raises(ValueError):
        ArchSpec(family="fc", d_in=3, depth=1, width=2)  # no hidden layer
    with pytest.raises(ValueError):
        ArchSpec(family="conv_gap", d_in=3, w_cv=3, width=2, d_cv=1, d_fc=1)  # w_cv >= d_in
    with pytest.raises(ValueError):
        ArchSpec(family="res", d_in=3, b=-1, d_blk=1, width=2)
    with pytest.raises(ValueError):
        ArchSpec(family="fc", d_in=3, depth=2, width=2, c_scale=0.0)
    # NaN and inf passed a `<= 0` check
    for field in ("c_scale", "beta"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ArchSpec(family="fc", d_in=3, depth=2, width=2, **{field: value})


@pytest.mark.parametrize("field", ["d_in", "width", "n_out"])
def test_archspec_names_the_dimension_below_one(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        ArchSpec(**{"family": "fc", "d_in": 3, "depth": 2, "width": 2, field: 0})


def test_gate_layer_counts():
    assert FC_SMALL.n_gate_layers() == 2
    assert CONV_SMALL.n_gate_layers() == 3
    assert RES_SMALL.n_gate_layers() == 3
    assert CONV_SMALL.gate_layer_shapes()[0] == (5, 3)
    assert CONV_SMALL.gate_layer_shapes()[-1] == (3,)


def test_weight_layer_specs_shapes():
    specs = dict((n, s) for n, s, _ in weight_layer_specs(CONV_SMALL))
    assert specs["cv1"] == (2, 1, 3)
    assert specs["cv2"] == (2, 3, 3)
    assert specs["fc1"] == (3, 3)
    assert specs["fc2"] == (3, 1)
    res = dict((n, s) for n, s, _ in weight_layer_specs(RES_SMALL))
    assert res["b0l1"] == (3, 4)
    assert res["b3l1"] == (4, 1)


def test_init_params_default_sigma():
    arch = ArchSpec(family="fc", d_in=3, depth=2, width=16, c_scale=2.0)
    p = init_params(arch, make_rng(0))
    assert np.all(np.abs(p["fc1"]) == 2.0 / 4.0)


def test_init_params_rejects_bad_sigma():
    for init in ("bernoulli", "normal"):
        for sigma in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="sigma must be"):
                init_params(FC_SMALL, make_rng(0), sigma=sigma, init=init)


def test_init_params_rejects_an_unknown_law():
    for init in ("uniform", "Normal", ""):
        msg = f"^init must be 'normal' or 'bernoulli', got '{init}'$"
        with pytest.raises(ValueError, match=msg):
            init_params(FC_SMALL, make_rng(0), init=init)


def _weight_draw_sites(tree, scope):
    """The scope of every call in `tree` that draws weights: `normal(...)`
    with a `scale=` keyword, or `init_bernoulli(...)`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "init_bernoulli" or (
                    name == "normal" and any(k.arg == "scale" for k in node.keywords)):
                yield scope
        inner = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _weight_draw_sites(node, f"{scope}.{node.name}" if inner else scope)


def test_weights_are_drawn_only_in_init_params():
    # one weight initialiser: every other site asks init_params for its law
    from dualview import arch

    sites = set()
    for source in Path(arch.__file__).parent.glob("*.py"):
        sites.update(_weight_draw_sites(ast.parse(source.read_text()), source.stem))
    assert sites == {"arch.init_params"}


@pytest.mark.parametrize("arch", ALL_SMALL, ids=lambda a: a.family)
def test_forward_batch_matches_single(arch):
    rng = make_rng(3)
    p = normal_params(arch, rng)
    X = rng.normal(size=(6, arch.d_in))
    batch = forward_relu(arch, p, X).y
    singles = np.array([[forward_relu(arch, p, x).y] for x in X])
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("arch", ALL_SMALL, ids=lambda a: a.family)
def test_self_gating_equivalence(arch):
    # DGN with shared parameters and hard gates is exactly the ReLU net, and
    # both sides gate by one rule: an all-zero row ties every first-layer
    # pre-activation at exactly 0, which gates to 0 on both sides, silently
    rng = make_rng(4)
    p = normal_params(arch, rng)
    X = rng.normal(size=(20, arch.d_in))
    X[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dnn = forward_relu(arch, p, X)
        dgn = forward_dlgn(arch, p, p, X, X, mode=HARD, source="relu")
    assert np.array_equal(dnn.y, dgn.y)
    assert not dnn.gates[0][3].any()
    assert [g.tobytes() for g in dgn.gates] == [g.tobytes() for g in dnn.gates]


def test_forward_gated_external_gates():
    rng = make_rng(5)
    p = normal_params(FC_SMALL, rng)
    x = rng.normal(size=3)
    res = forward_relu(FC_SMALL, p, x)
    again = forward_gated(FC_SMALL, p, res.gates, x_v=x)
    assert np.allclose(res.y, again.y, atol=1e-14)


def test_routing_validation():
    check_perm(FC_SMALL, (1, 0))
    with pytest.raises(ValueError):
        check_perm(FC_SMALL, (0, 0))
    with pytest.raises(ValueError):
        # conv gate layers have unequal shapes; cannot swap conv with fc
        check_perm(CONV_SMALL, (2, 1, 0))


def test_dlgn_feature_net_is_linear_in_input():
    # primal linearity: the pre-activations feeding the gates are linear maps
    rng = make_rng(8)
    arch = FC_SMALL
    pf = normal_params(arch, rng)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    g1 = feature_gates(arch, pf, x1, "linear", SOFT)
    g2 = feature_gates(arch, pf, x2, "linear", SOFT)
    g12 = feature_gates(arch, pf, 0.5 * (x1 + x2), "linear", SOFT)
    for a, b, c in zip(g1, g2, g12):
        # invert the logistic to recover the linear pre-activations
        qa = np.log(a.value / (1 - a.value)) / arch.beta
        qb = np.log(b.value / (1 - b.value)) / arch.beta
        qc = np.log(c.value / (1 - c.value)) / arch.beta
        assert np.allclose(qc, 0.5 * (qa + qb), atol=1e-9)


def test_dlgn_sf_uses_shallow_maps():
    rng = make_rng(9)
    arch = FC_SMALL
    pf = {n: rng.normal(size=s) for n, s, _ in shallow_layer_specs(arch)}
    pv = normal_params(arch, rng)
    x = rng.normal(size=3)
    out = forward_dlgn(arch, pf, pv, x, x, source="shallow")
    # each gate layer is logistic(beta * x @ sf_i)
    for i, g in enumerate(out.gates):
        q = x @ pf[f"sf{i + 1}"]
        assert np.allclose(g, 1.0 / (1.0 + np.exp(-arch.beta * q)), atol=1e-12)


def test_linear_gates_collapse_only_where_it_saves_work():
    conv = ArchSpec(family="conv_gap", d_in=8, w_cv=3, width=16, d_cv=2, d_fc=2, n_out=2)
    assert _collapse_pays(conv, 128) and not _collapse_pays(conv, 8)
    # a wide input makes the per-row matmul dearer than the network itself,
    # and so does a single conv layer; an fc stack is dense matmuls already
    assert not _collapse_pays(replace(conv, d_in=3072), 10**6)
    assert not _collapse_pays(replace(conv, d_cv=1), 10**6)
    assert not _collapse_pays(ArchSpec(family="fc", d_in=3, depth=4, width=16), 10**6)
    # the gates of a batch on either side of the choice agree
    rng = make_rng(16)
    pf = normal_params(conv, rng)
    X = rng.normal(size=(128, conv.d_in))
    for whole, part in zip(feature_gates(conv, pf, X, "linear", SOFT),
                           feature_gates(conv, pf, X[:4], "linear", SOFT)):
        assert np.allclose(whole.value[:4], part.value, rtol=0.0, atol=1e-12)


def test_feature_gates_reject_unknown_source_and_mode():
    pf = normal_params(FC_SMALL, make_rng(15))
    x = np.ones(3)
    with pytest.raises(ValueError, match="unknown feature source 'self'"):
        feature_gates(FC_SMALL, pf, x, "self", HARD)
    with pytest.raises(ValueError, match="unknown feature source 'relu'"):
        FeatureNet(FC_SMALL, pf, "relu", ad).hyperplanes()
    with pytest.raises(ValueError, match="gate mode must be hard or soft"):
        forward_dlgn(FC_SMALL, pf, pf, x, mode="sof", source="relu")


@pytest.mark.parametrize("ops", [ARRAYS, ad], ids=["arrays", "graph"])
def test_feature_net_checks_its_own_source_and_mode(ops):
    # built directly, a FeatureNet once gated an unknown source as "linear"
    # and an unknown mode as "soft"
    pf = normal_params(FC_SMALL, make_rng(15))
    with pytest.raises(ValueError, match="unknown feature source 'bogus'"):
        FeatureNet(FC_SMALL, pf, "bogus", ops)
    with pytest.raises(ValueError, match="gate mode must be hard or soft, got 'hardd'"):
        FeatureNet(FC_SMALL, pf, "linear", ops).gates(np.ones((2, 3)), "hardd")


def test_array_ops_equal_the_graph_ops_bit_for_bit():
    # run_stack and FeatureNet run on either op set, so each ARRAYS op must
    # be its autodiff namesake on plain arrays
    rng = make_rng(21)
    a, b, w = rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(6, 5))
    z, theta = rng.normal(size=(3, 7, 2)), rng.normal(size=(3, 2, 4))
    q = np.concatenate([a, [[1e3, -1e3, 0.0, 1e-3, -1e-3, 50.0]]])
    cases = {
        "matmul": (a, w),
        "mul": (a, b),
        "add": (a, b),
        "reshape": (a, (-1, 6, 1)),
        "conv_circular": (z, theta),
        "global_avg_pool": (z,),
        "logistic": (q, 10.0),
    }
    assert cases.keys() == vars(ARRAYS).keys()
    for name, args in cases.items():
        want, got = getattr(ad, name)(*args).value, getattr(ARRAYS, name)(*args)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


def test_dgn_soft_gates_match_feature_preacts():
    rng = make_rng(10)
    arch = FC_SMALL
    pf = normal_params(arch, rng)
    pv = normal_params(arch, rng)
    x = rng.normal(size=3)
    out = forward_dlgn(arch, pf, pv, x, x, mode=SOFT, source="relu")
    q1 = x @ pf["fc1"]
    q2 = np.maximum(q1, 0.0) @ pf["fc2"]  # the feature net's hidden ReLU layers
    for g, q in zip(out.gates, (q1, q2), strict=True):
        assert np.allclose(g, 1.0 / (1.0 + np.exp(-arch.beta * q)), atol=1e-12)


def test_conv_scalar_output_rotation_invariant():
    rng = make_rng(11)
    p = normal_params(CONV_SMALL, rng)
    x = rng.normal(size=5)
    base = forward_relu(CONV_SMALL, p, x).y
    for r in range(1, 5):
        assert abs(forward_relu(CONV_SMALL, p, np.roll(x, r)).y - base) <= 1e-12 * (1 + abs(base))


def test_input_shape_errors():
    p = normal_params(FC_SMALL, make_rng(12))
    with pytest.raises(ValueError):
        forward_relu(FC_SMALL, p, np.ones(4))
    with pytest.raises(ValueError):
        forward_relu(FC_SMALL, p, np.ones((2, 2, 2)))


def test_forward_gated_wrong_layer_count():
    p = normal_params(FC_SMALL, make_rng(13))
    with pytest.raises(ValueError):
        forward_gated(FC_SMALL, p, [np.ones(4)], x_v=np.ones(3))


def test_forward_gated_gate_shape_errors():
    p = normal_params(CONV_SMALL, make_rng(14))
    X = np.ones((2, 5))
    good = [np.ones((5, 3)), np.ones((2, 5, 3)), np.ones(3)]
    forward_gated(CONV_SMALL, p, good, x_v=X)
    for i, bad in ((1, np.ones((3, 5, 3))), (2, np.ones((2, 5, 3))), (0, np.ones((5, 2)))):
        gates = list(good)
        gates[i] = bad
        with pytest.raises(ValueError, match=f"gated layer {i}"):
            forward_gated(CONV_SMALL, p, gates, x_v=X)
