import ast
import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import normal_params
from oracles import batch_grads, finite_diff_grad, logits_node

from dualview.arch import ArchSpec
from dualview.autodiff import Node
from dualview.cli import main
from dualview.data import generate_synthetic
from dualview.numerics import make_rng
from dualview.training import (
    Adam,
    DGN_FL,
    DGN_FR,
    DGN_STANDALONE,
    DLGN,
    DLGN_SF,
    DNN,
    Model,
    REGIMES,
    SGDMomentum,
    TrainConfig,
    TrainReport,
    appendix_schedule,
    evaluate,
    loss_softmax_ce,
    make_optimizer,
    train,
)

ARCH = ArchSpec(family="fc", d_in=3, depth=4, width=16, n_out=2)


def _circles(n=600, seed=0):
    ds = generate_synthetic("circles", n, seed=seed)
    return ds.split(0.8, make_rng(seed, stream=41))


# -- loss -------------------------------------------------------------------


def test_loss_uniform_logits():
    loss, _ = loss_softmax_ce(np.zeros(2), 0)
    assert np.isclose(loss, np.log(2.0))
    loss3, _ = loss_softmax_ce(np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert np.isclose(loss3, np.log(3.0))


def test_loss_confident_limit():
    loss, _ = loss_softmax_ce(np.array([50.0, 0.0]), 0)
    assert loss < 1e-20


def test_loss_gradient_matches_finite_differences():
    rng = make_rng(5, stream=42)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    _, grad = loss_softmax_ce(logits, labels)
    h = 1e-6
    for i in range(6):
        for j in range(3):
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += h
            lm[i, j] -= h
            fd = (loss_softmax_ce(lp, labels)[0] - loss_softmax_ce(lm, labels)[0]) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-6


def test_loss_label_out_of_range():
    with pytest.raises(ValueError):
        loss_softmax_ce(np.zeros(2), 2)
    with pytest.raises(ValueError):
        loss_softmax_ce(np.zeros((1, 2)), np.array([-1]))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_loss_gradient_rows_sum_to_zero(seed):
    rng = make_rng(seed, stream=43)
    logits = rng.normal(size=(3, 4))
    labels = rng.integers(0, 4, size=3)
    _, grad = loss_softmax_ce(logits, labels)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


# -- optimizers --------------------------------------------------------------


def test_sgd_zero_gradient_is_identity():
    opt = SGDMomentum(lr=0.1)
    theta = np.array([1.0, 2.0])
    opt.step(theta, np.zeros(2))
    assert np.array_equal(theta, [1.0, 2.0])


@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_quadratic_descent_monotone(name):
    opt = make_optimizer(name, lr=0.05 if name == "sgd" else 0.05)
    theta = np.array([3.0])
    losses = []
    for _ in range(100):
        losses.append(float(theta[0] ** 2))
        opt.step(theta, 2.0 * theta)
    # overall decrease, and final loss near zero
    assert losses[-1] < losses[0] * 1e-2
    assert min(losses) == losses[-1] or losses[-1] < 1e-3


def test_adam_step_bound():
    opt = Adam(lr=0.01)
    theta = np.array([0.0, 5.0, -2.0])
    prev = theta.copy()
    for _ in range(10):
        g = np.array([1.0, -3.0, 100.0])
        opt.step(theta, g)
        step = np.abs(theta - prev)
        assert np.all(step <= opt.lr * 1.01)  # bias-corrected Adam step cap
        prev = theta.copy()


def test_adam_allocates_its_moments_once_per_parameter(monkeypatch):
    # the moments were once allocated on every step, as eager `dict.get`
    # defaults; they start as 0.0 and become arrays at the first step
    zeros_like, calls = np.zeros_like, []
    monkeypatch.setattr(np, "zeros_like", lambda a: calls.append(a.shape) or zeros_like(a))
    opt = Adam(lr=0.01)
    theta = np.array([0.0, 5.0, -2.0])
    for _ in range(2):
        opt.step(theta, np.array([1.0, -3.0, 100.0]))
    assert calls == []


def test_nan_gradient_aborts(monkeypatch):
    # the flat gradient is checked once; the error names the parameter
    from dualview import training

    grads = training._batch_grads

    def poisoned(model, Xb, yb):
        loss, named = grads(model, Xb, yb)
        named["v.fc2"][0, 0] = np.nan
        return loss, named

    monkeypatch.setattr(training, "_batch_grads", poisoned)
    tr, _ = _circles(n=200)
    with pytest.raises(FloatingPointError, match="non-finite gradient for parameter 'v.fc2'"):
        train(ARCH, tr, TrainConfig(regime=DLGN, epochs=1, optimizer="sgd"))


def test_appendix_schedule_shape():
    lr = appendix_schedule(64000)
    assert lr(0) == 0.01
    assert lr(400) == 0.1
    assert lr(31999) == 0.1
    assert lr(32000) == 0.01
    assert lr(48000) == 0.001
    # scaled proportionally for short runs
    short = appendix_schedule(640)
    assert short(0) == 0.01
    assert short(4) == 0.1
    assert short(600) == 0.001


# -- train/evaluate ----------------------------------------------------------


def test_train_dnn_separable_blobs():
    ds = generate_synthetic("blobs", 400, seed=0)
    tr, te = ds.split(0.8, make_rng(0, stream=44))
    arch = ArchSpec(family="fc", d_in=2, depth=3, width=8, n_out=2)
    cfg = TrainConfig(regime=DNN, optimizer="adam", lr=3e-3, epochs=20,
                      batch_size=64, seed=0)
    report, model = train(arch, tr, cfg, test=te)
    assert report.final_test_accuracy >= 0.99
    assert len(report.train_loss) == cfg.epochs
    assert 0.0 < report.eval_s < report.wall_clock_s
    assert all(0.0 <= a <= 1.0 for a in report.train_accuracy)


def test_dgn_shared_init_first_loss_matches_dnn():
    # hard self-gates make the first full-batch loss identical to the DNN
    tr, _ = _circles()
    single_batch = TrainConfig(regime=DNN, epochs=1, batch_size=tr.n, seed=3)
    rep_dnn, _ = train(ARCH, tr, single_batch)
    cfg = TrainConfig(regime=DGN_FR, epochs=1, batch_size=tr.n, seed=3)
    # DGN_FR draws feature params from stream 1 and value params from stream 2;
    # replicate the value init into the feature net for a shared-init run
    from dualview.training import _init_net, _run_epochs
    from dualview.arch import GateRouting

    params_v = _init_net(ARCH, make_rng(3, stream=2), "normal")
    model = Model(arch=ARCH, regime=DGN_FR,
                  params_f={k: v.copy() for k, v in params_v.items()},
                  params_v=params_v, routing=GateRouting())
    rep = TrainReport(regime=DGN_FR, seed=3, config={})
    _run_epochs(model, tr, cfg, 1, make_rng(3, stream=3), rep)
    assert np.isclose(rep.train_loss[0], rep_dnn.train_loss[0], atol=1e-12)


@pytest.mark.parametrize("source", ["relu", "shallow"])
def test_init_net_bernoulli_draws_fan_in_sigma(source):
    from dualview.arch import shallow_layer_specs, weight_layer_specs
    from dualview.training import _init_net

    arch = ArchSpec(family="conv_gap", d_in=6, w_cv=3, width=4, d_cv=2, d_fc=2, c_scale=1.5)
    specs = shallow_layer_specs(arch) if source == "shallow" else weight_layer_specs(arch)
    params = _init_net(arch, make_rng(0, stream=1), "bernoulli", source)
    assert list(params) == [name for name, _, _ in specs]
    assert {kind for _, _, kind in specs} == {"conv", "fc"}
    for name, shape, kind in specs:
        sigma = arch.init_sigma(kind)
        assert sigma == 1.5 / np.sqrt(4 * 3 if kind == "conv" else 4)
        assert params[name].shape == shape
        assert set(np.unique(params[name])) == {-sigma, sigma}


@pytest.mark.parametrize("source", ["relu", "shallow"])
@pytest.mark.parametrize("arch", [
    ArchSpec(family="fc", d_in=5, depth=3, width=7),
    ArchSpec(family="conv_gap", d_in=6, w_cv=3, width=4, d_cv=2, d_fc=2, c_scale=1.5),
    ArchSpec(family="res", d_in=3, b=1, d_blk=2, width=5),
], ids=["fc", "conv_gap", "res"])
def test_init_net_draws_one_network_as_init_params(arch, source):
    # bernoulli: one init_params draw over the layer specs, and the same
    # stream afterwards; normal: one rng.normal draw per layer, in order
    from dualview.arch import init_params, shallow_layer_specs, weight_layer_specs
    from dualview.training import _init_net

    rng, ref = make_rng(4, stream=2), make_rng(4, stream=2)
    got = _init_net(arch, rng, "bernoulli", source)
    if source == "shallow":
        specs = shallow_layer_specs(arch)
        want = init_params(arch, ref, specs=specs)
    else:
        specs = weight_layer_specs(arch)
        want = init_params(arch, ref)
    assert list(got) == list(want)
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)
    got = _init_net(arch, rng, "normal", source)
    want = {name: ref.normal(scale=arch.init_sigma(kind), size=shape)
            for name, shape, kind in specs}
    assert list(got) == list(want)
    assert all(got[name].tobytes() == want[name].tobytes() for name in want)
    assert rng.random() == ref.random()


def test_conv_batch_loss_gradient_through_hyperplanes():
    # a DLGN batch wide enough for the collapse differentiates the feature
    # parameters through the hyperplane matrices; compare with central
    # differences of the batch loss
    from dualview.arch import GateRouting, _collapse_pays
    from dualview.training import _batch_grads, _init_net

    arch = ArchSpec(family="conv_gap", d_in=5, w_cv=3, width=6, d_cv=2, d_fc=2, n_out=2,
                    beta=2.0)
    n = 12
    assert _collapse_pays(arch, n)
    rng = make_rng(21)
    model = Model(arch=arch, regime=DLGN, params_f=_init_net(arch, rng, "normal"),
                  params_v=_init_net(arch, rng, "normal"), routing=GateRouting())
    X, y = rng.normal(size=(n, arch.d_in)), rng.integers(0, 2, size=n)
    _, grads = _batch_grads(model, X, y)
    got = np.concatenate([grads[f"f.{name}"].ravel() for name in model.params_f])

    def batch_loss(nodes_f):
        return Node(loss_softmax_ce(logits_node(replace(model, params_f=nodes_f), X).value, y)[0])

    fd = finite_diff_grad(batch_loss, model.params_f, step=1e-6)
    assert np.linalg.norm(got) > 1e-3
    assert np.linalg.norm(got - fd) <= 1e-7 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("regime", REGIMES)
def test_all_regimes_learn_circles(regime):
    tr, te = _circles()
    cfg = TrainConfig(regime=regime, optimizer="adam", lr=3e-3, epochs=30,
                      batch_size=128, seed=1, pretrain_epochs=20)
    report, model = train(ARCH, tr, cfg, test=te)
    assert report.final_test_accuracy >= 0.9
    assert evaluate(model, te) == report.final_test_accuracy


def test_regime_freezing_bit_identical():
    tr, te = _circles(n=300)
    for regime in (DGN_FR, DGN_FL):
        cfg = TrainConfig(regime=regime, epochs=3, batch_size=64, seed=2,
                          pretrain_epochs=3)
        report, model = train(ARCH, tr, cfg, test=te)  # train() asserts freezing
        assert model.params_f is not None


def _count_nodes(monkeypatch) -> list[int]:
    """A one-element list that counts the autodiff.Node constructions from now on."""
    from dualview import autodiff

    built, init = [0], autodiff.Node.__init__

    def counting_init(node, *args, **kwargs):
        built[0] += 1
        init(node, *args, **kwargs)

    monkeypatch.setattr(autodiff.Node, "__init__", counting_init)
    return built


@pytest.mark.parametrize("regime", [DGN_FR, DGN_FL])
def test_frozen_feature_net_enters_the_batch_graph_as_a_constant(regime, monkeypatch):
    # only the value net's arrays get gradients; the frozen feature net is
    # read, never differentiated or written, and no graph node is built
    from dualview import training
    from dualview.arch import GateRouting

    rng = make_rng(5, stream=47)
    model = Model(arch=ARCH, regime=regime, params_f=training._init_net(ARCH, rng, "normal"),
                  params_v=training._init_net(ARCH, rng, "normal"), routing=GateRouting())
    frozen = dict(model.params_f)
    frozen_bytes = {k: v.tobytes() for k, v in frozen.items()}
    built = _count_nodes(monkeypatch)
    _, grads = training._batch_grads(model, rng.normal(size=(8, ARCH.d_in)),
                                     rng.integers(0, 2, size=8))
    assert list(grads) == [f"v.{name}" for name in model.params_v]
    assert all(model.params_f[k] is v and v.tobytes() == frozen_bytes[k]
               for k, v in frozen.items())
    assert built == [0]


@pytest.mark.parametrize("regime", REGIMES)
def test_batch_grads_and_logits_build_no_graph_node(regime, monkeypatch):
    # training and inference run the explicit forward and VJP on arrays
    from dualview.arch import GateRouting
    from dualview.training import REGIME_TABLE, _batch_grads, _init_net

    source = REGIME_TABLE[regime][0]
    rng = make_rng(13, stream=48)
    built = _count_nodes(monkeypatch)
    for arch in (ARCH, ArchSpec(family="conv_gap", d_in=5, w_cv=4, width=4, d_cv=2, d_fc=2,
                                n_out=2),
                 ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=4, n_out=2)):
        params_f = None if source == "self" else _init_net(arch, rng, "normal", source)
        model = Model(arch=arch, regime=regime, params_f=params_f,
                      params_v=_init_net(arch, rng, "normal"), routing=GateRouting())
        X = rng.normal(size=(300, arch.d_in))
        _batch_grads(model, X[:40], rng.integers(0, 2, size=40))
        model.logits(X)
    assert built == [0]


def test_model_logits_builds_the_hyperplanes_once_per_call(monkeypatch):
    # the hyperplanes U_l are the linear feature maps run on eye(d_in); one
    # evaluation reuses them across its 256-row blocks
    from dualview.arch import GateRouting, _collapse_pays
    from dualview.training import LOGITS_BLOCK_ROWS, _init_net

    arch = ArchSpec(family="conv_gap", d_in=8, w_cv=3, width=16, d_cv=2, d_fc=2, n_out=2)
    rng = make_rng(17, stream=49)
    model = Model(arch=arch, regime=DLGN, params_f=_init_net(arch, rng, "normal"),
                  params_v=_init_net(arch, rng, "normal"), routing=GateRouting())
    X = rng.normal(size=(1600, arch.d_in))
    assert _collapse_pays(arch, len(X) % LOGITS_BLOCK_ROWS)
    eye, sizes = np.eye, []

    def counting_eye(n, *args, **kwargs):
        sizes.append(n)
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", counting_eye)
    model.logits(X)
    assert sizes == [arch.d_in]


def _prefix_sites(tree, scope):
    """The scope of every string constant in `tree` that starts with a
    parameter-name prefix."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith(("v.", "f.")):
            yield scope
        inner = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _prefix_sites(node, f"{scope}.{node.name}" if inner else scope)


def test_param_name_prefixes_are_built_only_in_named_params():
    # "v."/"f." keys have one builder; every other site asks it
    from dualview import training

    sites = set()
    for source in Path(training.__file__).parent.glob("*.py"):
        sites.update(_prefix_sites(ast.parse(source.read_text()), source.stem))
    assert sites == {"training.Model.named_params"}


@pytest.mark.parametrize("regime", REGIMES)
def test_params_npz_keys_are_the_named_params(regime, tmp_path, monkeypatch):
    from dualview import cli

    models = []

    def recording_train(*args, **kwargs):
        report, model = train(*args, **kwargs)
        models.append(model)
        return report, model

    monkeypatch.setattr(cli, "train", recording_train)
    assert main(["train", "--out", str(tmp_path), "--override", f"train.regime={regime}",
                 "--override", "dataset.n=100", "--override", "train.epochs=1",
                 "--override", "train.pretrain_epochs=1"]) == 0
    (model,) = models
    named = model.named_params()
    assert list(named) == [f"v.{k}" for k in model.params_v] + \
        [f"f.{k}" for k in (model.params_f or {})]
    with np.load(tmp_path / "params.npz") as params:
        assert params.files == list(named)
        assert all(np.array_equal(params[k], v) for k, v in named.items())


@pytest.mark.parametrize("regime", REGIMES)
def test_constant_operands_leave_parameter_cotangents_bit_identical(regime, monkeypatch):
    # only Node operands join the autodiff graph; wrapping the input and the
    # fixed gates in Nodes, as every operand once was, changes no bit
    from dualview import autodiff as ad
    from dualview.arch import GateRouting
    from dualview.training import REGIME_TABLE, _init_net

    source = REGIME_TABLE[regime][0]
    rng = make_rng(11, stream=46)
    cases = []
    for arch in (ARCH, ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=2, d_fc=2,
                                n_out=2),
                 ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=4, n_out=2)):
        params_f = None if source == "self" else _init_net(arch, rng, "normal", source)
        model = Model(arch=arch, regime=regime, params_f=params_f,
                      params_v=_init_net(arch, rng, "normal"), routing=GateRouting())
        cases.append((model, rng.normal(size=(8, arch.d_in)), rng.integers(0, 2, size=8)))
    plain = [batch_grads(*case) for case in cases]

    constants = []

    def wrapping(op):
        def wrapped(*args):
            constants.extend(a for a in args if isinstance(a, np.ndarray))
            return op(*(Node(a) if isinstance(a, np.ndarray) else a for a in args))
        return wrapped

    for name in ("matmul", "add", "mul", "conv_circular", "global_avg_pool", "logistic"):
        monkeypatch.setattr(ad, name, wrapping(getattr(ad, name)))
    for (loss, grads), case in zip(plain, cases):
        loss_n, grads_n = batch_grads(*case)
        assert loss == loss_n and grads.keys() == grads_n.keys()
        assert all(grads[k].tobytes() == grads_n[k].tobytes() for k in grads)
    assert constants


def test_determinism():
    tr, te = _circles(n=300)
    cfg = TrainConfig(regime=DLGN, epochs=4, batch_size=64, seed=7)
    r1, m1 = train(ARCH, tr, cfg, test=te)
    r2, m2 = train(ARCH, tr, cfg, test=te)
    assert r1.train_loss == r2.train_loss
    assert r1.train_accuracy == r2.train_accuracy
    for k in m1.params_v:
        assert np.array_equal(m1.params_v[k], m2.params_v[k])


# Golden trained parameters: sha256 over each `Model.named_params()` key and
# its array bytes, recorded before the optimizers stepped one flat vector,
# on x86-64 with numpy 2.4 and its bundled OpenBLAS. Every run has a row
# count that is a multiple of its batch size. The DLGN-conv_gap digest was
# re-recorded when a single-channel conv layer became one matmul over its
# filter taps' columns, a change of summation order that moved its
# parameters by at most 1.3e-16 relative.
GOLDEN_FC = ArchSpec(family="fc", d_in=3, depth=3, width=8, n_out=2)
GOLDEN_PARAMS = {
    **{regime: (GOLDEN_FC, "circles", {"regime": regime}, digest) for regime, digest in (
        (DNN, "a42e6eb5d9e975313ef97b27bc26f89550a949ac7bb5543980ff97438b5215b6"),
        (DGN_FR, "bd200b533c3f0e099a0e499ec222898697699b02091d44d0ad9512c06562cc6d"),
        (DGN_FL, "40fce3d5bc29aab9517b414bb086bc87e648d518dbc8f72094c2d8a612193768"),
        (DGN_STANDALONE, "4f8f33227ed5542cc7bef2cfdb2eda2486cbd211a035016032b8efa87d2c3d2e"),
        (DLGN, "cf2dadfc5dfd82e3c53d11c5785ffe211017841c301c2d3a91c24eec24c3f331"),
        (DLGN_SF, "77ddcbc46e5cc06260378295eca1f7f48b45cbf95b289695d7fcf940094cbfa5"))},
    "DLGN-conv_gap": (ArchSpec(family="conv_gap", d_in=8, w_cv=3, width=4, d_cv=2, d_fc=2,
                               n_out=2), "shifted_pulses", {"regime": DLGN},
                      "a3a5430b197def15b693d6a84537fd55bdac0db06e813df840ed8683d1a4e56d"),
    "DNN-sgd": (GOLDEN_FC, "circles", {"regime": DNN, "optimizer": "sgd", "lr": 0.01},
                "fbba564d4ebc841adf45521f4aeb6c8f7223cacb2645e325d3ce43369f0684e8"),
    "DGN_FL-sgd-schedule": (GOLDEN_FC, "circles",
                            {"regime": DGN_FL, "optimizer": "sgd", "use_schedule": True},
                            "560086201b6895c6990eae9a119f2d2cca370e7de7d022f9b8cd5ed25b1a699b"),
}


@pytest.mark.parametrize("case", list(GOLDEN_PARAMS))
def test_trained_params_match_their_golden_digest(case):
    arch, kind, fields, digest = GOLDEN_PARAMS[case]
    cfg = TrainConfig(epochs=2, batch_size=32, pretrain_epochs=2, seed=0, **fields)
    _, model = train(arch, generate_synthetic(kind, 128, seed=0), cfg)
    h = hashlib.sha256()
    for name, v in model.named_params().items():
        h.update(name.encode())
        h.update(v.tobytes())
    assert h.hexdigest() == digest


def test_sgd_schedule_spans_every_step(monkeypatch):
    # 300 rows in batches of 128 take three steps per epoch, the last one short
    from dualview import training

    sized, steps = [], [0]
    schedule, step = training.appendix_schedule, SGDMomentum.step

    def recording_schedule(total_iters):
        sized.append(total_iters)
        return schedule(total_iters)

    def counting_step(opt, *args):
        steps[0] += 1
        return step(opt, *args)

    monkeypatch.setattr(training, "appendix_schedule", recording_schedule)
    monkeypatch.setattr(SGDMomentum, "step", counting_step)
    cfg = TrainConfig(regime=DGN_FL, optimizer="sgd", use_schedule=True, epochs=2,
                      pretrain_epochs=3, batch_size=128, seed=0)
    train(ARCH, generate_synthetic("circles", 300, seed=0), cfg)
    assert sized == [9, 6] and steps == [15]


def test_soft_gates_of_a_far_input_raise_no_overflow_warning():
    # the logistic of beta q below about -709 is exactly 0, but exp(-beta q)
    # overflows on the way; a gate of exactly 0 shows that it did
    from dualview.arch import SOFT, GateRouting, feature_gates
    from dualview.training import _init_net

    rng = make_rng(3, stream=50)
    model = Model(arch=ARCH, regime=DLGN, params_f=_init_net(ARCH, rng, "normal"),
                  params_v=_init_net(ARCH, rng, "normal"), routing=GateRouting())
    x = np.array([[1e3, -1e3, 5e2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logits = model.logits(x)
        gates = feature_gates(ARCH, model.params_f, x, "linear", SOFT)
    assert np.isfinite(logits).all()
    assert any((g.value == 0.0).any() for g in gates)


def test_untrained_accuracy_near_chance():
    rng = make_rng(9, stream=45)
    from dualview.data import Dataset

    X = rng.normal(size=(1000, 3))
    y = rng.integers(0, 2, size=1000)
    ds = Dataset(X, y, 2, "random")
    model = Model(arch=ARCH, regime=DNN, params_f=None,
                  params_v=normal_params(ARCH, rng), routing=__import__(
                      "dualview.arch", fromlist=["GateRouting"]).GateRouting())
    acc = evaluate(model, ds)
    assert abs(acc - 0.5) <= 0.05


def test_routing_fixed_train_and_test():
    # evaluating with a different permutation than trained degrades accuracy
    tr, te = _circles()
    perm_arch = ArchSpec(family="fc", d_in=3, depth=4, width=16, n_out=2)
    cfg = TrainConfig(regime=DLGN, perm=(1, 2, 0), epochs=15, batch_size=128,
                      lr=3e-3, seed=4)
    report, model = train(perm_arch, tr, cfg, test=te)
    trained = evaluate(model, te)
    from dualview.arch import GateRouting

    other = evaluate(replace(model, routing=GateRouting(perm=(0, 1, 2))), te)
    assert trained >= 0.9
    assert other <= trained  # mismatched routing never helps here
    # a Model checks its routing once, when built
    with pytest.raises(ValueError, match=r"perm must be a permutation of 0\.\.2"):
        train(perm_arch, tr, replace(cfg, perm=(0, 0, 1)))


def test_constant_one_value_input():
    tr, te = _circles()
    cfg = TrainConfig(regime=DLGN, x_v="ones", epochs=15, batch_size=128,
                      lr=3e-3, seed=5)
    report, model = train(ARCH, tr, cfg, test=te)
    assert report.final_test_accuracy >= 0.9


def test_train_report_json_roundtrip():
    rep = TrainReport(regime=DNN, seed=1, config={"epochs": 2},
                      train_loss=[0.5, 0.2], train_accuracy=[0.7, 0.9],
                      test_accuracy=[0.6, 0.8], final_test_accuracy=0.8,
                      wall_clock_s=1.5)
    back = TrainReport.from_json(rep.to_json())
    assert back == rep
    doc = json.loads(rep.to_json())
    assert doc["regime"] == "DNN" and len(doc["train_loss"]) == 2


def test_train_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        TrainConfig(regime="SVM")
    with pytest.raises(ValueError):
        TrainConfig(x_v="zeros")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    TrainConfig(pretrain_epochs=0)
    # a negative count would skip DGN_FL pre-training and report the value
    assert main(["train", "--out", str(tmp_path / "t"), "--override", "train.regime=DGN_FL",
                 "--override", "train.pretrain_epochs=-5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "train.pretrain_epochs must be >= 0, got -5" in err
    assert not (tmp_path / "t").exists()


def test_arch_dataset_mismatch():
    tr, _ = _circles(n=100)
    bad = ArchSpec(family="fc", d_in=5, depth=3, width=4, n_out=2)
    with pytest.raises(ValueError):
        train(bad, tr, TrainConfig(epochs=1))
    bad_k = ArchSpec(family="fc", d_in=3, depth=3, width=4, n_out=5)
    with pytest.raises(ValueError):
        train(bad_k, tr, TrainConfig(epochs=1))
