import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import normal_params

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
    params = {"w": np.array([1.0, 2.0])}
    opt.step(params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.0, 2.0])


@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_quadratic_descent_monotone(name):
    opt = make_optimizer(name, lr=0.05 if name == "sgd" else 0.05)
    params = {"w": np.array([3.0])}
    losses = []
    for _ in range(100):
        losses.append(float(params["w"][0] ** 2))
        opt.step(params, {"w": 2.0 * params["w"]})
    # overall decrease, and final loss near zero
    assert losses[-1] < losses[0] * 1e-2
    assert min(losses) == losses[-1] or losses[-1] < 1e-3


def test_adam_step_bound():
    opt = Adam(lr=0.01)
    params = {"w": np.array([0.0, 5.0, -2.0])}
    prev = params["w"].copy()
    for _ in range(10):
        g = np.array([1.0, -3.0, 100.0])
        opt.step(params, {"w": g})
        step = np.abs(params["w"] - prev)
        assert np.all(step <= opt.lr * 1.01)  # bias-corrected Adam step cap
        prev = params["w"].copy()


def test_nan_gradient_aborts():
    opt = SGDMomentum(lr=0.1)
    with pytest.raises(FloatingPointError):
        opt.step({"w": np.zeros(2)}, {"w": np.array([np.nan, 0.0])})


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
    from dualview.training import _init_net, _run_epochs, make_optimizer as mk
    from dualview.arch import GateRouting

    params_v = _init_net(ARCH, make_rng(3, stream=2), "normal")
    model = Model(arch=ARCH, regime=DGN_FR,
                  params_f={k: v.copy() for k, v in params_v.items()},
                  params_v=params_v, routing=GateRouting())
    rep = TrainReport(regime=DGN_FR, seed=3, config={})
    _run_epochs(model, tr, mk("adam", 3e-4), 1, tr.n, make_rng(3, stream=3), rep)
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


@pytest.mark.parametrize("regime", REGIMES)
def test_constant_operands_leave_parameter_cotangents_bit_identical(regime, monkeypatch):
    # only Node operands join the autodiff graph; wrapping the input and the
    # fixed gates in Nodes, as every operand once was, changes no bit
    from dualview import autodiff as ad
    from dualview.arch import GateRouting
    from dualview.training import REGIME_TABLE, _batch_grads, _init_net

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
    plain = [_batch_grads(*case) for case in cases]

    constants = []

    def wrapping(op):
        def wrapped(*args):
            constants.extend(a for a in args if isinstance(a, np.ndarray))
            return op(*(Node(a) if isinstance(a, np.ndarray) else a for a in args))
        return wrapped

    for name in ("matmul", "add", "mul", "conv_circular", "global_avg_pool", "logistic"):
        monkeypatch.setattr(ad, name, wrapping(getattr(ad, name)))
    for (loss, grads), case in zip(plain, cases):
        loss_n, grads_n = _batch_grads(*case)
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

    model.routing = GateRouting(perm=(0, 1, 2))
    other = evaluate(model, te)
    assert trained >= 0.9
    assert other <= trained  # mismatched routing never helps here


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
