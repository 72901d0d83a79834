import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualview import cli
from dualview.arch import ArchSpec, forward_relu, init_params
from dualview.cli import (
    DEFAULT_CONFIG,
    MINIMUM,
    ExperimentConfig,
    main,
)
from dualview.data import (
    CIFAR_RECORD,
    Dataset,
    DatasetError,
    generate_synthetic,
    load_dataset,
)
from dualview.kernels import (GramMatrix, dataset_fingerprint, gate_correlations, npk,
                              ntk_expectation_mc)
from dualview.numerics import make_rng
from dualview.paths import dual_vectors, enumerate_paths
from dualview.training import TrainConfig


# -- datasets ----------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(DatasetError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0]), 2)
    with pytest.raises(DatasetError):
        Dataset(np.ones((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(DatasetError):
        Dataset(np.ones((2, 2)), np.array([0]), 2)


def test_blobs_separation():
    ds = generate_synthetic("blobs", 100, seed=0)
    assert ds.k == 2 and ds.n == 100
    m0 = ds.X[ds.y == 0].mean(axis=0)
    m1 = ds.X[ds.y == 1].mean(axis=0)
    within = max(ds.X[ds.y == c].std() for c in (0, 1))
    assert np.linalg.norm(m0 - m1) >= 4 * within


def test_circles_homogeneous_coordinate():
    ds = generate_synthetic("circles", 50, seed=1)
    assert ds.d_in == 3
    assert np.all(ds.X[:, 2] == 1.0)  # appended constant-1 coordinate
    flat = generate_synthetic("circles", 50, seed=1, append_one=False)
    assert flat.d_in == 2


def test_shifted_pulses_rotation_closure():
    ds = generate_synthetic("shifted_pulses", 40, seed=2, d_in=8, noise=0.0)
    # any rotation of a sample is byte-identical to some valid sample shape
    shapes_by_class = {c: set() for c in range(ds.k)}
    for x, y in zip(ds.X, ds.y):
        shapes_by_class[y].add(tuple(np.round(x, 12)))
    for x, y in zip(ds.X, ds.y):
        rolled = tuple(np.round(np.roll(x, 3), 12))
        # rolled version has the same multiset of values and the class pulse shape
        assert sorted(rolled) == sorted(tuple(np.round(x, 12)))


def _pulses_loop(n, seed, d_in=8, k=2, noise=0.05):
    """The shifted-pulses generator with one np.roll per row."""
    rng = make_rng(seed, stream=101)
    shapes = np.zeros((k, d_in))
    for c in range(k):
        shapes[c, : c + 2] = np.linspace(1.0, 0.25, c + 2)
    y = rng.integers(0, k, size=n)
    shifts = rng.integers(0, d_in, size=n)
    X = np.empty((n, d_in))
    for i in range(n):
        X[i] = np.roll(shapes[y[i]], shifts[i])
    X += noise * rng.normal(size=X.shape)
    return X, y


@pytest.mark.parametrize("n,seed,params,fingerprint", [
    (2000, 0, {}, "7772346b1926d99d"),
    (2000, 7, {}, "c659d8ea01268a7e"),
    (37, 3, {"d_in": 5, "k": 4}, "9a6c916bccbc3555"),
])
def test_shifted_pulses_gather_matches_roll_loop(n, seed, params, fingerprint):
    ds = generate_synthetic("shifted_pulses", n, seed=seed, **params)
    X, y = _pulses_loop(n, seed, **params)
    assert ds.X.tobytes() == X.tobytes() and np.array_equal(ds.y, y)
    assert dataset_fingerprint(ds.X) == fingerprint


def test_generator_determinism():
    a = generate_synthetic("circles", 64, seed=9)
    b = generate_synthetic("circles", 64, seed=9)
    assert a.X.tobytes() == b.X.tobytes()
    assert np.array_equal(a.y, b.y)
    c = generate_synthetic("circles", 64, seed=10)
    assert a.X.tobytes() != c.X.tobytes()


def test_generator_errors():
    with pytest.raises(DatasetError):
        generate_synthetic("spirals", 10, seed=0)
    with pytest.raises(DatasetError):
        generate_synthetic("blobs", 1, seed=0)
    with pytest.raises(DatasetError, match="'bogus'"):
        generate_synthetic("circles", 10, seed=0, bogus=1)
    # too few classes, or pulses wider than the input, are named by k
    for kind, params in (("blobs", {"k": 1}), ("shifted_pulses", {"k": 1}),
                         ("shifted_pulses", {"k": 8}), ("shifted_pulses", {"d_in": 3, "k": 3})):
        with pytest.raises(DatasetError, match=f"{kind} parameter 'k' must"):
            generate_synthetic(kind, 10, seed=0, **params)
    assert generate_synthetic("shifted_pulses", 10, seed=0, d_in=3, k=2).k == 2


def test_split():
    ds = generate_synthetic("blobs", 100, seed=0)
    from dualview.numerics import make_rng

    tr, te = ds.split(0.8, make_rng(0))
    assert tr.n == 80 and te.n == 20
    with pytest.raises(DatasetError):
        ds.split(1.5, make_rng(0))
    for fraction, side in ((0.996, "test"), (0.004, "train")):
        with pytest.raises(DatasetError, match=f"n=100 samples leaves the {side} set empty"):
            ds.split(fraction, make_rng(0))


def test_load_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    ds = load_dataset(p, "csv")
    assert ds.n == 2 and ds.d_in == 2 and ds.k == 2
    assert np.array_equal(ds.X[0], [1.0, 2.0]) and ds.y[1] == 1


def test_load_csv_header_and_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,0.5\n")
    with pytest.raises(DatasetError):
        load_dataset(bad, "csv")


def test_load_csv_parses_as_loadtxt(tmp_path):
    # blank lines, comment lines, inline comments and whitespace around values
    p = tmp_path / "d.csv"
    p.write_text("# x0,x1,label\n 0.1 ,\t-2.5e-3,0\n\n#\n1e300,.5,1 # tail\n-0.0,4.9e-324,2\n")
    ds = load_dataset(p, "csv")
    raw = np.loadtxt(p, delimiter=",", ndmin=2)
    assert ds.X.tobytes() == raw[:, :-1].tobytes() and ds.y.tolist() == [0, 1, 2]


@pytest.mark.parametrize("text,msg", [
    ("1.0,2.0,0\nx,4.0,1\n", "line 2: could not convert string to float: 'x'"),
    ("1.0,2.0,0\n\n3.0,1\n", "line 3: 2 values, not 3 as on the lines before"),
    ("1.0,2.0,0\n1_0,2.0,1\n", "line 2: could not convert string to float: '1_0'"),
    ("1.0,\u0661,0\n", "line 1: could not convert string to float: '\u0661'"),
], ids=["non_numeric", "ragged", "underscore", "non_ascii_digit"])
def test_load_csv_errors_name_the_file_line(tmp_path, text, msg):
    # loadtxt's messages counted data rows from 0, so a bad value on line 2
    # read "at row 1"; numpy's string cast also takes 1_0 and non-ASCII
    # digits, which loadtxt refuses
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DatasetError) as err:
        load_dataset(p, "csv")
    assert str(err.value) == f"{p}: {msg}"
    with pytest.raises(ValueError):
        np.loadtxt(p, delimiter=",", ndmin=2)


@pytest.mark.parametrize("label,msg", [
    ("inf", "final column must hold integer labels"),
    ("-inf", "final column must hold integer labels"),
    ("1e300", "final column must hold integer labels"),
    ("-1e300", "final column must hold integer labels"),
    ("-3", "negative label -3"),
])
def test_load_csv_label_errors(tmp_path, label, msg):
    # infinite and huge labels passed the integer test, then the int64 cast
    # warned and gave "negative label -9223372036854775808"; warnings are
    # errors here
    p = tmp_path / "d.csv"
    p.write_text(f"1,2,0\n3,4,{label}\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(p, "csv")
    assert str(err.value) == f"{p}: {msg}"


def test_cli_empty_csv_prints_one_line(tmp_path):
    # numpy's "input contained no data" warning once reached stderr ahead
    # of the error; a fresh interpreter shows everything the command prints
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "dualview.cli", "train", "--out", str(tmp_path / "t"),
         "--override", "dataset.kind=file", "--override", f"dataset.path={empty}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"dualview train: {empty}: no data rows"]
    assert not (tmp_path / "t").exists()


def test_load_cifar_binary(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(3, CIFAR_RECORD - 1), dtype=np.uint8)
    labels = np.array([[0], [1], [2]], dtype=np.uint8)
    blob = np.concatenate([labels, pixels], axis=1).tobytes()
    p = tmp_path / "batch.bin"
    p.write_bytes(blob)
    ds = load_dataset(p, "cifar-binary")
    assert ds.n == 3 and ds.d_in == 3072 and ds.k == 3
    assert np.all((ds.X >= 0) & (ds.X <= 1))
    assert np.isclose(ds.X[0, 0], pixels[0, 0] / 255.0)


def test_load_cifar_truncated(tmp_path):
    p = tmp_path / "trunc.bin"
    p.write_bytes(b"\x00" * (CIFAR_RECORD - 1))
    with pytest.raises(DatasetError, match="offset 0"):
        load_dataset(p, "cifar-binary")
    p2 = tmp_path / "trunc2.bin"
    p2.write_bytes(b"\x00" * (2 * CIFAR_RECORD - 1))
    with pytest.raises(DatasetError, match=f"offset {CIFAR_RECORD}"):
        load_dataset(p2, "cifar-binary")


def test_unknown_format(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "x", "parquet")


# -- config ------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    (tmp_path / "c.json").write_text(cfg.to_json())
    back = ExperimentConfig.load(tmp_path / "c.json")
    assert back.doc == cfg.doc == DEFAULT_CONFIG


def test_config_overrides(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"arch": {"width": 32}}))
    cfg = ExperimentConfig.load(p, overrides=["train.lr=0.01", "dataset.kind=blobs",
                                              "train.regime=DLGN", "train.perm=[1,0,2]"])
    assert cfg.doc["arch"]["width"] == 32
    assert cfg.doc["arch"]["family"] == "fc"  # defaults survive partial configs
    assert cfg.doc["train"]["lr"] == 0.01
    assert cfg.doc["dataset"]["kind"] == "blobs"
    assert cfg.train_config().perm == (1, 0, 2)
    with pytest.raises(ValueError):
        ExperimentConfig.load(None, overrides=["no-equals-sign"])


def test_config_section_override_keeps_the_defaults_it_lacks():
    # `--override kernel={}` once left kernel.n out and `kernel` raised KeyError
    assert ExperimentConfig.load(overrides=["kernel={}"]).doc == DEFAULT_CONFIG
    doc = ExperimentConfig.load(overrides=['dataset={"n": 20}']).doc
    assert doc["dataset"] == {**DEFAULT_CONFIG["dataset"], "n": 20}


def test_config_train_defaults_are_train_config():
    assert ExperimentConfig().train_config() == TrainConfig()


def _default(key):
    value = DEFAULT_CONFIG
    for part in key.split("."):
        value = value[part]
    return value


def test_minimum_keys_have_int_defaults_that_reach_them():
    for key, low in MINIMUM.items():
        default = _default(key)
        items = default if isinstance(default, list) else [default]
        assert type(low) is int and items, key
        assert all(type(v) is int and v >= low for v in items), key


# -- CLI commands ------------------------------------------------------------


def test_cli_verify_passes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out), "--seed", "3",
                 "--override", "verify.mc_samples=150",
                 "--override", "verify.eq1_samples=4"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert set(report) == {"permutation", "constant_one", "rotation", "path_identity", "npk",
                           "mc_ntk"}
    # every check runs on every family: no record is skipped
    assert all({"check", "passed"} <= set(r) and "skipped" not in r for r in report.values())
    assert all(r["passed"] for r in report.values())
    assert list(report["npk"]["values"]) == ["fc", "conv", "res"]
    assert report["path_identity"]["samples"] == 4 * 3
    per_mask = report["npk"]["per_mask"]
    assert set(per_mask) == {"()", "(1,)", "(2,)", "(1, 2)"}
    # the per-sub-FCN blocks of <phi, phi'> add up to the closed-form res NPK
    arch, params, x, x2, *_ = cli._verify_probes(3)["res"]
    k = npk(arch, x, x2, forward_relu(arch, params, x).gates, forward_relu(arch, params, x2).gates)
    assert abs(sum(per_mask.values()) - k) <= 1e-12 * abs(k)


def test_cli_verify_sabotaged_sigma_fails(tmp_path, monkeypatch):
    # the MC estimate draws its value weights at 1.5 times the target's sigma
    estimate = cli.ntk_expectation_mc
    monkeypatch.setattr(cli, "ntk_expectation_mc",
                        lambda *args, sigma, **kw: estimate(*args, sigma=1.5 * sigma, **kw))
    out = tmp_path / "vbad"
    code = main(["verify", "--out", str(out),
                 "--override", "verify.mc_samples=200",
                 "--override", "verify.eq1_samples=2"])
    assert code == 1
    report = json.loads((out / "verify.json").read_text())
    assert not report["mc_ntk"]["passed"]


def test_cli_train_artifacts(tmp_path):
    out = tmp_path / "nested" / "t"  # missing directories get created
    assert main(["train", "--out", str(out),
                 "--override", "train.epochs=5",
                 "--override", "dataset.n=300"]) == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["regime"] == "DNN"
    assert len(report["train_loss"]) == 5
    assert 0.0 < report["eval_s"] < report["wall_clock_s"]
    params = np.load(out / "params.npz")
    assert any(k.startswith("v.") for k in params.files)


def test_cli_kernel_artifacts(tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out),
                 "--override", "kernel.n=12",
                 "--override", "dataset.n=50"]) == 0
    g = GramMatrix.load_csv(out / "gram.csv")
    b = GramMatrix.load_npkg(out / "gram.npkg")
    assert g.n == 12
    assert np.max(np.abs(g.matrix - b.matrix)) <= 1e-12
    assert g.is_psd()


@pytest.mark.parametrize("command, n, override", [("train", 200, "train.epochs=2"),
                                                  ("kernel", 50, "kernel.n=12")])
def test_cli_file_dataset_runs_as_the_generated_one(tmp_path, command, n, override):
    # the circles the command generates (dataset.seed 0), written with every
    # float's 17 digits and read back as a file dataset, give the same outputs
    ds = generate_synthetic("circles", n, 0)
    path = tmp_path / "circles.csv"
    np.savetxt(path, np.column_stack([ds.X, ds.y]), fmt="%.17g", delimiter=",")
    outs = {}
    for kind, dataset in (("generated", [f"dataset.n={n}"]),
                          ("file", ["dataset.kind=file", f"dataset.path={path}"])):
        outs[kind] = tmp_path / kind
        assert main([command, "--out", str(outs[kind]),
                     *[arg for ov in [override, *dataset] for arg in ("--override", ov)]]) == 0
    if command == "train":
        def report(out):
            doc = json.loads((out / "train_report.json").read_text())
            return {k: v for k, v in doc.items() if k not in ("wall_clock_s", "eval_s")}

        assert report(outs["file"]) == report(outs["generated"])
        params = [np.load(outs[kind] / "params.npz") for kind in ("generated", "file")]
        assert params[0].files == params[1].files
        assert all(np.array_equal(params[0][k], params[1][k]) for k in params[0].files)
    else:
        for name in ("gram.npkg", "gram.csv"):
            assert (outs["file"] / name).read_bytes() == (outs["generated"] / name).read_bytes()


def test_cli_experiment_permutation_sweep(tmp_path):
    out = tmp_path / "e"
    assert main(["experiment", "--out", str(out),
                 "--override", "experiment.bundle=permutation-sweep",
                 "--override", "experiment.seeds=1",
                 "--override", "train.epochs=3",
                 "--override", "dataset.n=200"]) == 0
    doc = json.loads((out / "experiment.json").read_text())
    # one record per permutation x seed: 3 gate layers -> 6 perms
    assert len(doc["records"]) == 6
    lines = (out / "permutation_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "perm,seed,test_accuracy"
    assert len(lines) == 7


def test_cli_experiment_constant_one(tmp_path):
    out = tmp_path / "c"
    assert main(["experiment", "--out", str(out),
                 "--override", "experiment.bundle=constant-one",
                 "--override", "experiment.seeds=2",
                 "--override", "train.epochs=2",
                 "--override", "dataset.n=200"]) == 0
    doc = json.loads((out / "experiment.json").read_text())
    # one record per regime x value input x seed: 2 x 2 x 2
    assert [(r["regime"], r["x_v"], r["seed"]) for r in doc["records"]] == [
        (regime, x_v, seed) for regime in ("DGN_STANDALONE", "DLGN")
        for x_v in ("data", "ones") for seed in (0, 1)]
    lines = (out / "constant_one.csv").read_text().strip().splitlines()
    assert lines[0] == "regime,x_v,seed,test_accuracy"
    assert lines[1].startswith("DGN_STANDALONE,data,0,") and len(lines) == 9


def test_cli_experiment_width_sweep(tmp_path):
    out = tmp_path / "w"
    assert main(["experiment", "--out", str(out),
                 "--override", "experiment.bundle=width-sweep",
                 "--override", "experiment.widths=[16,32]"]) == 0
    lines = (out / "width_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "width,median_rel_dev,stderr"
    assert len(lines) == 3


def test_cli_width_sweep_zero_target_fails(tmp_path, capsys):
    # at seed 0 the probe inputs share no active path at widths 1 and 2; the
    # relative deviation from a 0 target once went into the CSV as NaN
    out = tmp_path / "w"
    assert main(["experiment", "--seed", "0", "--out", str(out),
                 "--override", "experiment.bundle=width-sweep",
                 "--override", "experiment.widths=[1,2]"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "width 1 has a closed-form NTK target of 0" in err
    assert not out.exists()


def test_cli_experiment_usage_errors(tmp_path, capsys, monkeypatch):
    # no seeds or no widths would write an experiment.json without records
    for bundle, spec, msg in (
            ("permutation-sweep", "experiment.seeds=0", "experiment.seeds must be >= 1"),
            ("constant-one", "experiment.seeds=-1", "experiment.seeds must be >= 1"),
            ("width-sweep", "experiment.widths=[]", "experiment.widths must not be empty")):
        assert main(["experiment", "--out", str(tmp_path / "e"), "--override",
                     f"experiment.bundle={bundle}", "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and msg in err
    assert not (tmp_path / "e").exists()
    # the configured MC sample count runs as given, so one below 100 is
    # refused, as is a width below 1, both naming the config key
    for spec, msg in (("experiment.mc_deviation_samples=99",
                       "experiment.mc_deviation_samples must be >= 100, got 99"),
                      ("experiment.widths=[16,0]", "experiment.widths entries must be >= 1")):
        assert main(["experiment", "--out", str(tmp_path / "m"), "--override",
                     "experiment.bundle=width-sweep", "--override", "experiment.widths=[16]",
                     "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and msg in err
    assert not (tmp_path / "m").exists()
    # errors raised inside a bundle leave no out directory either
    for specs, msg in (
            (["dataset.n=50", "dataset.train_fraction=0.999"], "leaves the test set empty"),
            (["dataset.n=50", "arch.n_out=3"], "arch.n_out=3 != dataset classes k=2")):
        argv = ["experiment", "--out", str(tmp_path / "b"), "--override",
                "experiment.bundle=constant-one"]
        assert main(argv + [a for spec in specs for a in ("--override", spec)]) == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def refuse(*args, **kwargs):
        raise AssertionError("trained before every permutation was checked")

    # only the identity permutes a conv layer with the fc layer of equal index
    monkeypatch.setattr(cli, "train", refuse)
    conv = {"family": "conv_gap", "d_in": 8, "w_cv": 3, "width": 4, "d_cv": 1, "d_fc": 2,
            "n_out": 2}
    assert main(["experiment", "--out", str(tmp_path / "p"), "--override",
                 f"arch={json.dumps(conv)}", "--override", "dataset.kind=shifted_pulses",
                 "--override", "dataset.n=40"]) == 2
    assert "routing permutes layers of unequal gate shape" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_cli_usage_errors(tmp_path):
    assert main(["experiment", "--override", "experiment.bundle=nope",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "c.json"
    for text in ("[1, 2]", "3"):
        path.write_text(text)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: a config must be a JSON object" in err
        with pytest.raises(ValueError, match="a config must be a JSON object"):
            ExperimentConfig.load(path)
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, spec", [
    pytest.param(command, spec, id=spec if command == "train" else f"{spec}-{command}")
    for command in ("train", "verify", "kernel", "experiment")
    for spec in ("train.x_v=ones", "train.perm=[1,0,2]")])
def test_cli_train_dnn_rejects_external_gate_keys(tmp_path, capsys, command, spec):
    # a DNN gates itself: it would train on the data, unrouted, and report the
    # key; the train config refuses it before any command runs
    out = tmp_path / "t"
    assert main([command, "--out", str(out), "--override", "train.regime=DNN",
                 "--override", spec]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{spec.split('=')[0]}=" in err and "DNN" in err
    assert not out.exists()


def test_cli_generator_parameter_ranges(tmp_path, capsys):
    for kind, params in (("blobs", '{"k":1}'), ("shifted_pulses", '{"k":8}')):
        assert main(["kernel", "--out", str(tmp_path / "g"), "--override", f"dataset.kind={kind}",
                     "--override", f"dataset.params={params}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{kind} parameter 'k' must" in err
    assert not (tmp_path / "g").exists()


def test_cli_unknown_config_key(tmp_path, capsys):
    for key in ("train.bogus", "arch.bogus", "kernel.cap", "kernel.tag", "verify.bogus",
                "dataset.bogus", "experiment.bogus", "bogus"):
        assert main(["train", "--out", str(tmp_path / "u"), "--override", f"{key}=1"]) == 2
        assert key in capsys.readouterr().err
    for key in ("dataset", "verify", "kernel", "experiment", "train", "arch", "dataset.params"):
        assert main(["kernel", "--out", str(tmp_path / "u"), "--override", f"{key}=3"]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "experiment"])
def test_cli_arch_needs_family_and_d_in(tmp_path, capsys, command):
    # an arch override replaces the whole section; a missing ArchSpec field
    # once raised a TypeError traceback
    out = tmp_path / "a"
    assert main([command, "--out", str(out), "--override", 'arch={"d_in": 3, "width": 8}']) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config key arch.family is missing" in err
    assert not out.exists()


def test_cli_config_value_types(tmp_path, capsys):
    for spec in ('dataset.n="abc"', 'arch.width="x"', "kernel.n=true", "train.lr=[1]",
                 "train.use_schedule=1", "experiment.widths=16", 'experiment.widths=["a"]',
                 "experiment.widths=[16,true]", 'seed="0"', "arch.c_scale=null"):
        key = spec.split("=")[0]
        assert main(["train", "--out", str(tmp_path / "t"), "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"config key {key} must be" in err
    # generator parameters have their default's type, and train.perm is a list of ints
    for cmd, spec, key in (("train", "train.perm=3", "train.perm"),
                           ("train", 'train.perm=["a"]', "train.perm"),
                           ("kernel", 'dataset.params={"radii":3}', "'radii'"),
                           ("kernel", 'dataset.params={"radii":["a",2]}', "'radii'"),
                           ("kernel", 'dataset.params={"noise":"x"}', "'noise'"),
                           ("kernel", 'dataset.params={"append_one":1}', "'append_one'")):
        assert main([cmd, "--out", str(tmp_path / "t"), "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "must" in err
    # an int passes for a float; keys whose default is None are not checked
    cfg = ExperimentConfig.load(None, ["train.lr=1", "arch.c_scale=2", "dataset.path=3",
                                       'dataset.params={"radii":[1,3],"noise":0}'])
    assert cfg.train_config().lr == 1 and cfg.arch().c_scale == 2
    assert cfg.make_dataset().n == DEFAULT_CONFIG["dataset"]["n"]


@pytest.mark.parametrize("command", ["train", "kernel"])
@pytest.mark.parametrize("value", ["[1]", '{"a":1}', "3.5", "true", "7", '""'])
def test_cli_file_dataset_path_must_be_a_string(tmp_path, capsys, monkeypatch, command, value):
    # a list, an object or a float once crashed with a TypeError traceback,
    # and true or 7 were opened as file descriptors 1 and 7
    def refuse(*args, **kwargs):
        raise AssertionError("opened the dataset before refusing its path")

    monkeypatch.setattr(cli, "load_dataset", refuse)
    out = tmp_path / "t"
    assert main([command, "--out", str(out), "--override", "dataset.kind=file",
                 "--override", f"dataset.path={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dataset.path, a non-empty string" in err
    assert not out.exists()


def test_cli_kernel_usage_errors(tmp_path, capsys):
    for spec, msg in (("dataset.kind=blobs", "arch.d_in=3 != dataset d_in=2"),
                      ("kernel.n=0", "kernel.n must be >= 1"),
                      ("kernel.n=-1", "kernel.n must be >= 1")):
        assert main(["kernel", "--out", str(tmp_path / "k"), "--override", "dataset.n=20",
                     "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and msg in err
    assert not (tmp_path / "k").exists()


def test_cli_verify_usage_errors(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran a check before the usage error")

    # every value below is refused before any check runs
    monkeypatch.setattr(cli, "_rotation_check", refuse)
    # a sample count below 1 would check nothing and pass
    for spec in ("verify.eq1_samples=0", "verify.eq1_samples=-1"):
        assert main(["verify", "--out", str(tmp_path / "v"), "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{spec.split('=')[0]} must be >= 1" in err
    assert not (tmp_path / "v").exists()
    # the MC check's own limits, named by their config keys
    for spec, msg in (("verify.mc_samples=99", "verify.mc_samples must be >= 100, got 99"),
                      ("verify.mc_sigma_scale=1.5",
                       "unknown config key verify.mc_sigma_scale"),
                      # verify checks every family, and has no path budget
                      ("verify.max_paths=5", "unknown config key verify.max_paths")):
        assert main(["verify", "--out", str(tmp_path / "v"), "--override", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and msg in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("arch,dataset", [
    ({"family": "conv_gap", "d_in": 8, "w_cv": 3, "width": 4, "d_cv": 2, "d_fc": 2},
     "shifted_pulses"),
    ({"family": "res", "d_in": 3, "b": 2, "d_blk": 1, "width": 4}, "circles"),
], ids=["conv_gap", "res"])
def test_cli_kernel_gram_matches_path_oracle(tmp_path, arch, dataset):
    out = tmp_path / "k"
    overrides = [f"arch={json.dumps(arch)}", f"dataset.kind={dataset}", "dataset.n=40"]
    argv = ["kernel", "--out", str(out), "--seed", "4", "--override", "kernel.n=10"]
    assert main(argv + [a for spec in overrides for a in ("--override", spec)]) == 0
    g = GramMatrix.load_csv(out / "gram.csv")
    assert g.tag == f"npk-{arch['family']}" and g.n == 10 and g.is_psd()
    cfg = ExperimentConfig.load(None, overrides)
    spec, X = cfg.arch(), cfg.make_dataset().X
    pf = init_params(spec, make_rng(4, stream=206))  # the kernel command's feature stream
    table = enumerate_paths(spec)
    npf = [dual_vectors(spec, pf, x, forward_relu(spec, pf, x).gates, table=table).npf
           for x in X[:10]]
    for i, j in [(0, 0), (0, 1), (2, 7), (3, 3), (5, 9), (8, 4), (9, 9)]:
        terms = float(np.abs(npf[i]) @ np.abs(npf[j]))
        assert abs(g.matrix[i, j] - float(npf[i] @ npf[j])) <= 1e-12 * terms


# Golden outputs: sha256 digests recorded before the Gram fill and the graph
# ops were tuned, on x86-64 with numpy 2.4 and its bundled OpenBLAS. A speed-up
# must leave them unchanged unless it changes the summation order on purpose
# and says so; a BLAS that sums in another order may not. The conv_gap MC
# digest was re-recorded when a single-channel conv layer became one matmul
# over its filter taps' columns (no sample moved by more than 2.5e-16 of the
# largest one), and again when ntk_fixed_gates took a conv layer's term from
# the two filter gradients, which sums it in another order (28 of the 100
# samples moved, none by more than 2.9e-16 of itself).
GOLDEN_GRAMS = {
    "fc": ({"family": "fc", "d_in": 3, "depth": 4, "width": 16, "n_out": 2}, "circles",
           "a8b00462fa098119907bb7099b5dba7c67419e6f6bd13ac93f49b4cd4f790254",
           "8571ce0015881ce81b2252603eb196fb3dd42c96fc9ce0a860a0b9ca9fc89a8b"),
    "conv_gap": ({"family": "conv_gap", "d_in": 8, "w_cv": 3, "width": 4, "d_cv": 2, "d_fc": 2},
                 "shifted_pulses",
                 "6f706fcbdf9871e97e80ff2bceea6c6f0e33628c46a3c14b8dfa680acee5bdf8",
                 "4b4e08ec7d003dbed53bddf833fb8cdf8e5f5e424df143c2a213c8bf10ca444d"),
    "res": ({"family": "res", "d_in": 3, "b": 2, "d_blk": 1, "width": 4}, "circles",
            "be43bcc99ec2e9289e84b99099ee37f830440b13960fc5f7223a5b056c3b6757",
            "e9d4449add0ecd7aee18d94ca9c0707fc8e3465d0d09dca0628426d7a68d16e2"),
}
GOLDEN_MC = {
    "fc": ({"family": "fc", "d_in": 3, "depth": 3, "width": 16}, 0.5,
           "602ebab2f21afaae76fe16fd84691f78c88695bf09b427c74c0b49b5eca7f237"),
    "conv_gap": ({"family": "conv_gap", "d_in": 5, "w_cv": 2, "width": 8, "d_cv": 1, "d_fc": 2},
                 0.3, "45ad14cf089c61ba51475d1a76beed18dba9bbf8b96275c84bee3f6da2def0ad"),
    "res": ({"family": "res", "d_in": 3, "b": 2, "d_blk": 1, "width": 8}, 0.4,
            "2de2228ebd93a3b9daf96047420e1324408dbf0cf95e9aa3e93010098f94cfb2"),
}


# (command, overrides, digest per output file) of the outputs no other test
# pins: verify.json at seed 0, re-recorded when verify.max_paths went and
# path_identity and npk lost their always-complete `families` and
# `skipped_families` keys (every other value is unchanged), and each bundle
# at a small size.
SMALL_BUNDLE = ["dataset.n=300", "train.epochs=2", "experiment.seeds=1",
                "experiment.widths=[16,64]"]
GOLDEN_OUTPUTS = {
    "verify": ("verify", ["verify.eq1_samples=2", "verify.mc_samples=100"], {
        "verify.json": "c33a36689a41fbbfd24fc0027b9273c820535efb41ae4492e1738d239f9bc74f"}),
    **{bundle: ("experiment", [*SMALL_BUNDLE, f"experiment.bundle={bundle}"], {
        "experiment.json": doc, bundle.replace("-", "_") + ".csv": csv})
       for bundle, doc, csv in (
           ("permutation-sweep",
            "c66a604e0dc11d9a06ffcdc3f655cf0b99db597e0980b87d4f3b548b3126db3f",
            "ee9b001a8d5d35bbb6c4fef76b61b55e87f8eac15433d9868a92a116a4807f48"),
           ("constant-one",
            "00de83498b128ef459547ed23fbac17621d4b7f5e602e1923141021d46372188",
            "dc149971805c99614d83e679c913c0c88d5a6310479b19996bf633885d910b43"),
           ("width-sweep",
            "4a1c9130bde10ac7edc5505a8e2602c661b50ca63b627ff3e27a18a88b73596f",
            "a554c1242ecf6af12a374f9cc6f414a2e827aebee67b80a9f0762b7e9221271f"))},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", list(GOLDEN_OUTPUTS))
def test_cli_outputs_match_their_golden_digests(tmp_path, run):
    command, overrides, digests = GOLDEN_OUTPUTS[run]
    out = tmp_path / "o"
    assert main([command, "--out", str(out), "--seed", "0",
                 *[arg for ov in overrides for arg in ("--override", ov)]]) == 0
    assert {name: _sha256((out / name).read_bytes()) for name in digests} == digests


@pytest.mark.parametrize("family", list(GOLDEN_GRAMS))
def test_cli_kernel_gram_files_match_their_golden_digests(tmp_path, family):
    arch, dataset, npkg, csv = GOLDEN_GRAMS[family]
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out), "--seed", "0", "--override", "kernel.n=16",
                 "--override", f"arch={json.dumps(arch)}",
                 "--override", f"dataset.kind={dataset}"]) == 0
    assert _sha256((out / "gram.npkg").read_bytes()) == npkg
    assert _sha256((out / "gram.csv").read_bytes()) == csv


@pytest.mark.parametrize("family", list(GOLDEN_MC))
def test_mc_samples_match_their_golden_digest(family):
    fields, sigma, digest = GOLDEN_MC[family]
    spec = ArchSpec(**fields)
    rng = make_rng(0, stream=1)
    pf = init_params(spec, rng)
    x = rng.normal(size=spec.d_in)
    x2 = x + 0.4 * rng.normal(size=spec.d_in)
    gx, gx2 = forward_relu(spec, pf, x).gates, forward_relu(spec, pf, x2).gates
    res = ntk_expectation_mc(spec, gx, gx2, x, x2, n_samples=100, rng=make_rng(0, stream=100),
                             sigma=sigma)
    assert _sha256(res.samples.tobytes()) == digest


def test_cli_unknown_dataset_param(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "u"),
                 "--override", 'dataset.params={"bogus": 1}']) == 2
    assert "'bogus'" in capsys.readouterr().err


def test_cli_train_non_finite_gradient(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "t"), "--override", "train.lr=1e300",
                 "--override", "train.epochs=2", "--override", "dataset.n=200"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "non-finite gradient for parameter 'v." in err


@pytest.mark.parametrize("spec,msg", [("arch.c_scale=NaN", "c_scale must be finite, got nan"),
                                      ("arch.beta=Infinity", "beta must be finite, got inf")])
def test_cli_train_non_finite_arch_scale(tmp_path, capsys, spec, msg):
    # a NaN c_scale once trained into a non-finite gradient and exited 1
    out = tmp_path / "t"
    assert main(["train", "--out", str(out), "--override", spec]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and msg in err
    assert not out.exists()


@pytest.mark.parametrize("args,msg", [
    # a non-finite lr once trained into a non-finite gradient and exited 1
    (["--override", "train.lr=NaN"], "train.lr must be finite, got nan"),
    (["--override", "train.lr=Infinity"], "train.lr must be finite, got inf"),
    (["--override", "train.lr=-1"], "train.lr must be positive, got -1"),
    (["--override", "train.momentum=1"], "train.momentum must be in [0, 1), got 1"),
    (["--override", "train.momentum=NaN"], "train.momentum must be in [0, 1), got nan"),
    # numpy's error for a negative seed named no key
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--override", "dataset.seed=-1"], "dataset.seed must be >= 0, got -1"),
    (["--override", "train.seed=-3"], "train.seed must be >= 0, got -3"),
    # the schedule is sgd's; adam once ran without it and exited 0
    (["--override", "train.use_schedule=true"],
     "train.use_schedule=true needs train.optimizer='sgd', got 'adam'"),
], ids=["lr_nan", "lr_inf", "lr_negative", "momentum_one", "momentum_nan", "cli_seed",
        "dataset_seed", "train_seed", "schedule_adam"])
def test_cli_train_names_bad_key(tmp_path, capsys, args, msg):
    out = tmp_path / "t"
    assert main(["train", "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and msg in err
    assert not out.exists()


def test_cli_kernel_refuses_an_array_too_large_to_allocate(tmp_path, capsys):
    # numpy refuses the 2.22 PiB weight draw at once, so nothing is allocated
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out), "--override", "arch.width=100000000",
                 "--override", "kernel.n=2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("dualview kernel: out of memory: ")
    assert not out.exists()


def test_cli_kernel_fails_a_gram_that_is_not_finite(tmp_path, capsys):
    # 400 skipped blocks overflow the res NPK; the eigenvalue check once ran on
    # the inf Gram and LAPACK's error exited 2
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out), "--override", "arch.family=res",
                 "--override", "arch.b=400", "--override", "arch.d_blk=1",
                 "--override", "kernel.n=4"]) == 1
    err = capsys.readouterr().err
    assert err == "dualview kernel: 16 of 16 gram entries are not finite\n"
    assert np.isinf(GramMatrix.load_csv(out / "gram.csv").matrix).all()
    assert (out / "gram.npkg").exists()


@pytest.mark.parametrize("arch, dataset", [
    ({"family": "fc", "d_in": 3, "depth": 4, "width": 16, "c_scale": 1e200}, "circles"),
    ({"family": "conv_gap", "d_in": 8, "w_cv": 3, "width": 4, "d_cv": 2, "d_fc": 2,
      "c_scale": 1e200}, "shifted_pulses"),
], ids=["fc", "conv_gap"])
def test_cli_kernel_fails_a_network_that_overflows(tmp_path, capsys, arch, dataset):
    # NaN pre-activations gated to 0, and an all-zero Gram passed with exit 0
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out), "--override", f"arch={json.dumps(arch)}",
                 "--override", f"dataset.kind={dataset}", "--override", "kernel.n=4"]) == 1
    assert capsys.readouterr().err == "dualview kernel: overflow encountered in matmul\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "train", "kernel", "experiment"])
@pytest.mark.parametrize("key", list(MINIMUM))
def test_cli_refuses_a_value_below_its_minimum(tmp_path, capsys, key, command):
    # each command once checked only the keys it reads itself
    low = MINIMUM[key]
    value = [low - 1] if isinstance(_default(key), list) else low - 1
    out = tmp_path / "o"
    assert main([command, "--out", str(out), "--override", f"{key}={json.dumps(value)}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"dualview {command}: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("spec,msg", [
    ("train.regime=SVM", "unknown train.regime 'SVM'"),
    ("train.lr=NaN", "train.lr must be finite, got nan"),
    ("train.optimizer=rmsprop", "train.optimizer must be 'adam' or 'sgd', got 'rmsprop'"),
], ids=["regime", "lr_nan", "optimizer"])
def test_cli_kernel_checks_the_train_section(tmp_path, capsys, spec, msg):
    # the train section once went unchecked by commands that do not train
    out = tmp_path / "k"
    assert main(["kernel", "--out", str(out), "--override", "kernel.n=4",
                 "--override", spec]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and msg in err
    assert not out.exists()


@pytest.mark.parametrize("fraction,side", [(0.999, "test"), (0.001, "train")])
def test_cli_train_empty_split(tmp_path, capsys, fraction, side):
    # an empty side once trained or evaluated on nothing and wrote NaN
    out = tmp_path / "t"
    assert main(["train", "--out", str(out), "--override", "dataset.n=50",
                 "--override", f"dataset.train_fraction={fraction}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"train_fraction {fraction} of n=50 samples leaves the {side} set empty" in err
    assert not out.exists()


# Every config key a `--override` can set: the sections, their keys and every
# ArchSpec field.
FUZZ_KEYS = sorted({*DEFAULT_CONFIG, *(f"arch.{f.name}" for f in fields(ArchSpec)),
                    *(f"{section}.{key}" for section, default in DEFAULT_CONFIG.items()
                      if isinstance(default, dict) for key in default)})
FUZZ_VALUES = [-1, 0, 1, 2.5, "x", None, True, [], {}]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
def test_cli_kernel_exits_cleanly_on_any_one_bad_key(tmp_path_factory, key, value):
    # one key at a time set to a value of each JSON type: the command runs,
    # fails its check or refuses the config in one line, never with a traceback
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["kernel", "--out", str(out), "--override", "kernel.n=4",
                     "--override", "dataset.n=20", "--override", f"{key}={json.dumps(value)}"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def test_cli_heap_policy_is_optional(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    cli._retain_heap()
    cli._retain_heap()
    assert calls == [(cli.M_TRIM_THRESHOLD, cli.HEAP_TRIM_THRESHOLD),
                     (cli.M_MMAP_THRESHOLD, cli.HEAP_MMAP_THRESHOLD)] * 2
    monkeypatch.undo()
    cli._retain_heap()  # the process's own C library, twice
    cli._retain_heap()

    def no_library(name):
        calls.append(name)
        raise OSError("no C library handle")

    def no_mallopt(name):
        calls.append(name)
        return SimpleNamespace()

    def outputs(name):
        report = json.loads((tmp_path / name / "train_report.json").read_text())
        del report["wall_clock_s"], report["eval_s"]
        return report, (tmp_path / name / "params.npz").read_bytes()

    # 400 samples put 320 in the train set: evaluate runs two row blocks
    argv = ["train", "--override", "train.epochs=2", "--override", "dataset.n=400"]
    assert main(argv + ["--out", str(tmp_path / "glibc")]) == 0
    for name, fake in (("oserror", no_library), ("no-mallopt", no_mallopt)):
        calls.clear()
        monkeypatch.setattr(ctypes, "CDLL", fake)
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        monkeypatch.undo()
        assert calls == [None]  # main asked for the process's own C library
        assert outputs(name) == outputs("glibc")


def test_cli_verify_npk_compares_nonzero_kernels(tmp_path):
    # probe inputs that share no active path have an NPK of exactly 0, and
    # then the npk record compares 0 with 0; fc gate correlations that are
    # all equal hide a permutation of the gated layers
    for seed in range(12):
        out = tmp_path / f"v{seed}"
        assert main(["verify", "--out", str(out), "--seed", str(seed),
                     "--override", "verify.mc_samples=100",
                     "--override", "verify.eq1_samples=2"]) == 0
        values = json.loads((out / "verify.json").read_text())["npk"]["values"]
        assert list(values) == ["fc", "conv", "res"] and all(v != 0 for v in values.values())
        arch, params, x, x2, *_ = cli._verify_probes(seed)["fc"]
        corr = gate_correlations(forward_relu(arch, params, x).gates,
                                 forward_relu(arch, params, x2).gates)
        assert len(set(corr.tolist())) == len(corr), (seed, corr)


@pytest.mark.parametrize("family, name", [("fc", "fc"), ("conv_gap", "conv"), ("res", "res")])
def test_cli_verify_fails_when_no_probe_draw_qualifies(tmp_path, capsys, monkeypatch,
                                                       family, name):
    closed_form = cli.npk
    monkeypatch.setattr(cli, "npk", lambda arch, *args: (
        0.0 if arch.family == family else closed_form(arch, *args)))
    assert main(["verify", "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert f"no {name} probe in {cli.PROBE_DRAWS} draws has a nonzero NPK" in err
    assert not (tmp_path / "v").exists()


def _misroute_step_1(table):
    """Gated step 1 reads layer 0's gates, so the NPK depends on the layer order."""
    table.gate_idx[1] -= table.arch.width


def _ungate_step_0(table):
    """Gated step 0 reads the constant 1 that pads the gates, so the NPK
    loses layer 0's gate information."""
    table.gate_idx[0] = table.arch.n_gate_layers() * table.arch.width


@pytest.mark.parametrize("record, fault", [("permutation", _misroute_step_1),
                                           ("constant_one", _ungate_step_0)])
def test_cli_verify_fc_table_records_catch_their_fault(tmp_path, monkeypatch, record, fault):
    enumerate_paths = cli.enumerate_paths

    def faulty(arch):
        table = enumerate_paths(arch)
        if arch.family == "fc":
            fault(table)
        return table

    monkeypatch.setattr(cli, "enumerate_paths", faulty)
    # the fc probe's gated layers have distinct gate correlations at every
    # seed, so the default seed shows either fault
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out), "--override", "verify.mc_samples=100",
                 "--override", "verify.eq1_samples=2"]) == 1
    assert not json.loads((out / "verify.json").read_text())[record]["passed"]


def _scale_npk(family, factor):
    """cli.npk with the values of one family's networks scaled by factor(x)."""
    closed_form = cli.npk
    return lambda arch, x, *args: closed_form(arch, x, *args) * (
        factor(x) if arch.family == family else 1.0)


def _misweigh_first_res_path(monkeypatch):
    """The res path table reads the wrong weight on step 0."""
    enumerate_paths = cli.enumerate_paths

    def faulty(arch):
        table = enumerate_paths(arch)
        if arch.family == "res":
            table.weight_idx[0] += 1
        return table

    monkeypatch.setattr(cli, "enumerate_paths", faulty)


@pytest.mark.parametrize("failing, fault", [
    # an NPK that depends on where the conv input starts is not rotation
    # invariant, and no longer the table's <phi, phi'>
    ({"rotation", "npk"}, lambda mp: mp.setattr(
        cli, "npk", _scale_npk("conv_gap", lambda x: 1 + 1e-3 * x[0]))),
    ({"npk"}, lambda mp: mp.setattr(cli, "npk", _scale_npk("res", lambda x: 1 + 1e-6))),
    ({"path_identity"}, _misweigh_first_res_path),
], ids=["rotation", "npk", "path_identity"])
def test_cli_verify_records_catch_their_fault(tmp_path, monkeypatch, failing, fault):
    # the fault named by the id fails its record, and no record it does not touch
    fault(monkeypatch)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out), "--override", "verify.mc_samples=100",
                 "--override", "verify.eq1_samples=2"]) == 1
    report = json.loads((out / "verify.json").read_text())
    assert {k for k, r in report.items() if not r["passed"]} == failing
