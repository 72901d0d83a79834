"""Span accounting self-test for the benchmark's tracer.

Tracing must leave every output bit-identical, nest child spans inside their
parents, make self times add up to the root span's duration, and put every
rebound name back when it is closed. Small sizes keep this fast; the
benchmark runs the same code at full size.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import dualview  # noqa: E402
from perfbench import spans, workloads  # noqa: E402

SMALL_MC = (
    ({"family": "fc", "d_in": 3, "depth": 3, "width": 16}, 100, 0.5),
    ({"family": "conv_gap", "d_in": 5, "w_cv": 2, "width": 8, "d_cv": 1, "d_fc": 2}, 100, 0.3),
    ({"family": "res", "d_in": 3, "b": 2, "d_blk": 1, "width": 8}, 100, 0.4),
)


def bindings() -> dict:
    """Every attribute of every loaded dualview module, plus the extra hooks."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "dualview" or name.startswith("dualview."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out["eigvalsh"] = np.linalg.eigvalsh
    out["node_init"] = dualview.autodiff.Node.__dict__["__init__"]
    out["save_csv"] = dualview.kernels.GramMatrix.__dict__["save_csv"]
    return out


def traced(fn):
    before = bindings()
    tracer = spans.Tracer()
    with tracer:
        with tracer.root("bench.op"):
            out = fn()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "tracer left a name rebound"
    return tracer, out


def assert_span_tree(tracer):
    a = tracer.arrays()
    assert a["dur"].size > 0
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert np.all(a["start"][child] >= a["start"][parent])
    assert np.all(a["end"][child] <= a["end"][parent])
    # self = duration minus direct children's durations: children never
    # exceed their parent
    assert np.all(a["self"] >= 0.0)
    for op_id, (_, root) in enumerate(tracer.ops):
        in_op = a["op"] == op_id
        assert a["parent"][root] == -1 and np.all(a["parent"][in_op][1:] >= root)
        assert abs(a["self"][in_op].sum() - a["dur"][root]) <= 1e-9 * a["dur"][root]


def test_traced_gram_is_bit_identical(tmp_path):
    n = 12
    plain = workloads.GramFc(3, str(tmp_path / "plain"), n=n)
    traced_wl = workloads.GramFc(3, str(tmp_path / "traced"), n=n)
    plain.setup()
    traced_wl.setup()
    assert plain.op()[0] == 0
    tracer, result = traced(traced_wl.op)
    assert result[0] == 0
    for name in ("gram.csv", "gram.npkg"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    assert traced_wl.check(result) == []
    assert_span_tree(tracer)

    (op,) = tracer.op_summaries("bench.op")
    assert op["calls"]["cli.main"] == 1
    assert op["calls"]["arch.forward_relu"] == n * (n + 1)  # n + 1 forward passes per input
    assert op["calls"]["kernels.npk_fc"] == n * (n + 1) // 2
    assert op["calls"][spans.EIGVALSH] == 3
    written = sum((tmp_path / "traced" / f).stat().st_size for f in ("gram.csv", "gram.npkg"))
    assert op["io_bytes"] == written
    assert op["nodes"] > 0 and op["flops"]["autodiff.matmul"] > 0


def test_traced_mc_samples_are_bit_identical(tmp_path):
    wl = workloads.NtkMc(5, str(tmp_path), cases=SMALL_MC)
    wl.setup()
    plain = wl.op()
    tracer, again = traced(wl.op)
    for (_, _, a), (_, _, b) in zip(plain, again):
        assert np.array_equal(a.samples, b.samples)
    assert wl.check(plain) == []
    assert wl.check(again) == []
    assert_span_tree(tracer)

    (op,) = tracer.op_summaries("bench.op")
    assert op["calls"]["kernels.ntk_expectation_mc"] == len(SMALL_MC)
    assert op["calls"]["kernels.ntk_fixed_gates"] == 300
    assert op["calls"]["autodiff.backward"] == 600
    assert op["calls"][spans.CONV_VJP] > 0
    assert op["flops"]["autodiff.conv_circular"] > 0


def test_traced_training_is_bit_identical(tmp_path):
    plain = workloads.TrainConv(4, str(tmp_path / "plain"), epochs=2)
    traced_wl = workloads.TrainConv(4, str(tmp_path / "traced"), epochs=2)
    plain.setup()
    traced_wl.setup()
    assert plain.op()[0] == 0
    tracer, result = traced(traced_wl.op)
    assert result[0] == 0
    assert (tmp_path / "plain" / "params.npz").read_bytes() == \
        (tmp_path / "traced" / "params.npz").read_bytes()
    assert_span_tree(tracer)

    (op,) = tracer.op_summaries("bench.op")
    assert op["calls"]["training.train"] == 1
    assert op["calls"]["training.evaluate"] == 2 * 2 + 1  # train and test per epoch, final test
    assert 0.0 < op["total_s"]["training.evaluate"] < op["total_s"]["training.train"]
