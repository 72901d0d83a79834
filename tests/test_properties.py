"""Property tests over randomly drawn small architectures and batch sizes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import normal_params

from dualview.arch import ArchSpec, forward_gated, forward_relu
from dualview.numerics import make_rng


@st.composite
def small_arch(draw):
    family = draw(st.sampled_from(["fc", "conv_gap", "res"]))
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
