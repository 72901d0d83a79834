import numpy as np
import pytest
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from dualview import autodiff as ad
from dualview.autodiff import Node, NondifferentiablePointWarning, backward
from dualview.numerics import (
    finite_diff_grad,
    grad,
    init_bernoulli,
    make_rng,
)


def test_make_rng_deterministic():
    a = make_rng(7).normal(size=10)
    b = make_rng(7).normal(size=10)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(7, stream=0).normal(size=10)
    b = make_rng(7, stream=1).normal(size=10)
    assert not np.array_equal(a, b)


def test_init_bernoulli_values():
    w = init_bernoulli((50, 50), 0.3, make_rng(0))
    assert set(np.unique(w)) == {-0.3, 0.3}
    # roughly balanced signs
    assert 0.4 < np.mean(w > 0) < 0.6


def test_init_bernoulli_rejects_bad_sigma():
    with pytest.raises(ValueError):
        init_bernoulli((3,), 0.0, make_rng(0))
    with pytest.raises(ValueError):
        init_bernoulli((3,), -1.0, make_rng(0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_init_bernoulli_magnitude_property(seed):
    w = init_bernoulli((4, 5), 0.7, make_rng(seed))
    assert np.all(np.abs(w) == 0.7)


# -- autodiff ops against finite differences -------------------------------


def _fd_check(forward, params, tol=1e-7):
    g = grad(forward, params)
    fd = finite_diff_grad(forward, params, step=1e-6)
    assert np.linalg.norm(g - fd) <= tol * max(1.0, np.linalg.norm(fd))


def test_matmul_grad(rng):
    params = {"w": rng.normal(size=(3, 2)), "u": rng.normal(size=(2, 1))}
    x = rng.normal(size=(1, 3))

    def forward(nodes):
        return ad.matmul(ad.matmul(Node(x), nodes["w"]), nodes["u"])

    _fd_check(forward, params)


def test_mul_add_scale_grad(rng):
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 3))}

    def forward(nodes):
        s = ad.scale(ad.add(nodes["a"], ad.mul(nodes["a"], nodes["b"])), 0.5)
        return ad.matmul(ad.matmul(Node(np.ones((1, 2))), s), Node(np.ones((3, 1))))

    _fd_check(forward, params)


def test_mul_rejects_broadcasting():
    with pytest.raises(ValueError):
        ad.mul(Node(np.ones((2, 3))), Node(np.ones(3)))


def test_conv_circular_values(rng):
    # q[n, p, j] = sum_{c, i} theta[c, i, j] z[n, (p + c) % d, i]
    z = rng.normal(size=(2, 5, 3))
    theta = rng.normal(size=(2, 3, 4))
    q = ad.conv_circular(Node(z), Node(theta)).value
    expect = np.zeros((2, 5, 4))
    for n in range(2):
        for p in range(5):
            for j in range(4):
                for c in range(2):
                    for i in range(3):
                        expect[n, p, j] += theta[c, i, j] * z[n, (p + c) % 5, i]
    assert np.allclose(q, expect, atol=1e-12)


def test_conv_circular_grad(rng):
    z = rng.normal(size=(1, 4, 2))
    params = {"theta": rng.normal(size=(2, 2, 3)), "zp": z}

    def forward(nodes):
        q = ad.conv_circular(nodes["zp"], nodes["theta"])
        pooled = ad.global_avg_pool(q)
        return ad.matmul(pooled, Node(np.ones((3, 1))))

    _fd_check(forward, params)


def test_logistic_grad(rng):
    params = {"q": rng.normal(size=(1, 4))}

    def forward(nodes):
        return ad.matmul(ad.logistic(nodes["q"], 10.0), Node(np.ones((4, 1))))

    _fd_check(forward, params)


def test_hard_gate_warns_on_tie():
    with pytest.warns(NondifferentiablePointWarning):
        ad.hard_gate_values(np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.hard_gate_values(np.array([0.5, 1.0]))


def test_backward_accumulates_shared_node():
    a = Node(np.array([[2.0]]))
    out = ad.add(ad.mul(a, a), a)  # f = a^2 + a, df/da = 2a + 1 = 5
    grads = backward(out)
    assert np.allclose(grads[id(a)], 5.0)


def test_backward_custom_seed():
    a = Node(np.array([[1.0, 2.0]]))
    out = ad.scale(a, 3.0)
    grads = backward(out, seed=np.array([[1.0, 10.0]]))
    assert np.allclose(grads[id(a)], [[3.0, 30.0]])


def test_grad_rejects_nonscalar(rng):
    params = {"w": rng.normal(size=(2, 2))}
    with pytest.raises(ValueError):
        grad(lambda nodes: nodes["w"], params)


def test_grad_subset_and_unused(rng):
    params = {"w": rng.normal(size=(2, 1)), "dead": rng.normal(size=(3,))}

    def forward(nodes):
        return ad.matmul(Node(np.ones((1, 2))), nodes["w"])

    full = grad(forward, params)
    assert np.allclose(full[2:], 0.0)  # unused parameter gets zero gradient
