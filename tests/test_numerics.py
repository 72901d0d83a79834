import itertools
import numpy as np
import pytest
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_grad

from dualview import autodiff as ad
from dualview.autodiff import Node, NondifferentiablePointWarning, backward
from dualview.numerics import (
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
    # NaN passed a `sigma <= 0` check and made every weight NaN
    for sigma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="sigma must be finite"):
            init_bernoulli((3,), sigma, make_rng(0))


def test_init_bernoulli_needs_philox():
    with pytest.raises(ValueError, match="Philox generator, got PCG64"):
        init_bernoulli((3,), 1.0, np.random.default_rng(0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_init_bernoulli_magnitude_property(seed):
    w = init_bernoulli((4, 5), 0.7, make_rng(seed))
    assert np.all(np.abs(w) == 0.7)


def _raw_word_values(words, n, sigma):
    """The first n values of a draw from raw Philox `words`: value i is
    +sigma where bit i % 64 of word i // 64 is set, by integer bit ops."""
    return np.array([sigma if (int(words[i // 64]) >> (i % 64)) & 1 else -sigma
                     for i in range(n)])


def _n_words(shape):
    return -(-int(np.prod(shape)) // 64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=3),
                                           min_size=1, max_size=4),
       st.floats(1e-3, 10.0))
def test_init_bernoulli_reads_raw_words_lsb_first(seed, shapes, sigma):
    # consecutive calls on one generator, sizes within one word and across
    # several: each call starts on a fresh word and drops the unused high
    # bits of its last one
    rng = make_rng(seed)
    words = make_rng(seed).bit_generator.random_raw(sum(_n_words(shape) for shape in shapes))
    for shape in shapes:
        want = _raw_word_values(words, int(np.prod(shape)), sigma).reshape(shape)
        assert init_bernoulli(shape, sigma, rng).tobytes() == want.tobytes()
        words = words[_n_words(shape):]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.integers(1, 7), min_size=1, max_size=3), min_size=1, max_size=4),
       st.booleans(), st.floats(1e-3, 10.0))
def test_init_bernoulli_keeps_the_uint32_stream(seed, shapes, buffered, sigma):
    # sizes odd and even, 1 included, from a generator with or without a
    # half-word buffered on entry: the same bytes as the words the reference
    # reads, and the same stream afterwards
    rng, ref = make_rng(seed), make_rng(seed)
    if buffered:
        assert rng.integers(0, 2, 1, dtype=np.uint32) == ref.integers(0, 2, 1, dtype=np.uint32)
    for shape in shapes:
        want = _raw_word_values(ref.bit_generator.random_raw(_n_words(shape)),
                                int(np.prod(shape)), sigma).reshape(shape)
        assert init_bernoulli(shape, sigma, rng).tobytes() == want.tobytes()
    if buffered:
        # the half-word buffered before the draws comes next: word 0's high half
        first_word = int(make_rng(seed).bit_generator.random_raw(1)[0])
        assert rng.integers(0, 2**32, dtype=np.uint32) == first_word >> 32
        assert ref.integers(0, 2**32, dtype=np.uint32) == first_word >> 32
    # then odd uint32, int64 and float draws, across a buffered half-word
    for args in ((0, 2**32, 3, np.uint32), (0, 2**40, 5, np.int64)):
        assert np.array_equal(rng.integers(*args), ref.integers(*args))
    assert rng.random() == ref.random()


def test_init_bernoulli_uses_every_bit_position():
    # 4096 words: each of the 64 bit positions is +sigma about half the time,
    # which fails an unpack that reads only some of each word's bytes
    w = init_bernoulli((4096, 64), 0.5, make_rng(11))
    share = np.mean(w > 0, axis=0)
    assert np.all(np.abs(share - 0.5) <= 0.05), share


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
        s = ad.mul(ad.add(nodes["a"], ad.mul(nodes["a"], nodes["b"])), Node(np.full((2, 3), 0.5)))
        return ad.matmul(ad.matmul(Node(np.ones((1, 2))), s), Node(np.ones((3, 1))))

    _fd_check(forward, params)


def test_reshape_grad(rng):
    # a (2, 6) parameter read as (3, 4), with a different weight per entry
    params = {"a": rng.normal(size=(2, 6))}
    readout = rng.normal(size=(3, 4))

    def forward(nodes):
        q = ad.mul(ad.reshape(nodes["a"], (3, 4)), Node(readout))
        return ad.matmul(Node(np.ones((1, 3))), ad.matmul(q, Node(np.ones((4, 1)))))

    _fd_check(forward, params)
    a = params["a"]
    assert ad.reshape(a, (3, -1)).parents == ()
    assert ad.reshape(a, (3, -1)).value.tobytes() == a.tobytes()


def test_mul_rejects_broadcasting():
    with pytest.raises(ValueError):
        ad.mul(Node(np.ones((2, 3))), Node(np.ones(3)))


def test_node_values_are_float64_arrays():
    # a float64 ndarray is kept as is; any other value is converted
    a = np.ones((2, 3))
    assert Node(a).value is a
    for value in (np.arange(3), np.ones(3, dtype=">f8"), np.ones(3, dtype=np.float32), [1, 2],
                  2.5, np.float64(2.5)):
        v = Node(value).value
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.dtype.isnative
        assert np.array_equal(v, np.asarray(value, dtype=np.float64))


def test_only_node_operands_become_parents(rng):
    a, w = rng.normal(size=(2, 3)), Node(rng.normal(size=(3, 4)))
    assert ad.matmul(a, w).parents == (w,)
    x = Node(a)
    assert ad.matmul(x, w.value).parents == (x,)
    assert ad.add(x, a).parents == (x,)
    assert ad.mul(a, a).parents == ()
    assert ad.logistic(a, 2.0).parents == ()
    z, theta = rng.normal(size=(2, 5, 3)), Node(rng.normal(size=(2, 3, 4)))
    assert ad.conv_circular(z, theta).parents == (theta,)
    # a constant operand changes neither the value nor the other's cotangent
    for op, const, node in ((ad.matmul, a, w), (ad.conv_circular, z, theta)):
        mixed, wrapped = op(const, node), op(Node(const), node)
        assert mixed.value.tobytes() == wrapped.value.tobytes()
        assert backward(mixed)[id(node)].tobytes() == backward(wrapped)[id(node)].tobytes()


def _conv_loop(z, theta, g):
    """conv_circular's docstring formula and its two VJPs for the output
    cotangent g, as loops: q[n, p, j] = sum_{c, i} theta[c, i, j] z[n, (p + c) % d, i]."""
    n_b, d, _ = z.shape
    q = np.zeros(z.shape[:2] + theta.shape[2:])
    dz, dtheta = np.zeros_like(z), np.zeros_like(theta)
    for n, p, c, i, j in itertools.product(range(n_b), range(d), *map(range, theta.shape)):
        q[n, p, j] += theta[c, i, j] * z[n, (p + c) % d, i]
        dz[n, (p + c) % d, i] += theta[c, i, j] * g[n, p, j]
        dtheta[c, i, j] += z[n, (p + c) % d, i] * g[n, p, j]
    return q, dz, dtheta


def test_conv_circular_values(rng):
    z = rng.normal(size=(2, 5, 3))
    theta = rng.normal(size=(2, 3, 4))
    q = ad.conv_circular(Node(z), Node(theta)).value
    expect = _conv_loop(z, theta, np.zeros((2, 5, 4)))[0]
    assert np.allclose(q, expect, atol=1e-12)


@st.composite
def conv_case(draw):
    d_in = draw(st.integers(2, 9))
    n = draw(st.integers(1, 4))
    w_cv = draw(st.one_of(st.just(d_in - 1), st.integers(1, d_in - 1)))  # widest filter
    c_in = draw(st.one_of(st.just(1), st.integers(1, 5)))  # the input layer's channels
    c_out = draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**16)))
    return (rng.normal(size=(n, d_in, c_in)), rng.normal(size=(w_cv, c_in, c_out)),
            rng.normal(size=(n, d_in, c_out)))


@settings(max_examples=100, deadline=None)
@given(conv_case())
def test_conv_circular_matches_loop_reference(case):
    z, theta, g = case
    out = ad.conv_circular(Node(z), Node(theta))
    got = (out.value, out.vjps[0](g), out.vjps[1](g))
    # the loop over |terms| bounds the rounding error of each entry's sum
    scales = _conv_loop(np.abs(z), np.abs(theta), np.abs(g))
    for value, expect, scale in zip(got, _conv_loop(z, theta, g), scales):
        assert value.shape == expect.shape
        assert np.all(np.abs(value - expect) <= 1e-12 * scale)


def _conv_roll(z, theta, g):
    """conv_circular's per-tap matmuls with the taps shifted by np.roll: the
    value and both VJPs for the output cotangent g."""
    w_cv, c_in, c_out = theta.shape
    taps = [(np.roll(z, -c, axis=1) if c else z).reshape(-1, c_in) for c in range(w_cv)]
    q = taps[0] @ theta[0]
    for c in range(1, w_cv):
        q += taps[c] @ theta[c]
    g2 = g.reshape(-1, c_out)
    dz = (g2 @ theta[0].T).reshape(z.shape)
    for c in range(1, w_cv):
        dz += np.roll((g2 @ theta[c].T).reshape(z.shape), c, axis=1)
    dtheta = np.stack([t.T @ g2 for t in taps])
    return q.reshape(*z.shape[:2], c_out), dz, dtheta


@settings(max_examples=100, deadline=None)
@given(conv_case())
def test_conv_circular_matches_roll_reference_bit_for_bit(case):
    z, theta, g = case
    out = ad.conv_circular(Node(z), Node(theta))
    got = (out.value, out.vjps[0](g), out.vjps[1](g))
    for value, expect in zip(got, _conv_roll(z, theta, g)):
        assert value.shape == expect.shape and value.tobytes() == expect.tobytes()


def test_conv_circular_grad(rng):
    # a batch of 3 and 3 taps, read out with a weight per (n, p, j): a
    # batch-mixing or shift-direction bug changes the value
    z = rng.normal(size=(3, 5, 2))
    params = {"theta": rng.normal(size=(3, 2, 3)), "zp": z}
    readout = rng.normal(size=(3, 5, 3))

    def forward(nodes):
        q = ad.mul(ad.conv_circular(nodes["zp"], nodes["theta"]), Node(readout))
        pooled = ad.global_avg_pool(q)
        return ad.matmul(Node(np.ones((1, 3))), ad.matmul(pooled, Node(np.ones((3, 1)))))

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
    out = ad.mul(a, Node(np.full((1, 2), 3.0)))
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
