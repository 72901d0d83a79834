import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_SMALL, CONV_SMALL, FC_SMALL, RES_SMALL, normal_params

from dualview import kernels
from dualview.arch import ArchSpec, forward_relu, weight_layer_specs
from dualview.kernels import (
    GRAM_CAP,
    GramMatrix,
    conv_overlap_counts,
    dataset_fingerprint,
    gate_correlations,
    gram,
    mc_target,
    npk,
    npk_conv_rotsum,
    npk_fc,
    npk_res_ensemble,
    ntk_expectation_mc,
    ntk_fixed_gates,
    rot,
)
from dualview.numerics import make_rng
from dualview.paths import dual_vectors, enumerate_paths, overlap_vector


def _pair(arch, seed, spread=0.4):
    rng = make_rng(seed, stream=31)
    p = normal_params(arch, rng)
    x = rng.normal(size=arch.d_in)
    x2 = x + spread * rng.normal(size=arch.d_in)
    gx = forward_relu(arch, p, x).gates
    gx2 = forward_relu(arch, p, x2).gates
    return p, x, x2, gx, gx2


def test_rot_composition():
    x = np.arange(7.0)
    assert np.array_equal(rot(rot(x, 2), 3), rot(x, 5))
    assert np.array_equal(rot(x, 7), x)
    assert rot(x, 1)[0] == x[1]


def test_kernel_constants():
    # the width-limit constants, read as mc_target / npk ratios
    def ratio(arch, gx, gx2):
        x = np.arange(1.0, arch.d_in + 1)
        return mc_target(arch, x, x, gx, gx2) / npk(arch, x, x, gx, gx2)

    arch = ArchSpec(family="fc", d_in=3, depth=3, width=16, c_scale=2.0)
    assert arch.init_sigma("fc") == 0.5
    _, _, _, gx, gx2 = _pair(arch, 0)
    assert np.isclose(ratio(arch, gx, gx2), 3 * 0.5**4)
    conv = ArchSpec(family="conv_gap", d_in=5, w_cv=4, width=4, d_cv=2, d_fc=1)
    assert conv.init_sigma("conv") == 1.0 / 4.0
    _, _, _, gx, gx2 = _pair(conv, 0)
    # beta_cv = d_cv s_cv^(2(d_cv-1)) s_fc^(2 d_fc) + d_fc s_cv^(2 d_cv) s_fc^(2(d_fc-1))
    s_cv, s_fc = conv.init_sigma("conv"), conv.init_sigma("fc")
    assert np.isclose(ratio(conv, gx, gx2), 2 * s_cv**2 * s_fc**2 + 1 * s_cv**4)

    # res: blocks 0 and 3 always on, blocks 1 and 2 on when listed; the mixed
    # difference over blocks 1 and 2 keeps only the sub-FCN that includes both
    res = ArchSpec(family="res", d_in=3, b=2, d_blk=2, width=4)
    x = np.arange(1.0, 4.0)

    def gates(on):
        return [np.full(4, float(l // 2 in (0, 3, *on))) for l in range(res.n_gate_layers())]

    def mixed(f):
        return f(gates((1, 2))) - f(gates((1,))) - f(gates((2,))) + f(gates(()))

    def target(g):
        return mc_target(res, x, x, g, g, sigma=0.5)

    def kernel(g):
        return npk(res, x, x, g, g)

    # depth of mask J is (|J| + 2) d_blk
    assert np.isclose(target(gates(())) / kernel(gates(())), 4 * 0.5**6)
    assert np.isclose(mixed(target) / mixed(kernel), 8 * 0.5**14)


def test_npk_fc_matches_brute_force():
    arch = ArchSpec(family="fc", d_in=3, depth=4, width=4)
    p, x, x2, gx, gx2 = _pair(arch, 1)
    table = enumerate_paths(arch)
    brute = float(
        dual_vectors(arch, p, x, gx, table=table).npf
        @ dual_vectors(arch, p, x2, gx2, table=table).npf
    )
    assert abs(npk_fc(x, x2, gx, gx2) - brute) <= 1e-9 * (1 + abs(brute))


def test_product_structure_and_permutation_invariance():
    # overlap = prod_l <G_l, G_l'> as exact integers; invariant to layer order
    arch = ArchSpec(family="fc", d_in=3, depth=4, width=4)
    table = enumerate_paths(arch)
    for seed in range(10):
        _, x, x2, gx, gx2 = _pair(arch, seed)
        corr = gate_correlations(gx, gx2)
        assert np.array_equal(corr, np.round(corr))
        o = overlap_vector(gx, gx2, table)[0]
        assert o == int(np.prod(corr))
        base = float(np.prod(corr))
        for perm in itertools.permutations(range(len(corr))):
            assert abs(float(np.prod(corr[list(perm)])) - base) <= 1e-12


def test_conv_overlap_counts_match_enumeration():
    p, x, x2, gx, gx2 = _pair(CONV_SMALL, 2)
    table = enumerate_paths(CONV_SMALL)
    dp = conv_overlap_counts(CONV_SMALL, gx, gx2)
    for i in range(CONV_SMALL.d_in):
        assert dp[i] == overlap_vector(gx, gx2, table)[i]


def test_conv_rotsum_equals_bundle_brute_force():
    p, x, x2, gx, gx2 = _pair(CONV_SMALL, 3)
    table = enumerate_paths(CONV_SMALL)
    brute = float(
        dual_vectors(CONV_SMALL, p, x, gx, table=table).npf
        @ dual_vectors(CONV_SMALL, p, x2, gx2, table=table).npf
    )
    rotsum = npk_conv_rotsum(CONV_SMALL, x, x2, gx, gx2)
    assert abs(rotsum / CONV_SMALL.d_in**2 - brute) <= 1e-9 * (1 + abs(brute))


def test_conv_rotsum_rotation_invariant():
    p, x, x2, gx, gx2 = _pair(CONV_SMALL, 4)

    def gates(xx):
        return forward_relu(CONV_SMALL, p, xx).gates

    base = npk_conv_rotsum(CONV_SMALL, x, x2, gx, gx2)
    for s in range(1, CONV_SMALL.d_in):
        xs, x2s = rot(x, s), rot(x2, s)
        shifted = npk_conv_rotsum(CONV_SMALL, xs, x2s, gates(xs), gates(x2s))
        assert abs(shifted - base) <= 1e-9 * (1 + abs(base))


def test_res_ensemble_matches_brute_force():
    p, x, x2, gx, gx2 = _pair(RES_SMALL, 5)
    table = enumerate_paths(RES_SMALL)
    brute = float(
        dual_vectors(RES_SMALL, p, x, gx, table=table).npf
        @ dual_vectors(RES_SMALL, p, x2, gx2, table=table).npf
    )
    total = npk_res_ensemble(RES_SMALL, x, x2, gx, gx2)
    assert abs(total - brute) <= 1e-9 * (1 + abs(brute))


def test_ntk_fixed_gates_symmetric_psd_diag():
    arch = FC_SMALL
    p, x, x2, gx, gx2 = _pair(arch, 6)
    k12 = ntk_fixed_gates(arch, p, gx, gx2, x, x2)
    k21 = ntk_fixed_gates(arch, p, gx2, gx, x2, x)
    assert abs(k12 - k21) <= 1e-10
    assert ntk_fixed_gates(arch, p, gx, gx, x, x) >= 0.0


@pytest.mark.parametrize(
    "arch,sigma",
    [
        (ArchSpec(family="fc", d_in=3, depth=2, width=64), 0.5),
        (ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=32, d_cv=1, d_fc=2), 0.3),
        (ArchSpec(family="res", d_in=3, b=1, d_blk=1, width=32), 0.4),
    ],
    ids=lambda v: v.family if isinstance(v, ArchSpec) else "",
)
def test_mc_ntk_matches_target(arch, sigma):
    rng = make_rng(7, stream=32)
    p = normal_params(arch, rng)
    x = rng.normal(size=arch.d_in)
    x2 = x + 0.4 * rng.normal(size=arch.d_in)

    gx, gx2 = forward_relu(arch, p, x).gates, forward_relu(arch, p, x2).gates
    target = mc_target(arch, x, x2, gx, gx2, sigma=sigma)
    res = ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=300,
                             rng=make_rng(8, stream=33), sigma=sigma)
    assert res.within(target, 4.0)  # generous bound for a single smoke trial


@pytest.mark.parametrize("sigma", [None, 0.7], ids=["default_sigma", "sigma"])
@pytest.mark.parametrize("arch", [
    ArchSpec(family="fc", d_in=2, depth=3, width=2),
    ArchSpec(family="conv_gap", d_in=3, w_cv=2, width=2, d_cv=1, d_fc=2),
    ArchSpec(family="conv_gap", d_in=4, w_cv=3, width=1, d_cv=2, d_fc=2),
    ArchSpec(family="res", d_in=2, b=1, d_blk=1, width=2),
    ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=1),
], ids=["fc", "conv_gap-d_cv1", "conv_gap-d_cv2", "res-b1", "res-b2"])
def test_mc_target_is_the_exact_sign_pattern_mean(arch, sigma):
    # the NTK averaged over every +/-sigma sign pattern of the weights is
    # the expectation itself, so it must equal the limit up to round-off
    specs = [(name, shape, arch.init_sigma(kind) if sigma is None else sigma)
             for name, shape, kind in weight_layer_specs(arch)]
    sizes = [math.prod(shape) for _, shape, _ in specs]
    assert sum(sizes) <= 12
    rng = make_rng(5, stream=37)
    x = rng.normal(size=arch.d_in)
    x2 = x + 0.4 * rng.normal(size=arch.d_in)
    gx, gx2 = ([(rng.random(shape) < 0.8).astype(float) for shape in arch.gate_layer_shapes()]
               for _ in range(2))
    for g in gx + gx2:
        g.flat[0] = 1.0  # a path active for both inputs keeps the target off 0
    target = mc_target(arch, x, x2, gx, gx2, sigma=sigma)
    assert abs(target) > 1e-3 * np.linalg.norm(x) * np.linalg.norm(x2)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=sum(sizes)):
        chunks = np.split(np.array(signs), np.cumsum(sizes)[:-1])
        params = {name: s * c.reshape(shape) for (name, shape, s), c in zip(specs, chunks)}
        total += ntk_fixed_gates(arch, params, gx, gx2, x, x2)
    mean = total / 2 ** sum(sizes)
    assert abs(mean - target) <= 1e-12 * abs(target)


@pytest.mark.parametrize("sigma,msg", [(float("nan"), "sigma must be finite, got nan"),
                                       (-0.5, "sigma must be positive, got -0.5")],
                         ids=["nan", "negative"])
def test_mc_target_rejects_bad_sigma(sigma, msg):
    # a negative sigma once gave the target of its absolute value, NaN a NaN
    _, x, x2, gx, gx2 = _pair(FC_SMALL, 9)
    with pytest.raises(ValueError, match=msg):
        mc_target(FC_SMALL, x, x2, gx, gx2, sigma=sigma)


def test_mc_requires_enough_samples():
    arch = FC_SMALL
    p, x, x2, gx, gx2 = _pair(arch, 9)
    with pytest.raises(ValueError):
        ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=50, rng=make_rng(0))


# -- Gram matrices ----------------------------------------------------------


def _toy_gram(n=8, seed=0):
    rng = make_rng(seed, stream=34)
    X = rng.normal(size=(n, 3))
    return gram(X, lambda a, b: float(a @ b), tag="linear"), X


def test_gram_psd_and_symmetric():
    g, X = _toy_gram()
    assert g.is_symmetric()
    assert g.is_psd()
    assert g.min_eigenvalue() >= g.psd_floor()
    assert g.fingerprint == dataset_fingerprint(X)


def test_gram_cap():
    X = np.zeros((GRAM_CAP + 1, 2))
    with pytest.raises(ValueError, match="exceeds gram cap"):
        gram(X, lambda a, b: 0.0, tag="t")


def test_gram_rejects_whitespace_tag_before_any_kernel_call():
    calls = []

    def kernel(a, b):
        calls.append(1)
        return float(a @ b)

    with pytest.raises(ValueError, match="whitespace"):
        gram(np.ones((3, 2)), kernel, tag="a b")
    assert calls == []


def test_gram_raises_the_kernel_error_itself():
    # a ValueError reaches the CLI as a usage error, not wrapped in a traceback
    err = ValueError("bad pair")

    def kernel(a, b):
        raise err

    with pytest.raises(ValueError) as info:
        gram(np.ones((2, 2)), kernel, tag="t")
    assert info.value is err


def test_gram_csv_roundtrip(tmp_path):
    g, _ = _toy_gram()
    path = tmp_path / "g.csv"
    g.save_csv(path)
    back = GramMatrix.load_csv(path)
    assert back.tag == g.tag and back.fingerprint == g.fingerprint
    assert np.max(np.abs(back.matrix - g.matrix)) <= 1e-12


def test_gram_npkg_roundtrip(tmp_path):
    g, _ = _toy_gram()
    path = tmp_path / "g.npkg"
    g.save_npkg(path)
    back = GramMatrix.load_npkg(path, tag=g.tag)
    assert np.array_equal(back.matrix, g.matrix)  # binary format is exact
    with open(path, "rb") as fh:
        assert fh.read(4) == b"NPKG"


def test_gram_npkg_bad_magic(tmp_path):
    path = tmp_path / "bad.npkg"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        GramMatrix.load_npkg(path)


@pytest.mark.parametrize("header", ["# tag=t", "# n=1", "# tag=t n=1 stray"],
                         ids=["no_n", "no_tag", "token_without_equals"])
def test_gram_csv_malformed_header(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1\n")
    with pytest.raises(ValueError, match=f"gram header '{header}' needs key=value tokens, tag, n"):
        GramMatrix.load_csv(path)


def test_gram_csv_non_integer_n(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# tag=t n=x\n1\n")
    with pytest.raises(ValueError, match=r"bad\.csv: gram header n='x' is not an integer"):
        GramMatrix.load_csv(path)


def test_gram_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# tag=t n=2\n1,0\n0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3 has 1 values, not n=2"):
        GramMatrix.load_csv(path)


def test_gram_csv_non_numeric_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# tag=t n=2\n1,0\n0,one\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: could not convert string to float"):
        GramMatrix.load_csv(path)


def test_gram_npkg_payload_length(tmp_path):
    g, _ = _toy_gram(n=2)
    path = tmp_path / "g.npkg"
    g.save_npkg(path)
    data = path.read_bytes()
    # the last header claims a matrix of 2^67 bytes: the size check reads none of it
    for bad, n in ((data + b"\x00", 2), (data[:-1], 2), (b"NPKG\x00\x00", 0),
                   (b"NPKG\xff\xff\xff\xff", 2**32 - 1)):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"file size does not fit the header's n={n}"):
            GramMatrix.load_npkg(path)


def test_npk_gram_psd():
    arch = FC_SMALL
    rng = make_rng(3, stream=36)
    p = normal_params(arch, rng)
    X = rng.normal(size=(16, 3))

    def kernel(a, b):
        return npk_fc(a, b, forward_relu(arch, p, a).gates, forward_relu(arch, p, b).gates)

    g = gram(X, kernel, tag="npk")
    assert g.is_symmetric() and g.is_psd()


def test_kernels_module_does_not_call_the_path_oracle():
    # closed forms are checked against enumeration, so they may not use it
    tree = ast.parse(Path(kernels.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not names & {"dual_vectors", "enumerate_paths", "overlap_vector", "enumerate_subfcns"}
    # nor import anything from the oracle module
    modules = {n.module or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not modules & {"paths", "dualview.paths"}


def test_only_the_cli_and_the_package_import_the_path_oracle():
    # path enumeration is the test oracle: `dualview verify` (in cli) runs it
    # and the package re-exports it, but no library module may build on it
    importers = set()
    for source in Path(kernels.__file__).parent.glob("*.py"):
        for n in ast.walk(ast.parse(source.read_text())):
            if isinstance(n, ast.ImportFrom):
                names = [n.module or "", *(f"{n.module or ''}.{a.name}" for a in n.names)]
            elif isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            else:
                continue
            if any("paths" in name.split(".") for name in names):
                importers.add(source.stem)
    assert importers == {"cli", "__init__"}
