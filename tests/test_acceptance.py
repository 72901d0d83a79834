"""Acceptance gate: ten end-to-end checks of the path-space theory.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) and asserts the stated tolerance. Criteria are numbered and
self-contained; tolerances are part of the contract, not tuning knobs.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import normal_params

from dualview.arch import (
    ArchSpec,
    GateRouting,
    forward_dlgn,
    forward_relu,
    init_params,
    shallow_layer_specs,
    weight_layer_specs,
)
from dualview.data import generate_synthetic
from dualview.kernels import (
    GramMatrix,
    gate_correlations,
    gram,
    mc_target,
    npk_conv_rotsum,
    npk_fc,
    npk_res_ensemble,
    ntk_expectation_mc,
    rot,
)
from dualview.numerics import finite_diff_grad, grad, make_rng
from dualview.paths import (
    SubFcnMask,
    conv_path_npf,
    count_paths,
    dual_vectors,
    enumerate_paths,
    overlap_vector,
    res_gate_indices,
)
from dualview.training import TrainConfig, train

# Pilot-derived learnability threshold for criterion 8(c): a DNN pilot on the
# same circles data (n=2000, 5 seeds, config below) reaches 1.000 mean test
# accuracy; 0.95 leaves slack for regime/seed variation while still requiring
# the task to be solved.
LEARNABILITY_THRESHOLD = 0.95


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {name} {detail}".rstrip())


ARCH_POOL = [
    ArchSpec(family="fc", d_in=3, depth=2, width=8),
    ArchSpec(family="fc", d_in=4, depth=4, width=5),
    ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=1, d_fc=2),
    ArchSpec(family="conv_gap", d_in=6, w_cv=3, width=3, d_cv=2, d_fc=2),
    ArchSpec(family="res", d_in=3, b=1, d_blk=2, width=4),
    ArchSpec(family="res", d_in=3, b=3, d_blk=1, width=3),
]


def _sample_set():
    """(arch, params, x, x2) tuples shared by criteria 1 and 2."""
    out = []
    for seed, arch in enumerate(ARCH_POOL):
        assert count_paths(arch) <= 10**5
        for rep in range(3):
            rng = make_rng(1000 + 10 * seed + rep, stream=61)
            params = (
                normal_params(arch, rng) if rep % 2 == 0 else init_params(arch, rng)
            )
            for _ in range(3):
                x = rng.normal(size=arch.d_in)
                x2 = x + 0.5 * rng.normal(size=arch.d_in)
                out.append((arch, params, x, x2))
    return out


def test_criterion_1_path_identity():
    # y(x) = <phi(x), v> for >= 50 random (arch, params, x), all families
    t0 = time.time()
    samples = _sample_set()
    assert len(samples) >= 50
    worst = 0.0
    tables = {a: enumerate_paths(a) for a in ARCH_POOL}
    for arch, params, x, _ in samples:
        res = forward_relu(arch, params, x)
        dv = dual_vectors(arch, params, x, res.gates, table=tables[arch])
        dev = abs(dv.output() - float(res.y)) / (1.0 + abs(float(res.y)))
        worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    _report(1, "path identity y = <phi, v>", ok,
            f"(max rel dev {worst:.2e} over {len(samples)} samples, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_criterion_2_overlap_identity():
    # <phi(x), phi(x')> = <x, x'>_overlap on the same sample set
    samples = _sample_set()
    tables = {a: enumerate_paths(a) for a in ARCH_POOL}
    worst = 0.0
    for arch, params, x, x2 in samples:
        gx = forward_relu(arch, params, x).gates
        gx2 = forward_relu(arch, params, x2).gates
        table = tables[arch]
        if arch.family == "conv_gap":
            lhs = float(np.sum(conv_path_npf(table, x, gx) * conv_path_npf(table, x2, gx2)))
            scale = 1.0 / arch.d_in**2  # integer counts exclude the pooling mask
        else:
            lhs = float(
                dual_vectors(arch, params, x, gx, table=table).npf
                @ dual_vectors(arch, params, x2, gx2, table=table).npf
            )
            scale = 1.0
        rhs = scale * float((np.asarray(x) * np.asarray(x2))
                            @ overlap_vector(gx, gx2, table))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    _report(2, "overlap-weighted inner product identity", worst <= 1e-9,
            f"(max rel dev {worst:.2e})")
    assert worst <= 1e-9


def test_criterion_3_product_structure():
    # fc overlap(x, x') = prod_l <G_l, G_l'> as exact integers, 100 gate pairs;
    # the product is invariant to any layer permutation
    arch = ArchSpec(family="fc", d_in=3, depth=4, width=4)
    table = enumerate_paths(arch)
    worst_perm = 0.0
    for seed in range(100):
        rng = make_rng(2000 + seed, stream=62)
        params = normal_params(arch, rng)
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        gx = forward_relu(arch, params, x).gates
        gx2 = forward_relu(arch, params, x2).gates
        corr = gate_correlations(gx, gx2)
        o = overlap_vector(gx, gx2, table)[0]
        assert o == int(np.prod(corr))  # exact integer equality
        base = float(np.prod(corr))
        for perm in itertools.permutations(range(len(corr))):
            worst_perm = max(worst_perm, abs(float(np.prod(corr[list(perm)])) - base))
    _report(3, "product structure + layer permutation invariance",
            worst_perm <= 1e-12, f"(100 pairs, max perm dev {worst_perm:.2e})")
    assert worst_perm <= 1e-12


def test_criterion_4_fc_mc_convergence():
    # MC mean of the value-weight NTK within 3 stderr of d sigma^(2(d-1)) NPK
    # in >= 95% of 40 trials per (w, d); median single-sample relative
    # deviation strictly decreasing in w
    t0 = time.time()
    sigma = 0.5
    widths = (16, 64, 256)
    n_trials = 40
    hit_rates = {}
    medians = {d: [] for d in (2, 3)}
    for d in (2, 3):
        for w in widths:
            arch = ArchSpec(family="fc", d_in=3, depth=d, width=w)
            hits = 0
            devs = []
            for trial in range(n_trials):
                rng = make_rng(3000 + trial, stream=63 + d)
                params = normal_params(arch, rng)
                x = rng.normal(size=3)
                x2 = x + 0.4 * rng.normal(size=3)
                gx = forward_relu(arch, params, x).gates
                gx2 = forward_relu(arch, params, x2).gates
                target = mc_target(arch, x, x2, gx, gx2, sigma=sigma)
                if target == 0.0:
                    target = mc_target(arch, x, x, gx, gx, sigma=sigma)
                    x2, gx2 = x, gx
                res = ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=200,
                                         rng=make_rng(4000 + trial, stream=65),
                                         sigma=sigma)
                hits += res.within(target, 3.0)
                devs.extend(np.abs(res.samples - target) / abs(target))
            hit_rates[(w, d)] = hits / n_trials
            medians[d].append(float(np.median(devs)))
    elapsed = time.time() - t0
    rate_ok = all(r >= 0.95 for r in hit_rates.values())
    dec_ok = all(m[0] > m[1] > m[2] for m in medians.values())
    _report(4, "fc NTK Monte-Carlo convergence", rate_ok and dec_ok and elapsed <= 600,
            f"(hit rates {sorted(hit_rates.values())}, medians {medians}, {elapsed:.0f}s)")
    assert rate_ok, hit_rates
    assert dec_ok, medians
    assert elapsed <= 600


def test_criterion_5_conv_rotation_kernel():
    arch = ArchSpec(family="conv_gap", d_in=6, w_cv=3, width=3, d_cv=2, d_fc=2)
    assert arch.d_in <= 8 and count_paths(arch) <= 10**5
    rng = make_rng(5, stream=66)
    params = normal_params(arch, rng)
    x = rng.normal(size=6)
    x2 = x + 0.4 * rng.normal(size=6)

    def provider(xx):
        return forward_relu(arch, params, xx).gates

    table = enumerate_paths(arch)
    brute = float(
        dual_vectors(arch, params, x, provider(x), table=table).npf
        @ dual_vectors(arch, params, x2, provider(x2), table=table).npf
    )
    rotsum = npk_conv_rotsum(arch, x, x2, provider(x), provider(x2))
    dev_brute = abs(rotsum / arch.d_in**2 - brute) / (1.0 + abs(brute))

    dev_rot = 0.0
    for s in range(1, arch.d_in):
        shifted = npk_conv_rotsum(arch, rot(x, s), rot(x2, s), provider(rot(x, s)),
                                  provider(rot(x2, s)))
        dev_rot = max(dev_rot, abs(shifted - rotsum) / (1.0 + abs(rotsum)))

    mc_arch = ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=32, d_cv=1, d_fc=2)
    mp = normal_params(mc_arch, make_rng(6, stream=67))

    def mc_provider(xx):
        return forward_relu(mc_arch, mp, xx).gates

    mx = make_rng(7, stream=68).normal(size=5)
    mx2 = mx + 0.4 * make_rng(8, stream=68).normal(size=5)
    gmx, gmx2 = mc_provider(mx), mc_provider(mx2)
    sigma = 0.3
    target = mc_target(mc_arch, mx, mx2, gmx, gmx2, sigma=sigma)
    res = ntk_expectation_mc(mc_arch, gmx, gmx2, mx, mx2, n_samples=400,
                             rng=make_rng(9, stream=69), sigma=sigma)
    mc_ok = res.within(target, 3.0)
    ok = dev_brute <= 1e-9 and dev_rot <= 1e-9 and mc_ok
    _report(5, "conv rotation-sum kernel + MC target", ok,
            f"(brute dev {dev_brute:.2e}, rot dev {dev_rot:.2e}, "
            f"MC {res.mean:.4f} vs {target:.4f} +- {res.stderr:.4f})")
    assert dev_brute <= 1e-9
    assert dev_rot <= 1e-9
    assert mc_ok


def test_criterion_6_res_ensemble_kernel():
    arch = ArchSpec(family="res", d_in=3, b=3, d_blk=1, width=3)
    rng = make_rng(10, stream=70)
    params = normal_params(arch, rng)
    x = rng.normal(size=3)
    x2 = x + 0.4 * rng.normal(size=3)
    gx = forward_relu(arch, params, x).gates
    gx2 = forward_relu(arch, params, x2).gates
    table = enumerate_paths(arch)
    phi = dual_vectors(arch, params, x, gx, table=table).npf
    phi2 = dual_vectors(arch, params, x2, gx2, table=table).npf
    brute = float(phi @ phi2)
    total = npk_res_ensemble(arch, x, x2, gx, gx2)
    dev_total = abs(total - brute) / (1.0 + abs(brute))

    # per-J breakdown: each sub-FCN's block of <phi, phi'> equals the product
    # kernel of its sub-FCN gates
    corr = gate_correlations(gx, gx2)
    dev_per = 0.0
    blocks = table.sub_blocks
    for mask, s in blocks:
        expect = float(np.asarray(x) @ np.asarray(x2)) * float(
            np.prod(corr[res_gate_indices(arch, mask)])
        )
        dev_per = max(dev_per, abs(float(phi[s] @ phi2[s]) - expect))
    assert len(blocks) == 2**arch.b

    mc_arch = ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=32)
    mp = normal_params(mc_arch, make_rng(11, stream=71))
    mx = make_rng(12, stream=72).normal(size=3)
    mx2 = mx + 0.4 * make_rng(13, stream=72).normal(size=3)
    gmx = forward_relu(mc_arch, mp, mx).gates
    gmx2 = forward_relu(mc_arch, mp, mx2).gates
    sigma = 0.4
    target = mc_target(mc_arch, mx, mx2, gmx, gmx2, sigma=sigma)
    res = ntk_expectation_mc(mc_arch, gmx, gmx2, mx, mx2, n_samples=400,
                             rng=make_rng(14, stream=73), sigma=sigma)
    mc_ok = res.within(target, 3.0)
    ok = dev_total <= 1e-9 and dev_per <= 1e-9 and mc_ok
    _report(6, "res sub-FCN ensemble kernel + MC target", ok,
            f"(total dev {dev_total:.2e}, per-J dev {dev_per:.2e}, "
            f"MC {res.mean:.4f} vs {target:.4f} +- {res.stderr:.4f})")
    assert dev_total <= 1e-9
    assert dev_per <= 1e-9
    assert mc_ok


def test_criterion_7_gradient_suite():
    # analytic vs central finite differences, soft gates beta=10,
    # >= 20 configurations per soft regime
    families = [
        ArchSpec(family="fc", d_in=3, depth=3, width=4),
        ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=2, d_fc=2),
        ArchSpec(family="res", d_in=3, b=1, d_blk=2, width=3),
    ]
    regimes = ("dgn_soft", "dlgn", "dlgn_sf")
    worst = {r: 0.0 for r in regimes}
    count = {r: 0 for r in regimes}
    for regime in regimes:
        for seed in range(7):
            for arch in families:
                rng = make_rng(7000 + seed, stream=74)
                pv = normal_params(arch, rng, scale=0.6)
                if regime == "dlgn_sf":
                    pf = {n: rng.normal(scale=0.6, size=s)
                          for n, s, _ in shallow_layer_specs(arch)}
                else:
                    pf = normal_params(arch, rng, scale=0.6)
                x = rng.normal(size=arch.d_in)
                both = {**{f"f_{k}": v for k, v in pf.items()},
                        **{f"v_{k}": v for k, v in pv.items()}}

                def fwd(nodes):
                    nf = {k[2:]: v for k, v in nodes.items() if k.startswith("f_")}
                    nv = {k[2:]: v for k, v in nodes.items() if k.startswith("v_")}
                    if regime == "dgn_soft":
                        return forward_dlgn(arch, nf, nv, x, x, mode="soft",
                                            source="relu").y_node
                    if regime == "dlgn":
                        return forward_dlgn(arch, nf, nv, x, x, mode="soft").y_node
                    return forward_dlgn(arch, nf, nv, x, x, mode="soft",
                                        source="shallow").y_node

                g = grad(fwd, both)
                fd = finite_diff_grad(fwd, both, step=1e-6)
                rel = np.linalg.norm(g - fd) / max(1e-12, np.linalg.norm(fd))
                worst[regime] = max(worst[regime], rel)
                count[regime] += 1
    ok = all(v <= 1e-4 for v in worst.values()) and all(c >= 20 for c in count.values())
    _report(7, "gradient suite vs finite differences", ok,
            f"(worst per regime {dict((k, f'{v:.1e}') for k, v in worst.items())}, "
            f"{sum(count.values())} configs)")
    for r in regimes:
        assert count[r] >= 20
        assert worst[r] <= 1e-4, (r, worst[r])


def _train_circles(regime, seed, x_v="data", perm=None, epochs=20):
    arch = ArchSpec(family="fc", d_in=3, depth=4, width=16, n_out=2)
    ds = generate_synthetic("circles", 2000, seed=100)
    tr, te = ds.split(0.8, make_rng(100, stream=75))
    cfg = TrainConfig(regime=regime, x_v=x_v, perm=perm, optimizer="adam",
                      lr=3e-3, epochs=epochs, batch_size=128, seed=seed)
    report, _ = train(arch, tr, cfg, test=te)
    return report.final_test_accuracy


def test_criterion_8_training_analogues():
    seeds = range(5)
    pilot = np.mean([_train_circles("DNN", s) for s in seeds])

    means = {}
    for regime in ("DGN_STANDALONE", "DLGN"):
        for x_v in ("data", "ones"):
            means[(regime, x_v)] = np.mean(
                [_train_circles(regime, s, x_v=x_v) for s in seeds]
            )
    gap_dgn = abs(means[("DGN_STANDALONE", "data")] - means[("DGN_STANDALONE", "ones")])
    gap_dlgn = abs(means[("DLGN", "data")] - means[("DLGN", "ones")])

    perm_means = {}
    for perm in itertools.permutations(range(3)):
        perm_means[perm] = np.mean(
            [_train_circles("DLGN", s, perm=perm) for s in seeds]
        )
    identity = perm_means[(0, 1, 2)]
    gap_perm = max(abs(v - identity) for v in perm_means.values())

    all_accs = [pilot] + list(means.values()) + list(perm_means.values())
    learnable = min(all_accs) >= LEARNABILITY_THRESHOLD

    ok = gap_dgn <= 0.02 and gap_dlgn <= 0.02 and gap_perm <= 0.02 and learnable
    _report(8, "desk-scale training analogues", ok,
            f"(pilot {pilot:.3f}, (x,1) gaps DGN {gap_dgn:.3f} DLGN {gap_dlgn:.3f}, "
            f"perm gap {gap_perm:.3f}, min acc {min(all_accs):.3f})")
    assert gap_dgn <= 0.02, means
    assert gap_dlgn <= 0.02, means
    assert gap_perm <= 0.02, perm_means
    assert learnable, all_accs


def test_criterion_9_self_gating_equivalence():
    n_total = 0
    exact = True
    for arch in (
        ArchSpec(family="fc", d_in=3, depth=4, width=8),
        ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=4, d_cv=2, d_fc=2),
        ArchSpec(family="res", d_in=4, b=2, d_blk=2, width=6),
    ):
        rng = make_rng(16, stream=76)
        params = normal_params(arch, rng)
        X = rng.normal(size=(1000, arch.d_in))
        y_dnn = forward_relu(arch, params, X).y
        y_dgn = forward_dlgn(arch, params, params, X, X, mode="hard", source="relu").y
        exact = exact and np.array_equal(y_dnn, y_dgn)
        n_total += X.shape[0]
    _report(9, "self-gating equivalence (DGN == DNN)", exact,
            f"(exact elementwise match on {n_total} inputs)")
    assert exact


def test_criterion_10_gram_psd():
    arch = ArchSpec(family="fc", d_in=3, depth=3, width=8)
    rng = make_rng(17, stream=77)
    params = normal_params(arch, rng)
    X = rng.normal(size=(64, 3))

    def npk_kernel(a, b):
        return npk_fc(a, b, forward_relu(arch, params, a).gates,
                      forward_relu(arch, params, b).gates)

    g_npk = gram(X, npk_kernel, tag="npk")

    # NTK gram via per-sample gradient vectors: G = J J^T is PSD by construction,
    # the check guards the assembled matrix against numerical asymmetry
    grads = []
    for x in X:
        gates = forward_relu(arch, params, x).gates
        from dualview.arch import forward_gated

        grads.append(grad(
            lambda nodes: forward_gated(arch, nodes, gates, x_v=x).y_node, params
        ))
    J = np.stack(grads)
    g_ntk = GramMatrix(matrix=J @ J.T, tag="ntk", fingerprint=g_npk.fingerprint)

    ok = g_npk.is_psd() and g_ntk.is_psd()
    _report(10, "Gram matrices pass the PSD eigenvalue floor", ok,
            f"(npk min eig {g_npk.min_eigenvalue():.3e} floor {g_npk.psd_floor():.3e}; "
            f"ntk min eig {g_ntk.min_eigenvalue():.3e} floor {g_ntk.psd_floor():.3e})")
    assert g_npk.is_psd()
    assert g_ntk.is_psd()
