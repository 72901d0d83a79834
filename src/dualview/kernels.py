"""Closed-form neural path kernels, finite-width NTK, and Monte-Carlo checks.

The closed forms here are verified elsewhere against the enumeration oracle
in :mod:`dualview.paths`. Conventions:

* ``npk_fc`` returns the *unnormalized* product form
  <x, x'> * prod_l <G_l(x), G_l(x')>, which equals <phi(x), phi(x')> for
  hard gates. The width-limit constants live in :class:`KernelConstants`.
* For the conv family the bundle-level <phi, phi'> (whose activities carry
  the 1/d_in pooling factor twice) equals the rotation sum with
  integer-count overlaps divided by d_in**2. The Monte-Carlo NTK target is
  therefore beta_cv * <phi, phi'> = (beta_cv / d_in**2) * rotation_sum;
  both bookkeepings are exposed and checked.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .arch import (
    ArchSpec,
    GateTensor,
    CONV_GAP,
    FC,
    RES,
    forward_gated,
    forward_relu,
    init_params,
)
from .numerics import grad
from .paths import SubFcnMask, enumerate_subfcns, res_gate_indices


def rot(x: np.ndarray, r: int) -> np.ndarray:
    """Circular rotation: rot(x, r)(i) = x(i + r), wrap-around."""
    x = np.asarray(x)
    return np.roll(x, -r)


@dataclass(frozen=True)
class KernelConstants:
    """Width-limit constants of the NTK -> NPK theorems."""

    arch: ArchSpec
    sigma_override: float | None = None

    @property
    def sigma_fc(self) -> float:
        if self.sigma_override is not None:
            return self.sigma_override
        return self.arch.init_sigma("fc")

    @property
    def sigma_cv(self) -> float:
        if self.sigma_override is not None:
            return self.sigma_override
        return self.arch.init_sigma("conv")

    @property
    def fc_factor(self) -> float:
        """d * sigma^(2(d-1)) for the fully connected family."""
        d = self.arch.depth
        return d * self.sigma_fc ** (2 * (d - 1))

    @property
    def beta_cv(self) -> float:
        d_cv, d_fc = self.arch.d_cv, self.arch.d_fc
        s_cv, s_fc = self.sigma_cv, self.sigma_fc
        return d_cv * s_cv ** (2 * (d_cv - 1)) * s_fc ** (2 * d_fc) + d_fc * s_cv ** (
            2 * d_cv
        ) * s_fc ** (2 * (d_fc - 1))

    def beta_res(self, mask: SubFcnMask) -> float:
        depth = mask.depth_blocks() * self.arch.d_blk
        return depth * self.sigma_fc ** (2 * (depth - 1))


# ---------------------------------------------------------------------------
# Closed-form NPKs
# ---------------------------------------------------------------------------


def gate_correlations(gates_x: GateTensor, gates_x2: GateTensor) -> np.ndarray:
    """Per-layer <G_l(x), G_l(x')>."""
    if len(gates_x.layers) != len(gates_x2.layers):
        raise ValueError("gate tensors have different layer counts")
    out = []
    for g, g2 in zip(gates_x.layers, gates_x2.layers):
        g, g2 = np.asarray(g), np.asarray(g2)
        if g.shape != g2.shape:
            raise ValueError(f"gate shape mismatch {g.shape} vs {g2.shape}")
        out.append(float(g.ravel() @ g2.ravel()))
    return np.array(out)


def npk_fc(x, x2, gates_x: GateTensor, gates_x2: GateTensor) -> float:
    """<x, x'> * prod_l <G_l(x), G_l(x')> (unnormalized product kernel)."""
    x, x2 = np.asarray(x, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    return float(x @ x2) * float(np.prod(gate_correlations(gates_x, gates_x2)))


def conv_overlap_counts(arch: ArchSpec, gates_x: GateTensor, gates_x2: GateTensor) -> np.ndarray:
    """overlap(i, x, x') for every input node, by layerwise path counting.

    Joint gate H = G(x)*G(x') per unit; the count of jointly active paths
    from node i is propagated through the conv layers (each window offset
    reaches exactly one upstream position) and the FC head. The pooling mask
    is excluded so the result is an integer count.
    """
    if arch.family != CONV_GAP:
        raise ValueError("conv_overlap_counts requires the conv_gap family")
    d_in, w_cv = arch.d_in, arch.w_cv
    conv_h = [
        np.asarray(g) * np.asarray(g2)
        for g, g2 in zip(gates_x.layers[: arch.d_cv], gates_x2.layers[: arch.d_cv])
    ]
    fc_h = [
        np.asarray(g) * np.asarray(g2)
        for g, g2 in zip(gates_x.layers[arch.d_cv :], gates_x2.layers[arch.d_cv :])
    ]
    out = np.empty(d_in)
    pos = np.arange(d_in)
    for i in range(d_in):
        reach = ((i - pos) % d_in < w_cv).astype(np.float64)  # one window offset each
        n = conv_h[0] * reach[:, None]
        for h in conv_h[1:]:
            upstream = n.sum(axis=1)  # total count entering each position
            window = np.zeros(d_in)
            for c in range(w_cv):
                window += np.roll(upstream, -c)  # previous position (p + c) % d_in
            n = h * window[:, None]
        m = n.sum(axis=0)
        for h in fc_h:
            m = h * m.sum()
        out[i] = m.sum()
    return out


def npk_conv_rotsum(
    arch: ArchSpec,
    x,
    x2,
    gates_provider: Callable[[np.ndarray], GateTensor],
    gates_x: GateTensor | None = None,
) -> float:
    """sum_r <x, rot(x', r)>_overlap(., x, rot(x', r)).

    `gates_provider` must yield hard gates for any (rotated) input. The
    bundle-level <phi, phi'> equals this sum divided by d_in**2.
    """
    if arch.family != CONV_GAP:
        raise ValueError("npk_conv_rotsum requires the conv_gap family")
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if gates_x is None:
        gates_x = gates_provider(x)
    total = 0.0
    for r in range(arch.d_in):
        xr = rot(x2, r)
        counts = conv_overlap_counts(arch, gates_x, gates_provider(xr))
        total += float((x * xr) @ counts)
    return total


def npk_res_ensemble(
    arch: ArchSpec,
    x,
    x2,
    gates_x: GateTensor,
    gates_x2: GateTensor,
) -> tuple[float, dict[SubFcnMask, float]]:
    """NPK of the ResNet as the sum of its 2^b sub-FCN product kernels."""
    if arch.family != RES:
        raise ValueError("npk_res_ensemble requires the res family")
    x, x2 = np.asarray(x, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    base = float(x @ x2)
    corr = gate_correlations(gates_x, gates_x2)
    per_mask: dict[SubFcnMask, float] = {}
    for mask, _ in enumerate_subfcns(arch):
        ids = res_gate_indices(arch, mask)
        per_mask[mask] = base * float(np.prod(corr[ids]))
    return sum(per_mask.values()), per_mask


# ---------------------------------------------------------------------------
# Finite-width NTK
# ---------------------------------------------------------------------------


def ntk_fixed_gates(
    arch: ArchSpec,
    params_v: Mapping[str, np.ndarray],
    gates_x: GateTensor,
    gates_x2: GateTensor,
    x,
    x2,
) -> float:
    """<grad y(x), grad y(x')> w.r.t. the value-network weights, gates fixed."""

    def fwd(gates, xx):
        def closure(nodes):
            return forward_gated(arch, nodes, gates, x_v=xx).y_node

        return closure

    g1 = grad(fwd(gates_x, x), params_v)
    g2 = grad(fwd(gates_x2, x2), params_v)
    return float(g1 @ g2)


@dataclass
class McResult:
    mean: float
    stderr: float
    samples: np.ndarray

    def within(self, target: float, n_stderr: float = 3.0) -> bool:
        return abs(self.mean - target) <= n_stderr * self.stderr


def ntk_expectation_mc(
    arch: ArchSpec,
    gates_x: GateTensor,
    gates_x2: GateTensor,
    x,
    x2,
    n_samples: int,
    rng: np.random.Generator,
    sigma: float | None = None,
) -> McResult:
    """Monte-Carlo mean of the value-weight NTK over Bernoulli +/-sigma draws.

    Gates are held fixed (independence of the value init from the gates);
    per-layer sigmas default to the KernelConstants convention, a float
    `sigma` overrides every layer.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    samples = np.empty(n_samples)
    for s in range(n_samples):
        params_v = init_params(arch, rng, sigma=sigma)
        samples[s] = ntk_fixed_gates(arch, params_v, gates_x, gates_x2, x, x2)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n_samples))
    return McResult(mean=mean, stderr=stderr, samples=samples)


def mc_target(
    arch: ArchSpec,
    x,
    x2,
    gates_x: GateTensor,
    gates_x2: GateTensor,
    sigma: float | None = None,
    gates_provider: Callable[[np.ndarray], GateTensor] | None = None,
) -> float:
    """Closed-form limit the MC mean is checked against, per family."""
    consts = KernelConstants(arch, sigma_override=sigma)
    if arch.family == FC:
        return consts.fc_factor * npk_fc(x, x2, gates_x, gates_x2)
    if arch.family == CONV_GAP:
        if gates_provider is None:
            raise ValueError("conv target needs a gates_provider for rotated inputs")
        rotsum = npk_conv_rotsum(arch, x, x2, gates_provider, gates_x=gates_x)
        return consts.beta_cv / arch.d_in**2 * rotsum
    total, per_mask = npk_res_ensemble(arch, x, x2, gates_x, gates_x2)
    return float(sum(consts.beta_res(m) * v for m, v in per_mask.items()))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

NPKG_MAGIC = b"NPKG"


def _check_tag(tag: str) -> None:
    # the CSV header is whitespace-separated key=value pairs
    if any(c.isspace() for c in tag):
        raise ValueError(f"gram tag {tag!r} contains whitespace")


@dataclass
class GramMatrix:
    matrix: np.ndarray
    tag: str
    fingerprint: str

    def __post_init__(self):
        _check_tag(self.tag)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())

    def psd_floor(self) -> float:
        return -1e-8 * float(np.trace(self.matrix)) / self.n

    def is_psd(self) -> bool:
        return self.min_eigenvalue() >= self.psd_floor()

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.T)) <= tol)

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# tag={self.tag} n={self.n} fingerprint={self.fingerprint}\n")
            for row in self.matrix:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def load_csv(cls, path) -> "GramMatrix":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# "):
                raise ValueError(f"{path}: missing gram header")
            meta = dict(kv.split("=", 1) for kv in header[2:].split())
            rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
        m = np.array(rows)
        if m.shape != (int(meta["n"]), int(meta["n"])):
            raise ValueError(f"{path}: matrix shape {m.shape} != n={meta['n']}")
        return cls(matrix=m, tag=meta["tag"], fingerprint=meta.get("fingerprint", ""))

    def save_npkg(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(NPKG_MAGIC)
            fh.write(struct.pack("<I", self.n))
            fh.write(self.matrix.astype("<f8").tobytes(order="C"))

    @classmethod
    def load_npkg(cls, path, tag: str = "") -> "GramMatrix":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != NPKG_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            (n,) = struct.unpack("<I", fh.read(4))
            data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
        if data.size != n * n:
            raise ValueError(f"{path}: truncated payload")
        return cls(matrix=data.reshape(n, n).copy(), tag=tag, fingerprint="")


def dataset_fingerprint(X: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(X, dtype=np.float64).tobytes()).hexdigest()[:16]


# Largest dataset gram() accepts: the pairwise fill makes n(n+1)/2 kernel calls.
GRAM_CAP = 2048


def gram(
    X: np.ndarray,
    kernel: Callable[[np.ndarray, np.ndarray], float],
    tag: str,
) -> GramMatrix:
    """Symmetric kernel matrix over the rows of X (upper-triangle fill)."""
    _check_tag(tag)
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n > GRAM_CAP:
        raise ValueError(f"dataset size {n} exceeds gram cap {GRAM_CAP}")
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            try:
                m[i, j] = m[j, i] = float(kernel(X[i], X[j]))
            except Exception as exc:
                raise RuntimeError(f"kernel failed on pair ({i}, {j}): {exc}") from exc
    return GramMatrix(matrix=m, tag=tag, fingerprint=dataset_fingerprint(X))


# ---------------------------------------------------------------------------
# Invariance report
# ---------------------------------------------------------------------------


def _check(name: str, deviation: float, tol: float, **extra) -> dict:
    return {"check": name, "max_deviation": float(deviation), "tolerance": tol,
            "passed": bool(deviation <= tol), **extra}


def invariance_report(
    fc_probe: tuple[ArchSpec, Mapping, np.ndarray, np.ndarray] | None = None,
    conv_probe: tuple[ArchSpec, Mapping, np.ndarray, np.ndarray] | None = None,
    res_probe: tuple[ArchSpec, Mapping, np.ndarray, np.ndarray] | None = None,
) -> dict:
    """Structural kernel checks: layer permutation, rotation, constant-1,
    ensemble additivity. Each probe is (arch, params_f, x, x2)."""
    import itertools

    from .paths import dual_vectors, enumerate_paths

    report: dict[str, dict] = {}

    if fc_probe is not None:
        arch, params_f, x, x2 = fc_probe
        gx, gx2 = forward_relu(arch, params_f, x).gates, forward_relu(arch, params_f, x2).gates
        corr = gate_correlations(gx, gx2)
        base = npk_fc(x, x2, gx, gx2)
        worst = 0.0
        n_layers = len(corr)
        perms = itertools.permutations(range(n_layers)) if n_layers <= 5 else [
            tuple(np.random.default_rng(0).permutation(n_layers)) for _ in range(20)
        ]
        for perm in perms:
            permuted = float(np.asarray(x) @ np.asarray(x2)) * float(np.prod(corr[list(perm)]))
            worst = max(worst, abs(permuted - base))
        report["permutation"] = _check("layer permutation invariance", worst, 1e-12)

        ones = np.ones(arch.d_in)
        const1 = npk_fc(ones, ones, gx, gx2)
        expected = arch.d_in * float(np.prod(corr))
        report["constant_one"] = _check(
            "constant-1 NPK keeps gate information", abs(const1 - expected), 1e-12,
            value=const1, expected=expected,
        )

    if conv_probe is not None:
        arch, params_f, x, x2 = conv_probe

        def provider(xx):
            return forward_relu(arch, params_f, xx).gates

        base = npk_conv_rotsum(arch, x, x2, provider)
        worst = 0.0
        for s in range(1, arch.d_in):
            shifted = npk_conv_rotsum(arch, rot(np.asarray(x), s), rot(np.asarray(x2), s), provider)
            worst = max(worst, abs(shifted - base))
        scale = 1.0 + abs(base)
        report["rotation"] = _check("rotation invariance", worst / scale, 1e-9, value=base)

    if res_probe is not None:
        arch, params_f, x, x2 = res_probe
        gx, gx2 = forward_relu(arch, params_f, x).gates, forward_relu(arch, params_f, x2).gates
        total, per_mask = npk_res_ensemble(arch, x, x2, gx, gx2)
        table = enumerate_paths(arch)
        dv = dual_vectors(arch, {k: np.asarray(v) for k, v in params_f.items()}, x, gx, table=table)
        dv2 = dual_vectors(arch, {k: np.asarray(v) for k, v in params_f.items()}, x2, gx2, table=table)
        brute = float(dv.npf @ dv2.npf)
        dev = abs(total - brute) / (1.0 + abs(brute))
        report["ensemble"] = _check(
            "ensemble sum-of-products", dev, 1e-9,
            per_mask={str(m.included): v for m, v in per_mask.items()},
        )

    return report
