"""Closed-form neural path kernels, finite-width NTK, and Monte-Carlo checks.

The closed forms here are checked against the enumeration oracle in
:mod:`dualview.paths` by ``dualview verify`` and the tests; this module
never calls that oracle. Conventions:

* Gates are plain lists with one array per gated layer, as
  ``ForwardResult.gates`` holds them.
* ``npk`` returns <phi(x), phi(x')> for every family from the hard gates
  of x and x'; ``mc_target`` is its width limit: a chain of weight layers
  scales its NPK by sum_k prod_{j != k} sigma_j^2 (per sub-FCN for res).
* ``npk_fc`` is the *unnormalized* product form
  <x, x'> * prod_l <G_l(x), G_l(x')>, which equals <phi(x), phi(x')> for
  hard gates.
* For the res family the sum over the 2^b sub-FCNs factors over blocks:
  with C_j the product of the gate correlations of block j's layers,
  <phi, phi'> = <x, x'> C_0 C_{b+1} prod_{j=1..b} (1 + C_j).
* For the conv family the bundle-level <phi, phi'> (whose activities carry
  the 1/d_in pooling factor twice) equals the rotation sum with
  integer-count overlaps divided by d_in**2, counted for all d_in rotations
  in one pass.
* ``ntk_fixed_gates`` contracts per-layer cotangents instead of taking the
  inner product of two flat weight gradients: one forward and one backward
  pass per input give each weight layer's input z and the cotangent delta
  at its pre-activation, and the NTK is sum_l <z_{l-1}, z'_{l-1}> *
  <delta_l, delta'_l> (conv layers sum this over filter taps and position
  pairs).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .arch import (ArchSpec, CONV_GAP, FC, RES, Gates, forward_gated, init_params,
                   weight_layer_specs)
from .autodiff import backward
from .numerics import check_positive


def rot(x: np.ndarray, r: int) -> np.ndarray:
    """Circular rotation: rot(x, r)(i) = x(i + r), wrap-around."""
    x = np.asarray(x)
    return np.roll(x, -r)


# ---------------------------------------------------------------------------
# Closed-form NPKs
# ---------------------------------------------------------------------------


def gate_correlations(gates_x: Gates, gates_x2: Gates) -> np.ndarray:
    """Per-layer <G_l(x), G_l(x')>."""
    if len(gates_x) != len(gates_x2):
        raise ValueError("gate lists have different layer counts")
    out = []
    for g, g2 in zip(gates_x, gates_x2):
        g, g2 = np.asarray(g), np.asarray(g2)
        if g.shape != g2.shape:
            raise ValueError(f"gate shape mismatch {g.shape} vs {g2.shape}")
        out.append(float(g.ravel() @ g2.ravel()))
    return np.array(out)


def npk_fc(x, x2, gates_x: Gates, gates_x2: Gates) -> float:
    """<x, x'> * prod_l <G_l(x), G_l(x')> (unnormalized product kernel)."""
    x, x2 = np.asarray(x, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    return float(x @ x2) * float(np.prod(gate_correlations(gates_x, gates_x2)))


def conv_overlap_counts(arch: ArchSpec, gates_x: Gates, gates_x2: Gates) -> np.ndarray:
    """overlap(i, x, x') for every input node, by layerwise path counting.

    Joint gate H = G(x)*G(x') per unit; the count of jointly active paths
    from each node i is propagated through the conv layers (each window
    offset reaches exactly one upstream position) and the FC head, for all
    nodes at once. The pooling mask is excluded so the result is an integer
    count. Conv-layer gates (..., d_in, w) may carry leading axes, which
    broadcast and which the counts (..., d_in) keep.
    """
    if arch.family != CONV_GAP:
        raise ValueError("conv_overlap_counts requires the conv_gap family")
    h = [np.asarray(g) * np.asarray(g2) for g, g2 in zip(gates_x, gates_x2)]
    conv_h, fc_h = h[: arch.d_cv], h[arch.d_cv :]
    pos = np.arange(arch.d_in)
    # reach[q, p] = 1 when the window at position p covers position q
    reach = ((pos[:, None] - pos[None, :]) % arch.d_in < arch.w_cv).astype(np.float64)
    paths = reach  # paths[..., i, p]: paths from node i entering the window at p
    for hl in conv_h[:-1]:
        paths = (paths * hl.sum(axis=-1)[..., None, :]) @ reach
    m = paths @ conv_h[-1]  # (..., node, channel), summed over the last conv layer's positions
    for hl in fc_h:
        m = hl * m.sum(axis=-1, keepdims=True)
    return m.sum(axis=-1)


def npk_conv_rotsum(arch: ArchSpec, x, x2, gates_x: Gates, gates_x2: Gates) -> float:
    """sum_r <x, rot(x', r)>_overlap(., x, rot(x', r)), all rotations r at once.

    Circular convolution is shift-equivariant and global average pooling
    removes the shift, so the gates of rot(x', r) are the conv-layer gates
    of x' read at position (p + r) mod d_in, with the FC-head gates
    unchanged; no forward pass runs here. Those conv-layer gates get a
    leading rotation axis, so one overlap count covers every r. The
    bundle-level <phi, phi'> equals this sum divided by d_in**2.
    """
    if arch.family != CONV_GAP:
        raise ValueError("npk_conv_rotsum requires the conv_gap family")
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    pos = np.arange(arch.d_in)
    shifted = (pos[None, :] + pos[:, None]) % arch.d_in  # shifted[r, p] = (p + r) mod d_in
    rotated = [np.asarray(g)[shifted] if l < arch.d_cv else g for l, g in enumerate(gates_x2)]
    counts = conv_overlap_counts(arch, gates_x, rotated)  # (rotation, node)
    return float(np.sum(x * x2[shifted] * counts))


def _block_correlations(arch: ArchSpec, gates_x: Gates, gates_x2: Gates) -> np.ndarray:
    """C_j, the product of <G_l(x), G_l(x')> over block j's layers, j = 0..b+1.

    The network's last layer is ungated and contributes a factor of 1.
    """
    corr = np.append(gate_correlations(gates_x, gates_x2), 1.0)
    return corr.reshape(arch.b + 2, arch.d_blk).prod(axis=1)


def npk_res_ensemble(arch: ArchSpec, x, x2, gates_x: Gates, gates_x2: Gates) -> float:
    """NPK of the ResNet: the sum of its 2^b sub-FCN product kernels, in O(b)."""
    if arch.family != RES:
        raise ValueError("npk_res_ensemble requires the res family")
    x, x2 = np.asarray(x, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    c = _block_correlations(arch, gates_x, gates_x2)
    return float(x @ x2) * float(c[0] * c[-1] * np.prod(1.0 + c[1:-1]))


def npk(arch: ArchSpec, x, x2, gates_x: Gates, gates_x2: Gates) -> float:
    """<phi(x), phi(x')> for any family, from the hard gates of x and x'."""
    if arch.family == FC:
        return npk_fc(x, x2, gates_x, gates_x2)
    if arch.family == CONV_GAP:
        return npk_conv_rotsum(arch, x, x2, gates_x, gates_x2) / arch.d_in**2
    return npk_res_ensemble(arch, x, x2, gates_x, gates_x2)


# ---------------------------------------------------------------------------
# Finite-width NTK
# ---------------------------------------------------------------------------


def _layer_cotangents(arch: ArchSpec, params_v, gates: Gates, x) -> list:
    """Per weight layer of the value network on one input x: (z, delta).

    z is the layer's input and delta the cotangent of y at its
    pre-activation. One forward pass and one backward pass from y, in which
    the input is the only leaf Node, so no weight gradient is formed.
    """
    out = forward_gated(arch, params_v, gates, x_v=x, input_leaf=True)
    cot = backward(out.y_node)
    return [(z.value[0], cot[id(q)][0]) for z, q in out.layers]


def ntk_fixed_gates(
    arch: ArchSpec,
    params_v: Mapping[str, np.ndarray],
    gates_x: Gates,
    gates_x2: Gates,
    x,
    x2,
) -> float:
    """<grad y(x), grad y(x')> w.r.t. the value-network weights, gates fixed.

    The weight gradient of a layer is an outer product of its input z and
    the cotangent delta at its pre-activation, so the inner product
    contracts per layer without forming either gradient:

    * dense and res layers: <z, z'> <delta, delta'>;
    * conv layers, where tap c of the filter saw z at p + c for output
      position p: sum_c sum_{p, p'} <z_{p+c}, z'_{p'+c}> <delta_p, delta'_{p'}>.
    """
    if arch.n_out != 1:
        raise ValueError(f"the NTK needs a scalar output, got n_out={arch.n_out}")
    total = 0.0
    for (z, d), (z2, d2) in zip(_layer_cotangents(arch, params_v, gates_x, x),
                                _layer_cotangents(arch, params_v, gates_x2, x2)):
        if z.ndim == 1:  # dense: z (fan_in,), delta (fan_out,)
            total += float(z @ z2) * float(d @ d2)
        else:  # conv: z (d_in, c_in), delta (d_in, c_out)
            zz = z @ z2.T
            taps = sum(np.roll(zz, (-c, -c), axis=(0, 1)) for c in range(arch.w_cv))
            total += float(np.sum(taps * (d @ d2.T)))
    return total


@dataclass
class McResult:
    mean: float
    stderr: float
    samples: np.ndarray

    def within(self, target: float, n_stderr: float = 3.0) -> bool:
        return abs(self.mean - target) <= n_stderr * self.stderr


def ntk_expectation_mc(
    arch: ArchSpec,
    gates_x: Gates,
    gates_x2: Gates,
    x,
    x2,
    n_samples: int,
    rng: np.random.Generator,
    sigma: float | None = None,
) -> McResult:
    """Monte-Carlo mean of the value-weight NTK over Bernoulli +/-sigma draws.

    Gates are held fixed (independence of the value init from the gates);
    per-layer sigmas default to ``arch.init_sigma``, a float `sigma`
    overrides every layer.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    # the batch axis of one input, added once rather than per sample
    gates_x = [np.asarray(g, dtype=np.float64)[None] for g in gates_x]
    gates_x2 = [np.asarray(g, dtype=np.float64)[None] for g in gates_x2]
    samples = np.empty(n_samples)
    for s in range(n_samples):
        params_v = init_params(arch, rng, sigma=sigma)
        samples[s] = ntk_fixed_gates(arch, params_v, gates_x, gates_x2, x, x2)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n_samples))
    return McResult(mean=mean, stderr=stderr, samples=samples)


def _limit_factor(sigmas) -> float:
    """sum_k prod_{j != k} sigma_j^2 over a chain of weight layers."""
    return sum(math.prod(s * s for s in sigmas[:k] + sigmas[k + 1:]) for k in range(len(sigmas)))


def mc_target(
    arch: ArchSpec,
    x,
    x2,
    gates_x: Gates,
    gates_x2: Gates,
    sigma: float | None = None,
    gates_provider=None,  # unused: conv rolls the gates of x'; kept for callers passing it
) -> float:
    """Closed-form limit the MC mean is checked against: E[NTK] over
    Bernoulli +/-sigma_l weights (per layer as `init_params` draws them) with
    the gates fixed. Each weight-sharing bundle contributes npf(x) npf(x')
    times `_limit_factor` of its layers' sigmas, so fc and conv_gap scale
    their NPK by it; a res sub-FCN with k included blocks has (k + 2) d_blk
    layers of one sigma, and its 2^b terms group by k into e_k of C_1..C_b.
    """
    if sigma is not None:
        check_positive("sigma", sigma)
    sigmas = [arch.init_sigma(kind) if sigma is None else sigma
              for _, _, kind in weight_layer_specs(arch)]
    if arch.family != RES:
        return _limit_factor(sigmas) * npk(arch, x, x2, gates_x, gates_x2)
    x, x2 = np.asarray(x, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    c = _block_correlations(arch, gates_x, gates_x2)
    e = np.zeros(arch.b + 1)
    e[0] = 1.0
    for c_j in c[1:-1]:
        e[1:] += c_j * e[:-1]
    factors = [_limit_factor(sigmas[:(k + 2) * arch.d_blk]) for k in range(arch.b + 1)]
    return float(x @ x2) * float(c[0] * c[-1] * (e @ factors))


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
            tokens = header[2:].split()
            meta = dict(token.split("=", 1) for token in tokens if "=" in token)
            if len(meta) < len(tokens) or not {"tag", "n"} <= meta.keys():
                raise ValueError(f"{path}: gram header {header!r} needs key=value tokens, tag, n")
            if not meta["n"].isdecimal():
                raise ValueError(f"{path}: gram header n={meta['n']!r} is not an integer")
            n = int(meta["n"])
            rows = []
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = line.split(",")
                if len(row) != n:
                    raise ValueError(f"{path}: line {line_no} has {len(row)} values, not n={n}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line_no}: {exc}") from None
        m = np.array(rows).reshape(len(rows), n)
        if m.shape != (n, n):
            raise ValueError(f"{path}: matrix shape {m.shape} != n={n}")
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
            n = int.from_bytes(fh.read(4), "little")
            if os.fstat(fh.fileno()).st_size != 8 + 8 * n * n:
                raise ValueError(f"{path}: file size does not fit the header's n={n}")
            data = np.frombuffer(fh.read(8 * n * n), dtype="<f8")
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
            m[i, j] = m[j, i] = float(kernel(X[i], X[j]))
    return GramMatrix(matrix=m, tag=tag, fingerprint=dataset_fingerprint(X))
