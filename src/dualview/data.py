"""Desk-scale datasets: synthetic generators and file ingestion.

Synthetic families:

* ``blobs``          — well-separated Gaussian clusters (linearly separable)
* ``circles``        — concentric noisy rings (radially separable)
* ``shifted_pulses`` — class-specific 1-D pulse shapes under random circular
  shifts, for rotation-invariance experiments

Networks here have no bias terms, so every model computes a positively
homogeneous function of its input: scaling x scales the output and leaves
hard gates unchanged. Concentric circles differ only by radius along shared
rays, which such a function cannot separate. The circles generator therefore
appends a constant-1 homogeneous coordinate by default (append_one=True),
which restores the expressive power of biases without breaking the
path-product decomposition.

A :class:`Dataset` holds the inputs, labels and class count alone; the
resolved config of a run names the dataset it was built from.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .numerics import make_rng

BLOBS = "blobs"
CIRCLES = "circles"
SHIFTED_PULSES = "shifted_pulses"
KINDS = (BLOBS, CIRCLES, SHIFTED_PULSES)


class DatasetError(ValueError):
    """Malformed dataset file or invalid generator spec."""


@dataclass
class Dataset:
    """Inputs (n, d_in) and integer labels in [0, k)."""

    X: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise DatasetError(
                f"inputs {self.X.shape} and labels {self.y.shape} do not align"
            )
        if not np.all(np.isfinite(self.X)):
            raise DatasetError("inputs contain NaN or Inf")
        if self.k < 2:
            raise DatasetError(f"need at least 2 classes, got k={self.k}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.k):
            raise DatasetError(
                f"labels must lie in [0, {self.k}), got range "
                f"[{self.y.min()}, {self.y.max()}]"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d_in(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.k)

    def split(self, train_fraction: float, rng: np.random.Generator):
        """Shuffled (train, test) split; neither side may be empty."""
        if not 0.0 < train_fraction < 1.0:
            raise DatasetError(f"train_fraction must be in (0,1), got {train_fraction}")
        cut = int(round(train_fraction * self.n))
        if not 0 < cut < self.n:
            side = "train" if cut == 0 else "test"
            raise DatasetError(f"train_fraction {train_fraction} of n={self.n} samples "
                               f"leaves the {side} set empty")
        perm = rng.permutation(self.n)
        return self.subset(perm[:cut]), self.subset(perm[cut:])


def _gen_blobs(n, rng, k=2, d_in=2, spread=1.0, separation=8.0):
    """Gaussian clusters whose means sit `separation` stds apart."""
    if k < 2:
        raise DatasetError(f"blobs parameter 'k' must be >= 2, got {k}")
    means = rng.normal(size=(k, d_in))
    means *= separation * spread / max(1e-12, np.min(
        [np.linalg.norm(means[i] - means[j]) for i in range(k) for j in range(i + 1, k)]
    ))
    y = rng.integers(0, k, size=n)
    X = means[y] + spread * rng.normal(size=(n, d_in))
    return X, y, k


def _gen_circles(n, rng, radii=(1.0, 2.0), noise=0.1, append_one=True):
    k = len(radii)
    if k < 2:
        raise DatasetError("circles needs at least 2 radii")
    y = rng.integers(0, k, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.asarray(radii)[y] + noise * rng.normal(size=n)
    X = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    if append_one:
        X = np.concatenate([X, np.ones((n, 1))], axis=1)
    return X, y, k


def _gen_shifted_pulses(n, rng, d_in=8, k=2, noise=0.05):
    """Class c = a fixed pulse shape, circularly shifted by a random offset."""
    # class c's pulse covers width 2 + c, which must fit in d_in
    if not 2 <= k <= d_in - 1:
        raise DatasetError(f"shifted_pulses parameter 'k' must satisfy 2 <= k <= d_in - 1 "
                           f"= {d_in - 1}, got {k}")
    shapes = np.zeros((k, d_in))
    for c in range(k):
        width = 1 + c  # distinct pulse widths distinguish the classes
        shapes[c, : width + 1] = np.linspace(1.0, 0.25, width + 1)
    y = rng.integers(0, k, size=n)
    shifts = rng.integers(0, d_in, size=n)
    # row i is np.roll(shapes[y[i]], shifts[i]), gathered in one index pass
    X = shapes[y[:, None], (np.arange(d_in) - shifts[:, None]) % d_in]
    X += noise * rng.normal(size=X.shape)
    return X, y, k


_GENERATORS = {BLOBS: _gen_blobs, CIRCLES: _gen_circles, SHIFTED_PULSES: _gen_shifted_pulses}


def has_type_of(value, default) -> bool:
    """JSON-type check against a default: a None default takes any value, an
    int passes for a float, and a list or tuple default needs a list or tuple
    whose items have the type of the default's first item."""
    if default is None:
        return True
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple)) and all(has_type_of(v, default[0]) for v in value)
    want = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, want) and isinstance(value, bool) == isinstance(default, bool)


def generate_synthetic(kind: str, n: int, seed: int, **params) -> Dataset:
    """Deterministic synthetic dataset; same (kind, n, seed, params) -> same bytes."""
    if n < 2:
        raise DatasetError(f"n must be >= 2, got {n}")
    gen = _GENERATORS.get(kind)
    if gen is None:
        raise DatasetError(f"unknown synthetic kind {kind!r}; choose from {KINDS}")
    keywords = list(inspect.signature(gen).parameters.values())[2:]  # after (n, rng)
    defaults = {p.name: p.default for p in keywords}
    for key, value in params.items():
        if key not in defaults:
            raise DatasetError(f"unknown {kind} parameter {key!r}; choose from {list(defaults)}")
        if not has_type_of(value, defaults[key]):
            raise DatasetError(f"{kind} parameter {key!r} must have the type of its default "
                               f"{defaults[key]!r}, got {value!r}")
    return Dataset(*gen(n, make_rng(seed, stream=101), **params))


CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes


def load_dataset(path, format: str) -> Dataset:
    """Read a dataset from disk.

    csv: one row per sample, label in the final column.
    cifar-binary: consecutive 3073-byte records, label byte then 3072 pixel
    bytes scaled to [0, 1] (channel planes concatenated row-major).
    """
    if format == "csv":
        return _load_csv(path)
    if format == "cifar-binary":
        return _load_cifar_binary(path)
    raise DatasetError(f"unknown dataset format {format!r}")


def parse_floats(values: list[str]) -> np.ndarray:
    """One line's split values as float64, refusing 1_0 and non-ASCII digits as
    ``np.loadtxt`` does; numpy's string cast alone takes both. Each value is
    checked only when the joined values hold ``_`` or a non-ASCII character, so
    that values padded with non-ASCII whitespace still parse."""
    joined = "".join(values)
    if "_" in joined or not joined.isascii():
        if bad := [v for v in values if "_" in v or not v.strip().isascii()]:
            raise ValueError(f"could not convert string to float: {bad[0]!r}")
    return np.array(values, dtype=np.float64)


def _load_csv(path):
    """``np.loadtxt(path, delimiter=",", ndmin=2)``, parsed line by line so that each error
    names its line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode splits
    rows = []
    for line_no, line in enumerate(lines, start=1):
        try:
            values = line.decode().split("#", 1)[0].split(",")
            if values == [""]:  # an empty or comment line
                continue
            if rows and len(values) != rows[0].size:
                raise ValueError(f"{len(values)} values, not {rows[0].size} as on the lines before")
            rows.append(parse_floats(values))
        except ValueError as exc:
            raise DatasetError(f"{path}: line {line_no}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    raw = np.array(rows)
    if raw.shape[1] < 2:
        raise DatasetError(f"{path}: need at least one feature column plus a label")
    X, labels = raw[:, :-1], raw[:, -1]
    if not np.all((labels == np.round(labels)) & (np.abs(labels) < 2.0**63)):  # finite, int64
        raise DatasetError(f"{path}: final column must hold integer labels")
    y = labels.astype(np.int64)
    if y.min() < 0:
        raise DatasetError(f"{path}: negative label {y.min()}")
    return Dataset(X, y, int(y.max()) + 1)


def _load_cifar_binary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % CIFAR_RECORD != 0:
        offset = (len(blob) // CIFAR_RECORD) * CIFAR_RECORD
        raise DatasetError(
            f"{path}: malformed record at byte offset {offset} "
            f"(file length {len(blob)} is not a multiple of {CIFAR_RECORD})"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    y = records[:, 0].astype(np.int64)
    X = records[:, 1:].astype(np.float64) / 255.0
    return Dataset(X, y, int(y.max()) + 1)
