"""Command-line entry points and declarative experiment configuration.

One binary, four subcommands:

* ``dualview verify``     — check the closed forms on small probe networks
  (rotation invariance, MC NTK and the checks on each family's path table),
  each redrawn until no check is vacuous, emit JSON
* ``dualview train``      — train one regime, emit TrainReport JSON + params
* ``dualview kernel``     — emit the NPK Gram of any family (tag
  ``npk-<family>``) as CSV and NPKG binary
* ``dualview experiment`` — run a named bundle (permutation-sweep,
  constant-one, width-sweep) and emit combined JSON + per-figure CSVs

Configs are JSON documents read by :meth:`ExperimentConfig.load`, which
reads back what ``to_json`` writes; every field has a default. ``--override
key.path=value`` (repeatable) patches individual fields; values are parsed
as JSON with a plain-string fallback.
An unknown key, a non-object section or a value whose JSON type differs
from its default's (for a list, an item whose type differs from the
default's first item) or below its ``MINIMUM`` is a usage error; so is a
``train.perm`` that is not a list of ints or a ``dataset.params`` value
whose type differs from the generator keyword's default. The ``train``
section's defaults are those of :class:`dualview.training.TrainConfig`.

Exit codes: 0 success, 1 check/assertion failure, 2 usage or IO error.

Heap policy: :func:`main` sets glibc's trim threshold to 64 MiB and its mmap
threshold to 32 MiB, so that memory a run frees stays in the process heap
for its next arrays instead of going back to the kernel and being
page-faulted in anew on every batch. ``Model.logits`` runs in row blocks so
that inference reuses arrays of a bounded size. Where glibc's ``mallopt`` is
unavailable this does nothing; the library modules never change the
process's allocator.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import itertools
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .arch import FC, RES, ArchSpec, check_perm, forward_relu, init_params, weight_layer_specs
from .data import Dataset, generate_synthetic, has_type_of, load_dataset
from .kernels import gate_correlations, gram, mc_target, npk, ntk_expectation_mc, rot
from .numerics import make_rng
from .paths import dual_vectors, enumerate_paths
from .training import TrainConfig, train

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out": "out",
    "arch": {
        "family": "fc",
        "d_in": 3,
        "depth": 4,
        "width": 16,
        "n_out": 2,
    },
    "train": asdict(TrainConfig()),
    "dataset": {
        "kind": "circles",  # blobs | circles | shifted_pulses | file
        "n": 2000,
        "seed": 0,
        "params": {},
        "path": None,  # kind == "file"
        "format": "csv",
        "train_fraction": 0.8,
    },
    "verify": {
        "eq1_samples": 12,
        "mc_samples": 200,
    },
    "kernel": {
        "n": 64,
    },
    "experiment": {
        "bundle": "permutation-sweep",
        "seeds": 3,
        "widths": [16, 64, 256],
        "mc_deviation_samples": 100,
    },
}


# Lower bound of each int config key; a list key also must not be empty.
MINIMUM: dict = {
    "seed": 0, "dataset.seed": 0,
    "verify.eq1_samples": 1, "verify.mc_samples": 100,
    "kernel.n": 1,
    "experiment.seeds": 1, "experiment.widths": 1, "experiment.mc_deviation_samples": 100,
}


@dataclass
class ExperimentConfig:
    """Declarative experiment document.

    DEFAULT_CONFIG is the schema: a key it does not have is an error, and a
    value must have its default's JSON type (an int passes for a float, a
    list's items need the type of the default's first item, and a key whose
    default is None takes any value). `arch` takes every ArchSpec field,
    typed as the field's default, and a key in MINIMUM must reach its bound.
    The ArchSpec, TrainConfig and its `perm`, `experiment.bundle` and a
    file dataset's path are checked for every command; the dataset generator
    or loader checks the other dataset values.
    """

    doc: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG))

    def __post_init__(self):
        for key in self.doc:
            if key not in DEFAULT_CONFIG:
                raise ValueError(f"unknown config key {key}")
        for section, default in DEFAULT_CONFIG.items():
            value = self.doc.get(section)
            _check_value(section, value, default)
            if not isinstance(default, dict):
                continue
            if section == "arch":
                default = {**{f.name: f.default for f in fields(ArchSpec)}, **default}
                for f in fields(ArchSpec):
                    if f.default is MISSING and f.name not in value:
                        raise ValueError(f"config key arch.{f.name} is missing")
            for key, v in value.items():
                if key not in default:
                    raise ValueError(f"unknown config key {section}.{key}")
                _check_value(f"{section}.{key}", v, default[key])
        bundle = self.doc["experiment"]["bundle"]
        if bundle not in BUNDLES:
            raise ValueError(f"unknown bundle {bundle!r}; choose from {sorted(BUNDLES)}")
        if self.doc["dataset"]["kind"] == "file" and not self.doc["dataset"]["path"]:
            raise ValueError("dataset.kind == 'file' requires dataset.path")
        check_perm(self.arch(), self.train_config().perm)

    @classmethod
    def load(cls, path=None, overrides=()) -> "ExperimentConfig":
        doc = copy.deepcopy(DEFAULT_CONFIG)
        if path is not None:
            with open(path) as fh:
                _merge(doc, _as_object(json.load(fh), path))
        for ov in overrides:
            _apply_override(doc, ov)
        return cls(doc=doc)

    def to_json(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True)

    def arch(self) -> ArchSpec:
        return ArchSpec(**self.doc["arch"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.doc["train"])

    def make_dataset(self) -> Dataset:
        d = self.doc["dataset"]
        if d["kind"] == "file":
            return load_dataset(d["path"], d.get("format", "csv"))
        return generate_synthetic(d["kind"], d["n"], d["seed"], **d["params"])


def _check_value(key: str, value, default) -> None:
    """Reject a config value whose JSON type is not its default's, or that
    is below its MINIMUM (a list: empty, or with an entry below it)."""
    if has_type_of(value, default):
        low = MINIMUM.get(key)
        if low is None:
            return
        if isinstance(value, list):
            if not value:
                raise ValueError(f"{key} must not be empty")
            if min(value) < low:
                raise ValueError(f"{key} entries must be >= {low}, got {value}")
        elif value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")
        return
    if isinstance(default, dict):
        noun = "an object"
    elif isinstance(default, list):
        noun = f"a list of {type(default[0]).__name__}"
    else:
        noun = f"of type {type(default).__name__}"
    raise ValueError(f"config key {key} must be {noun}, got {value!r}")


def _as_object(value, origin) -> dict:
    """A config document's top level, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{origin}: a config must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def _merge(base: dict, patch: dict) -> None:
    for k, v in patch.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _merge(base[k], v)
        else:
            base[k] = v


def _apply_override(doc: dict, spec: str) -> None:
    if "=" not in spec:
        raise ValueError(f"override must look like key.path=value, got {spec!r}")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = key.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {key!r} crosses a non-object field")
    node[parts[-1]] = value


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _normal_params(arch: ArchSpec, rng) -> dict:
    """Normal(0, 0.8) weights for every weight layer of `arch`, drawn in layer order."""
    return {n: rng.normal(scale=0.8, size=s) for n, s, _ in weight_layer_specs(arch)}


def _mc_estimate(arch: ArchSpec, x, x2, rng, n_samples: int, mc_rng):
    """The closed-form NTK target at sigma 0.5 and its MC estimate from
    `n_samples` value-weight draws of `mc_rng`, under the fixed gates that a
    ReLU feature network with weights from `_normal_params(arch, rng)`
    puts on x and x2."""
    pf = _normal_params(arch, rng)
    gx, gx2 = forward_relu(arch, pf, x).gates, forward_relu(arch, pf, x2).gates
    target = mc_target(arch, x, x2, gx, gx2, sigma=0.5)
    return target, ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=n_samples,
                                      rng=mc_rng, sigma=0.5)


PROBE_DRAWS = 100  # draws of (x, x', params) per probe family


def _verify_probes(seed: int):
    """Each family's first draw of (x, x', params) whose closed-form NPK is
    nonzero and, for fc, whose gated layers have pairwise distinct gate
    correlations, so that no record compares 0 with 0 and a layer mix-up
    changes the fc NPK. A family with none in PROBE_DRAWS draws fails."""
    rng = make_rng(seed, stream=201)
    fc = ArchSpec(family="fc", d_in=3, depth=4, width=4)
    cv = ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=2, d_fc=2)
    rs = ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=4)
    probes = {}
    for name, arch in (("fc", fc), ("conv", cv), ("res", rs)):
        for _ in range(PROBE_DRAWS):
            x = rng.normal(size=arch.d_in)
            x2 = x + 0.4 * rng.normal(size=arch.d_in)
            params = _normal_params(arch, rng)
            gx, gx2 = forward_relu(arch, params, x).gates, forward_relu(arch, params, x2).gates
            corr = gate_correlations(gx, gx2).tolist() if arch.family == FC else []
            if npk(arch, x, x2, gx, gx2) != 0 and len(set(corr)) == len(corr):
                probes[name] = (arch, params, x, x2)
                break
        else:
            also = " and distinct gate correlations" if arch.family == FC else ""
            raise FloatingPointError(f"no {name} probe in {PROBE_DRAWS} draws has a nonzero NPK"
                                     + also)
    return probes


def _record(check: str, deviation: float, tol: float, **extra) -> dict:
    return {"check": check, "max_deviation": float(deviation), "tolerance": tol,
            "passed": bool(deviation <= tol), **extra}


def _rotation_check(probes) -> dict:
    """The conv NPK's invariance under rotating both inputs, from the closed form."""
    arch, params, x, x2 = probes["conv"]
    # gates of the rotated inputs come from their own forward passes, so
    # this also checks the shift-equivariance npk_conv_rotsum relies on
    values = [npk(arch, a, b, forward_relu(arch, params, a).gates,
                  forward_relu(arch, params, b).gates)
              for a, b in ((rot(x, s), rot(x2, s)) for s in range(arch.d_in))]
    worst = max(abs(v - values[0]) for v in values)
    return _record("rotation invariance", worst / (1.0 + abs(values[0])), 1e-9, value=values[0])


def _fc_table_checks(arch, params, table, x, x2, gx, gx2) -> dict:
    """Two claims on the fc path table's <phi(x), phi(x')>: it does not
    change when the gates of both inputs are routed through any order of
    the gated layers, and on a constant-1 input it keeps the gates'
    information, d_in * prod_l <G_l(x), G_l(x')>."""
    def table_npk(a, b, ga, gb):
        return float(dual_vectors(arch, params, a, ga, table).npf
                     @ dual_vectors(arch, params, b, gb, table).npf)

    orders = itertools.permutations(range(len(gx)))  # the unpermuted order first
    npks = [table_npk(x, x2, [gx[i] for i in p], [gx2[i] for i in p]) for p in orders]
    ones = np.ones(arch.d_in)
    const1 = table_npk(ones, ones, gx, gx2)
    expected = arch.d_in * float(np.prod(gate_correlations(gx, gx2)))
    return {"permutation": _record("layer permutation invariance",
                                   max(abs(v - npks[0]) for v in npks), 1e-12),
            "constant_one": _record("constant-1 NPK keeps gate information",
                                    abs(const1 - expected), 1e-12, value=const1, expected=expected)}


def _oracle_checks(probes, n_samples, seed) -> tuple[dict, dict]:
    """The fc table checks, the path identity and npk = <phi(x), phi(x')> on every path table."""
    rng = make_rng(seed, stream=202)
    worst_eq1 = worst_npk = 0.0
    values = {}
    for name, (arch, params, x, x2) in probes.items():
        table = enumerate_paths(arch)
        for _ in range(n_samples):
            xs = rng.normal(size=arch.d_in)
            res = forward_relu(arch, params, xs)
            y, dv = float(res.y), dual_vectors(arch, params, xs, res.gates, table=table)
            worst_eq1 = max(worst_eq1, abs(y - dv.output()) / (1.0 + abs(y)))
        gx, gx2 = forward_relu(arch, params, x).gates, forward_relu(arch, params, x2).gates
        phi = dual_vectors(arch, params, x, gx, table=table).npf
        phi2 = dual_vectors(arch, params, x2, gx2, table=table).npf
        brute = values[name] = float(phi @ phi2)
        worst_npk = max(worst_npk, abs(npk(arch, x, x2, gx, gx2) - brute) / (1.0 + abs(brute)))
        if arch.family == FC:
            fc_report = _fc_table_checks(arch, params, table, x, x2, gx, gx2)
        if arch.family == RES:
            per_mask = {str(m): float(phi[s] @ phi2[s]) for m, s in table.sub_blocks}
    return fc_report, {
        "path_identity": _record("path identity y = <phi, v>", worst_eq1, 1e-9,
                                 samples=n_samples * len(probes)),
        "npk": _record("npk = <phi(x), phi(x')>", worst_npk, 1e-9, values=values,
                       per_mask=per_mask),
    }


def _mc_check(probes, n_samples, seed):
    arch, params, x, x2 = probes["fc"]
    arch = ArchSpec(family="fc", d_in=arch.d_in, depth=2, width=64)
    target, res = _mc_estimate(arch, x, x2, make_rng(seed, stream=203), n_samples,
                               make_rng(seed, stream=204))
    return {"check": "MC NTK mean vs closed-form target", "target": target,
            "mc_mean": res.mean, "mc_stderr": res.stderr,
            "passed": res.within(target, 3.0), "n_samples": n_samples}


def cmd_verify(config: ExperimentConfig) -> int:
    v = config.doc["verify"]
    seed = config.doc["seed"]
    probes = _verify_probes(seed)
    fc_table, oracle = _oracle_checks(probes, v["eq1_samples"], seed)
    report = {**fc_table, "rotation": _rotation_check(probes), **oracle,
              "mc_ntk": _mc_check(probes, v["mc_samples"], seed)}

    out = _ensure_out(config.doc["out"])
    with open(os.path.join(out, "verify.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    failed = [k for k, r in report.items() if not r["passed"]]
    for k, r in report.items():
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] {k}: {r['check']}")
    if failed:
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("verify: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(config: ExperimentConfig) -> int:
    arch = config.arch()
    tc = config.train_config()
    ds = config.make_dataset()
    tr, te = ds.split(config.doc["dataset"]["train_fraction"],
                      make_rng(config.doc["seed"], stream=205))
    report, model = train(arch, tr, tc, test=te)
    out = _ensure_out(config.doc["out"])
    with open(os.path.join(out, "train_report.json"), "w") as fh:
        fh.write(report.to_json())
    np.savez(os.path.join(out, "params.npz"), **model.named_params())
    print(f"train: regime {tc.regime} final test accuracy "
          f"{report.final_test_accuracy:.4f} -> {out}/train_report.json")
    return 0


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def cmd_kernel(config: ExperimentConfig) -> int:
    kc = config.doc["kernel"]
    arch = config.arch()
    ds = config.make_dataset()
    if ds.d_in != arch.d_in:
        raise ValueError(f"arch.d_in={arch.d_in} != dataset d_in={ds.d_in}")
    n = min(kc["n"], ds.n)
    X = ds.X[:n]
    pf = init_params(arch, make_rng(config.doc["seed"], stream=206))

    def kernel(a, b):
        ga = forward_relu(arch, pf, a).gates
        gb = forward_relu(arch, pf, b).gates
        return npk(arch, a, b, ga, gb)

    tag = f"npk-{arch.family}"
    g = gram(X, kernel, tag=tag)
    out = _ensure_out(config.doc["out"])
    g.save_csv(os.path.join(out, "gram.csv"))
    g.save_npkg(os.path.join(out, "gram.npkg"))
    bad = int(np.count_nonzero(~np.isfinite(g.matrix)))
    if bad:
        raise FloatingPointError(f"{bad} of {n * n} gram entries are not finite")
    ok = g.is_psd() and g.is_symmetric()
    print(f"kernel: {n}x{n} gram tag={tag} min_eig={g.min_eigenvalue():.3e} "
          f"floor={g.psd_floor():.3e} psd={g.is_psd()}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# experiment bundles
# ---------------------------------------------------------------------------


def _train_sweep(config: ExperimentConfig, fixed: dict, grid: dict) -> tuple[list, list, list]:
    """Final test accuracy per grid point (last key fastest) and seed, with
    `fixed`, the point and the seed patched into the `train` section."""
    arch = config.arch()
    ds = config.make_dataset()
    tr, te = ds.split(config.doc["dataset"]["train_fraction"],
                      make_rng(config.doc["seed"], stream=207))
    records = []
    for values in itertools.product(*grid.values()):
        for seed in range(config.doc["experiment"]["seeds"]):
            point = {**dict(zip(grid, values)), "seed": seed}
            report, _ = train(arch, tr, TrainConfig(**{**config.doc["train"], **fixed, **point}),
                              test=te)
            records.append({**point, "test_accuracy": report.final_test_accuracy})
    rows = [["-".join(map(str, v)) if isinstance(v, list) else v for v in r.values()]
            for r in records]
    return records, [*grid, "seed", "test_accuracy"], rows


def _bundle_permutation_sweep(config: ExperimentConfig) -> tuple[list, list, list]:
    arch = config.arch()
    perms = list(itertools.permutations(range(arch.n_gate_layers())))
    for perm in perms:  # an arch that cannot route every permutation fails before training
        check_perm(arch, perm)
    return _train_sweep(config, {"regime": "DLGN"},
                        {"perm": [list(p) for p in perms]})


def _bundle_constant_one(config: ExperimentConfig) -> tuple[list, list, list]:
    return _train_sweep(config, {},
                        {"regime": ["DGN_STANDALONE", "DLGN"], "x_v": ["data", "ones"]})


def _bundle_width_sweep(config: ExperimentConfig) -> tuple[list, list, list]:
    """Single-sample NTK relative deviation from its closed-form mean vs width."""
    ex = config.doc["experiment"]
    seed = config.doc["seed"]
    rng = make_rng(seed, stream=208)
    d_in, depth = 3, 2
    x = rng.normal(size=d_in)
    x2 = x + 0.4 * rng.normal(size=d_in)
    rows, records = [], []
    for w in ex["widths"]:
        arch = ArchSpec(family="fc", d_in=d_in, depth=depth, width=w)
        target, res = _mc_estimate(arch, x, x2, rng, ex["mc_deviation_samples"],
                                   make_rng(seed, stream=209 + w))
        if target == 0:  # the relative deviation below would be NaN
            raise FloatingPointError(f"width-sweep: width {w} has a closed-form NTK target "
                                     "of 0 (the inputs share no active path)")
        rel = np.abs(res.samples - target) / abs(target)
        med = float(np.median(rel))
        stderr = float(rel.std(ddof=1) / np.sqrt(rel.size))
        rows.append([w, med, stderr])
        records.append({"width": w, "median_rel_dev": med, "stderr": stderr,
                        "target": target, "mc_mean": res.mean})
    return records, ["width", "median_rel_dev", "stderr"], rows


BUNDLES = {
    "permutation-sweep": _bundle_permutation_sweep,
    "constant-one": _bundle_constant_one,
    "width-sweep": _bundle_width_sweep,
}


def cmd_experiment(config: ExperimentConfig) -> int:
    bundle = config.doc["experiment"]["bundle"]
    # a bundle returns (records, csv header, csv rows); the out directory is
    # created only once there are results to write
    records, header, rows = BUNDLES[bundle](config)
    out = _ensure_out(config.doc["out"])
    with open(os.path.join(out, bundle.replace("-", "_") + ".csv"), "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(str(v) for v in row) + "\n")
    with open(os.path.join(out, "experiment.json"), "w") as fh:
        json.dump({"bundle": bundle, "records": records}, fh, indent=2)
    print(f"experiment: bundle {bundle} wrote {len(records)} records -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# glibc <malloc.h> mallopt parameters: how much free memory at the top of the
# heap free() keeps before it returns the rest to the kernel, and the size
# from which malloc maps a request on its own instead of using the heap
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_TRIM_THRESHOLD = 64 << 20
HEAP_MMAP_THRESHOLD = 32 << 20  # mallopt(3)'s upper limit on 64-bit hosts


def _retain_heap() -> None:
    """Keep freed memory in glibc's heap for reuse; a repeat is harmless.

    Setting either threshold stops glibc from adapting the other, so both
    are set: with the trim threshold alone, a request above the mmap
    threshold where it stopped (128 KiB by default) that the free heap
    cannot hold is mapped and unmapped afresh every time.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    # OSError: no handle for the process; AttributeError: a C library without
    # mallopt (not glibc); TypeError: Windows' CDLL takes no None
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualview",
        description="Path-space laboratory for gated ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "train", "kernel", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="patch a config field (repeatable)")
    return parser


COMMANDS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "kernel": cmd_kernel,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _retain_heap()
    try:
        # --seed is the last override, so the config checks it too
        seed = [] if args.seed is None else [f"seed={args.seed}", f"train.seed={args.seed}"]
        config = ExperimentConfig.load(args.config, [*args.override, *seed])
        if args.out is not None:
            config.doc["out"] = args.out
        return COMMANDS[args.command](config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"dualview {args.command}: IO error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"dualview {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"dualview {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"dualview {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
