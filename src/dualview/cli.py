"""Command-line entry points and declarative experiment configuration.

One binary, four subcommands:

* ``dualview verify``     — run the structural invariant suite, emit JSON
* ``dualview train``      — train one regime, emit TrainReport JSON + params
* ``dualview kernel``     — emit a Gram matrix as CSV and NPKG binary
* ``dualview experiment`` — run a named bundle (permutation-sweep,
  constant-one, width-sweep) and emit combined JSON + per-figure CSVs

Configs are JSON documents; every field has a default and the parsed form
round-trips losslessly. ``--override key.path=value`` (repeatable) patches
individual fields; values are parsed as JSON with a plain-string fallback.
An unknown key or a non-object section is a usage error. The ``train``
section's defaults are those of :class:`dualview.training.TrainConfig`.

Exit codes: 0 success, 1 check/assertion failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .arch import ArchSpec, forward_relu, init_params, weight_layer_specs
from .data import Dataset, generate_synthetic, load_dataset
from .kernels import (
    GramMatrix,
    McResult,
    gram,
    invariance_report,
    mc_target,
    npk_fc,
    ntk_expectation_mc,
)
from .numerics import make_rng
from .paths import PathBudgetError, count_paths, dual_vectors, enumerate_paths
from .training import TrainConfig, evaluate, train

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
        "mc_sigma_scale": 1.0,  # fault-injection knob: != 1 must fail the MC check
        "max_paths": 1_000_000,
    },
    "kernel": {
        "n": 64,
        "tag": "npk-fc",
    },
    "experiment": {
        "bundle": "permutation-sweep",
        "seeds": 3,
        "widths": [16, 64, 256],
        "mc_deviation_samples": 60,
    },
}


@dataclass
class ExperimentConfig:
    """Declarative experiment document.

    DEFAULT_CONFIG is the schema: a key it does not have is an error, except
    that `arch` takes every ArchSpec field and `dataset.params` is passed to
    the dataset generator as is.
    """

    doc: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG))

    def __post_init__(self):
        for key in self.doc:
            if key not in DEFAULT_CONFIG:
                raise ValueError(f"unknown config key {key}")
        for section, default in DEFAULT_CONFIG.items():
            if not isinstance(default, dict):
                continue
            if not isinstance(self.doc.get(section), dict):
                raise ValueError(f"config section {section!r} must be an object")
            known = {f.name for f in fields(ArchSpec)} if section == "arch" else default
            for key in self.doc[section]:
                if key not in known:
                    raise ValueError(f"unknown config key {section}.{key}")
        if not isinstance(self.doc["dataset"].get("params"), dict):
            raise ValueError("config key dataset.params must be an object")

    @classmethod
    def load(cls, path=None, overrides=()) -> "ExperimentConfig":
        doc = copy.deepcopy(DEFAULT_CONFIG)
        if path is not None:
            with open(path) as fh:
                _merge(doc, json.load(fh))
        for ov in overrides:
            _apply_override(doc, ov)
        return cls(doc=doc)

    def to_json(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = copy.deepcopy(DEFAULT_CONFIG)
        _merge(doc, json.loads(text))
        return cls(doc=doc)

    def arch(self) -> ArchSpec:
        return ArchSpec(**self.doc["arch"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.doc["train"])

    def make_dataset(self) -> Dataset:
        d = self.doc["dataset"]
        if d["kind"] == "file":
            if not d.get("path"):
                raise ValueError("dataset.kind == 'file' requires dataset.path")
            return load_dataset(d["path"], d.get("format", "csv"))
        return generate_synthetic(d["kind"], d["n"], d["seed"], **d["params"])


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


def _verify_probes(seed: int):
    rng = make_rng(seed, stream=201)

    def normal_params(arch, scale=0.8):
        return {n: rng.normal(scale=scale, size=s) for n, s, _ in weight_layer_specs(arch)}

    fc = ArchSpec(family="fc", d_in=3, depth=4, width=4)
    cv = ArchSpec(family="conv_gap", d_in=5, w_cv=2, width=3, d_cv=2, d_fc=2)
    rs = ArchSpec(family="res", d_in=3, b=2, d_blk=1, width=4)
    probes = {}
    for name, arch in (("fc", fc), ("conv", cv), ("res", rs)):
        x = rng.normal(size=arch.d_in)
        x2 = x + 0.4 * rng.normal(size=arch.d_in)
        probes[name] = (arch, normal_params(arch), x, x2)
    return probes


def _eq1_check(probes, n_samples, max_paths, seed):
    """Path identity on every probe family whose path count is within budget."""
    rng = make_rng(seed, stream=202)
    worst = 0.0
    checked, skipped = [], {}
    for name, (arch, params, _, _) in probes.items():
        n_paths = count_paths(arch)
        if n_paths > max_paths:
            skipped[name] = f"path count {n_paths} exceeds budget {max_paths}"
            continue
        table = enumerate_paths(arch, budget=max_paths)
        for _ in range(n_samples):
            x = rng.normal(size=arch.d_in)
            res = forward_relu(arch, params, x)
            dv = dual_vectors(arch, params, x, res.gates, table=table)
            dev = abs(float(res.y) - dv.output()) / (1.0 + abs(float(res.y)))
            worst = max(worst, dev)
        checked.append(name)
    result = {"check": "path identity y = <phi, v>", "families": checked,
              "skipped_families": skipped}
    if not checked:
        return {**result, "skipped": True}
    return {**result, "max_deviation": worst, "tolerance": 1e-9, "passed": worst <= 1e-9,
            "samples": n_samples * len(checked)}


def _mc_check(probes, n_samples, sigma_scale, seed):
    arch, params, x, x2 = probes["fc"]
    arch = ArchSpec(family="fc", d_in=arch.d_in, depth=2, width=64)
    rng = make_rng(seed, stream=203)
    pf = {n: rng.normal(scale=0.8, size=s) for n, s, _ in weight_layer_specs(arch)}
    gx = forward_relu(arch, pf, x).gates
    gx2 = forward_relu(arch, pf, x2).gates
    sigma = 0.5
    target = mc_target(arch, x, x2, gx, gx2, sigma=sigma)
    res = ntk_expectation_mc(arch, gx, gx2, x, x2, n_samples=n_samples,
                             rng=make_rng(seed, stream=204), sigma=sigma * sigma_scale)
    return {"check": "MC NTK mean vs closed-form target", "target": target,
            "mc_mean": res.mean, "mc_stderr": res.stderr,
            "passed": res.within(target, 3.0), "n_samples": n_samples}


def cmd_verify(config: ExperimentConfig) -> int:
    v = config.doc["verify"]
    seed = config.doc["seed"]
    probes = _verify_probes(seed)
    fc, cv, rs = probes["fc"], probes["conv"], probes["res"]
    report = invariance_report(fc_probe=fc, conv_probe=cv, res_probe=rs)
    report["path_identity"] = _eq1_check(probes, v["eq1_samples"], v["max_paths"], seed)
    report["mc_ntk"] = _mc_check(probes, v["mc_samples"], v["mc_sigma_scale"], seed)

    out = _ensure_out(config.doc["out"])
    with open(os.path.join(out, "verify.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    failed = [k for k, r in report.items() if not r.get("skipped") and not r.get("passed")]
    skipped = [k for k, r in report.items() if r.get("skipped")]
    for k, r in report.items():
        status = "SKIP" if r.get("skipped") else ("PASS" if r.get("passed") else "FAIL")
        partial = r.get("skipped_families")
        note = f" (skipped for {', '.join(partial)})" if partial else ""
        print(f"[{status}] {k}: {r.get('check', k)}{note}")
    if failed:
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"verify: all checks passed ({len(skipped)} skipped)")
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
    arrays = {f"v.{k}": v for k, v in model.params_v.items()}
    if model.params_f is not None:
        arrays.update({f"f.{k}": v for k, v in model.params_f.items()})
    np.savez(os.path.join(out, "params.npz"), **arrays)
    print(f"train: regime {tc.regime} final test accuracy "
          f"{report.final_test_accuracy:.4f} -> {out}/train_report.json")
    return 0


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def cmd_kernel(config: ExperimentConfig) -> int:
    kc = config.doc["kernel"]
    arch = config.arch()
    if arch.family != "fc":
        raise ValueError("kernel subcommand currently builds fc-family NPK grams")
    ds = config.make_dataset()
    n = min(kc["n"], ds.n)
    X = ds.X[:n]
    pf = init_params(arch, make_rng(config.doc["seed"], stream=206))

    def kernel(a, b):
        ga = forward_relu(arch, pf, a).gates
        gb = forward_relu(arch, pf, b).gates
        return npk_fc(a, b, ga, gb)

    g = gram(X, kernel, tag=kc["tag"])
    out = _ensure_out(config.doc["out"])
    g.save_csv(os.path.join(out, "gram.csv"))
    g.save_npkg(os.path.join(out, "gram.npkg"))
    ok = g.is_psd() and g.is_symmetric()
    print(f"kernel: {n}x{n} gram tag={kc['tag']} min_eig={g.min_eigenvalue():.3e} "
          f"floor={g.psd_floor():.3e} psd={g.is_psd()}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# experiment bundles
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _bundle_permutation_sweep(config: ExperimentConfig, out: str) -> dict:
    import itertools

    arch = config.arch()
    n_seeds = config.doc["experiment"]["seeds"]
    ds = config.make_dataset()
    tr, te = ds.split(config.doc["dataset"]["train_fraction"],
                      make_rng(config.doc["seed"], stream=207))
    perms = list(itertools.permutations(range(arch.n_gate_layers())))
    records = []
    base = config.doc["train"]
    for perm in perms:
        for seed in range(n_seeds):
            tc = TrainConfig(**{**base, "regime": "DLGN", "perm": perm, "seed": seed})
            report, model = train(arch, tr, tc, test=te)
            records.append({"perm": list(perm), "seed": seed,
                            "test_accuracy": report.final_test_accuracy})
    _write_csv(os.path.join(out, "permutation_sweep.csv"),
               ["perm", "seed", "test_accuracy"],
               [["-".join(map(str, r["perm"])), r["seed"], r["test_accuracy"]]
                for r in records])
    return {"bundle": "permutation-sweep", "records": records}


def _bundle_constant_one(config: ExperimentConfig, out: str) -> dict:
    n_seeds = config.doc["experiment"]["seeds"]
    arch = config.arch()
    ds = config.make_dataset()
    tr, te = ds.split(config.doc["dataset"]["train_fraction"],
                      make_rng(config.doc["seed"], stream=207))
    records = []
    base = config.doc["train"]
    for regime in ("DGN_STANDALONE", "DLGN"):
        for x_v in ("data", "ones"):
            for seed in range(n_seeds):
                tc = TrainConfig(**{**base, "regime": regime, "x_v": x_v, "seed": seed})
                report, model = train(arch, tr, tc, test=te)
                records.append({"regime": regime, "x_v": x_v, "seed": seed,
                                "test_accuracy": report.final_test_accuracy})
    _write_csv(os.path.join(out, "constant_one.csv"),
               ["regime", "x_v", "seed", "test_accuracy"],
               [[r["regime"], r["x_v"], r["seed"], r["test_accuracy"]] for r in records])
    return {"bundle": "constant-one", "records": records}


def _bundle_width_sweep(config: ExperimentConfig, out: str) -> dict:
    """Single-sample NTK relative deviation from its closed-form mean vs width."""
    ex = config.doc["experiment"]
    seed = config.doc["seed"]
    rng = make_rng(seed, stream=208)
    d_in, depth, sigma = 3, 2, 0.5
    x = rng.normal(size=d_in)
    x2 = x + 0.4 * rng.normal(size=d_in)
    rows, records = [], []
    for w in ex["widths"]:
        arch = ArchSpec(family="fc", d_in=d_in, depth=depth, width=w)
        pf = {n: rng.normal(scale=0.8, size=s) for n, s, _ in weight_layer_specs(arch)}
        gx = forward_relu(arch, pf, x).gates
        gx2 = forward_relu(arch, pf, x2).gates
        target = mc_target(arch, x, x2, gx, gx2, sigma=sigma)
        res = ntk_expectation_mc(arch, gx, gx2, x, x2,
                                 n_samples=max(100, ex["mc_deviation_samples"]),
                                 rng=make_rng(seed, stream=209 + w), sigma=sigma)
        rel = np.abs(res.samples - target) / abs(target)
        med = float(np.median(rel))
        stderr = float(rel.std(ddof=1) / np.sqrt(rel.size))
        rows.append([w, med, stderr])
        records.append({"width": w, "median_rel_dev": med, "stderr": stderr,
                        "target": target, "mc_mean": res.mean})
    _write_csv(os.path.join(out, "width_sweep.csv"),
               ["width", "median_rel_dev", "stderr"], rows)
    return {"bundle": "width-sweep", "records": records}


BUNDLES = {
    "permutation-sweep": _bundle_permutation_sweep,
    "constant-one": _bundle_constant_one,
    "width-sweep": _bundle_width_sweep,
}


def cmd_experiment(config: ExperimentConfig) -> int:
    bundle = config.doc["experiment"]["bundle"]
    if bundle not in BUNDLES:
        raise ValueError(f"unknown bundle {bundle!r}; choose from {sorted(BUNDLES)}")
    out = _ensure_out(config.doc["out"])
    result = BUNDLES[bundle](config, out)
    with open(os.path.join(out, "experiment.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    print(f"experiment: bundle {bundle} wrote {len(result['records'])} records -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


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
    try:
        config = ExperimentConfig.load(args.config, args.override)
        if args.seed is not None:
            config.doc["seed"] = args.seed
            config.doc["train"]["seed"] = args.seed
        if args.out is not None:
            config.doc["out"] = args.out
        return COMMANDS[args.command](config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"dualview {args.command}: IO error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PathBudgetError) as exc:
        print(f"dualview {args.command}: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"dualview {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
