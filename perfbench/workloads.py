"""The three benchmark workloads: set-up, one timed operation, output checks.

Each workload drives ``dualview`` only through ``dualview.cli.main`` argv and
a short list of public names (see ``tests/test_bench_interface.py``). The
workload seed reaches the package only as ``--seed S``, ``dataset.seed=S`` or
as arrays and generators made from it. Every input is pinned in the argv
instead of taken from the config defaults, so a change of default cannot
silently change a workload.

``setup()`` is what a fresh process pays before its first operation: import
``dualview``, resolve the config and generate the dataset (or the input
arrays). ``op()`` is the timed operation. ``check(result)`` runs outside the
timed interval and returns a list of failure messages; an empty list means
the output is correct. ``dualview`` is imported inside ``setup()`` so that a
fresh process can time that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

GRAM_N = 256
CONV_ARCH = {"family": "conv_gap", "d_in": 8, "w_cv": 3, "width": 16, "d_cv": 2, "d_fc": 2,
             "n_out": 2}
FC_ARCH = {"family": "fc", "d_in": 3, "depth": 4, "width": 16, "n_out": 2}
TRAIN_EPOCHS = 20
# The acceptance suite's LEARNABILITY_THRESHOLD.
MIN_TEST_ACCURACY = 0.95
# cmd_kernel draws the feature network from this stream of the run seed.
KERNEL_PARAMS_STREAM = 206
ORACLE_PAIRS = 16
ORACLE_RTOL = 1e-12
MC_STDERRS = 3.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``dualview.cli.main(argv)``: (exit code, captured standard error)."""
    from dualview import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def override_specs(pairs: dict) -> list[str]:
    """``key.path=value`` strings as ``--override`` takes them."""
    return [f"{key}={json.dumps(value)}" for key, value in pairs.items()]


class CliWorkload:
    """A ``dualview`` subcommand run in-process, writing into ``out_dir``."""

    command = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.first = None

    def config_overrides(self) -> dict:
        raise NotImplementedError

    def argv(self) -> list[str]:
        argv = [self.command, "--seed", str(self.seed), "--out", self.out_dir]
        for spec in override_specs(self.config_overrides()):
            argv += ["--override", spec]
        return argv

    def setup(self) -> None:
        from dualview import cli

        self.config = cli.ExperimentConfig.load(None, override_specs(self.config_overrides()))
        self.dataset = self.config.make_dataset()

    def op(self) -> tuple[int, str]:
        return run_cli(self.argv())


class GramFc(CliWorkload):
    """``dualview kernel``: the fc NPK Gram of 256 circles points."""

    name = "gram-fc"
    command = "kernel"
    item = "gram_entries"

    def __init__(self, seed: int, out_dir: str, n: int = GRAM_N):
        super().__init__(seed, out_dir)
        self.n = n
        self.n_inputs = n
        self.items = n * (n + 1) // 2

    def config_overrides(self) -> dict:
        return {"arch": FC_ARCH, "dataset.kind": "circles", "dataset.n": 2000,
                "dataset.seed": self.seed, "kernel.n": self.n}

    def read_gram(self):
        from dualview import kernels

        csv = kernels.GramMatrix.load_csv(os.path.join(self.out_dir, "gram.csv"))
        npkg = kernels.GramMatrix.load_npkg(os.path.join(self.out_dir, "gram.npkg"))
        return csv, npkg

    def oracle(self, X: np.ndarray, pairs) -> list[tuple[float, float]]:
        """(<phi(x_i), phi(x_j)> by path enumeration, sum of |terms|) per pair."""
        from dualview import arch, numerics, paths

        spec = self.config.arch()
        pf = arch.init_params(spec, numerics.make_rng(self.seed, stream=KERNEL_PARAMS_STREAM))
        table = paths.enumerate_paths(spec)
        npf = {}
        for i in {i for pair in pairs for i in pair}:
            gates = arch.forward_relu(spec, pf, X[i]).gates
            npf[i] = paths.dual_vectors(spec, pf, X[i], gates, table=table).npf
        return [(float(npf[i] @ npf[j]), float(np.abs(npf[i]) @ np.abs(npf[j]))) for i, j in pairs]

    def check(self, result: tuple[int, str]) -> list[str]:
        code, err = result
        if code != 0:
            return [f"dualview kernel exited {code} (1: not PSD or not symmetric): {err.strip()}"]
        csv, npkg = self.read_gram()
        G = csv.matrix
        fails = []
        if G.shape != (self.n, self.n):
            return [f"gram.csv holds a {G.shape} matrix, expected {(self.n, self.n)}"]
        if not np.array_equal(G, npkg.matrix):
            fails.append("gram.csv and gram.npkg do not read back equal")
        X = self.dataset.X[: self.n]
        digest = hashlib.sha256(np.ascontiguousarray(X, dtype=np.float64).tobytes()).hexdigest()
        if csv.fingerprint != digest[:16]:
            fails.append("gram.csv fingerprint does not match the benchmark's dataset")
        rng = np.random.default_rng(self.seed)
        pairs = [tuple(sorted(rng.integers(0, self.n, size=2))) for _ in range(ORACLE_PAIRS - 2)]
        pairs += [(0, 0), (self.n - 1, self.n - 1)]
        for (i, j), (want, scale) in zip(pairs, self.oracle(X, pairs)):
            if abs(G[i, j] - want) > ORACLE_RTOL * scale:
                fails.append(f"G[{i},{j}] = {float(G[i, j])!r}, path oracle {want!r}")
        if self.first is None:
            self.first = G
        elif not np.array_equal(G, self.first):
            fails.append("Gram differs from the first operation's Gram of the same seed")
        return fails


class TrainConv(CliWorkload):
    """``dualview train``: DLGN regime, conv_gap network, shifted pulses."""

    name = "train-conv"
    command = "train"
    item = "train_samples"

    def __init__(self, seed: int, out_dir: str, epochs: int = TRAIN_EPOCHS):
        super().__init__(seed, out_dir)
        self.epochs = epochs

    def config_overrides(self) -> dict:
        return {"arch": CONV_ARCH, "train.regime": "DLGN", "train.epochs": self.epochs,
                "dataset.kind": "shifted_pulses", "dataset.n": 2000, "dataset.seed": self.seed}

    def setup(self) -> None:
        super().setup()
        fraction = self.config.doc["dataset"]["train_fraction"]
        self.n_inputs = self.dataset.n
        self.items = self.epochs * int(round(fraction * self.dataset.n))

    def check(self, result: tuple[int, str]) -> list[str]:
        code, err = result
        if code != 0:
            return [f"dualview train exited {code}: {err.strip()}"]
        with open(os.path.join(self.out_dir, "train_report.json")) as fh:
            report = json.load(fh)
        fails = []
        acc = report["final_test_accuracy"]
        if not acc >= MIN_TEST_ACCURACY:
            fails.append(f"final test accuracy {acc} < {MIN_TEST_ACCURACY}")
        if report["regime"] != "DLGN" or len(report["train_loss"]) != self.epochs:
            fails.append("train report does not describe the requested run")
        curves = (report["train_loss"], report["test_accuracy"], acc)
        if self.first is None:
            self.first = curves
        elif curves != self.first:
            fails.append("training curves differ from the first operation's of the same seed")
        return fails


# (arch fields, MC samples S, sigma) per estimate; the acceptance suite's MC
# architectures of criteria 4 (fc, four trials), 5 (conv_gap) and 6 (res).
MC_CASES = (
    *[({"family": "fc", "d_in": 3, "depth": 3, "width": 256}, 200, 0.5)] * 4,
    ({"family": "conv_gap", "d_in": 5, "w_cv": 2, "width": 32, "d_cv": 1, "d_fc": 2}, 400, 0.3),
    ({"family": "res", "d_in": 3, "b": 2, "d_blk": 1, "width": 32}, 400, 0.4),
)
INPUT_STREAM = 1
MC_STREAM = 100
RETEST_STREAM = 200


class NtkMc:
    """Six Monte-Carlo value-weight NTK estimates, each against its closed form."""

    name = "ntk-mc"
    item = "mc_samples"

    def __init__(self, seed: int, out_dir: str, cases=MC_CASES):
        self.seed = seed
        self.out_dir = out_dir
        self.cases = cases
        self.n_inputs = 2 * len(cases)
        self.items = sum(s for _, s, _ in cases)
        self.first = None
        self.chance_misses = 0
        self.estimates = 0

    def setup(self) -> None:
        from dualview import arch, numerics

        rng = numerics.make_rng(self.seed, stream=INPUT_STREAM)
        self.inputs = []
        for fields, n_samples, sigma in self.cases:
            spec = arch.ArchSpec(**fields)
            pf = {n: rng.normal(scale=0.8, size=s) for n, s, _ in arch.weight_layer_specs(spec)}
            x = rng.normal(size=spec.d_in)
            x2 = x + 0.4 * rng.normal(size=spec.d_in)
            self.inputs.append((spec, pf, x, x2, n_samples, sigma))

    def estimate(self, k: int, stream: int):
        from dualview import arch, kernels, numerics

        spec, pf, x, x2, n_samples, sigma = self.inputs[k]
        gx = arch.forward_relu(spec, pf, x).gates
        gx2 = arch.forward_relu(spec, pf, x2).gates
        rng = numerics.make_rng(self.seed, stream=stream + k)
        return gx, gx2, kernels.ntk_expectation_mc(spec, gx, gx2, x, x2, n_samples=n_samples,
                                                   rng=rng, sigma=sigma)

    def op(self):
        return [self.estimate(k, MC_STREAM) for k in range(len(self.inputs))]

    def target(self, k: int, gx, gx2) -> float:
        from dualview import arch, kernels

        spec, pf, x, x2, _, sigma = self.inputs[k]

        def provider(xx):
            return arch.forward_relu(spec, pf, xx).gates

        return kernels.mc_target(spec, x, x2, gx, gx2, sigma=sigma,
                                 gates_provider=provider if spec.family == "conv_gap" else None)

    def check(self, results) -> list[str]:
        fails = []
        for k, (gx, gx2, res) in enumerate(results):
            n_samples = self.inputs[k][4]
            if res.samples.shape != (n_samples,) or not np.all(np.isfinite(res.samples)):
                fails.append(f"estimate {k}: expected {n_samples} finite samples")
                continue
            target = self.target(k, gx, gx2)
            self.estimates += 1
            if not res.within(target, MC_STDERRS):
                # A correct estimator misses 3 stderr by chance (~0.27% per
                # estimate), so a miss is re-drawn once on an independent
                # stream; only a confirmed miss fails the operation.
                self.chance_misses += 1
                _, _, again = self.estimate(k, RETEST_STREAM)
                if not again.within(target, MC_STDERRS):
                    fails.append(f"estimate {k}: MC means {res.mean!r} and {again.mean!r} both "
                                 f"outside {MC_STDERRS} stderr of the closed form {target!r}")
        samples = [res.samples for _, _, res in results]
        if self.first is None:
            self.first = samples
        elif not all(np.array_equal(a, b) for a, b in zip(samples, self.first)):
            fails.append("MC samples differ from the first operation's of the same seed")
        return fails


WORKLOADS = {w.name: w for w in (GramFc, TrainConv, NtkMc)}
