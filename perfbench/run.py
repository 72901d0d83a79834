"""Run one dualview benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gram-fc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced operations and reports per-layer metrics from
the traced ones, plus the tracing overhead. Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report. The
full result, with the run record and every per-function metric, is written
to ``.bench_out/<workload>/`` in the checkout.

The package is imported from ``src/`` of the checkout this file sits in.
Without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("gram-fc", "train-conv", "ntk-mc")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# Layers whose self time is reported as a share of the traced operation;
# "bench" is the time outside every wrapped function.
SHARE_LAYERS = ("cli", "data", "arch", "autodiff", "numerics", "kernels", "training", "bench")
# Per-layer metrics printed in the result line of a traced run, and their
# units. The full per-function table goes to the result file.
LAYER_METRICS = {
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    "arch.forward_relu.calls_per_input": "count",
    "kernels.npk_fc.calls": "count",
    "kernels.eigvalsh.calls": "count",
    "kernels.gram_io_bytes": "B",
    "autodiff.nodes": "count",
    "autodiff.backward.calls": "count",
    "autodiff.matmul.flops": "flop",
    "autodiff.conv_circular.flops": "flop",
    "autodiff.conv_circular.vjp_share": "ratio",
    "numerics.init_bernoulli.calls": "count",
    "training.evaluate.calls": "count",
    "training.eval_share": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def use_checkout_source() -> None:
    if not (SRC / "dualview" / "__init__.py").is_file():
        raise BenchError(f"no dualview source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))


def check_imported_source() -> None:
    import dualview

    if Path(dualview.__file__).resolve().parent != (SRC / "dualview").resolve():
        raise BenchError(f"dualview imported from {dualview.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dualview").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "dualview_threads_set": "DUALVIEW_THREADS" in os.environ,
        "load": "closed loop, one process, one client, one operation at a time",
    }


# ---------------------------------------------------------------------------
# set-up: fresh processes
# ---------------------------------------------------------------------------


def probe_setup(args) -> None:
    """In a fresh process: time importing dualview, config and dataset."""
    t0 = time.perf_counter()
    use_checkout_source()
    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT / args.workload))
    wl.setup()
    elapsed = time.perf_counter() - t0
    check_imported_source()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args) -> list[float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# timed and traced loops
# ---------------------------------------------------------------------------


def timed_op(wl):
    t0 = time.perf_counter()
    result = wl.op()
    return time.perf_counter() - t0, result


def loop(seconds: float):
    """Yield once per iteration; stop when one more, as long as the last, would pass ``seconds``."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def run_timed(wl, seconds: float):
    walls, failures = [], []
    for _ in loop(seconds):
        wall, result = timed_op(wl)
        walls.append(wall)
        failures.append(wl.check(result))
    return walls, failures


def run_traced(wl, seconds: float):
    """Alternate untraced and traced operations; checks are traced too."""
    from perfbench import spans

    tracer = spans.Tracer()
    plain, failures = [], []
    for _ in loop(seconds):
        wall, result = timed_op(wl)
        plain.append(wall)
        failures.append(wl.check(result))
        with tracer:
            with tracer.root("bench.op"):
                result = wl.op()
            with tracer.root("bench.check"):
                failures.append(wl.check(result))
    return tracer, plain, failures


def per_function(summaries: list[dict]) -> dict:
    """Median over operations of every span name's calls and self time."""
    names = sorted(summaries[0]["calls"])
    out = {}
    for name in names:
        out[f"{name}.calls"] = statistics.median_low(s["calls"][name] for s in summaries)
        out[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in summaries)
    return out


def layer_metrics(wl, tracer, plain: list[float]) -> tuple[dict, dict]:
    """(result-line per-layer metrics, full per-function table)."""
    from perfbench import spans

    ops = tracer.op_summaries("bench.op")

    def med(fn):
        return statistics.median(fn(s) for s in ops)

    def count(fn):
        return statistics.median_low(fn(s) for s in ops)

    def share(s, names):
        return sum(v for n, v in s["self_s"].items() if n in names) / s["wall_s"]

    m = {}
    for layer in SHARE_LAYERS:
        m[f"{layer}.self_share"] = med(
            lambda s: share(s, {n for n in s["self_s"] if n.split(".", 1)[0] == layer}))
    calls = {n: count(lambda s: s["calls"][n]) for n in ops[0]["calls"]}
    m["arch.forward_relu.calls_per_input"] = calls.get("arch.forward_relu", 0) / wl.n_inputs
    for name in ("kernels.npk_fc", "autodiff.backward", "numerics.init_bernoulli",
                 "training.evaluate"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["kernels.eigvalsh.calls"] = calls.get(spans.EIGVALSH, 0)
    m["kernels.gram_io_bytes"] = count(lambda s: s["io_bytes"])
    m["autodiff.nodes"] = count(lambda s: s["nodes"])
    m["autodiff.matmul.flops"] = count(lambda s: s["flops"]["autodiff.matmul"])
    m["autodiff.conv_circular.flops"] = count(lambda s: s["flops"]["autodiff.conv_circular"])
    m["autodiff.conv_circular.vjp_share"] = med(
        lambda s: s["total_s"].get(spans.CONV_VJP, 0.0) / s["wall_s"])
    m["training.eval_share"] = med(
        lambda s: s["total_s"].get("training.evaluate", 0.0) / s["total_s"]["training.train"]
        if s["total_s"].get("training.train") else 0.0)
    traced = [s["wall_s"] for s in ops]
    m["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)

    table = {
        "ops": per_function(ops),
        "checks": per_function(tracer.op_summaries("bench.check")),
        "autodiff.conv_circular.vjp_s": med(lambda s: s["total_s"].get(spans.CONV_VJP, 0.0)),
        "traced_wall_s": traced, "untraced_wall_s": plain,
    }
    return m, table


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    if "DUALVIEW_THREADS" in os.environ:
        raise BenchError("DUALVIEW_THREADS is set; the benchmark measures the unthreaded package")
    use_checkout_source()
    check_imported_source()
    from perfbench import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_record(args)
    print("record " + json.dumps(record))
    wl = workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    wl.setup()

    result = {"record": record}
    if args.trace:
        tracer, walls, failures = run_traced(wl, args.seconds)
        metrics, table = layer_metrics(wl, tracer, walls)
        units = LAYER_METRICS
        tracer.save(str(out_dir / f"spans-seed{args.seed}.npz"))
        result["per_function"] = table
        for key in ("ops", "checks"):
            for name, value in table[key].items():
                print(f"{key[:-1]:5s} {name:45s} {value:.6g}")
    else:
        setup = measure_setup(args)
        result["setup_s_probes"] = setup
        walls, failures = run_timed(wl, args.seconds)
        # The mean, not the median: operation times on a shared host switch
        # between fast and slow states, and the median of a run jumps with
        # whichever state holds most of it (see README, "Measured spread").
        wall = statistics.fmean(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": wl.items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
        q1, q3 = quartiles(walls)
        print(f"wall_s over {len(walls)} operations: mean {wall:.4f} s, median "
              f"{statistics.median(walls):.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")
        print(f"{wl.item}_per_s {wl.items / wall:.6g} 1/s ({wl.items} {wl.item} per operation)")
    failed = sum(1 for f in failures if f)
    for i, f in enumerate(failures):
        for msg in f:
            print(f"FAIL operation {i}: {msg}")
    print(f"fail_frac {failed / len(failures):.6g} ratio ({failed} of {len(failures)} operations)")
    if args.workload == "ntk-mc":
        print(f"mc chance misses (first draw outside 3 stderr, re-drawn): "
              f"{wl.chance_misses} of {wl.estimates} estimates; expected rate 0.27%")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    line = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    result.update(line)
    result["walls_s"] = walls
    with open(out_dir / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
