"""Stable-interface guard on the benchmark's own sources.

The benchmark drives dualview only through ``dualview.cli.main`` argv and the
public names below. It uses no ``_``-prefixed name, never sets
``DUALVIEW_THREADS`` and never tunes ``kernel.cap``, so the package can drop
its private helpers, its thread pool and the cap without a benchmark edit.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, spans, workloads  # noqa: E402

SOURCES = sorted((ROOT / "perfbench").glob("*.py"))

# Module -> public names the benchmark may use. Beyond the names that drive
# the workloads (cli.main and the MC and oracle functions), ArchSpec and
# init_params rebuild the kernel command's feature network for the oracle,
# ExperimentConfig resolves the config during set-up, and GramMatrix reads
# the written Gram back.
ALLOWED = {
    "cli": {"main", "ExperimentConfig"},
    "arch": {"ArchSpec", "forward_relu", "init_params", "weight_layer_specs"},
    "numerics": {"make_rng"},
    "kernels": {"ntk_expectation_mc", "mc_target", "GramMatrix"},
    "paths": {"dual_vectors", "enumerate_paths"},
}


def trees():
    return [(path.name, ast.parse(path.read_text())) for path in SOURCES]


def is_private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and name != "_" and not dunder


def test_no_private_names():
    for fname, tree in trees():
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
            assert not any(map(is_private, names)), f"{fname}:{node.lineno} uses {names}"
    for layer, quals in spans.WRAPPED.items():
        for qual in quals:
            assert not any(map(is_private, qual.split("."))), f"{layer}.{qual}"


def test_dualview_names_are_listed():
    used = set()
    for fname, tree in trees():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dualview"):
                assert node.module == "dualview", f"{fname}: use dualview names via their module"
                modules.update({a.asname or a.name: a.name for a in node.names})
            if isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name for a in node.names
                                if a.name.startswith("dualview")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules and not node.attr.startswith("__"):
                used.add((modules[node.value.id], node.attr))
    assert used, "the guard found no dualview use at all"
    unlisted = {(m, n) for m, n in used if n not in ALLOWED.get(m, set())}
    assert not unlisted


def test_thread_pool_and_cap_untouched():
    for fname, tree in trees():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "DUALVIEW_THREADS":
                parent = parents[node]
                assert isinstance(parent, ast.Compare) and isinstance(parent.ops[0], ast.In), \
                    f"{fname}:{node.lineno} may only test whether DUALVIEW_THREADS is set"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "kernel.cap" not in node.value, f"{fname}:{node.lineno}"
            if isinstance(node, ast.keyword):
                assert node.arg != "cap", f"{fname}:{node.lineno}"
            if isinstance(node, ast.Attribute):
                assert node.attr != "max_threads", f"{fname}:{node.lineno}"


def test_workload_names_match():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
