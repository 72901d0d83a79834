"""Span tracing around the public functions of each ``dualview`` module.

The tracer lives entirely in the benchmark: it changes no package source.
``from .x import f`` copies a binding into the importing module, so wrapping
``dualview.x.f`` alone would miss calls made through those copies. The tracer
therefore rebinds every ``dualview`` module attribute that holds the original
function, and puts every original back when it is closed.

A span is (name, start, end, parent, op). Spans of one benchmark operation
share an ``op`` id; the operation itself is the root span. Spans stay in
memory, in flat arrays, until :meth:`Tracer.save` writes them out. The tracer
is single-threaded: it assumes the package runs its work on the calling
thread, which holds while ``DUALVIEW_THREADS`` is unset.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer (package module) -> public functions wrapped with a span. A dotted
# entry is a method, wrapped on its class.
WRAPPED = {
    "cli": ("main",),
    "data": ("generate_synthetic",),
    "arch": ("forward_relu", "forward_gated", "forward_dlgn", "feature_gates", "init_params"),
    "autodiff": ("matmul", "mul", "conv_circular", "logistic", "backward"),
    "numerics": ("grad", "init_bernoulli", "make_rng"),
    "kernels": (
        "gram", "npk_fc", "gate_correlations", "ntk_expectation_mc", "ntk_fixed_gates",
        "mc_target", "npk_conv_rotsum", "npk_res_ensemble",
        "GramMatrix.save_csv", "GramMatrix.save_npkg",
    ),
    "training": ("train", "evaluate", "Adam.step", "loss_softmax_ce"),
    "paths": ("enumerate_paths", "dual_vectors"),
}

# Spans that are not a wrapped package name: numpy's eigvalsh as called by
# GramMatrix.min_eigenvalue, and the backward-pass closures conv_circular
# attaches to the node it returns.
EIGVALSH = "kernels.eigvalsh"
CONV_VJP = "autodiff.conv_circular.vjp"


def value_shape(x) -> tuple:
    return np.shape(getattr(x, "value", x))


def matmul_flops(a, b) -> int:
    """Forward multiply-adds x2 of ``a @ b``, computed from the shapes."""
    sa, sb = value_shape(a), value_shape(b)
    return 2 * int(np.prod(sa[:-1], dtype=np.int64)) * int(sa[-1]) * int(sb[-1])


def conv_flops(z, theta) -> int:
    """Forward multiply-adds x2 of ``conv_circular(z, theta)``, from the shapes."""
    n, d_in, c_in = value_shape(z)
    w_cv, _, c_out = value_shape(theta)
    return 2 * n * d_in * w_cv * c_in * c_out


class Tracer:
    """Collects spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.stack: list[int] = []
        self.ops: list[tuple[str, int]] = []  # (root kind, root span id) per op
        self.nodes = array("q")  # autodiff.Node constructions, per op
        self.flops = {"autodiff.matmul": array("q"), "autodiff.conv_circular": array("q")}
        self.io_bytes = array("q")  # bytes of Gram files written, per op
        self.restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(len(self.ops) - 1)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, kind: str):
        """One benchmark operation (``bench.op``) or output check (``bench.check``)."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        self.ops.append((kind, len(self.start)))
        self.nodes.append(0)
        self.io_bytes.append(0)
        for counts in self.flops.values():
            counts.append(0)
        sid = self.open(self.name_id(kind))
        try:
            yield
        finally:
            self.close(sid)

    def spanned(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(out, args)`` runs inside it."""
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args)
                return out
            finally:
                tracer.close(sid)

        return wrapper

    # -- per-function extras -------------------------------------------------

    def after_matmul(self, out, args):
        self.flops["autodiff.matmul"][-1] += matmul_flops(*args[:2])

    def after_conv(self, out, args):
        self.flops["autodiff.conv_circular"][-1] += conv_flops(*args[:2])
        out.vjps = tuple(self.spanned(CONV_VJP, v) for v in out.vjps)

    def after_save(self, out, args):
        self.io_bytes[-1] += os.path.getsize(args[1])

    # -- install / uninstall -------------------------------------------------

    def rebind(self, owner, attr: str, new) -> None:
        self.restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        if self.restore:
            raise RuntimeError("tracer already installed")
        after = {
            "autodiff.matmul": self.after_matmul,
            "autodiff.conv_circular": self.after_conv,
            "kernels.GramMatrix.save_csv": self.after_save,
            "kernels.GramMatrix.save_npkg": self.after_save,
        }
        self.name_id(CONV_VJP)  # listed even when no conv runs
        modules = {layer: importlib.import_module(f"dualview.{layer}") for layer in WRAPPED}
        package = [m for k, m in sys.modules.items()
                   if k == "dualview" or k.startswith("dualview.")]
        try:
            for layer, names in WRAPPED.items():
                module = modules[layer]
                for qual in names:
                    full = f"{layer}.{qual}"
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        owner = getattr(module, cls_name)
                        new = self.spanned(full, owner.__dict__[attr], after.get(full))
                        self.rebind(owner, attr, new)
                        continue
                    orig = getattr(module, qual)
                    new = self.spanned(full, orig, after.get(full))
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self.rebind(mod, attr, new)
            self.rebind(np.linalg, "eigvalsh", self.spanned(EIGVALSH, np.linalg.eigvalsh))
            node_cls = modules["autodiff"].Node
            node_init = node_cls.__init__
            nodes = self.nodes

            def counted_init(node, *args, **kwargs):
                if nodes:
                    nodes[-1] += 1
                node_init(node, *args, **kwargs)

            self.rebind(node_cls, "__init__", counted_init)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self.restore:
            owner, attr, orig = self.restore.pop()
            setattr(owner, attr, orig)

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, plus each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "dur": dur, "self": dur - child,
        }

    def op_summaries(self, kind: str) -> list[dict]:
        """Per root of ``kind``: wall time, counters and per-name calls/self time."""
        a = self.arrays()
        out = []
        for op_id, (root_kind, root_sid) in enumerate(self.ops):
            if root_kind != kind:
                continue
            sel = a["op"] == op_id
            names = a["name"][sel]
            calls = np.bincount(names, minlength=len(self.names))
            self_s = np.bincount(names, weights=a["self"][sel], minlength=len(self.names))
            total_s = np.bincount(names, weights=a["dur"][sel], minlength=len(self.names))
            out.append({
                "wall_s": float(a["dur"][root_sid]),
                "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
                "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
                "total_s": {n: float(total_s[i]) for i, n in enumerate(self.names)},
                "nodes": int(self.nodes[op_id]),
                "flops": {k: int(v[op_id]) for k, v in self.flops.items()},
                "io_bytes": int(self.io_bytes[op_id]),
            })
        return out

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), start=a["start"], end=a["end"],
                 parent=a["parent"], op=a["op"], name=a["name"],
                 root_kind=np.array([k for k, _ in self.ops]))
