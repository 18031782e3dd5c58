"""Span tracing from outside the program.

The traced run replaces each layer's public functions with wrappers.
A wrapper records one span per call (name, start, end, parent span and
the pass it ran in) plus the counts the per-layer metrics need, and it
is bound into every namespace where callers look the name up: module
globals (so ``from .model import logits_graph`` bindings and the
autodiff VJP table see it), module-level dispatch dicts (the CLI
subcommand table) and ``Adam.step``. Private names are never wrapped.

Spans live in compact arrays in memory and are written once, when the
run ends. A layer's self time is the time its spans cover minus the
time covered by their child spans of other layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> modules whose public functions belong to it
LAYERS = {
    "autodiff": ("mlx.autodiff",),
    "model": ("mlx.model",),
    "intervals": ("mlx.intervals",),
    "perturb": ("mlx.perturb",),
    "train": ("mlx.train",),
    "data": ("mlx.data",),
    "metrics": ("mlx.metrics",),
    "theory": ("mlx.theory",),
    "cli": ("mlx.cli", "mlx.config"),
}

PRIMITIVES = frozenset(
    "add mul div neg matmul transpose reshape relu absval exp log tsum broadcast_to gather_rows scatter_rows".split()
)
COPYING = frozenset(("transpose", "broadcast_to"))
INFER = frozenset(("logits", "predict"))
CHECKPOINT = frozenset(("save_checkpoint", "load_checkpoint"))
# name of the step-time metric per training method (metric names admit no '+')
STEP_METRIC = {"erm": "erm", "grad-reg": "grad-reg", "ibp-ex": "ibp-ex", "pgd-ex": "pgd-ex", "pgd+grad": "pgd_grad"}

# per-layer metrics in report order; times in seconds unless named _ms
PER_LAYER = (
    ("autodiff.self_s", "s"), ("autodiff.op_calls", "count"), ("autodiff.grad_calls", "count"),
    ("autodiff.matmul_s", "s"), ("autodiff.matmul_gflop", "GFLOP"), ("autodiff.backward_gflop", "GFLOP"),
    ("autodiff.copy_mb", "MB"),
    ("model.self_s", "s"), ("model.forward_calls", "count"), ("model.infer_s", "s"), ("model.checkpoint_s", "s"),
    ("perturb.self_s", "s"), ("perturb.pgd_s", "s"), ("perturb.pgd_calls", "count"),
    ("intervals.self_s", "s"), ("intervals.box_loss_s", "s"),
    ("train.self_s", "s"), ("train.adam_s", "s"), ("train.validation_s", "s"), ("train.steps", "count"),
    *((f"train.step_ms.{m}", "ms") for m in STEP_METRIC.values()),
    ("data.self_s", "s"), ("data.corpus_s", "s"), ("data.decoy_build_s", "s"), ("data.cache_write_s", "s"),
    ("data.cache_read_s", "s"), ("data.cache_mb", "MB"),
    ("metrics.self_s", "s"), ("metrics.saliency_s", "s"), ("metrics.rcs_s", "s"), ("metrics.boundary_s", "s"),
    ("theory.self_s", "s"),
    ("cli.self_s", "s"),
)
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def rebind(original, replacement, restore: list) -> None:
    """Bind ``replacement`` wherever the package binds ``original``: module
    globals and module-level dispatch dicts. ``restore`` collects undo records."""
    for modname, mod in list(sys.modules.items()):
        if modname != "mlx" and not modname.startswith("mlx."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                rebind_attr(mod, attr, replacement, restore)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        restore.append((value, key, item, True))
                        value[key] = replacement


def rebind_attr(owner, attr, replacement, restore: list) -> None:
    restore.append((owner, attr, getattr(owner, attr), False))
    setattr(owner, attr, replacement)


def unbind(restore: list) -> None:
    """Undo rebind/rebind_attr records, newest first."""
    for owner, key, original, is_item in reversed(restore):
        if is_item:
            owner[key] = original
        else:
            setattr(owner, key, original)
    restore.clear()


class Tracer:
    """Spans and per-pass accumulators of one traced run.

    A pass is one set-up or one round of the workload; ``begin_pass``
    starts a new one. Totals and counts accumulate per pass, so the
    report can give the cost of one set-up plus one round and can check
    that every round issued exactly the same counts.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [span id, start, child seconds]
        self.passes: list[tuple[str, dict, dict]] = []  # (kind, sums, lists)
        self.sums: dict = defaultdict(float)
        self.lists: dict = defaultdict(list)
        self.grad_depth = 0
        self.infer_depth = 0
        self.step_start = None
        self.step_method = None
        self._restore: list[tuple] = []

    # -- passes ---------------------------------------------------------
    def begin_pass(self, kind: str) -> None:
        self.sums = defaultdict(float)
        self.lists = defaultdict(list)
        self.passes.append((kind, self.sums, self.lists))

    # -- spans ----------------------------------------------------------
    def _wrap(self, fn, qualname: str, layer: str, hook):
        self.names.append(qualname)
        name_id = len(self.names) - 1
        clock = time.perf_counter
        stack = self.stack
        span_name, span_parent, span_pass = self.span_name, self.span_parent, self.span_pass
        span_start, span_end = self.span_start, self.span_end
        tracer = self
        self_key = f"{layer}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_pass.append(len(tracer.passes) - 1)
            t0 = clock()
            span_start.append(t0)
            span_end.append(t0)
            frame = [sid, t0, 0.0]
            stack.append(frame)
            if hook:
                hook.before(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_end[sid] = t1
                dur = t1 - t0
                tracer.sums[self_key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook:
                hook.after(args, kwargs, result, dur)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of every layer, everywhere it is bound."""
        train_mod = importlib.import_module("mlx.train")
        # validation time is predict as mlx.train sees it; bound first so
        # that the generic model-layer wrapper does not nest inside it
        validation = self._wrap(train_mod.predict, "train.validation", "model", _ValidationHook(self))
        rebind_attr(train_mod, "predict", validation, self._restore)
        step = self._wrap(train_mod.Adam.step, "train.Adam.step", "train", _AdamHook(self))
        rebind_attr(train_mod.Adam, "step", step, self._restore)
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = importlib.import_module(modname)
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != modname:
                        continue
                    wrapper = self._wrap(value, f"{layer}.{attr}", layer, _hook(self, layer, attr))
                    rebind(value, wrapper, self._restore)

    def uninstall(self) -> None:
        unbind(self._restore)

    # -- report ---------------------------------------------------------
    def round_counts(self) -> list[tuple]:
        """Counts of each round, for the exact-repeat check."""
        return [tuple(sums.get(c, 0.0) for c in COUNTS) for kind, sums, _ in self.passes if kind == "round"]

    def metrics(self) -> dict:
        """Cost of one set-up plus one round, averaged over the run's passes."""
        out = {}
        by_kind = {"setup": [], "round": []}
        for kind, sums, lists in self.passes:
            if kind in by_kind:
                by_kind[kind].append((sums, lists))
        for name, unit in PER_LAYER:
            if name.startswith("train.step_ms."):
                steps = [ms for passes in by_kind.values() for _, lists in passes for ms in lists.get(name, ())]
                value = statistics.median(steps) if steps else 0.0
            else:
                value = sum(
                    sum(sums.get(name, 0.0) for sums, _ in passes) / len(passes)
                    for passes in by_kind.values()
                    if passes
                )
            if unit == "count":
                value = int(round(value))
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as arrays: name, start, end, parent span and pass index."""
        np.savez(
            path,
            names=np.array(self.names),
            passes=np.array([kind for kind, _, _ in self.passes]),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_pass, dtype=np.int32),
        )


# -- hooks: counts and named totals at layer boundaries --------------------


class _Hook:
    def __init__(self, tracer: Tracer, metric: str | None = None):
        self.t = tracer
        self.metric = metric

    def before(self, args, kwargs):
        pass

    def after(self, args, kwargs, result, dur):
        if self.metric:
            self.t.sums[self.metric] += dur


class _OpHook(_Hook):
    def __init__(self, tracer, op):
        super().__init__(tracer)
        self.copying = op in COPYING
        self.matmul = op == "matmul"

    def after(self, args, kwargs, result, dur):
        sums = self.t.sums
        sums["autodiff.op_calls"] += 1
        if self.copying:
            sums["autodiff.copy_mb"] += result.data.nbytes / 1e6
        elif self.matmul:
            (m, k), n = _shape(args[0]), _shape(args[1])[1]
            gflop = 2.0 * m * n * k / 1e9
            sums["autodiff.matmul_s"] += dur
            sums["autodiff.matmul_gflop"] += gflop
            if self.t.grad_depth:
                sums["autodiff.backward_gflop"] += gflop


def _shape(value):
    shape = getattr(value, "shape", None)  # a Tensor or an array; else array-like
    return tuple(shape) if shape is not None else np.shape(value)


class _GradHook(_Hook):
    def before(self, args, kwargs):
        self.t.grad_depth += 1

    def after(self, args, kwargs, result, dur):
        self.t.grad_depth -= 1
        self.t.sums["autodiff.grad_calls"] += 1


class _InferHook(_Hook):
    """model.infer_s counts the outermost logits/predict call only."""

    def before(self, args, kwargs):
        self.t.infer_depth += 1

    def after(self, args, kwargs, result, dur):
        self.t.infer_depth -= 1
        if self.t.infer_depth == 0:
            self.t.sums["model.infer_s"] += dur


class _ValidationHook(_InferHook):
    def after(self, args, kwargs, result, dur):
        super().after(args, kwargs, result, dur)
        self.t.sums["train.validation_s"] += dur


class _CountHook(_Hook):
    def __init__(self, tracer, count_metric, time_metric=None):
        super().__init__(tracer, time_metric)
        self.count_metric = count_metric

    def after(self, args, kwargs, result, dur):
        super().after(args, kwargs, result, dur)
        self.t.sums[self.count_metric] += 1


class _StepStartHook(_Hook):
    """A training step starts at the call into total_loss_graph."""

    def before(self, args, kwargs):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
        self.t.step_start = time.perf_counter()
        self.t.step_method = cfg.method


class _AdamHook(_Hook):
    """... and ends when the following Adam.step returns."""

    def after(self, args, kwargs, result, dur):
        t = self.t
        t.sums["train.adam_s"] += dur
        t.sums["train.steps"] += 1
        if t.step_start is not None:
            metric = STEP_METRIC.get(t.step_method)
            if metric:
                t.lists[f"train.step_ms.{metric}"].append((time.perf_counter() - t.step_start) * 1e3)
            t.step_start = None


class _CacheWriteHook(_Hook):
    def after(self, args, kwargs, result, dur):
        super().after(args, kwargs, result, dur)
        self.t.sums["data.cache_mb"] += os.path.getsize(args[0]) / 1e6


_TOTALS = {
    ("intervals", "worst_case_loss_graph"): "intervals.box_loss_s",
    ("data", "ensure_digit_corpus"): "data.corpus_s",
    ("data", "build_decoy_mnist"): "data.decoy_build_s",
    ("data", "load_cache"): "data.cache_read_s",
    ("metrics", "saliency_stats"): "metrics.saliency_s",
    ("metrics", "rcs"): "metrics.rcs_s",
    ("metrics", "boundary_grid"): "metrics.boundary_s",
}


def _hook(tracer: Tracer, layer: str, attr: str):
    if layer == "autodiff":
        if attr in PRIMITIVES:
            return _OpHook(tracer, attr)
        return _GradHook(tracer) if attr == "grad" else None
    if layer == "model":
        if attr in INFER:
            return _InferHook(tracer)
        if attr in CHECKPOINT:
            return _Hook(tracer, "model.checkpoint_s")
        return _CountHook(tracer, "model.forward_calls") if attr == "logits_graph" else None
    if (layer, attr) == ("perturb", "pgd_attack"):
        return _CountHook(tracer, "perturb.pgd_calls", "perturb.pgd_s")
    if (layer, attr) == ("data", "save_cache"):
        return _CacheWriteHook(tracer, "data.cache_write_s")
    if (layer, attr) == ("train", "total_loss_graph"):
        return _StepStartHook(tracer)
    if (layer, attr) in _TOTALS:
        return _Hook(tracer, _TOTALS[(layer, attr)])
    return None
