"""Spans around the package's layers, installed from outside the package.

``install`` replaces every public function of the eight modules, the private
helpers named in ``PRIVATE``, the HiGHS entry point the LP layer calls, and
the methods that densify A or run an MLP, with wrappers that record one span
per call: name, start, end, parent span and a few observed attributes.
The replacement is made in every module namespace that holds the function, so
calls through ``from .lp import solve_lp`` aliases are caught too.  Spans stay
in memory; ``write_jsonl`` dumps them when the run ends and ``layer_metrics``
derives the per-layer figures from them.

Nothing here is imported by an untraced run, so that run executes the package
unchanged.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

import numpy as np

from milpgnn import cli, fwl, gen, instance, lp, nn, sb, wl

MODULES = {"instance": instance, "lp": lp, "sb": sb, "wl": wl, "fwl": fwl, "nn": nn, "gen": gen, "cli": cli}

# Private names the per-layer metrics need: refinement drivers and rounds,
# active-set iterations, stationarity certificates.
PRIVATE = {
    "lp": ["_min_norm_on_working_set", "_stationarity_certified"],
    "wl": ["_refine_to_stability"],
    "fwl": ["_refine_to_stability", "_refine_once"],
}

PHASES = ("setup", "loop")


# --------------------------------------------------------------------------
# observers: pull counts out of a call's arguments or result


def _obs_solve_lp(args, kwargs, result):
    if result.status is lp.LpStatus.OPTIMAL:
        return {"status": "optimal", "kkt": float(result.kkt_residual), "primal": float(result.primal_residual)}
    return {"status": result.status.value}


def _obs_rounds(args, kwargs, result):
    return {"rounds": int(result[1])}


def _obs_fwl_stable(args, kwargs, result):
    colors = set()
    for vw, ww in result[0]:
        colors.update(vw.flat)
        colors.update(ww.flat)
    return {"rounds": int(result[1]), "classes": len(colors)}


def _obs_fwl_round(args, kwargs, result):
    return {"cells": sum(int(vw.size + ww.size) for vw, ww in args[0])}


def _obs_mlp_forward(args, kwargs, result):
    mlp, x = args[0], args[1]
    rows = int(np.prod(x.shape[:-1]))
    flops = 0
    largest = x.nbytes
    for w in mlp.weights:
        flops += 2 * rows * w.shape[0] * w.shape[1]
        largest = max(largest, rows * w.shape[1] * 8)
    return {"flops": flops, "bytes": largest}


def _obs_mlp_backward(args, kwargs, result):
    mlp, cache = args[0], args[1]
    rows = int(cache[1][0].shape[0])
    last = len(mlp.weights) - 1
    flops = mask = 0
    for k, w in enumerate(mlp.weights):
        flops += 4 * rows * w.shape[0] * w.shape[1]  # weight gradient and input gradient
        if k < last or mlp.output_relu:
            mask += 2 * rows * w.shape[0] * w.shape[1]  # inputs @ W redone for the ReLU mask
    return {"flops": flops + mask, "mask": mask}


def _obs_train(args, kwargs, result):
    return {"epochs": len(result[1])}


def _obs_training_set(args, kwargs, result):
    return {"rejected": int(result[1])}


OBSERVERS = {
    "lp.solve_lp": _obs_solve_lp,
    "wl._refine_to_stability": _obs_rounds,
    "fwl._refine_to_stability": _obs_fwl_stable,
    "fwl._refine_once": _obs_fwl_round,
    "nn.Mlp.forward": _obs_mlp_forward,
    "nn.Mlp.backward": _obs_mlp_backward,
    "nn.train": _obs_train,
    "gen.gen_training_set": _obs_training_set,
}


class Tracer:
    """In-memory span recorder.  A span is (parent id, name, start ns, end ns,
    attributes); its id is its index, taken when the call starts, so a parent
    always has a lower id than its children."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.on = False

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._stack.pop()
                tracer.spans[sid] = (parent, name, start, time.perf_counter_ns(), {"error": type(exc).__name__})
                raise
            end = time.perf_counter_ns()
            tracer._stack.pop()
            attrs = observe(args, kwargs, result) if observe is not None else None
            tracer.spans[sid] = (parent, name, start, end, attrs)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span marking set-up or the timed loop; recording is on inside."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.on = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.on = False
            self._stack.pop()
            self.spans[sid] = (-1, "phase." + name, start, time.perf_counter_ns(), None)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside; for work that belongs to no layer metric."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (parent, name, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end, "attrs": attrs}))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Replace the traced callables everywhere the package refers to them."""
    targets: dict[int, tuple[str, object]] = {}
    for layer, mod in MODULES.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                targets[id(obj)] = (f"{layer}.{attr}", obj)
        for attr in PRIVATE.get(layer, ()):
            obj = getattr(mod, attr)
            targets[id(obj)] = (f"{layer}.{attr}", obj)
    targets[id(lp.linprog)] = ("lp.linprog", lp.linprog)
    wrapped = {key: tracer.wrap(name, fn) for key, (name, fn) in targets.items()}
    for mod in MODULES.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)] is not obj:
                setattr(mod, attr, wrapped[id(obj)])
    for cls, meth, name in [
        (instance.MilpInstance, "dense_matrix", "instance.MilpInstance.dense_matrix"),
        (instance.MilpGraph, "dense_matrix", "instance.MilpGraph.dense_matrix"),
        (nn.Mlp, "forward", "nn.Mlp.forward"),
        (nn.Mlp, "backward", "nn.Mlp.backward"),
    ]:
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))


# --------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the order is the order printed
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "instance.parse_s": ("s", "lower"),
    "instance.build_graph_s": ("s", "lower"),
    "instance.build_graph_calls": ("count", "lower"),
    "instance.dense_matrix_calls": ("count", "lower"),
    "lp.solve_calls": ("count", "lower"),
    "lp.highs_s": ("s", "lower"),
    "lp.solve_self_s": ("s", "lower"),
    "lp.check_kkt_s": ("s", "lower"),
    "lp.min_norm_calls": ("count", "lower"),
    "lp.min_norm_s": ("s", "lower"),
    "lp.active_set_iterations": ("count", "lower"),
    "lp.stationarity_checks": ("count", "lower"),
    "lp.infeasible_solves": ("count", "lower"),
    "lp.max_kkt_residual": ("abs", "lower"),
    "lp.max_primal_residual": ("abs", "lower"),
    "lp.qp_failures_left_out": ("count", "lower"),
    "sb.calls": ("count", "lower"),
    "sb.self_s": ("s", "lower"),
    "sb.child_solves_per_instance": ("count", "lower"),
    "wl.stable_partition_calls": ("count", "lower"),
    "wl.stable_partition_s": ("s", "lower"),
    "wl.rounds": ("count", "lower"),
    "wl.tractability_block_s": ("s", "lower"),
    "wl.refinements_per_check": ("count", "lower"),
    "fwl.compare_s": ("s", "lower"),
    "fwl.refinements_per_compare": ("count", "lower"),
    "fwl.rounds": ("count", "lower"),
    "fwl.pair_cells": ("count", "lower"),
    "fwl.pair_classes": ("count", "higher"),
    "nn.grad_s": ("s", "lower"),
    "nn.adam_s": ("s", "lower"),
    "nn.mlp_forward_s": ("s", "lower"),
    "nn.mlp_backward_s": ("s", "lower"),
    "nn.encode_graph_calls_per_epoch": ("count", "lower"),
    "nn.forward_flops_per_epoch": ("flop", "lower"),
    "nn.backward_flops_per_epoch": ("flop", "lower"),
    "nn.mask_recompute_flops_per_epoch": ("flop", "lower"),
    "nn.largest_tensor_mb": ("MB", "lower"),
    "gen.s": ("s", "lower"),
    "gen.rejected": ("count", "lower"),
}


class _Acc:
    """Sums per phase, folded into 'one set-up plus one cycle'."""

    def __init__(self, weights):
        self.weights = weights
        self.sums: dict[str, list[float]] = {}
        self.maxes: dict[str, float] = {}

    def add(self, key, phase, value):
        self.sums.setdefault(key, [0.0, 0.0])[phase] += value

    def peak(self, key, value):
        self.maxes[key] = max(self.maxes.get(key, 0.0), value)

    def get(self, key) -> float:
        s = self.sums.get(key, [0.0, 0.0])
        return s[0] * self.weights[0] + s[1] * self.weights[1]

    def ratio(self, num, den) -> float:
        d = self.get(den)
        return self.get(num) / d if d else 0.0


def layer_metrics(spans, setups: int, cycles: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one cycle of the timed loop:
    set-up totals divided by the number of set-ups, plus loop totals divided
    by the number of cycles.  Times are in seconds; spans outside the two
    phases (warm-up, side probes, checks) are not recorded."""
    n = len(spans)
    phase = [-1] * n
    cmd = [None] * n  # nearest enclosing cli.cmd_* span name
    in_train = [False] * n  # inside an nn.train span
    children = [0] * n  # summed child durations, ns
    acc = _Acc((1.0 / max(setups, 1), 1.0 / max(cycles, 1)))
    for sid, (parent, name, start, end, attrs) in enumerate(spans):
        if name.startswith("phase."):
            phase[sid] = PHASES.index(name[len("phase."):])
            continue
        phase[sid] = phase[parent] if parent >= 0 else -1
        cmd[sid] = name if name.startswith("cli.cmd_") else (cmd[parent] if parent >= 0 else None)
        in_train[sid] = parent >= 0 and (in_train[parent] or spans[parent][1] == "nn.train")
        if parent >= 0:
            children[parent] += end - start
    for sid, (parent, name, start, end, attrs) in enumerate(spans):
        ph = phase[sid]
        if ph < 0 or name.startswith("phase."):
            continue
        attrs = attrs or {}
        dur = (end - start) * 1e-9
        self_s = dur - children[sid] * 1e-9
        layer = name.split(".", 1)[0]
        parent_name = spans[parent][1] if parent >= 0 else ""
        acc.add(layer + ".self", ph, self_s)
        acc.add(name + ".calls", ph, 1)
        acc.add(name + ".incl", ph, dur)
        acc.add(name + ".self", ph, self_s)
        if layer == "gen" and not parent_name.startswith("gen."):
            acc.add("gen.top", ph, dur)
        if name == "lp.solve_lp":
            if attrs.get("status") == "infeasible":
                acc.add("lp.infeasible", ph, 1)
            if "kkt" in attrs:
                acc.peak("lp.kkt", attrs["kkt"])
                acc.peak("lp.primal", attrs["primal"])
            if parent_name == "sb.sb_scores":
                acc.add("sb.solves", ph, 1)
        elif name == "wl._refine_to_stability":
            acc.add("wl.rounds", ph, attrs.get("rounds", 0))
            if cmd[sid] == "cli.cmd_check_tractability":
                acc.add("wl.refine_in_check", ph, 1)
        elif name == "fwl._refine_to_stability":
            acc.add("fwl.rounds", ph, attrs.get("rounds", 0))
            acc.add("fwl.classes", ph, attrs.get("classes", 0))
            if cmd[sid] == "cli.cmd_fwl2_compare":
                acc.add("fwl.refine_in_compare", ph, 1)
        elif name == "fwl._refine_once":
            acc.add("fwl.cells", ph, attrs.get("cells", 0))
        elif name == "nn.train":
            acc.add("nn.epochs", ph, attrs.get("epochs", 0))
        elif name == "gen.gen_training_set":
            acc.add("gen.rejected", ph, attrs.get("rejected", 0))
        if name.startswith("nn.Mlp."):
            acc.peak("nn.bytes", attrs.get("bytes", 0))
        # work done inside nn.train, for the per-epoch figures
        if in_train[sid]:
            if name == "nn.encode_graph":
                acc.add("nn.train_encode", ph, 1)
            elif name == "nn.Mlp.forward":
                acc.add("nn.train_fwd_flops", ph, attrs.get("flops", 0))
            elif name == "nn.Mlp.backward":
                acc.add("nn.train_bwd_flops", ph, attrs.get("flops", 0))
                acc.add("nn.train_mask_flops", ph, attrs.get("mask", 0))

    g = acc.get
    return {
        "cli.self_s": g("cli.self"),
        "instance.parse_s": g("instance.parse_instance.incl"),
        "instance.build_graph_s": g("instance.build_graph.incl"),
        "instance.build_graph_calls": g("instance.build_graph.calls"),
        "instance.dense_matrix_calls": g("instance.MilpInstance.dense_matrix.calls") + g("instance.MilpGraph.dense_matrix.calls"),
        "lp.solve_calls": g("lp.solve_lp.calls"),
        "lp.highs_s": g("lp.linprog.incl"),
        "lp.solve_self_s": g("lp.solve_lp.incl") - g("lp.linprog.incl"),
        "lp.check_kkt_s": g("lp.check_kkt.incl"),
        "lp.min_norm_calls": g("lp.min_norm_solution.calls"),
        "lp.min_norm_s": g("lp.min_norm_solution.incl"),
        "lp.active_set_iterations": g("lp._min_norm_on_working_set.calls"),
        "lp.stationarity_checks": g("lp._stationarity_certified.calls"),
        "lp.infeasible_solves": g("lp.infeasible"),
        "lp.max_kkt_residual": acc.maxes.get("lp.kkt", 0.0),
        "lp.max_primal_residual": acc.maxes.get("lp.primal", 0.0),
        "sb.calls": g("sb.sb_scores.calls"),
        "sb.self_s": g("sb.sb_scores.self"),
        "sb.child_solves_per_instance": (g("sb.solves") - g("sb.sb_scores.calls")) / g("sb.sb_scores.calls") if g("sb.sb_scores.calls") else 0.0,
        "wl.stable_partition_calls": g("wl.stable_partition.calls"),
        "wl.stable_partition_s": g("wl.stable_partition.incl"),
        "wl.rounds": g("wl.rounds"),
        "wl.tractability_block_s": g("wl.is_mp_tractable.self"),
        "wl.refinements_per_check": acc.ratio("wl.refine_in_check", "cli.cmd_check_tractability.calls"),
        "fwl.compare_s": g("fwl.fwl2_indistinguishable.incl") + g("fwl.fwl2_indistinguishable_W.incl"),
        "fwl.refinements_per_compare": acc.ratio("fwl.refine_in_compare", "cli.cmd_fwl2_compare.calls"),
        "fwl.rounds": g("fwl.rounds"),
        "fwl.pair_cells": g("fwl.cells"),
        "fwl.pair_classes": g("fwl.classes"),
        "nn.grad_s": g("nn.grad.incl"),
        "nn.adam_s": g("nn.train.self"),
        "nn.mlp_forward_s": g("nn.Mlp.forward.incl"),
        "nn.mlp_backward_s": g("nn.Mlp.backward.incl"),
        "nn.encode_graph_calls_per_epoch": acc.ratio("nn.train_encode", "nn.epochs"),
        "nn.forward_flops_per_epoch": acc.ratio("nn.train_fwd_flops", "nn.epochs"),
        "nn.backward_flops_per_epoch": acc.ratio("nn.train_bwd_flops", "nn.epochs"),
        "nn.mask_recompute_flops_per_epoch": acc.ratio("nn.train_mask_flops", "nn.epochs"),
        "nn.largest_tensor_mb": acc.maxes.get("nn.bytes", 0.0) / 1e6,
        "gen.s": g("gen.top"),
        "gen.rejected": g("gen.rejected"),
    }
