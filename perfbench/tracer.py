"""Span tracer that times transopt's layers from outside the package.

``Tracer.install`` replaces public functions and methods of ``transopt``
(and the names ``runner`` and ``cli`` import) with wrappers that record
one span per call: its name, start, end and parent.  Nothing inside
``src/`` changes; the originals come back on ``uninstall``.

Span names are ``<layer>.<what>`` and the layer is the transopt module the
work belongs to: config, problems, optim, schedule, diagnostics, runner,
cli.  A span's self time is its duration minus the part of it that its
children cover, so the self times of a trace add up to its root span.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

LAYERS = ("config", "problems", "optim", "schedule", "diagnostics", "runner",
          "cli")

ROOT = "cli.main"


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> array:
    """Each span's duration minus the time covered by its children.

    Spans are listed in order of start, as the tracer records them;
    ``parents[i]`` is the index of span i's parent or -1 for a root.
    Children are clipped to their parent and overlapping children are
    counted once, so a child's time never lands in its parent's self time.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)  # end of the union of a span's children so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


class Tracer:
    """Records spans of wrapped calls into flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop recorded spans; installed wrappers keep recording."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack[:] = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap the layer boundaries of transopt."""
        from transopt import cli, diagnostics, optim, problems, runner, schedule

        def method(cls, attr, name):
            # patch the class that defines it, so subclasses are wrapped once
            owner = next(c for c in cls.__mro__ if attr in c.__dict__)
            if not any(o is owner and a == attr for o, a, _ in self._patched):
                self._patch(owner, attr, name)

        self._patch(cli, "load_config", "config.load_config")
        self._patch(cli, "run_experiment", "runner.run_experiment")
        self._patch(runner, "serialize_config", "config.serialize_config")
        self._patch(runner, "config_hash", "config.config_hash")
        self._patch(runner, "build_problem", "problems.build_problem")
        self._patch(runner, "build_optimizer", "optim.build_optimizer")
        self._patch(runner, "build_schedule", "schedule.build_schedule")
        self._patch(runner, "_make_condition_report",
                    "runner.condition_report")
        self._patch(runner, "_write_artifacts", "runner.write_artifacts")
        self._patch(runner, "check_c2", "diagnostics.check_c2")
        self._patch(runner, "estimate_zeta", "diagnostics.estimate_zeta")
        self._patch(runner, "eta_bound_check", "diagnostics.eta_bound_check")
        self._patch(optim, "eval_bounds", "schedule.eval_bounds")

        for cls in (problems.QuadraticTracking, problems.ReddiCycle,
                    problems.LogisticMinibatch, problems.MlpClassification):
            method(cls, "loss_at", "problems.loss_at")
            method(cls, "grad_at", "problems.grad_at")
            method(cls, "star_loss_at", "problems.star_loss_at")
        method(problems.MlpClassification, "train_loss", "problems.train_loss")
        method(problems.MlpClassification, "test_accuracy",
               "problems.test_accuracy")
        method(problems.RegretLedger, "update", "problems.ledger_update")

        for cls in (optim.MomentumSgd, optim.Adam, optim.Amsgrad,
                    optim.ClippedTransition, optim.DstAdam):
            method(cls, "step", "optim.step")
            method(cls, "rate_raw", "optim.rate_raw")
            method(cls, "effective_lr", "optim.effective_lr")
        method(optim.FeasibleBox, "contains", "optim.box_contains")

        for attr in ("rho_at", "r_at", "beta1_at", "beta2_at", "rho_sup"):
            method(schedule.TransitionSchedule, attr, f"schedule.{attr}")

        method(diagnostics.LrHistogram, "record", "diagnostics.hist_record")
        method(diagnostics.LrHistogram, "to_csv", "diagnostics.hist_to_csv")
        method(diagnostics.ConditionReport, "to_csv",
               "diagnostics.report_to_csv")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class TraceSummary:
    """Per-name totals of a trace, split by the name of the parent span."""

    def __init__(self, tracer: Tracer):
        names = list(tracer.names) + ["<none>"]
        starts = np.array(tracer.start, dtype=np.float64)
        ends = np.array(tracer.end, dtype=np.float64)
        parents = np.array(tracer.parent, dtype=np.int64)
        name_ids = np.array(tracer.name_id, dtype=np.int64)
        selfs = np.array(self_times(tracer.start, tracer.end, tracer.parent),
                         dtype=np.float64)
        parent_ids = np.where(parents >= 0, name_ids[parents], len(names) - 1)
        self.spans = len(starts)
        roots = ends[parents < 0] - starts[parents < 0]
        self.root_s = float(np.sum(roots))
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.by_pair: Dict[Tuple[str, str], List[float]] = {}
        keys = name_ids * len(names) + parent_ids
        uniq, inverse = np.unique(keys, return_inverse=True)
        calls = np.bincount(inverse)
        incl = np.bincount(inverse, weights=ends - starts)
        own = np.bincount(inverse, weights=selfs)
        for k, key in enumerate(uniq):
            pair = (names[key // len(names)], names[key % len(names)])
            self.by_pair[pair] = [int(calls[k]), float(incl[k]), float(own[k])]

    def total(self, name: str, parent: str = None, prefix: bool = False):
        """(calls, inclusive s, self s) over spans matching name/parent."""
        out = [0, 0.0, 0.0]
        for (n, p), vals in self.by_pair.items():
            hit = n.startswith(name) if prefix else n == name
            if hit and (parent is None or p == parent):
                out = [a + b for a, b in zip(out, vals)]
        return out

    def layer_self(self) -> Dict[str, float]:
        out = defaultdict(float)
        for (n, _), (_, _, own) in self.by_pair.items():
            out[n.split(".")[0]] += own
        return {layer: out.get(layer, 0.0) for layer in LAYERS}


def layer_metrics(summary: TraceSummary, steps: int, wall_s: float,
                  write_bytes: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced sweep, as name -> (value, unit)."""
    run = "runner.run_experiment"
    us = 1e6 / steps

    def incl(name, parent=None, prefix=False):
        return summary.total(name, parent, prefix)[1]

    def calls(name, parent=None, prefix=False):
        return summary.total(name, parent, prefix)[0]

    oracle_calls = sum(calls(f"problems.{n}", run)
                       for n in ("loss_at", "grad_at", "star_loss_at"))
    analysis = incl("runner.condition_report")
    write = incl("runner.write_artifacts")
    layers = summary.layer_self()
    m = {
        "config.load_s": (incl("config.load_config"), "s"),
        "problems.build_s": (incl("problems.build_problem"), "s"),
        "problems.loss_at_us": (incl("problems.loss_at", run) * us, "us"),
        "problems.loss_at_calls": (calls("problems.loss_at", run), "count"),
        "problems.grad_at_us": (incl("problems.grad_at", run) * us, "us"),
        "problems.grad_at_calls": (calls("problems.grad_at", run), "count"),
        "problems.star_loss_at_us":
            (incl("problems.star_loss_at", run) * us, "us"),
        "problems.star_loss_at_calls":
            (calls("problems.star_loss_at", run), "count"),
        "problems.ledger_update_us":
            (incl("problems.ledger_update") * us, "us"),
        "problems.oracle_calls_per_step": (oracle_calls / steps, "calls/step"),
        "optim.build_s": (incl("optim.build_optimizer"), "s"),
        "optim.step_self_us": (summary.total("optim.step")[2] * us, "us"),
        "optim.rate_copy_us": ((incl("optim.rate_raw")
                                + incl("optim.effective_lr")) * us, "us"),
        "optim.box_contains_us": (incl("optim.box_contains", run) * us, "us"),
        "schedule.in_step_us":
            (incl("schedule.", "optim.step", prefix=True) * us, "us"),
        "schedule.calls_per_step":
            (calls("schedule.", "optim.step", prefix=True) / steps,
             "calls/step"),
        "schedule.scan_s":
            (incl("schedule.", "runner.condition_report", prefix=True), "s"),
        "schedule.scan_calls":
            (calls("schedule.", "runner.condition_report", prefix=True),
             "count"),
        "diagnostics.hist_record_us":
            (incl("diagnostics.hist_record") * us, "us"),
        "diagnostics.hist_record_calls":
            (calls("diagnostics.hist_record"), "count"),
        "diagnostics.check_c2_s": (incl("diagnostics.check_c2"), "s"),
        "diagnostics.estimate_zeta_s": (incl("diagnostics.estimate_zeta"), "s"),
        "diagnostics.eta_bound_check_s":
            (incl("diagnostics.eta_bound_check"), "s"),
        "diagnostics.analysis_s": (analysis, "s"),
        "diagnostics.analysis_share": (analysis / wall_s, "share"),
        "runner.self_us": (summary.total(run)[2] * us, "us"),
        "runner.write_s": (write, "s"),
        "runner.write_bytes": (write_bytes, "bytes"),
        "runner.write_share": (write / wall_s, "share"),
        "cli.self_s": (summary.total(ROOT)[2], "s"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (layers[layer], "s")
    m["trace.self_sum_share"] = (sum(layers.values()) / wall_s, "share")
    return m
