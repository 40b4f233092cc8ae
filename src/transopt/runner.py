"""Reproducible experiment runs and run comparison.

``run_batch`` executes configs end to end: build the problem and
optimizer, step through the horizon in the online protocol (suffer
f_t(theta_t), then update), and write the CSV artifacts into a directory
keyed by the config hash.  Identical config text yields byte-identical
CSVs.

Configs with the same :func:`loop_key` differ at most in their
optimizer (SGDM, Adam, AMSGrad, the clipped family, DstAdam, with any
settings), their other float and bool fields, seed and name, none of
which fixes an array shape or the loop, so ``run_batch`` steps them
together: R replicas share one loop over (R, d) iterates.  The problems
are stacked field by field, each replica's differing values an (R, 1)
column (:func:`transopt.problems.stack_problems`), and each stepper is a
row of one skeleton step (:func:`transopt.optim.stack_kinds`).  Replica
r writes the bytes its config writes alone; ``run_experiment`` is the
case R = 1, where every array is (d,).

The step loop only copies each step's losses into a (T, R) array and
its gradients, rates and iterates into three small preallocated
(rows, R, d) buffers; a full buffer is flushed as one block to the
loop's one streamed monitor (:class:`~transopt.diagnostics.RunMonitor`),
which screens the block's losses and gradients and then reduces it over
the coordinate axis for all R replicas at once.  At the start of each
buffer the loop loads the problem's data for the buffer's steps
(:meth:`~transopt.problems.OnlineProblem.block`: the quadratic's
centers, a logistic problem's epoch orders), which the oracle reads, and
writes the comparators' losses at those steps into the monitor's (R, T)
``regret``, which the monitor's flush turns into R(t) in place.  So run
memory is O(R d) besides the per-step losses and regrets and the
per-sampled-step histogram rows.  A regret whose sum passes the largest
double raises a DomainError after the loop, naming the run and the
first step whose R(t) is not finite.

The loop screens its inputs a buffer at a time, not a step at a time:
its stepper skips the per-step input screens, and a non-finite loss or
gradient raises at the end of its buffer, or when a screen inside the
step fires first, naming the step, replica and coordinate a screen at
each step would name.  Until then the run steps on with the bad value
in theta and the optimizer state, for at most one buffer
(:func:`~transopt.diagnostics.buffer_rows`, 64 to 528 steps); no
monitor, histogram or artifact sees it.

The artifacts are written by a writer process forked per loop
(:class:`transopt.writer.ArtifactWriter`; it needs POSIX ``fork``),
which appends each flushed block's CSV rows while the loop steps on and
publishes a run directory only when it is complete.  In a loop of at
least :data:`~transopt.diagnostics.WRITER_BLOCKS` buffers the writer
also runs the condition report's reductions that never raise (zeta, C2,
the box test and the |g| max), reading the step buffers from slots of a
shared mapping.  When the loops running at once leave no core to spare,
the loop's process runs the same writing code itself, and the monitor
runs every reduction at its flushes.  The screens, the rate summaries
and histograms, and every DomainError stay in the loop's process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .config import (ExperimentConfig, OptimizerSpec, ProblemSpec,
                     config_hash, reset_values, serialize_config)
from .diagnostics import (STEP_ERRSTATE, TOL, ConditionReport, LrHistogram,
                          RunMonitor, inverse_rate_bounded)
# perfbench/tracer.py times the whole-array checks under these names
from .diagnostics import check_c2, estimate_zeta, eta_bound_check  # noqa: F401
from .errors import ComparisonError, ConfigError, DomainError
from .optim import (Adam, Amsgrad, ClippedTransition, DstAdam, FeasibleBox,
                    MomentumSgd, StepConfig, stack_kinds)
from .problems import (MlpClassification, OnlineProblem, make_logistic,
                       make_mlp_problem, make_quadratic, make_reddi,
                       stack_problems)
from .schedule import BoundFunctionSpec, TransitionSchedule

if TYPE_CHECKING:
    from .writer import ArtifactWriter

#: Environment variable overriding the output root directory.
OUT_ENV_VAR = "TRANSOPT_OUT"

CSV_ARTIFACTS = ("loss.csv", "regret.csv", "lr_hist.csv", "conditions.csv",
                 "record.csv")


def resolve_horizon(cfg: ExperimentConfig, n_train: Optional[int]) -> int:
    """Derive the iteration count from epochs when needed.

    Iterations per epoch is the training-set size divided by the batch
    size, rounded up.
    """
    if cfg.horizon is not None:
        return cfg.horizon
    if n_train is None:
        raise ConfigError("epochs: problem has no dataset; give horizon")
    per_epoch = math.ceil(n_train / cfg.batch_size)
    return per_epoch * cfg.epochs


#: The fields each problem kind's builder reads: its ProblemSpec fields
#: and, for a dataset, the config's batch size.  :func:`build_problem`
#: hands the builder only these, and :func:`loop_key` resets every other
#: one, so configs that differ only there share a loop.
PROBLEM_FIELDS = {
    "quadratic": ("seed", "dim", "box_halfwidth"),
    "reddi": ("c",),
    "logistic": ("seed", "dim", "box_halfwidth", "n_samples", "batch_size"),
    "mlp": ("seed", "box_halfwidth", "hidden", "n_train", "n_test",
            "batch_size"),
}


def build_problem(cfg: ExperimentConfig) -> OnlineProblem:
    kind = cfg.problem.kind
    given = {**vars(cfg.problem), "batch_size": cfg.batch_size}
    # a field PROBLEM_FIELDS does not name is an AttributeError here
    p = SimpleNamespace(**{name: given[name]
                           for name in PROBLEM_FIELDS[kind]})
    if kind == "quadratic":
        return make_quadratic(p.dim, resolve_horizon(cfg, None), p.seed,
                              box_halfwidth=p.box_halfwidth or 2.0)
    if kind == "reddi":
        return make_reddi(p.c)
    if kind == "logistic":
        return make_logistic(p.n_samples, p.dim, p.seed,
                             batch_size=min(p.batch_size, p.n_samples),
                             box_halfwidth=p.box_halfwidth or 5.0)
    return make_mlp_problem(p.seed, hidden=p.hidden, n_train=p.n_train,
                            n_test=p.n_test,
                            batch_size=min(p.batch_size, p.n_train),
                            box_halfwidth=p.box_halfwidth)


def build_schedule(cfg: ExperimentConfig, horizon: int) -> TransitionSchedule:
    o = cfg.optimizer
    try:
        return TransitionSchedule(horizon=horizon, beta1=o.beta1,
                                  beta2=o.beta2, **vars(o.schedule))
    except DomainError as exc:
        # surface schedule/horizon mismatches before any step runs
        raise ConfigError(f"optimizer.schedule: {exc}") from exc


def build_optimizer(cfg: ExperimentConfig, dim: int, horizon: int,
                    box: FeasibleBox):
    o = cfg.optimizer
    step_cfg = StepConfig(alpha=o.alpha, epsilon=o.epsilon,
                          bias_correction=o.bias_correction_effective,
                          sqrt_decay=o.sqrt_decay)
    if o.kind == "sgdm":
        return MomentumSgd(dim, lr=o.lr, momentum=o.momentum, box=box)
    if o.kind == "adam":
        return Adam(dim, step_cfg, beta1=o.beta1, beta2=o.beta2, box=box)
    if o.kind == "amsgrad":
        return Amsgrad(dim, step_cfg, beta1=o.beta1, beta2=o.beta2, box=box)
    if o.kind in ("adabound", "generic"):
        b = o.bounds
        kind = b.kind if o.kind == "generic" else "adabound"
        bounds = BoundFunctionSpec(
            kind=kind,
            alpha_star=b.alpha_star,
            beta2=o.beta2,
            gamma=b.gamma if kind == "adadb" else None,
            horizon=horizon,
        )
        return ClippedTransition(dim, bounds, step_cfg,
                                 beta1=o.beta1, beta2=o.beta2, box=box)
    schedule = build_schedule(cfg, horizon)
    return DstAdam(dim, schedule, step_cfg, box=box)


@dataclass
class RunRecord:
    """Everything one run produced, in memory plus artifact paths.

    ``regret[t - 1]`` is R(t), None without a comparator.  Row k of
    ``rate_summary`` is the min, median and max of eta-hat at the k-th
    sampled step.  ``grads`` and ``rate_rows`` (row t - 1 is the eta-hat
    of step t) are (T, d) arrays only when the run was asked to keep its
    trajectory.
    """

    config: ExperimentConfig
    run_dir: Optional[Path]
    horizon: int
    losses: np.ndarray
    regret: Optional[np.ndarray]
    rate_summary: np.ndarray
    report: ConditionReport
    final_theta: np.ndarray
    final_effective_lr: np.ndarray
    histogram: LrHistogram
    wall_clock: float
    grads: Optional[np.ndarray] = None
    rate_rows: Optional[np.ndarray] = None
    train_loss: Optional[float] = None
    test_accuracy: Optional[float] = None

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    @property
    def final_regret(self) -> Optional[float]:
        return None if self.regret is None else float(self.regret[-1])

    @property
    def sup_sqrt_regret(self) -> Optional[float]:
        return self.sup_sqrt_regret_tail(1)

    def sup_sqrt_regret_tail(self, start: Optional[int] = None) -> Optional[float]:
        """Sup of R(t)/sqrt(t) over t >= start (default: second half)."""
        if self.regret is None:
            return None
        if start is None:
            start = self.horizon // 2
        if start > self.horizon:
            raise DomainError(f"tail start {start} is past the horizon "
                              f"{self.horizon}")
        lo = max(start, 1) - 1
        t = np.arange(lo + 1, self.horizon + 1, dtype=np.float64)
        return float(np.max(self.regret[lo:] / np.sqrt(t)))


def _make_condition_report(problem: OnlineProblem,
                           schedule: Optional[TransitionSchedule],
                           monitor: RunMonitor,
                           replica: int) -> ConditionReport:
    conditions = monitor.conditions
    report = ConditionReport(
        c2_violation_count=int(conditions.c2.count[replica]),
        c2_first_violation=conditions.c2.first[replica],
        inverse_rate_max=float(monitor.inverse_rate.max[replica]))
    if math.isfinite(problem.grad_bound):
        report.grad_bound_ok = bool(
            conditions.grad_abs_max[replica] <= problem.grad_bound + TOL)
    if problem.box.is_bounded:
        report.diameter_ok = bool(conditions.iterates_feasible[replica])
    if schedule is not None:
        report.zeta_min = conditions.zeta_min[replica]
        # every schedule TransitionSchedule accepts meets these three
        report.rho_bounded = report.r_ordered = report.beta1_bounded = True
        rho_sup = schedule.rho_sup()
        if 0.0 < rho_sup < 1.0:
            report.eta_inverse_bounded = inverse_rate_bounded(
                report.inverse_rate_max, schedule.r_l, rho_sup)
    return report


def loop_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """Configs with equal keys share one step loop (:func:`run_batch`).

    The key is the config with the optimizer cleared and every float and
    bool field, the seed, the name, the output root, the repeat count and
    the fields its problem kind's builder does not read
    (:data:`PROBLEM_FIELDS`) set back to their defaults
    (:func:`transopt.config.reset_values`).  The fields left (the
    problem's kind and the shapes it reads, the horizon, the stride, a
    dataset's batch size) fix an array shape or the loop's code path.
    Every optimizer runs as a row of the one skeleton step, and a built
    problem holds each float or bool field as a number or an array,
    never None next to one (an open box side is infinite), so the
    replicas' values stack as columns.
    """
    read = PROBLEM_FIELDS[cfg.problem.kind]
    unread = [f.name for f in fields(ProblemSpec)
              if f.name != "kind" and f.name not in read]
    if "batch_size" not in read:
        unread.append("batch_size")
    return replace(reset_values(cfg, ("seed", "name", "out_dir", "repeats",
                                      *unread)),
                   optimizer=OptimizerSpec())


def group_configs(cfgs: Sequence[ExperimentConfig]) -> List[List[int]]:
    """Indices of cfgs grouped by :func:`loop_key`, in order of first
    appearance."""
    groups: Dict[ExperimentConfig, List[int]] = {}
    for index, cfg in enumerate(cfgs):
        groups.setdefault(loop_key(cfg), []).append(index)
    return list(groups.values())


def run_stem(cfg: ExperimentConfig) -> str:
    """The run's name: its directory name without the config hash."""
    return cfg.name or f"{cfg.problem.kind}-{cfg.optimizer.kind}"


def run_experiment(cfg: ExperimentConfig,
                   out_root: Optional[str] = None,
                   write_artifacts: bool = True, *,
                   keep_trajectory: bool = False,
                   loops: int = 1) -> RunRecord:
    """Execute one config: :func:`run_batch` with one replica."""
    return run_batch([cfg], out_root, write_artifacts,
                     keep_trajectory=keep_trajectory, loops=loops)[0]


def run_batch(cfgs: Sequence[ExperimentConfig],
              out_root: Optional[str] = None,
              write_artifacts: bool = True, *,
              keep_trajectory: bool = False,
              loops: int = 1) -> List[RunRecord]:
    """Execute configs that share a :func:`loop_key` as one step loop.

    Row r of the loop is config r.  Returns one record per config, in
    the order given, each equal to the config's lone run but for the
    wall clock: the batch's time is shared equally.
    The problem's data and the monitors stream a buffer of steps at a
    time, so a run holds O(d) state plus the per-step losses and regret
    and one histogram and rate-summary row per sampled step.
    ``keep_trajectory`` also keeps every gradient and eta-hat row,
    as the (T, d) arrays ``grads`` and ``rate_rows`` of each record.
    A DomainError raised by a step names the config it belongs to.
    ``loops`` is the number of step loops running at once, this one
    included: the artifacts get a writer process only when the machine
    has a core to spare beside them (:func:`transopt.writer.spare_core`).
    """
    started = time.perf_counter()
    if len({loop_key(cfg) for cfg in cfgs}) != 1:
        raise ConfigError("a batch needs configs with one loop key")
    problems = [build_problem(cfg) for cfg in cfgs]
    horizon = resolve_horizon(cfgs[0], problems[0].n_train)
    optimizers = [build_optimizer(cfg, p.dim, horizon, p.box)
                  for cfg, p in zip(cfgs, problems)]
    schedules = [o.schedule if isinstance(o, DstAdam) else None
                 for o in optimizers]
    # one replica steps the lone problem and stepper over (d,) arrays
    problem = stack_problems(problems)
    optimizer = stack_kinds(optimizers)
    # the monitor screens the inputs a buffer of steps at a time
    # (RunMonitor.screen), so the loop's stepper skips its own screens
    optimizer.screens_inputs = False

    theta = np.stack([p.initial_point(cfg.problem.seed)
                      for cfg, p in zip(cfgs, problems)]).reshape(problem.shape)
    fork = False
    if write_artifacts:
        # the writer's module (and multiprocessing) load with the first
        # loop that writes
        from .writer import ArtifactWriter, spare_core

        fork = spare_core(loops)
    # a forked writer reads the monitor's arrays, so they are shared
    # before the fork
    monitor = RunMonitor(
        problem.dim, horizon, cfgs[0].stride,
        [p.box.widened(TOL) for p in problems],
        [None if s is None else s.beta2 for s in schedules],
        [cfg.optimizer.sqrt_decay for cfg in cfgs], keep_trajectory,
        shared=fork, comparator=problem.theta_star is not None)
    # views of the monitor's (T, R) losses and of each slot's (rows, R, d)
    # buffers whose rows take a step's values as they are: (T,) for one
    # replica, whose loss is a float; a broadcast (d,) -> (1, d) copy
    # costs more
    losses = monitor.losses.reshape(horizon, *problem.shape[:-1])
    views = [[b.reshape(len(b), *problem.shape) for b in slot]
             for slot in monitor.slots]
    grads, rates, thetas = views[monitor.slot]
    rows = len(grads)
    state = optimizer.state
    k = 0
    writer = None
    if write_artifacts:
        texts = [serialize_config(cfg) for cfg in cfgs]
        writer = ArtifactWriter(
            texts, [run_directory(cfg, out_root, text)
                    for cfg, text in zip(cfgs, texts)],
            fork=fork, monitor=monitor)

    def load(t0: int) -> None:
        """Load the problem's block of the buffer of steps from t0 + 1."""
        n = min(rows, horizon - t0)
        star = problem.block(t0, n)
        if star is not None:
            # the comparators' losses, which the monitor's flush turns
            # into R(t) in place
            monitor.regret[:, t0:t0 + n] = star

    try:
        try:
            # numpy's warnings are off: the loop screens what they flag
            with np.errstate(**STEP_ERRSTATE):
                load(0)
                for t in range(1, horizon + 1):
                    loss, g = problem.loss_and_grad(t, theta)
                    losses[t - 1] = loss
                    try:
                        theta = optimizer.step(theta, g)
                    except DomainError:
                        # a bad loss or gradient of this step or an
                        # earlier one of the buffer raises first
                        grads[k] = g
                        monitor.screen(k + 1)
                        raise
                    grads[k] = g
                    rates[k] = state.last_rate_raw
                    thetas[k] = theta
                    k += 1
                    if k == rows:
                        monitor.flush(k)
                        if writer is not None:
                            writer.block(monitor)
                            grads, rates, thetas = views[monitor.slot]
                        k = 0
                        if t < horizon:
                            load(t)
                monitor.finish(k)
        except DomainError as exc:
            names = [run_stem(cfg) for cfg in cfgs]
            who = (", ".join(names) if exc.replica is None
                   else names[exc.replica])
            raise DomainError(f"{who}: {exc}", replica=exc.replica) from exc
        del grads, rates, thetas, views  # the monitor lets go of them too
        if writer is not None:
            writer.block(monitor, last=True)

        records = []
        final_lr = optimizer.effective_lr()
        for r, (cfg, p, schedule) in enumerate(
                zip(cfgs, problems, schedules)):
            # replica r's column of the batch; a lone run's arrays as they
            # are
            run_losses = np.ascontiguousarray(
                losses.reshape(horizon, -1)[:, r])
            run_theta = theta.reshape(-1, p.dim)[r]
            regret = None if monitor.regret is None else monitor.regret[r]
            # the losses are finite, so R(t) stays finite until a sum
            # passes the largest double, and stays inf or NaN after
            if regret is not None and not math.isfinite(regret[-1]):
                t = int(np.argmax(~np.isfinite(regret))) + 1
                raise DomainError(f"{run_stem(cfg)}: non-finite regret at "
                                  f"step {t}; run aborted", replica=r)
            record = RunRecord(
                config=cfg,
                run_dir=None,
                horizon=horizon,
                losses=run_losses,
                regret=regret,
                rate_summary=monitor.rate_summary[r],
                report=_make_condition_report(p, schedule, monitor, r),
                final_theta=run_theta,
                final_effective_lr=final_lr.reshape(-1, p.dim)[r],
                histogram=monitor.histograms[r],
                wall_clock=0.0,
                grads=None if monitor.grads is None else monitor.grads[r],
                rate_rows=(None if monitor.rate_rows is None
                           else monitor.rate_rows[r]),
            )
            if isinstance(p, MlpClassification):
                record.train_loss = p.train_loss(run_theta)
                record.test_accuracy = p.test_accuracy(run_theta)
            records.append(record)
        wall_clock = (time.perf_counter() - started) / len(cfgs)
        for r, record in enumerate(records):
            record.wall_clock = wall_clock
            if writer is not None:
                record.run_dir = _write_artifacts(record, writer, r)
        if writer is not None:
            writer.close()
    finally:
        if writer is not None:
            writer.stop()
    return records


def run_directory(cfg: ExperimentConfig, out_root: Optional[str],
                  text: str) -> Path:
    """The run's output directory; ``text`` is ``serialize_config(cfg)``."""
    root = out_root or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
    return Path(root) / f"{run_stem(cfg)}-{config_hash(cfg, text)}"


def _write_artifacts(record: RunRecord, writer: ArtifactWriter,
                     replica: int) -> Path:
    """Hand run ``replica``'s scalars to its loop's writer, which writes
    its conditions.csv and meta.json; returns its run directory."""
    return writer.run(replica, record.report,
                      json.dumps(run_summary(record), indent=2) + "\n")


def run_summary(record: RunRecord) -> Dict[str, object]:
    """The scalar results of a run, as written to ``meta.json``."""
    cfg = record.config
    return {
        "problem": cfg.problem.kind,
        "optimizer": cfg.optimizer.kind,
        "seed": cfg.problem.seed,
        "horizon": record.horizon,
        "final_loss": record.final_loss,
        "final_regret": record.final_regret,
        "sup_sqrt_regret": record.sup_sqrt_regret,
        "train_loss": record.train_loss,
        "test_accuracy": record.test_accuracy,
        "c2_first_violation": record.report.c2_first_violation,
        "inverse_rate_max": record.report.inverse_rate_max,
        "wall_clock_seconds": record.wall_clock,
    }


# ---------------------------------------------------------------------------
# Comparison across runs
# ---------------------------------------------------------------------------

COMPARE_COLUMNS = ("optimizer", "final_loss", "final_regret",
                   "test_accuracy", "sup_sqrt_regret")


def _compare_rows(summaries: Sequence[Dict[str, object]],
                  sources: Sequence) -> List[Dict[str, object]]:
    """One comparison row per run summary; all must share problem and seed."""
    if len(summaries) < 2:
        raise ComparisonError("need at least two runs to compare")
    for source, summary in zip(sources, summaries):
        for key in ("problem", "seed") + COMPARE_COLUMNS:
            if key not in summary:
                raise ComparisonError(f"{source} has no key {key!r}")
    problems = {(s["problem"], s["seed"]) for s in summaries}
    if len(problems) != 1:
        raise ComparisonError(
            f"runs cover different problems/seeds: {sorted(problems)}"
        )
    return [{col: s[col] for col in COMPARE_COLUMNS} for s in summaries]


def compare_records(records: Sequence[RunRecord]) -> List[Dict[str, object]]:
    return _compare_rows([run_summary(r) for r in records],
                         [run_stem(r.config) for r in records])


def compare_csv(rows: Sequence[Dict[str, object]]) -> str:
    lines = [",".join(COMPARE_COLUMNS)]
    for row in rows:
        cells = []
        for col in COMPARE_COLUMNS:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.17g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


#: The JSON names of the types ``json.loads`` gives.
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "an array", dict: "an object",
               type(None): "null"}

#: The types ``compare`` and ``check-conditions`` can read at each key of
#: a ``meta.json`` (see :func:`run_summary`); "[t, i]" is an array of two
#: integers.
META_TYPES = {
    "problem": ("a string",), "optimizer": ("a string",),
    "seed": ("an integer",), "horizon": ("an integer",),
    "c2_first_violation": ("null", "[t, i]"),
    **dict.fromkeys(("final_loss", "final_regret", "sup_sqrt_regret",
                     "train_loss", "test_accuracy", "inverse_rate_max",
                     "wall_clock_seconds"),
                    ("null", "an integer", "a number")),
}


def _json_type(value) -> str:
    """The JSON type of a decoded value, with "[t, i]" for an array of
    two integers."""
    if isinstance(value, list) and len(value) == 2 \
            and all(type(x) is int for x in value):
        return "[t, i]"
    return _JSON_TYPES[type(value)]


def load_run_summary(run_dir) -> Dict[str, object]:
    """A run's ``meta.json``, which must hold a JSON object whose keys
    have the types of ``META_TYPES``."""
    meta_path = Path(run_dir) / "meta.json"
    if not meta_path.exists():
        raise ComparisonError(f"{run_dir} has no meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ComparisonError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ComparisonError(f"{meta_path} is not a JSON object")
    for key, allowed in META_TYPES.items():
        if key in meta and _json_type(meta[key]) not in allowed:
            raise ComparisonError(
                f"{meta_path}: {key!r} is {_json_type(meta[key])}, "
                f"expected {' or '.join(allowed)}")
    return meta


def compare_run_dirs(run_dirs: Sequence) -> List[Dict[str, object]]:
    return _compare_rows([load_run_summary(d) for d in run_dirs],
                         [Path(d) / "meta.json" for d in run_dirs])


def read_conditions(run_dir) -> Dict[str, str]:
    """A run's ``conditions.csv``: a key,value header, then its rows."""
    path = Path(run_dir) / "conditions.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[:1] != [["key", "value"]] or len(rows) < 2:
        raise ComparisonError(f"{path} has no key,value header and rows")
    for line, row in enumerate(rows[1:], 2):
        if len(row) != 2:
            raise ComparisonError(
                f"{path}: line {line} has {len(row)} cells, not 2")
    return dict(rows[1:])
