"""Reproducible experiment runs and run comparison.

``run_batch`` executes configs end to end: build the problem and
optimizer, step through the horizon in the online protocol (suffer
f_t(theta_t), then update), and write the CSV artifacts into a directory
keyed by the config hash.  Identical config text yields byte-identical
CSVs.

Configs with the same :func:`batch_key` differ at most in their float
and bool fields, seed and name, none of which fixes an array shape or
the code path, so ``run_batch`` steps them together: R replicas share
one loop over (R, d) iterates, each replica's varying hyperparameters
an (R, 1) column (see :func:`transopt.optim.stack_like` and
:func:`transopt.problems.stack_problems`).  Configs with the same
:func:`loop_key` may also differ in their optimizer (SGDM, Adam,
AMSGrad, the clipped family, DstAdam): each kind group is stacked on its
own and the groups share the loop and the skeleton step, each with its
own rate rule (:func:`transopt.optim.stack_kinds`).  Replica r writes
the bytes its config writes alone; ``run_experiment`` is the case R = 1,
where every array is (d,).

The step loop only copies each step's gradients, rates and iterates into
three small preallocated (rows, R, d) buffers; a full buffer is flushed
as one block to the loop's one streamed monitor
(:class:`~transopt.diagnostics.RunMonitor`), which reduces it over the
coordinate axis for all R replicas at once.  So run memory is O(R d)
besides the per-step losses and the per-sampled-step histogram rows.
The regret is one cumulative sum after the loop.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import (ExperimentConfig, OptimizerSpec, config_hash,
                     reset_values, serialize_config)
from .diagnostics import (ConditionReport, LrHistogram, RunMonitor,
                          inverse_rate_bounded, sampled_steps)
# perfbench/tracer.py times the whole-array checks under these names
from .diagnostics import check_c2, estimate_zeta, eta_bound_check  # noqa: F401
from .errors import ComparisonError, ConfigError, DomainError
from .optim import (Adam, Amsgrad, ClippedTransition, DstAdam, FeasibleBox,
                    MomentumSgd, StepConfig, stack_kinds)
from .problems import (MlpClassification, OnlineProblem, make_logistic,
                       make_mlp_problem, make_quadratic, make_reddi,
                       stack_problems)
from .schedule import BoundFunctionSpec, TransitionSchedule

#: Environment variable overriding the output root directory.
OUT_ENV_VAR = "TRANSOPT_OUT"

CSV_ARTIFACTS = ("loss.csv", "regret.csv", "lr_hist.csv", "conditions.csv",
                 "record.csv")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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


def build_problem(cfg: ExperimentConfig) -> OnlineProblem:
    p = cfg.problem
    if p.kind == "quadratic":
        return make_quadratic(p.dim, resolve_horizon(cfg, None), p.seed,
                              box_halfwidth=p.box_halfwidth or 2.0)
    if p.kind == "reddi":
        return make_reddi(p.c)
    if p.kind == "logistic":
        return make_logistic(p.n_samples, p.dim, p.seed,
                             batch_size=min(cfg.batch_size, p.n_samples),
                             box_halfwidth=p.box_halfwidth or 5.0)
    return make_mlp_problem(p.seed, hidden=p.hidden, n_train=p.n_train,
                            n_test=p.n_test,
                            batch_size=min(cfg.batch_size, p.n_train),
                            box_halfwidth=p.box_halfwidth)


def build_schedule(cfg: ExperimentConfig, horizon: int) -> TransitionSchedule:
    s = cfg.optimizer.schedule
    try:
        return TransitionSchedule(
            horizon=horizon,
            r_l=s.r_l,
            r_u=s.r_u,
            rho_kind=s.rho_kind,
            # a value the kind does not read is left out, so that replicas
            # of one kind stack (see batch_key)
            rho=None if s.rho_kind == "custom" else s.rho,
            rho_sequence=s.rho_sequence,
            beta1_kind=s.beta1_kind,
            beta1=cfg.optimizer.beta1,
            beta1_decay=s.beta1_decay if s.beta1_kind == "geometric" else None,
            beta2=cfg.optimizer.beta2,
        )
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
        lo = max(start, 1) - 1
        t = np.arange(lo + 1, self.horizon + 1, dtype=np.float64)
        return float(np.max(self.regret[lo:] / np.sqrt(t)))


def _make_condition_report(problem: OnlineProblem,
                           schedule: Optional[TransitionSchedule],
                           horizon: int, monitor: RunMonitor,
                           replica: int) -> ConditionReport:
    report = ConditionReport(
        c2_violation_count=int(monitor.c2.count[replica]),
        c2_first_violation=monitor.c2.first[replica],
        inverse_rate_max=float(monitor.inverse_rate.max[replica]))
    if math.isfinite(problem.grad_bound):
        report.grad_bound_ok = bool(
            monitor.grad_abs_max[replica] <= problem.grad_bound + 1e-12)
    if problem.box.is_bounded:
        report.diameter_ok = bool(monitor.iterates_feasible[replica])
    if schedule is not None:
        report.zeta_min = monitor.zeta_min[replica]
        rho_sup = schedule.rho_sup()
        report.rho_bounded = bool(
            np.all(schedule.rho_values(horizon) <= rho_sup + 1e-15))
        report.r_ordered = schedule.r_l <= schedule.r_u
        report.beta1_bounded = bool(
            np.all(schedule.beta1_values(horizon) <= schedule.beta1 + 1e-15))
        if 0.0 < rho_sup < 1.0:
            report.eta_inverse_bounded = inverse_rate_bounded(
                report.inverse_rate_max, schedule.r_l, rho_sup)
    return report


def batch_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """Configs with equal keys stack as one kind group of a batch
    (:func:`run_batch`, :func:`transopt.optim.stack_like`).

    The key is the config with every float and bool field, the seed, the
    name, the output root and the repeat count set back to their defaults
    (:func:`transopt.config.reset_values`).  The fields left (kinds,
    shapes, the horizon, the stride, the hidden sizes, a custom rho
    sequence) fix an array shape or the code path.  A built stepper or
    problem holds each float or bool field as a number or an array, never
    None next to one (an open box side is infinite; a value the kind does
    not read is not passed), so the replicas' values stack as columns.
    """
    return reset_values(cfg, ("seed", "name", "out_dir", "repeats"))


def loop_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """Configs with equal keys can share one step loop (:func:`run_batch`).

    The key is :func:`batch_key` with the optimizer cleared: every kind
    runs the one skeleton step and differs only in its hooks and
    columns.
    """
    return replace(batch_key(cfg), optimizer=OptimizerSpec())


def group_configs(cfgs: Sequence[ExperimentConfig],
                  key=batch_key) -> List[List[int]]:
    """Indices of cfgs grouped by ``key``, in order of first appearance."""
    groups: Dict[ExperimentConfig, List[int]] = {}
    for index, cfg in enumerate(cfgs):
        groups.setdefault(key(cfg), []).append(index)
    return list(groups.values())


def run_stem(cfg: ExperimentConfig) -> str:
    """The run's name: its directory name without the config hash."""
    return cfg.name or f"{cfg.problem.kind}-{cfg.optimizer.kind}"


def run_experiment(cfg: ExperimentConfig,
                   out_root: Optional[str] = None,
                   write_artifacts: bool = True, *,
                   keep_trajectory: bool = False) -> RunRecord:
    """Execute one config: :func:`run_batch` with one replica."""
    return run_batch([cfg], out_root, write_artifacts,
                     keep_trajectory=keep_trajectory)[0]


def run_batch(cfgs: Sequence[ExperimentConfig],
              out_root: Optional[str] = None,
              write_artifacts: bool = True, *,
              keep_trajectory: bool = False) -> List[RunRecord]:
    """Execute configs that share a :func:`loop_key` as one step loop.

    The rows of the loop are ordered by :func:`batch_key` group, so each
    optimizer kind holds a contiguous slice of them.  Returns one record
    per config, in the order given, each equal to the config's lone run
    but for the wall clock: the batch's time is shared equally.
    The monitors stream, so a run holds O(d) state plus the per-step
    losses and regret and one histogram and rate-summary row per sampled
    step.  ``keep_trajectory`` also keeps every gradient and eta-hat row,
    as the (T, d) arrays ``grads`` and ``rate_rows`` of each record.
    A DomainError raised by a step names the config it belongs to.
    """
    started = time.perf_counter()
    if len({loop_key(cfg) for cfg in cfgs}) != 1:
        raise ConfigError("a batch needs configs whose batch keys differ "
                          "at most in the optimizer")
    kinds = group_configs(cfgs)
    order = [index for group in kinds for index in group]
    cfgs = [cfgs[index] for index in order]
    problems = [build_problem(cfg) for cfg in cfgs]
    horizon = resolve_horizon(cfgs[0], problems[0].n_train)
    optimizers = [build_optimizer(cfg, p.dim, horizon, p.box)
                  for cfg, p in zip(cfgs, problems)]
    schedules = [o.schedule if isinstance(o, DstAdam) else None
                 for o in optimizers]
    # one replica steps the lone problem and stepper over (d,) arrays
    problem = stack_problems(problems)
    built = iter(optimizers)
    optimizer = stack_kinds([[next(built) for _ in group] for group in kinds])

    theta = np.stack([p.initial_point(cfg.problem.seed)
                      for cfg, p in zip(cfgs, problems)]).reshape(problem.shape)
    # The comparators' losses, which step t's regret subtracts
    stars = [p.star_losses(horizon) if p.theta_star is not None else None
             for p in problems]
    # (T,) for one replica, whose loss is a float; (T, R) for a batch
    losses = np.empty((horizon, *problem.shape[:-1]))
    finite = math.isfinite if len(cfgs) == 1 else (
        lambda row: bool(np.isfinite(row).all()))
    monitor = RunMonitor(
        problem.dim, horizon, cfgs[0].stride,
        [p.box.widened(1e-12) for p in problems],
        [None if s is None else s.beta2 for s in schedules],
        [cfg.optimizer.sqrt_decay for cfg in cfgs], keep_trajectory)
    # views of the monitor's (rows, R, d) buffers whose rows take a step's
    # arrays as they are: a broadcast (d,) -> (1, d) copy costs more
    grads, rates, thetas = (b.reshape(len(b), *problem.shape)
                            for b in monitor.buffers)
    rows = len(grads)
    state = optimizer.state
    k = 0

    try:
        for t in range(1, horizon + 1):
            loss, g = problem.loss_and_grad(t, theta)
            if not finite(loss):
                bad = np.flatnonzero(~np.isfinite(np.ravel(loss)))
                raise DomainError(f"non-finite loss at step {t}; run aborted",
                                  replica=int(bad[0]))
            losses[t - 1] = loss
            # the stepper rejects a non-finite gradient before it changes
            # state
            theta = optimizer.step(theta, g)
            grads[k] = g
            rates[k] = state.last_rate_raw
            thetas[k] = theta
            k += 1
            if k == rows:
                monitor.flush(k)
                k = 0
        monitor.finish(k)
    except DomainError as exc:
        names = [run_stem(cfg) for cfg in cfgs]
        who = (", ".join(names) if exc.replica is None
               else names[exc.replica])
        raise DomainError(f"{who}: {exc}", replica=exc.replica) from exc
    del grads, rates, thetas  # the monitor lets go of them too

    records = []
    final_lr = optimizer.effective_lr()
    for r, (cfg, p, schedule, star) in enumerate(
            zip(cfgs, problems, schedules, stars)):
        # replica r's column of the batch; a lone run's arrays as they are
        run_losses = np.ascontiguousarray(losses.reshape(horizon, -1)[:, r])
        run_theta = theta.reshape(-1, p.dim)[r]
        regret = None
        if star is not None:
            # R(t) by the sequential sums of a per-step ledger; adding 0.0
            # first turns a -0.0 difference into the ledger's 0.0 + -0.0
            regret = np.subtract(run_losses, star, out=star)
            regret[0] += 0.0
            np.add.accumulate(regret, out=regret)
        record = RunRecord(
            config=cfg,
            run_dir=None,
            horizon=horizon,
            losses=run_losses,
            regret=regret,
            rate_summary=monitor.rate_summary[r],
            report=_make_condition_report(p, schedule, horizon, monitor, r),
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
    for record in records:
        record.wall_clock = wall_clock
        if write_artifacts:
            record.run_dir = _write_artifacts(record, out_root)
    # back to the order the configs came in
    in_order = [None] * len(records)
    for index, record in zip(order, records):
        in_order[index] = record
    return in_order


def run_directory(cfg: ExperimentConfig, out_root: Optional[str],
                  text: str) -> Path:
    """The run's output directory; ``text`` is ``serialize_config(cfg)``."""
    root = out_root or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
    return Path(root) / f"{run_stem(cfg)}-{config_hash(cfg, text)}"


#: Rows of the per-step CSVs formatted at once.  Each distinct value of a
#: block is formatted once (a 30k-step cycle run's losses hold 46
#: distinct ones); at 2048 rows the writer's own peak stayed near 1 MB.
WRITE_ROWS = 2048


def _texts(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each float, as an object array shaped like
    ``values``; each distinct bit pattern is formatted once, so -0.0 and
    0.0 keep their own text."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(["%.17g" % x for x in bits.view(np.float64).tolist()],
                    dtype=object)[index.reshape(values.shape)]


def _csv_lines(columns: Sequence[np.ndarray]) -> str:
    """CSV lines of equally long text columns, each ending in the csv
    module's CRLF terminator."""
    line = ",".join(["%s"] * len(columns)) + "\r\n"
    cells = np.column_stack(columns).ravel().tolist()
    return line * len(columns[0]) % tuple(cells)


def _write_step_csvs(record: RunRecord, run_dir: Path) -> None:
    """loss.csv, regret.csv and record.csv, one sampled step a row,
    written together a block of rows at a time so that each block's
    columns are formatted once for every file that holds them."""
    ts = sampled_steps(record.horizon, record.config.stride)
    regret = record.regret
    headers = {"loss.csv": ["t", "loss"],
               "regret.csv": ["t", "regret", "avg_regret",
                              "regret_over_sqrt_t"],
               "record.csv": ["t", "loss", "regret", "lr_min", "lr_median",
                              "lr_max"]}
    with contextlib.ExitStack() as stack:
        loss_csv, regret_csv, record_csv = files = [
            stack.enter_context(open(run_dir / name, "w", newline=""))
            for name in headers]
        for f, header in zip(files, headers.values()):
            csv.writer(f).writerow(header)
        for lo in range(0, len(ts), WRITE_ROWS):
            t = ts[lo:lo + WRITE_ROWS]
            t_text = np.array([str(x) for x in t.tolist()], dtype=object)
            loss = _texts(record.losses[t - 1])
            loss_csv.write(_csv_lines([t_text, loss]))
            if regret is None:
                regret_text = np.full(len(t), "", dtype=object)
            else:
                r = regret[t - 1]
                regret_text = _texts(r)
                t_float = t.astype(np.float64)
                regret_csv.write(_csv_lines(
                    [t_text, regret_text, _texts(r / t_float),
                     _texts(r / np.sqrt(t_float))]))
            # lr_min, lr_median and lr_max formatted at once: at d = 1
            # all three are equal
            summary = _texts(record.rate_summary[lo:lo + WRITE_ROWS])
            record_csv.write(_csv_lines([t_text, loss, regret_text,
                                         *summary.T]))


def _write_artifacts(record: RunRecord, out_root: Optional[str]) -> Path:
    cfg = record.config
    text = serialize_config(cfg)
    run_dir = run_directory(cfg, out_root, text)
    run_dir.mkdir(parents=True, exist_ok=True)

    (run_dir / "config.yaml").write_text(text)
    _write_step_csvs(record, run_dir)
    record.histogram.to_csv(run_dir / "lr_hist.csv")
    record.report.to_csv(run_dir / "conditions.csv")
    (run_dir / "meta.json").write_text(
        json.dumps(run_summary(record), indent=2) + "\n")
    return run_dir


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


def _compare_rows(summaries: Sequence[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
    """One comparison row per run summary; all must share problem and seed."""
    if len(summaries) < 2:
        raise ComparisonError("need at least two runs to compare")
    problems = {(s["problem"], s["seed"]) for s in summaries}
    if len(problems) != 1:
        raise ComparisonError(
            f"runs cover different problems/seeds: {sorted(problems)}"
        )
    return [{col: s[col] for col in COMPARE_COLUMNS} for s in summaries]


def compare_records(records: Sequence[RunRecord]) -> List[Dict[str, object]]:
    return _compare_rows([run_summary(r) for r in records])


def compare_csv(rows: Sequence[Dict[str, object]]) -> str:
    lines = [",".join(COMPARE_COLUMNS)]
    for row in rows:
        cells = []
        for col in COMPARE_COLUMNS:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(_fmt(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def load_run_summary(run_dir) -> Dict[str, object]:
    run_dir = Path(run_dir)
    meta_path = run_dir / "meta.json"
    if not meta_path.exists():
        raise ComparisonError(f"{run_dir} has no meta.json")
    return json.loads(meta_path.read_text())


def compare_run_dirs(run_dirs: Sequence) -> List[Dict[str, object]]:
    return _compare_rows([load_run_summary(d) for d in run_dirs])


def read_conditions(run_dir) -> Dict[str, str]:
    path = Path(run_dir) / "conditions.csv"
    out: Dict[str, str] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for key, value in reader:
            out[key] = value
    return out
