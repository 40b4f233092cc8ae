"""Reproducible experiment runs and run comparison.

``run_experiment`` executes one config end to end: build the problem and
optimizer, step through the horizon in the online protocol (suffer
f_t(theta_t), then update), feed the monitors, and write the CSV
artifacts into a directory keyed by the config hash.  Identical config
text yields byte-identical CSVs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import ExperimentConfig, config_hash, serialize_config
from .diagnostics import (ConditionReport, LrHistogram, check_c2,
                          estimate_zeta, eta_bound_check, row_blocks,
                          sqrt_t_regret_series)
from .errors import ComparisonError, ConfigError, DomainError
from .optim import (Adam, Amsgrad, ClippedTransition, DstAdam, FeasibleBox,
                    MomentumSgd, StepConfig)
from .problems import (MlpClassification, OnlineProblem, RegretLedger,
                       make_logistic, make_mlp_problem, make_quadratic,
                       make_reddi)
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
            rho=s.rho,
            rho_sequence=s.rho_sequence,
            beta1_kind=s.beta1_kind,
            beta1=cfg.optimizer.beta1,
            beta1_decay=s.beta1_decay,
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
        bounds = BoundFunctionSpec(
            kind=b.kind if o.kind == "generic" else "adabound",
            alpha_star=b.alpha_star,
            beta2=o.beta2,
            gamma=b.gamma,
            horizon=horizon,
        )
        return ClippedTransition(dim, bounds, step_cfg,
                                 beta1=o.beta1, beta2=o.beta2, box=box)
    schedule = build_schedule(cfg, horizon)
    return DstAdam(dim, schedule, step_cfg, box=box)


@dataclass
class RunRecord:
    """Everything one run produced, in memory plus artifact paths."""

    config: ExperimentConfig
    run_dir: Optional[Path]
    horizon: int
    losses: np.ndarray
    ledger: Optional[RegretLedger]
    rate_rows: np.ndarray  # (T, d): row t-1 is the eta-hat of step t
    grads: np.ndarray
    report: ConditionReport
    final_theta: np.ndarray
    final_effective_lr: np.ndarray
    histogram: LrHistogram
    wall_clock: float
    train_loss: Optional[float] = None
    test_accuracy: Optional[float] = None

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    @property
    def final_regret(self) -> Optional[float]:
        return self.ledger.regret if self.ledger is not None else None

    @property
    def sup_sqrt_regret(self) -> Optional[float]:
        if self.ledger is None:
            return None
        return max(v for _, v in sqrt_t_regret_series(self.ledger))

    def sup_sqrt_regret_tail(self, start: Optional[int] = None) -> Optional[float]:
        """Sup of R(t)/sqrt(t) over t >= start (default: second half)."""
        if self.ledger is None:
            return None
        if start is None:
            start = self.horizon // 2
        return max(v for t, v in sqrt_t_regret_series(self.ledger)
                   if t >= start)


def _make_condition_report(problem: OnlineProblem,
                           schedule: Optional[TransitionSchedule],
                           horizon: int, grads: np.ndarray,
                           rate_rows: np.ndarray,
                           iterates_feasible: bool) -> ConditionReport:
    report = ConditionReport()
    report.c2_violations = check_c2(rate_rows)
    if math.isfinite(problem.grad_bound):
        report.grad_bound_ok = bool(
            np.max(np.abs(grads)) <= problem.grad_bound + 1e-12)
    if problem.box.is_bounded:
        report.diameter_ok = iterates_feasible
    if schedule is not None:
        report.zeta_min = estimate_zeta(grads, schedule.beta2)
        rho_sup = schedule.rho_sup()
        report.rho_bounded = bool(
            np.all(schedule.rho_values(horizon) <= rho_sup + 1e-15))
        report.r_ordered = schedule.r_l <= schedule.r_u
        report.beta1_bounded = bool(
            np.all(schedule.beta1_values(horizon) <= schedule.beta1 + 1e-15))
        if 0.0 < rho_sup < 1.0:
            report.eta_inverse_bounded = eta_bound_check(
                rate_rows, schedule.r_l, rho_sup)
    return report


def run_experiment(cfg: ExperimentConfig,
                   out_root: Optional[str] = None,
                   write_artifacts: bool = True) -> RunRecord:
    """Execute one config; returns the record and (optionally) writes CSVs."""
    started = time.perf_counter()
    problem = build_problem(cfg)
    horizon = resolve_horizon(cfg, problem.n_train)
    optimizer = build_optimizer(cfg, problem.dim, horizon, problem.box)
    schedule = optimizer.schedule if isinstance(optimizer, DstAdam) else None

    theta = problem.initial_point(cfg.problem.seed)
    ledger = RegretLedger() if problem.theta_star is not None else None
    hist = LrHistogram()
    losses = np.empty(horizon)
    grads = np.empty((horizon, problem.dim))
    rate_rows = np.empty((horizon, problem.dim))
    iterates_feasible = True

    for t in range(1, horizon + 1):
        loss, g = problem.loss_and_grad(t, theta)
        if not math.isfinite(loss):
            raise DomainError(f"non-finite loss at step {t}; run aborted")
        losses[t - 1] = loss
        if ledger is not None:
            ledger.update(t, loss, problem.star_loss_at(t))
        grads[t - 1] = g
        # the stepper rejects a non-finite gradient before it changes state
        theta = optimizer.step(theta, g)
        rate_rows[t - 1] = optimizer.rate_raw()
        if t % cfg.stride == 0 or t == 1 or t == horizon:
            hist.record(t, optimizer.effective_lr())
        if not problem.box.contains(theta, tol=1e-12):
            iterates_feasible = False

    report = _make_condition_report(problem, schedule, horizon, grads,
                                    rate_rows, iterates_feasible)
    record = RunRecord(
        config=cfg,
        run_dir=None,
        horizon=horizon,
        losses=losses,
        ledger=ledger,
        rate_rows=rate_rows,
        grads=grads,
        report=report,
        final_theta=theta,
        final_effective_lr=optimizer.effective_lr(),
        histogram=hist,
        wall_clock=0.0,
    )
    if isinstance(problem, MlpClassification):
        record.train_loss = problem.train_loss(theta)
        record.test_accuracy = problem.test_accuracy(theta)
    record.wall_clock = time.perf_counter() - started

    if write_artifacts:
        record.run_dir = _write_artifacts(record, out_root)
    return record


def run_directory(cfg: ExperimentConfig, out_root: Optional[str],
                  text: str) -> Path:
    """The run's output directory; ``text`` is ``serialize_config(cfg)``."""
    root = out_root or os.environ.get(OUT_ENV_VAR) or cfg.out_dir
    stem = cfg.name or f"{cfg.problem.kind}-{cfg.optimizer.kind}"
    return Path(root) / f"{stem}-{config_hash(cfg, text)}"


def _write_csv(path: Path, header: Sequence[str], line: str, n_rows: int,
               width: int, columns) -> None:
    """Write a header, then n_rows rows streamed in blocks.

    ``columns(lo, hi)`` returns the columns of rows lo..hi-1 as 1-D
    arrays, and ``width`` is the element count of one row of the arrays
    it reads.  ``line`` %-formats one row and ends in the csv module's
    CRLF terminator.
    """
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        for lo, hi in row_blocks(n_rows, width):
            cells = np.column_stack(columns(lo, hi)).ravel().tolist()
            f.write(line * (hi - lo) % tuple(cells))


def _write_artifacts(record: RunRecord, out_root: Optional[str]) -> Path:
    cfg = record.config
    text = serialize_config(cfg)
    run_dir = run_directory(cfg, out_root, text)
    run_dir.mkdir(parents=True, exist_ok=True)

    (run_dir / "config.yaml").write_text(text)

    ts = _sampled_steps(record.horizon, cfg.stride)
    n = len(ts)
    series = record.ledger.series if record.ledger is not None else None

    def regrets(lo, hi):
        # the ledger holds one entry per step, so step t sits at t - 1
        return np.array([series[t - 1][1] for t in ts[lo:hi].tolist()])

    def loss_columns(lo, hi):
        return ts[lo:hi], record.losses[ts[lo:hi] - 1]

    def regret_columns(lo, hi):
        t = ts[lo:hi].astype(np.float64)
        r = regrets(lo, hi)
        return t, r, r / t, r / np.sqrt(t)

    def record_columns(lo, hi):
        rates = record.rate_rows[ts[lo:hi] - 1]
        cols = [ts[lo:hi], record.losses[ts[lo:hi] - 1]]
        if series is not None:
            cols.append(regrets(lo, hi))
        return cols + [np.min(rates, axis=1), np.median(rates, axis=1),
                       np.max(rates, axis=1)]

    _write_csv(run_dir / "loss.csv", ["t", "loss"], "%d,%.17g\r\n", n, 2,
               loss_columns)
    _write_csv(run_dir / "regret.csv",
               ["t", "regret", "avg_regret", "regret_over_sqrt_t"],
               "%d,%.17g,%.17g,%.17g\r\n", n if series is not None else 0,
               4, regret_columns)

    record.histogram.to_csv(run_dir / "lr_hist.csv")
    record.report.to_csv(run_dir / "conditions.csv")

    regret_cell = "%.17g" if series is not None else ""
    _write_csv(run_dir / "record.csv",
               ["t", "loss", "regret", "lr_min", "lr_median", "lr_max"],
               f"%d,%.17g,{regret_cell},%.17g,%.17g,%.17g\r\n", n,
               max(6, record.rate_rows.shape[1]), record_columns)

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
        "wall_clock_seconds": record.wall_clock,
    }


def _sampled_steps(horizon: int, stride: int) -> np.ndarray:
    """Steps that carry a CSV row: every stride-th, plus 1 and the horizon."""
    return np.union1d(np.arange(stride, horizon + 1, stride), [1, horizon])


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
