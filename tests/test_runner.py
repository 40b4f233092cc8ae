import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from transopt import cli
from transopt.cli import main as cli_main
from transopt import config as config_module
from transopt import diagnostics
from transopt.config import parse_config, serialize_config
from transopt.diagnostics import (LrHistogram, check_c2, estimate_zeta,
                                  eta_bound_check, sampled_steps)
from transopt.errors import ComparisonError, ConfigError, DomainError
from transopt.optim import DstAdam
from transopt.problems import QuadraticTracking, RegretLedger
from transopt.runner import (COMPARE_COLUMNS, CSV_ARTIFACTS, build_problem,
                             compare_csv, compare_run_dirs, read_conditions,
                             resolve_horizon, run_experiment, run_summary)
from transopt import runner
from transopt import writer as writer_module
from transopt.writer import ArtifactWriter


def single_draw_centers(cfg):
    """The centers of cfg's quadratic, drawn as one (T, d) array, as the
    problem streams them."""
    return np.random.default_rng(cfg.problem.seed).uniform(
        -1.0, 1.0, size=(cfg.horizon, cfg.problem.dim))


def edit_oracle(monkeypatch, edit):
    """Make the loop's problem write each step's loss and gradient at the
    step, as ``loss_and_grad`` gives them once ``edit(t, loss, grad)``
    has changed them (``edit`` returns the pair); no screen computes a
    loss."""
    stack = runner.stack_problems

    def patched(problems):
        problem = stack(problems)
        # an unpatched copy gives each step's loss and gradient
        lone = copy.copy(problem)

        def oracle_into(t, theta, grad, losses):
            losses[t - 1], grad[...] = edit(t, *lone.loss_and_grad(t, theta))

        problem.oracle_into, problem.slot_losses = oracle_into, None
        return problem

    monkeypatch.setattr(runner, "stack_problems", patched)


def quadratic_cfg(optimizer="dstadam", horizon=300, seed=7, extra=""):
    return parse_config(f"""
problem:
  kind: quadratic
  dim: 3
  seed: {seed}
optimizer:
  kind: {optimizer}
{extra}horizon: {horizon}
""")


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=50),
                                out_root=str(tmp_path))
        for name in CSV_ARTIFACTS:
            assert (record.run_dir / name).exists(), name
        assert (record.run_dir / "config.yaml").exists()
        assert (record.run_dir / "meta.json").exists()

    def test_byte_identical_rerun(self, tmp_path):
        cfg = quadratic_cfg(horizon=200)
        first = run_experiment(cfg, out_root=str(tmp_path / "a"))
        second = run_experiment(cfg, out_root=str(tmp_path / "b"))
        for name in CSV_ARTIFACTS:
            assert (first.run_dir / name).read_bytes() == \
                (second.run_dir / name).read_bytes(), name

    def test_regret_recorded_and_bounded_rates(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=200),
                                out_root=str(tmp_path))
        assert record.final_regret is not None
        assert record.report.eta_inverse_bounded is True
        assert record.report.grad_bound_ok is True
        assert record.report.diameter_ok is True

    def test_env_var_overrides_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRANSOPT_OUT", str(tmp_path / "env-root"))
        record = run_experiment(quadratic_cfg(horizon=20))
        assert record.run_dir.parent == tmp_path / "env-root"

    def test_config_serialized_once_and_hashed_as_written(self, tmp_path,
                                                          monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return serialize_config(cfg)

        monkeypatch.setattr(config_module, "serialize_config", counting)
        monkeypatch.setattr(runner, "serialize_config", counting)
        record = run_experiment(quadratic_cfg(horizon=20),
                                out_root=str(tmp_path))
        assert len(calls) == 1
        text = (record.run_dir / "config.yaml").read_bytes()
        digest = hashlib.sha256(text).hexdigest()[:12]
        assert record.run_dir.name == f"quadratic-dstadam-{digest}"

    def test_in_memory_run_skips_disk(self):
        record = run_experiment(quadratic_cfg(horizon=20),
                                write_artifacts=False)
        assert record.run_dir is None
        assert len(record.losses) == 20

    def test_stride_sampling_keeps_endpoints(self, tmp_path):
        cfg = parse_config("""
problem: {kind: quadratic, dim: 2, seed: 1}
optimizer: {kind: adam}
horizon: 103
stride: 25
""")
        record = run_experiment(cfg, out_root=str(tmp_path))
        lines = (record.run_dir / "loss.csv").read_text().strip().splitlines()
        ts = [int(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == 1 and ts[-1] == 103 and 25 in ts

    def test_epochs_derive_horizon(self):
        cfg = parse_config("""
problem: {kind: logistic, n_samples: 100, dim: 3, seed: 2}
optimizer: {kind: adam}
epochs: 3
batch_size: 32
""")
        record = run_experiment(cfg, write_artifacts=False)
        assert record.horizon == math.ceil(100 / 32) * 3

    def test_nan_loss_aborts_with_step_index(self):
        cfg = parse_config("""
problem: {kind: mlp, n_train: 32, n_test: 16, seed: 1}
optimizer: {kind: sgdm, lr: 1.0e200, momentum: 0.0}
horizon: 50
batch_size: 32
""")
        with pytest.raises(DomainError, match="step 2"):
            run_experiment(cfg, write_artifacts=False)

    def test_nan_gradient_aborts_with_step_and_coordinate(self, monkeypatch):
        def nan_at_step_7(t, loss, g):
            if t == 7:
                g[1] = math.nan
            return loss, g

        edit_oracle(monkeypatch, nan_at_step_7)
        with pytest.raises(DomainError, match="step 7, coordinate 1"):
            run_experiment(quadratic_cfg(horizon=20), write_artifacts=False)

    @pytest.mark.parametrize("at, value, feasible", [
        (7, 2.0 + 1e-9, False),       # off the box by more than 1e-12
        (20, math.nan, False),        # the last iterate, never evaluated
        (7, -2.0 - 5e-13, True),      # within the tolerance
    ])
    def test_diameter_ok_tracks_every_iterate(self, monkeypatch, at, value,
                                              feasible):
        step = DstAdam.step

        def leaky_step(self, *args, **kwargs):
            theta = step(self, *args, **kwargs)
            if self.state.t == at:
                theta[1] = value
            return theta

        monkeypatch.setattr(DstAdam, "step", leaky_step)
        record = run_experiment(quadratic_cfg(horizon=20),
                                write_artifacts=False)
        assert record.report.diameter_ok is feasible

    def test_rate_rows_fill_a_t_by_d_array(self):
        record = run_experiment(quadratic_cfg(horizon=40),
                                write_artifacts=False, keep_trajectory=True)
        assert record.rate_rows.shape == (40, 3)
        assert record.rate_rows.dtype == np.float64
        np.testing.assert_array_equal(record.rate_rows[-1],
                                      list(record.rate_rows)[-1])

    def test_short_custom_sequence_fails_before_stepping(self):
        cfg = parse_config("""
problem: {kind: quadratic, dim: 2, seed: 1}
optimizer:
  kind: dstadam
  schedule:
    rho_kind: custom
    rho_sequence: [0.5, 0.5]
horizon: 10
""")
        with pytest.raises(ConfigError, match="schedule"):
            run_experiment(cfg, write_artifacts=False)

    def test_mlp_run_reports_accuracy(self):
        cfg = parse_config("""
problem: {kind: mlp, n_train: 64, n_test: 32, seed: 5}
optimizer: {kind: adam}
epochs: 3
batch_size: 32
""")
        record = run_experiment(cfg, write_artifacts=False)
        assert record.final_regret is None
        assert 0.0 <= record.test_accuracy <= 1.0
        assert record.train_loss is not None


#: One config per optimizer kind on the cycle problem (d = 1) and on the
#: MLP (d = 354), with strides that leave steps between sampled rows.
STREAM_OPTIMIZERS = {
    "sgdm": "{kind: sgdm, lr: 0.1, momentum: 0.9}",
    "adam": "{kind: adam}",
    "amsgrad": "{kind: amsgrad, beta1: 0.0, beta2: 0.1}",
    "adabound": "{kind: adabound}",
    "generic": "{kind: generic, sqrt_decay: true, "
               "bounds: {kind: lu, alpha_star: 0.05}}",
    "dstadam": "{kind: dstadam}",
    "dstadam-sqrt": "{kind: dstadam, sqrt_decay: true, "
                    "schedule: {rho: 0.9}}",
}
STREAM_PROBLEMS = {
    "d1": ("problem: {kind: reddi, c: 3.0, seed: 7}\n"
           "horizon: 40\nstride: 3\n"),
    "d354": ("problem: {kind: mlp, n_train: 64, n_test: 32, seed: 5}\n"
             "horizon: 14\nbatch_size: 32\nstride: 5\n"),
}


def stream_run(text, monkeypatch, rows=None):
    if rows is not None:
        monkeypatch.setattr(diagnostics, "buffer_rows",
                            lambda horizon, dim: rows)
    return run_experiment(parse_config(text), write_artifacts=False,
                          keep_trajectory=True)


def stream_batch_replica(problem, kind, monkeypatch, rows):
    """Replica ``kind`` of the problem's six adaptive configs, stepped as
    one batch with buffers of ``rows`` rows."""
    kinds = [k for k in STREAM_OPTIMIZERS if k != "sgdm"]
    cfgs = [parse_config(STREAM_PROBLEMS[problem]
                         + f"optimizer: {STREAM_OPTIMIZERS[k]}\n")
            for k in kinds]
    monkeypatch.setattr(diagnostics, "buffer_rows",
                        lambda horizon, dim: rows)
    flushes = []
    flush = diagnostics.RunMonitor.flush
    monkeypatch.setattr(diagnostics.RunMonitor, "flush",
                        lambda self, n: flushes.append(n) or flush(self, n))
    records = runner.run_batch(cfgs, write_artifacts=False,
                               keep_trajectory=True)
    monkeypatch.setattr(diagnostics.RunMonitor, "flush", flush)
    # one flush per buffer, whatever the number of replicas
    assert len(flushes) == math.ceil(records[0].horizon / rows)
    return records[kinds.index(kind)]


class TestStreamedMonitors:
    @pytest.mark.parametrize("kind", list(STREAM_OPTIMIZERS))
    @pytest.mark.parametrize("problem", list(STREAM_PROBLEMS))
    def test_streamed_equal_whole_array_checks(self, problem, kind,
                                               monkeypatch):
        text = (STREAM_PROBLEMS[problem]
                + f"optimizer: {STREAM_OPTIMIZERS[kind]}\n")
        cfg = parse_config(text)
        base = stream_run(text, monkeypatch)
        grads, rates = base.grads, base.rate_rows
        ts = sampled_steps(base.horizon, cfg.stride)
        # reference values from the whole (T, d) arrays
        report = base.report
        violations = check_c2(rates)
        assert report.c2_violation_count == len(violations)
        assert report.c2_first_violation == (violations or [None])[0]
        assert report.inverse_rate_max == float(np.max(1.0 / rates))
        problem_obj = build_problem(cfg)
        if math.isfinite(problem_obj.grad_bound):
            assert report.grad_bound_ok is bool(
                np.max(np.abs(grads)) <= problem_obj.grad_bound + 1e-12)
        else:
            assert report.grad_bound_ok is None
        if kind.startswith("dstadam"):
            schedule = runner.build_schedule(cfg, base.horizon)
            zeta = estimate_zeta(grads, schedule.beta2)
            assert report.zeta_min is not None and report.zeta_min == zeta
            assert report.eta_inverse_bounded is eta_bound_check(
                rates, schedule.r_l, schedule.rho_sup())
        sampled = rates[ts - 1]
        np.testing.assert_array_equal(base.rate_summary, np.column_stack(
            [np.min(sampled, axis=1), np.median(sampled, axis=1),
             np.max(sampled, axis=1)]))
        hist = LrHistogram()
        for t in ts.tolist():
            lrs = rates[t - 1]
            hist.record(t, lrs / math.sqrt(t) if cfg.optimizer.sqrt_decay
                        else lrs)
        assert_same_rows(base.histogram.rows, hist.rows)
        # the same results whatever the buffer size, alone and as one
        # replica of the six adaptive configs stepped as one batch
        for rows in (1, 3, base.horizon + 5):
            others = [stream_run(text, monkeypatch, rows)]
            if kind != "sgdm":
                others.append(stream_batch_replica(problem, kind,
                                                   monkeypatch, rows))
            for other in others:
                for name in ("zeta_min", "c2_violation_count",
                             "c2_first_violation", "eta_inverse_bounded",
                             "grad_bound_ok", "diameter_ok",
                             "inverse_rate_max"):
                    assert getattr(other.report, name) == \
                        getattr(report, name), (rows, name)
                np.testing.assert_array_equal(other.rate_summary,
                                              base.rate_summary)
                np.testing.assert_array_equal(other.grads, grads)
                np.testing.assert_array_equal(other.rate_rows, rates)
                assert_same_rows(other.histogram.rows, base.histogram.rows)

    @pytest.mark.parametrize("rows", [1, 3, 50])
    @pytest.mark.parametrize("at", [1, 7, 20])
    def test_off_box_iterate_found_in_any_block(self, monkeypatch, rows,
                                                at):
        step = DstAdam.step

        def leaky_step(self, *args, **kwargs):
            theta = step(self, *args, **kwargs)
            if self.state.t == at:
                theta[0] = 3.0
            return theta

        monkeypatch.setattr(DstAdam, "step", leaky_step)
        monkeypatch.setattr(diagnostics, "buffer_rows",
                            lambda horizon, dim: rows)
        record = run_experiment(quadratic_cfg(horizon=20),
                                write_artifacts=False)
        assert record.report.diameter_ok is False

    def test_trajectory_kept_only_on_request(self):
        record = run_experiment(quadratic_cfg(horizon=30),
                                write_artifacts=False)
        assert record.grads is None and record.rate_rows is None
        kept = run_experiment(quadratic_cfg(horizon=30),
                              write_artifacts=False, keep_trajectory=True)
        assert kept.grads.shape == kept.rate_rows.shape == (30, 3)

    @pytest.mark.parametrize("kinds, horizon, fork", [
        # one 500-row buffer
        pytest.param(("dstadam",), 500, None, id="lone"),
        # two runs of d = 3 fill six 341-row buffers, written by a forked
        # writer, by the loop's process, or not at all
        pytest.param(("dstadam", "adam"), 2000, None, id="batch"),
        pytest.param(("dstadam", "adam"), 2000, True, id="batch-forked"),
        pytest.param(("dstadam", "adam"), 2000, False, id="batch-inline"),
    ])
    def test_regret_matches_a_per_step_ledger_bit_for_bit(
            self, tmp_path, monkeypatch, kinds, horizon, fork):
        cfgs = [quadratic_cfg(kind, horizon=horizon) for kind in kinds]
        loops = 1
        if fork is not None:
            loops = TestArtifactWriter._writer(monkeypatch, fork)
        records = runner.run_batch(cfgs, str(tmp_path), fork is not None,
                                   loops=loops)
        for cfg, record in zip(cfgs, records):
            problem = build_problem(cfg)
            ledger = RegretLedger()
            for t in range(1, record.horizon + 1):
                ledger.update(t, record.losses.item(t - 1),
                              problem.star_loss_at(t))
            assert record.regret.tolist() == [r for _, r in ledger.series]
            assert record.final_regret == ledger.regret
            ratios = [r / math.sqrt(t) for t, r in ledger.series]
            assert record.sup_sqrt_regret == max(ratios)
            assert record.sup_sqrt_regret_tail() == \
                max(ratios[horizon // 2:])
            assert record.sup_sqrt_regret_tail(horizon - 100) == \
                max(ratios[horizon - 101:])
            with pytest.raises(DomainError, match=(
                    f"^tail start {horizon + 1} is past the horizon "
                    f"{horizon}$")):
                record.sup_sqrt_regret_tail(horizon + 1)
            if fork is not None:
                lines = (record.run_dir / "regret.csv").read_text() \
                    .splitlines()[1:]
                assert [line.split(",")[:2] for line in lines] == [
                    [str(t), "%.17g" % r] for t, r in ledger.series]

    def test_rho_entries_past_the_horizon_leave_the_report_alone(self):
        # the schedule steps only the first three entries of the longer
        # sequence, so both runs step alike and report alike
        records = [run_experiment(parse_config(f"""
problem: {{kind: reddi}}
optimizer:
  kind: dstadam
  schedule: {{rho_kind: custom, rho_sequence: {rho}}}
horizon: 3
"""), write_artifacts=False) for rho in ("[0.5, 0.4, 0.3, 1.0, 1.0]",
                                          "[0.5, 0.4, 0.3]")]
        for record in records:
            assert record.report.inverse_rate_max == 157.16203434263477
            assert record.report.eta_inverse_bounded is True

    def test_quadratic_d200_run_stays_small(self, monkeypatch):
        # the peak may grow with T only by the per-step losses and the
        # comparators' losses (8 bytes each; the regret takes the
        # latter's place) and the sampled steps' rows: at most 64 bytes
        # a step, where a (T, d) array would add 1600.  The build's peak
        # and the loop's are bounded apart, since at these horizons the
        # build's fixed blocks would hide the loop's growth.
        import tracemalloc

        build = runner.build_problem

        def build_then_reset(cfg):
            problem = build(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return problem

        monkeypatch.setattr(runner, "build_problem", build_then_reset)

        def run(horizon):
            cfg = parse_config(f"""
problem: {{kind: quadratic, dim: 200, seed: 3}}
optimizer: {{kind: dstadam}}
horizon: {horizon}
stride: 100
""")
            tracemalloc.start()
            try:
                run_experiment(cfg, write_artifacts=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        peaks = []
        short, long = 2000, 8000
        run(100)  # allocations made once per process
        peaks.clear()
        run(short)
        run(long)
        build_short, loop_short, build_long, loop_long = peaks
        for low, high in ((build_short, build_long),
                          (max(build_short, loop_short),
                           max(build_long, loop_long)),
                          (loop_short, loop_long)):
            per_step = (high - low) / (long - short)
            assert per_step <= 64, (per_step, peaks)

    def test_meta_and_check_conditions_report_streamed_values(
            self, tmp_path, capsys):
        record = run_experiment(quadratic_cfg(horizon=80),
                                out_root=str(tmp_path))
        meta = json.loads((record.run_dir / "meta.json").read_text())
        first = record.report.c2_first_violation
        assert meta["c2_first_violation"] == \
            (None if first is None else list(first))
        assert meta["inverse_rate_max"] == record.report.inverse_rate_max
        assert cli_main(["check-conditions", str(record.run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"inverse_rate_max     {meta['inverse_rate_max']:.17g}\n" \
            in out
        t, i = meta["c2_first_violation"]
        assert f"c2_first_violation   t={t} i={i}\n" in out


class TestStreamedProblems:
    """A loop reads each problem's data a block at a time: a run on a
    streamed quadratic equals its run on the one (T, d) draw, and a
    minibatch loop builds each epoch's permutation once."""

    CONFIGS = [("dstadam", 5), ("adam", 5), ("sgdm", 8)]

    def cfgs(self, horizon=1000):
        return [parse_config(f"""
problem: {{kind: quadratic, dim: 4, seed: {seed}}}
optimizer: {{kind: {kind}}}
horizon: {horizon}
stride: 7
name: {kind}-{seed}
""") for kind, seed in self.CONFIGS]

    def explicit(self, monkeypatch):
        def build_whole(cfg):
            p = build_problem(cfg)
            return QuadraticTracking(single_draw_centers(cfg), p.box)

        monkeypatch.setattr(runner, "build_problem", build_whole)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_a_streamed_run_equals_its_explicit_array_run(
            self, monkeypatch, replicas):
        cfgs = self.cfgs()[:replicas]
        streamed = runner.run_batch(cfgs, write_artifacts=False)
        assert build_problem(cfgs[0]).centers is None
        self.explicit(monkeypatch)
        whole = runner.run_batch(cfgs, write_artifacts=False)
        for got, want in zip(streamed, whole):
            _assert_records_equal(got, want)

    def test_streamed_and_explicit_artifacts_are_the_same_bytes(
            self, tmp_path, monkeypatch):
        # a forked writer reads the comparators' losses as the loop fills
        # them; 4000 steps of 3 replicas make the writer reduce too
        cfgs = self.cfgs(4000)
        streamed = runner.run_batch(cfgs, str(tmp_path / "streamed"))
        self.explicit(monkeypatch)
        whole = runner.run_batch(cfgs, str(tmp_path / "whole"))
        for got, want in zip(streamed, whole):
            _assert_records_equal(got, want)
            for name in CSV_ARTIFACTS:
                assert (got.run_dir / name).read_bytes() == \
                    (want.run_dir / name).read_bytes(), name

    @pytest.mark.parametrize("problem", [
        # 4 batches an epoch, blocks of 227 steps
        "{kind: logistic, n_samples: 30, dim: 3, seed: %d}\nbatch_size: 8",
        # 3 batches an epoch, blocks of 64 steps
        "{kind: mlp, n_train: 24, n_test: 8, hidden: [4], seed: %d}\n"
        "batch_size: 8"])
    def test_a_loop_builds_each_epoch_order_once(self, monkeypatch,
                                                 problem):
        from transopt import problems as problems_module

        seeds = (5, 5, 3)
        cfgs = [parse_config(f"problem: {problem % seed}\n"
                             f"optimizer: {{kind: adam, alpha: {alpha}}}\n"
                             "horizon: 500\n")
                for seed, alpha in zip(seeds, (0.001, 0.01, 0.001))]
        calls = []
        order = problems_module._epoch_order
        monkeypatch.setattr(problems_module, "_epoch_order",
                            lambda *args: calls.append(args[:2])
                            or order(*args))
        runner.run_batch(cfgs, write_artifacts=False)
        per_epoch = build_problem(cfgs[0]).batches_per_epoch
        epochs = range(math.ceil(500 / per_epoch))
        assert sorted(calls) == sorted(
            (seed, epoch) for seed in (5, 3) for epoch in epochs)


def assert_same_rows(got, want):
    assert [r[0] for r in got] == [r[0] for r in want]
    for (_, a, au, ao), (_, b, bu, bo) in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert (au, ao) == (bu, bo)


#: SHA-256 of each CSV artifact.  The first two, a 2,000-step stride-1
#: cycle-problem Adam run and the criterion-11 quadratic, were recorded
#: with the per-row writer the block writer replaced; the next two, a
#: short MLP DstAdam run and a short logistic run that both cross epoch
#: boundaries, with separate loss and gradient oracle calls per step.  The
#: last seven cover the paths of the stepper skeleton (each rate rule,
#: sgdm, the adadb and lu bounds, bias correction with sqrt decay and
#: harmonic beta1, constant rho, a binding box) and were recorded with a
#: separate step body per stepper.
GOLDEN_DIGESTS = {
    """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: adam, beta1: 0.0, beta2: 0.1}
horizon: 2000
""": {
        "loss.csv": "aed00c120b1ec617e9a5f5b1d0d05dcdaf1f2b3cd3d51b58941080a59893d643",
        "regret.csv": "8334ef2f1a70b1a673105086e8a738d95feb13134ad51c2ade57a99cce5d9d78",
        "lr_hist.csv": "6c78b29d817172ff98b484c3a615863cc8d4b67d67318de469ee6c52769d1fa4",
        "conditions.csv": "e3ef2d6438727b2f921c5a90034ddaf2572ba891b20f11f6c15b38631b018a1d",
        "record.csv": "c91571695ab7e32c702e134119c94b22a56be768a7bb75ecfe430474b13ec0ed",
    },
    """
problem: {kind: quadratic, dim: 3, seed: 7}
optimizer: {kind: dstadam}
horizon: 1000
""": {
        "loss.csv": "0247506669dca55ba23a1e67eea11f57c237e7f214a20b76a49c3a1482fb74f7",
        "regret.csv": "f92bb1b2255a08479724d754ec9079ccb13b6bddf4891106e32e420ff1a42f31",
        "lr_hist.csv": "54afea6da869b3bff20cddab1ac867ec61aa3940377f3f057739212df0028b67",
        "conditions.csv": "a7e05321c93a27ff1be4f8a990d91ac1406aa20ee3aef64f1e31e9476fc1291d",
        "record.csv": "5912b3d5440da3bd1959d8cb6cfc8ef0e143d87d76c5ae4f6cd906da06158bee",
    },
    """
problem: {kind: mlp, n_train: 96, n_test: 32, seed: 3}
optimizer: {kind: dstadam, schedule: {r_u: 1.0}}
epochs: 4
batch_size: 32
stride: 2
""": {
        "loss.csv": "e9dab1c29dfb70eeeee62cde460ad8c17e58e2a5a7589e98b155d8daf0045334",
        "regret.csv": "3277260660ec1a60cf0244dddd4f44bcef31203947cc2e8ab5da3970fa3c0ccd",
        "lr_hist.csv": "e19f28bdce7526e56826202f18733092f1403bc78f7b175ab8966d70233604a4",
        "conditions.csv": "9cb4272d57bdff7d45af3da195806388c2d9212baad7d8505ea4a6854602ca6e",
        "record.csv": "118946081dae66b2b4482469d0c33750ec2b43e158fe1a950910fd54e719ef1c",
    },
    """
problem: {kind: logistic, n_samples: 100, dim: 4, seed: 2}
optimizer: {kind: adabound}
epochs: 5
batch_size: 32
""": {
        "loss.csv": "fba99f235fc5462a96ca13284f46904f228a4e296085c0e6fd4bca5927a4cd23",
        "regret.csv": "fa9e4db7c515def0c4e9091d5d2bdbee4fcdcb6a2a27c21c0c143ce98e208b21",
        "lr_hist.csv": "7f41137d2f40623ee8458ea61e9f8497e1232bae3b3d4d097b4f49d142f75129",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "0a99ce478b6b530507b45362ff6b7571ff0be9f58dcb4446f81b9af82ab6a838",
    },    """
problem: {kind: reddi, c: 3.0, seed: 7}
optimizer: {kind: amsgrad, beta1: 0.0, beta2: 0.1}
horizon: 2000
""": {
        "loss.csv": "82da440f9bca0c485ddba1e7a8ffff89d840bfe738053ab4645257a3255eab38",
        "regret.csv": "0fb0382ef5436f781abbfa02c0ca243802bf7144b8bd0040671f26e6f211e142",
        "lr_hist.csv": "488a7adb9ecfa88abddfc3352e0df743cc8e2dfafbf5c966a62d6f7a6f22497c",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "e063672eee2bcca3df043610eda07bc2148468335a18daa14e17583c679f5632",
    },
    """
problem: {kind: quadratic, dim: 3, seed: 7, box_halfwidth: 0.5}
optimizer: {kind: sgdm, lr: 0.5, momentum: 0.9}
horizon: 500
""": {
        "loss.csv": "566e0c6b11e59bb6987766940e023ee253c85fcfeca5b23edb27eaa8d757875d",
        "regret.csv": "8d46c6b8259a9b834cfb75e93921295d22ecd728af510eafe778c68da2514020",
        "lr_hist.csv": "87ff3859e9fdd18086b2faabee03558d303acc4e112ae48a78fd51863c734076",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "a30ff33e4c729bfd9b68edb0b26fd9e8fe16c8070f5cfccdc631de8437870996",
    },
    """
problem: {kind: logistic, n_samples: 100, dim: 4, seed: 2}
optimizer: {kind: generic, bounds: {kind: swats, alpha_star: 0.05}}
epochs: 5
batch_size: 32
""": {
        "loss.csv": "e3fe380e0be344e7782ce68df069821395f7d53cb251be8e03f9637801183ebb",
        "regret.csv": "e9aa35354aa268ffeb2d45164ea5f4d74c857526d1b50a60dc1fd666b17e59f5",
        "lr_hist.csv": "f93ae1d5db6a0f73779be86c0132de4f19850199c04253ef69f7244817908ba0",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "4df029025e80831b2ee200e98891468fe80ea3740216312cfa8cee135f331653",
    },
    """
problem: {kind: logistic, n_samples: 100, dim: 4, seed: 2}
optimizer: {kind: generic, bounds: {kind: adadb, alpha_star: 0.05, gamma: 0.01}}
epochs: 5
batch_size: 32
""": {
        "loss.csv": "b57f8b0e0d5bc62ff680e3c5da8af33d1d414b10a5167ed7d54eea5bd9806dab",
        "regret.csv": "5ab18c87b9b097c5e09bb60fbc1eb12bf5c45c4fd60bc3c6e9c249a5403c624c",
        "lr_hist.csv": "a89554329ebc233b8979409a8703d52cda33d2cf8c6b8308f3e55140c8190940",
        "conditions.csv": "2b0fec426469e66a6d32594514098e1d839862ec3e544fda1ab28bdbb959e467",
        "record.csv": "8b9dbae90bb634dca194a94496d69e4471c62cef4cf206e0138a234c30fd43c0",
    },
    """
problem: {kind: logistic, n_samples: 100, dim: 4, seed: 2}
optimizer: {kind: generic, sqrt_decay: true, bounds: {kind: lu, alpha_star: 0.05}}
epochs: 5
batch_size: 32
""": {
        "loss.csv": "2c554b999d75b0295b8275f091bd35e51084e4b62cf5ae38461783f630e8f8c6",
        "regret.csv": "42d2fd0ffaf8eb9ff4119f6dab0854fc4bd3381ee75a8a236dd808b8af4db7af",
        "lr_hist.csv": "3b1e94061526b8d7313d2c7a6223934e2c46ef444fa6afeaa4af5b9d5bf3557f",
        "conditions.csv": "8f93729fabd11ac5b67d884d216db1f8382f58129162905221c7398936145d23",
        "record.csv": "6215ff8be427147eef6dc98cf3786fea8edbad0a7dc0158a61d921d6a50556f1",
    },
    """
problem: {kind: quadratic, dim: 3, seed: 7}
optimizer:
  kind: dstadam
  bias_correction: true
  sqrt_decay: true
  schedule: {beta1_kind: harmonic}
horizon: 1000
""": {
        "loss.csv": "b894a09a238db31db9e20a1b8c388ff984c3c09471aa375a84eb02a01aeccee0",
        "regret.csv": "831d3ecac4bd54b57e6e669d31b0f4c30cae8fb3f58ac44fc90ae0a6b0940c08",
        "lr_hist.csv": "0386aa5ca84f62f8343708682583094f877e0a5faa5be9f589a661c1f4fad68d",
        "conditions.csv": "a7e05321c93a27ff1be4f8a990d91ac1406aa20ee3aef64f1e31e9476fc1291d",
        "record.csv": "ca054919e0d90582bec875749153ac42101d721240ccff0864c27b24a422008f",
    },
    """
problem: {kind: quadratic, dim: 3, seed: 7, box_halfwidth: 0.1}
optimizer:
  kind: dstadam
  schedule: {rho_kind: constant, rho: 0.99, r_u: 2.0}
horizon: 1000
""": {
        "loss.csv": "fccf989de69bdb516fd96d995b4d17cda4f6e0627b04d13e50b56877f1d342a1",
        "regret.csv": "07723f9eaae8538f6b3b771a3f37743c75bed7d63e03d32f8b453be9c73ef18e",
        "lr_hist.csv": "474d7f8f4d81c0d86fcd56d768a282c14aaef96d7c92b9adc4a6d913b5f74be3",
        "conditions.csv": "213ddae23f9753eabaa3a74e97bf375494d78a6c56a11976371232b447594852",
        "record.csv": "b6e972f3dfba841f1335b75e7030ad7b25e33f92ae91aee731151833ee351016",
    },
}


@pytest.mark.parametrize("text", list(GOLDEN_DIGESTS),
                         ids=["reddi-adam",
                              "quadratic-dstadam",
                              "mlp-dstadam",
                              "logistic-adabound",
                              "reddi-amsgrad",
                              "quadratic-sgdm",
                              "logistic-swats",
                              "logistic-adadb",
                              "logistic-lu",
                              "quadratic-dstadam-harmonic",
                              "quadratic-dstadam-constant-rho"])
def test_artifacts_match_golden_digests(text, tmp_path):
    record = run_experiment(parse_config(text), out_root=str(tmp_path))
    got = {name: hashlib.sha256((record.run_dir / name).read_bytes())
           .hexdigest() for name in CSV_ARTIFACTS}
    assert got == GOLDEN_DIGESTS[text]


class TestResolveHorizon:
    def test_passthrough(self):
        assert resolve_horizon(quadratic_cfg(horizon=42), None) == 42

    def test_ceil_division(self):
        cfg = parse_config("""
problem: {kind: logistic, n_samples: 130, dim: 2, seed: 1}
optimizer: {kind: adam}
epochs: 2
batch_size: 64
""")
        assert resolve_horizon(cfg, 130) == math.ceil(130 / 64) * 2


class TestCompare:
    def run_pair(self, tmp_path, kinds=("adam", "dstadam"), horizon=150):
        records = []
        for kind in kinds:
            extra = "  bias_correction: false\n" if kind != "sgdm" else ""
            cfg = quadratic_cfg(optimizer=kind, horizon=horizon, extra=extra)
            records.append(run_experiment(cfg, out_root=str(tmp_path)))
        return records

    def test_four_optimizer_rows_share_problem(self, tmp_path):
        records = self.run_pair(
            tmp_path, kinds=("sgdm", "adam", "adabound", "dstadam"))
        rows = compare_run_dirs([r.run_dir for r in records])
        assert [r["optimizer"] for r in rows] == \
            ["sgdm", "adam", "adabound", "dstadam"]
        assert all(r["final_regret"] is not None for r in rows)

    def test_identical_runs_identical_rows(self, tmp_path):
        cfg = quadratic_cfg(horizon=100)
        a = run_experiment(cfg, out_root=str(tmp_path / "x"))
        b = run_experiment(cfg, out_root=str(tmp_path / "y"))
        rows = compare_run_dirs([a.run_dir, b.run_dir])
        assert rows[0] == rows[1]

    def test_scaling_one_matches_adam_rows(self, tmp_path):
        horizon = 150
        adam_cfg = quadratic_cfg("adam", horizon=horizon,
                                 extra="  bias_correction: false\n")
        ones = "[" + ", ".join(["1.0"] * horizon) + "]"
        dst_cfg = parse_config(f"""
problem:
  kind: quadratic
  dim: 3
  seed: 7
optimizer:
  kind: dstadam
  schedule:
    rho_kind: custom
    rho_sequence: {ones}
horizon: {horizon}
""")
        a = run_experiment(adam_cfg, write_artifacts=False)
        b = run_experiment(dst_cfg, write_artifacts=False)
        assert b.final_loss == pytest.approx(a.final_loss, abs=1e-12)
        assert b.final_regret == pytest.approx(a.final_regret, abs=1e-12)

    def test_mixed_problems_rejected(self, tmp_path):
        a = run_experiment(quadratic_cfg(horizon=30),
                           out_root=str(tmp_path))
        reddi = parse_config("""
problem: {kind: reddi, seed: 7}
optimizer: {kind: adam}
horizon: 30
""")
        b = run_experiment(reddi, out_root=str(tmp_path))
        with pytest.raises(ComparisonError):
            compare_run_dirs([a.run_dir, b.run_dir])

    def test_compare_from_disk_matches_memory(self, tmp_path):
        records = self.run_pair(tmp_path)
        from_disk = compare_run_dirs([r.run_dir for r in records])
        in_memory = [{col: run_summary(r)[col] for col in COMPARE_COLUMNS}
                     for r in records]
        for d, m in zip(from_disk, in_memory):
            assert d["optimizer"] == m["optimizer"]
            assert d["final_loss"] == pytest.approx(m["final_loss"],
                                                    rel=1e-15)

    def test_csv_rendering(self, tmp_path):
        rows = compare_run_dirs(
            [r.run_dir for r in self.run_pair(tmp_path, horizon=60)])
        text = compare_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "optimizer,final_loss,final_regret," \
            "test_accuracy,sup_sqrt_regret"
        assert len(lines) == 3


class TestConditionsFile:
    def test_read_back(self, tmp_path):
        record = run_experiment(quadratic_cfg(horizon=80),
                                out_root=str(tmp_path))
        conditions = read_conditions(record.run_dir)
        assert conditions["eta_inverse_bounded"] == "true"
        assert conditions["rho_bounded"] == "true"
        assert float(conditions["zeta_min"]) > 0


class TestCli:
    def write_cfg(self, tmp_path, name="exp.yaml", optimizer="dstadam",
                  horizon=60):
        path = tmp_path / name
        path.write_text(f"""
problem: {{kind: quadratic, dim: 2, seed: 3}}
optimizer: {{kind: {optimizer}}}
horizon: {horizon}
""")
        return path

    def test_run_and_check_conditions(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(cfg_path), "--out", str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        assert cli_main(["check-conditions", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "eta_inverse_bounded" in out

    def test_compare_subcommand(self, tmp_path, capsys):
        out_root = tmp_path / "runs"
        for opt in ("adam", "dstadam"):
            cfg = self.write_cfg(tmp_path, name=f"{opt}.yaml", optimizer=opt)
            assert cli_main(["run", str(cfg), "--out", str(out_root)]) == 0
        dirs = sorted(str(p) for p in out_root.iterdir())
        capsys.readouterr()   # drop the run-command chatter
        assert cli_main(["compare", *dirs]) == 0
        out = capsys.readouterr().out
        assert out.startswith("optimizer,")

    @pytest.mark.parametrize("command, name, text, error", [
        ("check-conditions", "conditions.csv", "x,y,z\n",
         ": line 10 has 3 cells, not 2"),
        ("check-conditions", "meta.json", "{nope", ": Expecting property "
         "name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("compare", "meta.json", "{nope", ": Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        ("compare", "meta.json", "{}", " has no key 'problem'"),
    ], ids=["conditions-row", "check-meta-json", "compare-meta-json",
            "compare-meta-key"])
    def test_a_malformed_run_directory_is_one_error_line(
            self, tmp_path, capsys, command, name, text, error):
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(self.write_cfg(tmp_path)), "--out",
                         str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        path = run_dir / name
        # a row appended to the conditions, a meta.json replaced
        path.write_text((path.read_text() if name == "conditions.csv"
                         else "") + text)
        capsys.readouterr()
        dirs = [str(run_dir)] * (2 if command == "compare" else 1)
        assert cli_main([command, *dirs]) == 2
        assert capsys.readouterr() == ("", f"error: {path}{error}\n")

    def test_conditions_that_are_not_utf8_are_one_error_line(
            self, tmp_path, capsys):
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(self.write_cfg(tmp_path)), "--out",
                         str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        path = run_dir / "conditions.csv"
        path.write_bytes(b"key,value\r\nc2_holds,\xff\r\n")
        capsys.readouterr()
        assert cli_main(["check-conditions", str(run_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: 'utf-8' codec "
                                       "can't decode byte 0xff in position "
                                       "20: invalid start byte\n")

    @pytest.mark.parametrize("command, key, value, error", [
        ("check-conditions", "inverse_rate_max", "big",
         "'inverse_rate_max' is a string, expected null or an integer or "
         "a number"),
        ("check-conditions", "c2_first_violation", 5,
         "'c2_first_violation' is an integer, expected null or [t, i]"),
        ("compare", "seed", [1], "'seed' is an array, expected an integer"),
    ], ids=["check-rate-cap", "check-c2", "compare-seed"])
    def test_a_meta_value_of_the_wrong_type_is_one_error_line(
            self, tmp_path, capsys, command, key, value, error):
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(self.write_cfg(tmp_path)), "--out",
                         str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        path = run_dir / "meta.json"
        meta = json.loads(path.read_text())
        assert key in meta
        path.write_text(json.dumps({**meta, key: value}))
        capsys.readouterr()
        dirs = [str(run_dir)] * (2 if command == "compare" else 1)
        assert cli_main([command, *dirs]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {error}\n")

    def test_check_conditions_needs_no_meta_json(self, tmp_path, capsys):
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(self.write_cfg(tmp_path)), "--out",
                         str(out_root)]) == 0
        run_dir = next(out_root.iterdir())
        (run_dir / "meta.json").unlink()
        capsys.readouterr()
        assert cli_main(["check-conditions", str(run_dir)]) == 0
        assert "eta_inverse_bounded" in capsys.readouterr().out

    def test_sweep_runs_every_config_in_parallel(self, tmp_path):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        self.write_cfg(sweep_dir, name="a.yaml", optimizer="adam")
        self.write_cfg(sweep_dir, name="b.yaml", optimizer="sgdm")
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out", str(out_root),
                         "--jobs", "2"]) == 0
        assert len(list(out_root.iterdir())) == 2

    def test_a_pool_forks_one_worker_per_loop(self, tmp_path, monkeypatch):
        # a fork-started pool forks all its workers at once, so --jobs 500
        # over two configs, one loop each once split among the workers,
        # must build a pool of 2
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        self.write_cfg(sweep_dir, name="a.yaml", optimizer="adam")
        self.write_cfg(sweep_dir, name="b.yaml", optimizer="sgdm")
        sizes = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                assert max_workers == 2
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out", str(out_root),
                         "--jobs", "500"]) == 0
        assert sizes == [2]
        assert len(list(out_root.iterdir())) == 2

    @staticmethod
    def write_loops(sweep_dir, horizon=60):
        """Configs a to d in three loops: a and b share one."""
        sweep_dir.mkdir()
        for name, problem, kind in (("a", "quadratic, dim: 2", "adam"),
                                    ("b", "quadratic, dim: 2", "sgdm"),
                                    ("c", "quadratic, dim: 3", "adam"),
                                    ("d", "reddi", "adam")):
            (sweep_dir / f"{name}.yaml").write_text(
                f"name: {name}\nproblem: {{kind: {problem}}}\n"
                f"optimizer: {{kind: {kind}}}\nhorizon: {horizon}\n")

    def test_a_default_sweep_of_one_loop_builds_no_pool(self, tmp_path,
                                                         monkeypatch):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        self.write_cfg(sweep_dir, name="a.yaml", optimizer="adam")
        self.write_cfg(sweep_dir, name="b.yaml", optimizer="sgdm")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = []
        get_context = writer_module.multiprocessing.get_context

        def recording(method=None):
            forks.append(method)
            return get_context(method)

        monkeypatch.setattr(writer_module.multiprocessing, "get_context",
                            recording)
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out",
                         str(out_root)]) == 0
        # the lone loop keeps a core to spare for its writer
        assert forks == ["fork"]
        assert len(list(out_root.iterdir())) == 2
        assert multiprocessing.active_children() == []

    def test_a_default_sweep_runs_whole_loops_one_worker_per_core(
            self, tmp_path, capsys, monkeypatch):
        self.write_loops(tmp_path / "configs")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        sizes, tasks = [], []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def map(self, fn, iterable):
                items = list(iterable)
                tasks.extend(([cfg.name for cfg in cfgs], loops)
                             for cfgs, _, loops in items)
                return super().map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(tmp_path / "configs"), "--out",
                         str(out_root)]) == 0
        assert sizes == [2]
        assert tasks == [(["a", "b"], 2), (["c"], 2), (["d"], 2)]
        lines = capsys.readouterr().out.splitlines()
        assert [Path(line.split()[0]).name[0] for line in lines] == \
            ["a", "b", "c", "d"]
        assert multiprocessing.active_children() == []

    def test_a_default_sweep_writes_the_bytes_of_a_serial_one(
            self, tmp_path, capsys, monkeypatch):
        # the criterion-11 configs: one loop per problem kind
        from test_acceptance import _artifacts, _batch_configs

        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        texts = _batch_configs()
        for name, text in texts.items():
            (config_dir / f"{name}.yaml").write_text(text)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        stdout = {}
        for out, jobs in (("default", []), ("serial", ["--jobs", "1"])):
            assert cli_main(["sweep", str(config_dir), "--out",
                             str(tmp_path / out), *jobs]) == 0
            stdout[out] = capsys.readouterr().out.replace(
                str(tmp_path / out), "<out>")
        assert pools == [2]
        assert stdout["default"] == stdout["serial"]
        assert len(stdout["serial"].splitlines()) == len(texts)
        assert _artifacts(tmp_path / "default") == \
            _artifacts(tmp_path / "serial")

    def test_a_pooled_write_failure_exits_2_and_leaves_no_worker(
            self, tmp_path, capsys):
        self.write_loops(tmp_path / "configs")
        (tmp_path / "file").write_text("")
        code = cli_main(["sweep", str(tmp_path / "configs"), "--out",
                         str(tmp_path / "file" / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"error: [Errno 20] Not a directory: "
            f"'{tmp_path / 'file' / 'x'}'"]
        assert multiprocessing.active_children() == []

    @staticmethod
    def _holding(text):
        """The ids of the processes whose command line holds text."""
        pids = []
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    if text.encode() in (entry / "cmdline").read_bytes():
                        pids.append(int(entry.name))
                except OSError:
                    pass  # it ended
        return pids

    # the default pools its loops wherever two cores are usable
    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
    def test_a_killed_sweep_leaves_no_worker(self, tmp_path, jobs):
        # three loops of a few seconds each, two at a time
        self.write_loops(tmp_path / "configs", horizon=100000)
        out_root = tmp_path / "runs"
        proc = subprocess.Popen(
            [sys.executable, "-m", "transopt.cli", "sweep",
             str(tmp_path / "configs"), "--out", str(out_root), *jobs],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ,
                     PYTHONPATH=str(Path(runner.__file__).parents[1])))
        left = []
        try:
            # each loop makes its runs' temporary directories before its
            # first step
            deadline = time.monotonic() + 60
            while not (out_root.exists() and
                       len(list(out_root.iterdir())) >= 2):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while True:
                left = self._holding(str(out_root))
                if not left or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert left == []
        finally:
            proc.kill()
            proc.wait()
            for pid in left:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_1_exit_2(self, tmp_path, capsys, jobs):
        cfg_path = self.write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(cfg_path), "--out", str(out_root),
                         "--jobs", jobs]) == 2
        assert capsys.readouterr().err == \
            f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out_root.exists()

    def test_seed_flag_changes_run_dir(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        cli_main(["run", str(cfg_path), "--out", str(out_root)])
        cli_main(["run", str(cfg_path), "--out", str(out_root),
                  "--seed", "99"])
        assert len(list(out_root.iterdir())) == 2

    def test_bad_config_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: {kind: quadratic}\nwrong_key: 1\nhorizon: 5\n")
        assert cli_main(["run", str(path)]) == 2
        assert "wrong_key" in capsys.readouterr().err

    def test_repeats_make_distinct_runs(self, tmp_path):
        cfg_path = tmp_path / "rep.yaml"
        cfg_path.write_text("""
problem: {kind: quadratic, dim: 2, seed: 3}
optimizer: {kind: adam}
horizon: 30
repeats: 3
""")
        out_root = tmp_path / "runs"
        assert cli_main(["run", str(cfg_path), "--out", str(out_root)]) == 0
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 3
        seeds = {json.loads((d / "meta.json").read_text())["seed"]
                 for d in run_dirs}
        assert seeds == {3, 4, 5}

    #: c = 1e200 overflows Adam's second moment at step 1, leaving a rate
    #: of 0.
    OVERFLOW = ("problem: {kind: reddi, c: 1.0e+200}\n"
                "optimizer: {kind: adam}\nhorizon: 300\n")

    def _assert_data_error(self, code, capsys, out_root):
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "error: reddi-adam: raw rate 0.0 at step 1, coordinate 0: a "
            "rate must stay positive (an overflowed second moment leaves 0)")
        assert not out_root.exists()

    def test_run_that_fails_on_its_data_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "overflow.yaml"
        cfg_path.write_text(self.OVERFLOW)
        out_root = tmp_path / "runs"
        code = cli_main(["run", str(cfg_path), "--out", str(out_root)])
        self._assert_data_error(code, capsys, out_root)

    def test_sweep_that_fails_on_its_data_exits_3(self, tmp_path, capsys):
        # a healthy run of the same loop is not written either
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        (sweep_dir / "a.yaml").write_text(self.OVERFLOW)
        (sweep_dir / "b.yaml").write_text(
            self.OVERFLOW.replace("1.0e+200", "3.0").replace("adam", "sgdm"))
        out_root = tmp_path / "runs"
        code = cli_main(["sweep", str(sweep_dir), "--out", str(out_root)])
        self._assert_data_error(code, capsys, out_root)

    def test_an_infinite_rate_names_only_its_run(self, tmp_path, capsys):
        # one loop: alpha / epsilon overflows the DstAdam row's rate
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name, optimizer in (("huge-alpha",
                                 "{kind: dstadam, alpha: 1.0e+308}"),
                                ("healthy", "{kind: adam}")):
            (sweep_dir / f"{name}.yaml").write_text(
                f"name: {name}\nproblem: {{kind: reddi}}\n"
                f"optimizer: {optimizer}\nhorizon: 10\n")
        out_root = tmp_path / "runs"
        code = cli_main(["sweep", str(sweep_dir), "--out", str(out_root)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines()[-1] == (
            "error: huge-alpha: infinite rate at step 1, coordinate 0: the "
            "projection metric must be positive")
        assert "healthy" not in err


    @pytest.mark.parametrize("jobs", [[], ["--jobs", "1"], ["--jobs", "2"]])
    def test_a_failing_loop_keeps_its_siblings_lines(self, tmp_path, capsys,
                                                     jobs):
        # three loops: the middle one fails at step 1
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name, text in (
                ("a", "problem: {kind: quadratic, dim: 2}\n"
                      "optimizer: {kind: adam}\nhorizon: 60\n"),
                ("bad", self.OVERFLOW),
                ("c", "problem: {kind: quadratic, dim: 3}\n"
                      "optimizer: {kind: adam}\nhorizon: 60\n")):
            (sweep_dir / f"{name}.yaml").write_text(f"name: {name}\n{text}")
        out_root = tmp_path / "runs"
        code = cli_main(["sweep", str(sweep_dir), "--out", str(out_root),
                         *jobs])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.out.splitlines()
        assert [Path(line.split()[0]).name for line in lines] == \
            sorted(p.name for p in out_root.iterdir())
        assert [name.split("-")[0] for name in
                sorted(p.name for p in out_root.iterdir())] == ["a", "c"]
        assert captured.err.splitlines() == [
            "error: bad: raw rate 0.0 at step 1, coordinate 0: a rate must "
            "stay positive (an overflowed second moment leaves 0)"]
        assert multiprocessing.active_children() == []


def _entries(root):
    """Every path under root, as sorted names relative to it."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestArtifactWriter:
    """Each loop's artifacts are written by a forked writer process, which
    publishes a run directory only when it is complete."""

    HEALTHY = ("problem: {kind: reddi, c: 3.0}\n"
               "optimizer: {kind: sgdm}\nhorizon: 300\n")

    @pytest.fixture(autouse=True)
    def _no_writer_left(self):
        yield
        assert multiprocessing.active_children() == []

    def test_an_unwritable_root_fails_before_step_1(self, tmp_path, capsys,
                                                    monkeypatch):
        cfg_path = tmp_path / "a.yaml"
        cfg_path.write_text(self.HEALTHY)
        (tmp_path / "file").write_text("")
        steps = []
        monkeypatch.setattr(
            runner.RunMonitor, "flush",
            lambda monitor, n: steps.append(n))
        code = cli_main(["run", str(cfg_path), "--out",
                         str(tmp_path / "file" / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"error: [Errno 20] Not a directory: "
            f"'{tmp_path / 'file' / 'x'}'"]
        assert steps == []
        assert _entries(tmp_path) == ["a.yaml", "file"]

    def test_a_failing_batch_leaves_no_entry_and_keeps_earlier_runs(
            self, tmp_path):
        out_root = tmp_path / "runs"
        healthy = parse_config(self.HEALTHY)
        earlier = run_experiment(healthy, str(out_root))
        before = {name: (earlier.run_dir / name).read_bytes()
                  for name in _entries(earlier.run_dir)}
        cfgs = [parse_config(TestCli.OVERFLOW), healthy]
        with pytest.raises(DomainError, match="at step 1, coordinate 0"):
            runner.run_batch(cfgs, str(out_root))
        assert _entries(out_root) == [earlier.run_dir.name] + [
            f"{earlier.run_dir.name}/{name}" for name in sorted(before)]
        assert {name: (earlier.run_dir / name).read_bytes()
                for name in before} == before
        # a fresh root is not left behind either
        with pytest.raises(DomainError):
            runner.run_batch(cfgs, str(tmp_path / "fresh" / "runs"))
        assert not (tmp_path / "fresh").exists()

    def test_a_rerun_republishes_the_same_bytes(self, tmp_path):
        cfg = parse_config(self.HEALTHY)
        first = run_experiment(cfg, str(tmp_path))
        texts = {name: (first.run_dir / name).read_bytes()
                 for name in CSV_ARTIFACTS}
        second = run_experiment(cfg, str(tmp_path))
        assert second.run_dir == first.run_dir
        assert _entries(tmp_path) == [first.run_dir.name] + [
            f"{first.run_dir.name}/{name}" for name in sorted(
                (*CSV_ARTIFACTS, "config.yaml", "meta.json"))]
        assert {name: (first.run_dir / name).read_bytes()
                for name in CSV_ARTIFACTS} == texts

    @pytest.mark.parametrize("where", ["report", "block"])
    def test_a_write_error_leaves_no_entry(self, tmp_path, monkeypatch,
                                           where):
        # the writer is forked, so it inherits the patched name
        def fail(*args):
            raise OSError("disk full")

        if where == "report":
            monkeypatch.setattr(diagnostics.ConditionReport, "to_csv", fail)
        else:
            monkeypatch.setattr("transopt.writer._csv_lines", fail)
        cfg = parse_config(self.HEALTHY.replace("300", "3000"))
        with pytest.raises(OSError, match="^writing artifacts: disk full$"):
            run_experiment(cfg, str(tmp_path / "runs"))
        assert _entries(tmp_path) == []

    def test_a_closed_pipe_ends_the_writer(self, tmp_path):
        # as when the loop's process is killed: no end message, and the
        # writer deletes its temporary directory and exits
        cfg = parse_config(self.HEALTHY)
        text = serialize_config(cfg)
        problem = build_problem(cfg)
        # a shared monitor forks its writer
        monitor = diagnostics.RunMonitor(problem.dim, 1, 1, [problem.box],
                                         [None], [False], shared=True)
        writer = ArtifactWriter(
            [text], [runner.run_directory(cfg, str(tmp_path / "runs"), text)],
            monitor)
        try:
            temp, = (tmp_path / "runs").iterdir()
        finally:
            writer._conn.close()
            writer._process.join(timeout=30)
            stuck = writer._process.is_alive()
            if stuck:
                writer._process.kill()
                writer._process.join()
        assert temp.name.endswith(".tmp")
        assert not stuck and writer._process.exitcode == 0
        assert _entries(tmp_path) == []

    @pytest.mark.parametrize("stride", [1, 7])
    def test_the_files_hold_the_records_rows(self, tmp_path, stride):
        # many flushes of a batch: at stride 7 several go in one hand-off
        cfgs = [dataclasses.replace(_mixed_cfg(name, kind), horizon=3000,
                                    stride=stride)
                for name, kind in (("a", "adam"), ("b", "dstadam"))]
        for record in runner.run_batch(cfgs, str(tmp_path)):
            ts = sampled_steps(record.horizon, stride)
            # each file's lines after its header, as lists: a failure
            # reports the first row that differs
            text = {name: (record.run_dir / name).read_bytes().decode()
                    .split("\n")[1:-1] for name in CSV_ARTIFACTS}

            def lines(*columns):
                return [",".join(row) + "\r" for row in zip(*columns)]

            fmt = np.vectorize(lambda x: "%.17g" % x, otypes=[object])
            regret = record.regret[ts - 1]
            assert text["loss.csv"] == lines(
                ts.astype(str), fmt(record.losses[ts - 1]))
            assert text["regret.csv"] == lines(
                ts.astype(str), fmt(regret), fmt(regret / ts),
                fmt(regret / np.sqrt(ts)))
            assert text["record.csv"] == lines(
                ts.astype(str), fmt(record.losses[ts - 1]), fmt(regret),
                *fmt(record.rate_summary).T)
            record.histogram.to_csv(tmp_path / "lr_hist.csv")
            assert text["lr_hist.csv"] == (tmp_path / "lr_hist.csv") \
                .read_bytes().decode().split("\n")[1:-1]

    def test_a_spare_core_is_one_beside_the_loops(self):
        cores = len(os.sched_getaffinity(0))
        assert not writer_module.spare_core(cores)
        assert writer_module.spare_core(cores - 1) == (cores > 1)

    def test_without_a_spare_core_the_loop_writes_the_same_bytes(
            self, tmp_path, monkeypatch):
        cfgs = [dataclasses.replace(_mixed_cfg(name, kind), horizon=3000,
                                    stride=1)
                for name, kind in (("a", "adam"), ("b", "dstadam"))]
        forked = runner.run_batch(cfgs, str(tmp_path / "forked"))

        def no_fork(*args):
            raise AssertionError("a writer process was forked")

        monkeypatch.setattr(writer_module.multiprocessing, "get_context",
                            no_fork)
        cores = len(os.sched_getaffinity(0))
        inline = runner.run_batch(cfgs, str(tmp_path / "inline"),
                                  loops=cores)
        assert _entries(tmp_path / "inline") == _entries(tmp_path / "forked")
        for a, b in zip(forked, inline):
            for name in (*CSV_ARTIFACTS, "config.yaml"):
                assert (a.run_dir / name).read_bytes() == \
                    (b.run_dir / name).read_bytes(), name

    def test_without_a_spare_core_a_failure_leaves_no_entry(
            self, tmp_path, monkeypatch):
        cores = len(os.sched_getaffinity(0))
        out_root = tmp_path / "runs"
        healthy = parse_config(self.HEALTHY)
        earlier = run_experiment(healthy, str(out_root), loops=cores)
        before = {name: (earlier.run_dir / name).read_bytes()
                  for name in _entries(earlier.run_dir)}
        with pytest.raises(DomainError, match="at step 1, coordinate 0"):
            runner.run_batch([parse_config(TestCli.OVERFLOW), healthy],
                             str(out_root), loops=cores)
        assert {name: (earlier.run_dir / name).read_bytes()
                for name in _entries(earlier.run_dir)} == before

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr("transopt.writer._csv_lines", fail)
        with pytest.raises(OSError, match="^writing artifacts: disk full$"):
            run_experiment(healthy, str(tmp_path / "fresh" / "runs"),
                           loops=cores)
        assert _entries(tmp_path) == ["runs"] + [
            f"runs/{earlier.run_dir.name}"] + [
            f"runs/{earlier.run_dir.name}/{name}" for name in sorted(before)]

    @pytest.mark.parametrize("fork", [True, False])
    def test_a_nan_gradient_reaches_no_artifact(self, tmp_path, monkeypatch,
                                                fork):
        # stride 10 samples step 20, whose NaN rates would fail the
        # histogram ("only positive finite rates can be binned") if the
        # block screen let them through
        def nan_at_step_20(t, loss, g):
            if t == 20:
                g[..., 1] = math.nan
            return loss, g

        edit_oracle(monkeypatch, nan_at_step_20)
        loops = 1
        if not fork:
            def no_fork(*args):
                raise AssertionError("a writer process was forked")

            monkeypatch.setattr(writer_module.multiprocessing, "get_context",
                                no_fork)
            loops = len(os.sched_getaffinity(0))
        cfgs = [dataclasses.replace(_mixed_cfg(name, kind), horizon=300,
                                    stride=10)
                for name, kind in (("a", "adam"), ("b", "dstadam"))]
        with pytest.raises(DomainError) as err:
            runner.run_batch(cfgs, str(tmp_path / "runs"), loops=loops)
        assert str(err.value) == \
            "a: non-finite gradient at step 20, coordinate 1"
        assert _entries(tmp_path) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_sweep_to_a_file_prints_each_line_once(self, tmp_path, jobs):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        # two loops: the second writer forks after the first line is
        # printed into a block-buffered stdout
        (sweep_dir / "a.yaml").write_text(self.HEALTHY)
        (sweep_dir / "b.yaml").write_text(
            "problem: {kind: quadratic, dim: 2}\n"
            "optimizer: {kind: adam}\nhorizon: 50\n")
        stdout = tmp_path / "stdout.txt"
        with open(stdout, "w") as f:
            subprocess.run(
                [sys.executable, "-m", "transopt.cli", "sweep",
                 str(sweep_dir), "--out", str(tmp_path / "runs"),
                 "--jobs", jobs],
                stdout=f, check=True, env=dict(
                    os.environ, PYTHONPATH=str(Path(runner.__file__)
                                               .parents[1])))
        lines = stdout.read_text().splitlines()
        assert len(lines) == 2
        assert [Path(line.split()[0]).name.split("-")[0]
                for line in lines] == ["reddi", "quadratic"]

    @staticmethod
    def _writer(monkeypatch, fork):
        """Make the next loops fork their writers, or fork none (any fork
        raises); returns the ``loops`` argument that does so."""
        if fork:
            monkeypatch.setattr(writer_module, "spare_core",
                                lambda loops: True)
            return 1

        def no_fork(*args):
            raise AssertionError("a writer process was forked")

        monkeypatch.setattr(writer_module.multiprocessing, "get_context",
                            no_fork)
        return len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("horizon", [200, 5000])
    def test_a_long_runs_reductions_run_in_its_writer(self, tmp_path,
                                                       monkeypatch, horizon,
                                                       fork):
        # 200 steps of d = 3 fill one buffer; 5000 fill ten 528-row
        # buffers, and stride 2000 leaves blocks without a sampled step
        cfg = quadratic_cfg(horizon=horizon, extra="stride: 2000\n")
        want = run_experiment(cfg, write_artifacts=False)
        loop = []
        update = diagnostics.ConditionMonitors.update
        monkeypatch.setattr(diagnostics.ConditionMonitors, "update",
                            lambda *args: loop.append(1) or update(*args))
        loops = self._writer(monkeypatch, fork)
        record = run_experiment(cfg, str(tmp_path), loops=loops)
        # a forked writer's reductions are not the loop's
        assert bool(loop) is not fork
        assert repr(record.report) == repr(want.report)
        _assert_records_equal(record, want)
        ts = sampled_steps(horizon, 2000)
        lines = (record.run_dir / "record.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == \
            [str(t) for t in ts]

    def test_a_writer_slower_than_its_loop_writes_the_same_bytes(
            self, tmp_path, monkeypatch):
        # ten buffers of a d = 4 quadratic go round the two step slots five
        # times; each block's rows take the writer 20 ms longer, more than
        # the loop takes to fill a slot, so the loop waits for it
        assert math.ceil(5000 / diagnostics.buffer_rows(5000, 4)) == 10
        cfg = parse_config("problem: {kind: quadratic, dim: 4, seed: 3}\n"
                           "optimizer: {kind: dstadam}\nhorizon: 5000\n")
        inline = run_experiment(cfg, str(tmp_path / "inline"),
                                loops=self._writer(monkeypatch, fork=False))
        monkeypatch.undo()
        rows = writer_module._LoopFiles._rows

        def slow(*args):
            time.sleep(0.02)
            return rows(*args)

        monkeypatch.setattr(writer_module._LoopFiles, "_rows", slow)
        forked = run_experiment(cfg, str(tmp_path / "forked"),
                                loops=self._writer(monkeypatch, fork=True))
        assert multiprocessing.active_children() == []
        _assert_records_equal(forked, inline)
        for name in (*CSV_ARTIFACTS, "config.yaml"):
            assert (forked.run_dir / name).read_bytes() == \
                (inline.run_dir / name).read_bytes(), name
        meta = [json.loads((record.run_dir / "meta.json").read_text())
                for record in (forked, inline)]
        for m in meta:
            m.pop("wall_clock_seconds")
        assert meta[0] == meta[1]

    @pytest.mark.parametrize("fork", [True, False])
    def test_an_overflowing_regret_names_its_step(self, tmp_path,
                                                  monkeypatch, fork):
        # each loss is finite, but R(6) passes the largest double; the
        # loop waits for a forked writer's reductions, and hears if the
        # writer failed
        edit_oracle(monkeypatch, lambda t, loss, grad: (
            1e308 if 5 <= t <= 7 else loss, grad))
        loops = self._writer(monkeypatch, fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                run_experiment(quadratic_cfg(horizon=4000),
                               str(tmp_path / "runs"), loops=loops)
        assert str(err.value) == \
            "quadratic-dstadam: non-finite regret at step 6; run aborted"
        assert _entries(tmp_path) == []

    def test_a_killed_writer_fails_the_loop(self, tmp_path, monkeypatch):
        # a forked writer reduces the buffers; it is killed at the first,
        # and the loop waits for that slot
        loop = os.getpid()

        def killed(*args):
            assert os.getpid() != loop, "the loop ran a reduction"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(diagnostics.ConditionMonitors, "update", killed)
        self._writer(monkeypatch, fork=True)
        cfg = parse_config(self.HEALTHY.replace("300", "5000"))
        with pytest.raises(OSError, match=f"exit code -{signal.SIGKILL}$"):
            run_experiment(cfg, str(tmp_path / "runs"))
        assert _entries(tmp_path) == []

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("horizon", [200, 2000, 5000])
    def test_only_a_forked_writer_is_asked_for_its_conditions(
            self, tmp_path, monkeypatch, horizon, fork):
        # 200 steps of d = 3 fill one buffer, 2000 four 528-row buffers
        # and 5000 ten: a forked writer reduces them all and is asked
        # once, and an inline writer is never asked
        kinds = []
        send = ArtifactWriter._send

        def recorded(self, message):
            kinds.append(message[0])
            return send(self, message)

        monkeypatch.setattr(ArtifactWriter, "_send", recorded)
        loops = self._writer(monkeypatch, fork)
        run_experiment(quadratic_cfg(horizon=horizon), str(tmp_path),
                       loops=loops)
        assert kinds.count("conditions") == int(fork)
        assert set(kinds) - {"conditions"} == {"block", "run", "end"}

    def test_no_hand_off_carries_a_step_buffer(self, tmp_path, monkeypatch):
        # the MLP batch's shape: four runs at d = 354, whose (64, 4, 354)
        # step buffers hold 725 KB each
        sizes = []
        send = ArtifactWriter._send

        def recorded(self, message):
            sizes.append((message[0], len(pickle.dumps(message))))
            return send(self, message)

        monkeypatch.setattr(ArtifactWriter, "_send", recorded)
        self._writer(monkeypatch, fork=True)
        cfgs = [parse_config(f"problem: {{kind: mlp, seed: 5}}\n"
                             f"optimizer: {opt}\nepochs: 200\n"
                             f"batch_size: 128\nstride: 10\nname: {kind}\n")
                for kind, opt in (("adabound", "{kind: adabound}"),
                                  ("adam", "{kind: adam}"),
                                  ("dstadam", "{kind: dstadam}"),
                                  ("sgdm", "{kind: sgdm}"))]
        records = runner.run_batch(cfgs, str(tmp_path))
        assert records[0].final_theta.shape == (354,)
        kinds = [kind for kind, _ in sizes]
        assert kinds.count("block") == 800 // 64 + 1
        assert kinds.count("conditions") == 1
        assert max(size for _, size in sizes) < 64 * 1024, sizes


class TestOverflowedSecondMoment:
    def test_zero_rate_at_an_unsampled_step_raises(self, monkeypatch):
        # g = 1e308 at step 5 overflows v to inf for good: from then on
        # the rate of every coordinate is 0, while stride 10 samples only
        # steps 1 and 8
        edit_oracle(monkeypatch, lambda t, loss, g: (
            loss, np.full_like(g, 1e308) if t == 5 else g))
        cfg = quadratic_cfg("adam", horizon=8, extra="  beta2: 0.999\n")
        cfg = config_module.with_overrides(cfg, stride=10)
        with pytest.raises(DomainError,
                           match=r"raw rate 0\.0 at step 5, coordinate 0"):
            run_experiment(cfg, write_artifacts=False)


def _batch_cfg(name, seed=7, lr=0.1, kind="sgdm"):
    return parse_config(f"""
problem: {{kind: quadratic, dim: 3, seed: {seed}}}
optimizer: {{kind: {kind}, lr: {lr}}}
horizon: 20
name: {name}
""")


#: ``_batch_cfg("f", kind="generic")`` with every float and bool field
#: changed.
_EVERY_VALUE_CHANGED = """
problem: {kind: quadratic, dim: 3, seed: 8, box_halfwidth: 1.5, c: 2.5}
optimizer:
  kind: generic
  alpha: 0.01
  epsilon: 0.0
  bias_correction: true
  sqrt_decay: true
  beta1: 0.5
  beta2: 0.9
  lr: 0.2
  momentum: 0.5
  schedule: {rho: 0.9, r_l: 0.01, r_u: 2.0, beta1_decay: 0.5}
  bounds: {alpha_star: 0.2, gamma: 0.7}
horizon: 20
name: z
out_dir: elsewhere
repeats: 2
"""


class TestBatches:
    def test_like_configs_share_a_batch_key(self):
        cfgs = [_batch_cfg("a"), _batch_cfg("b", seed=9, lr=0.2),
                _batch_cfg("c", kind="adam"),
                config_module.with_overrides(_batch_cfg("d"), stride=2),
                _batch_cfg("e", seed=1)]
        assert runner.group_configs(cfgs) == [[0, 1, 2, 4], [3]]
        # a config that differs from another in its optimizer, in every
        # float and bool field, and in the seed, name, output root and
        # repeat count, joins its group
        cfgs += [_batch_cfg("f", kind="generic"),
                 parse_config(_EVERY_VALUE_CHANGED)]
        assert runner.group_configs(cfgs) == [[0, 1, 2, 4, 5, 6], [3]]
        pairs = [(cfgs[5], cfgs[6])]
        for a, b in pairs:
            for name, kind in config_module._FIELD_TYPES[type(a)].items():
                if kind in config_module._FIELD_TYPES:
                    pairs.append((getattr(a, name), getattr(b, name)))
                elif kind in (float, bool) or name in (
                        "seed", "name", "out_dir", "repeats"):
                    assert getattr(a, name) != getattr(b, name), name

    def test_batch_records_equal_lone_records(self):
        cfgs = [_batch_cfg("a"), _batch_cfg("b", seed=9, lr=0.2)]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            want = run_experiment(cfg, write_artifacts=False,
                                  keep_trajectory=True)
            assert got.config == cfg
            for name in ("losses", "regret", "rate_summary", "final_theta",
                         "final_effective_lr", "grads", "rate_rows"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            assert got.report == want.report

    def test_unlike_configs_are_not_a_batch(self):
        with pytest.raises(ConfigError, match="one loop key"):
            runner.run_batch([_batch_cfg("a"), config_module.with_overrides(
                _batch_cfg("d", kind="adam"), stride=2)])

    def test_a_replica_error_names_its_config(self, monkeypatch):
        def nan_in_replica_1(t, loss, g):
            if t == 6 and g.ndim == 2:
                g[1, 2] = math.nan
            return loss, g

        edit_oracle(monkeypatch, nan_in_replica_1)
        cfgs = [_batch_cfg("first"), _batch_cfg("second", seed=9),
                _batch_cfg("third", seed=11)]
        with pytest.raises(DomainError) as err:
            runner.run_batch(cfgs, write_artifacts=False)
        assert str(err.value) == \
            "second: non-finite gradient at step 6, coordinate 2"

    def test_a_replica_zero_rate_names_its_config(self, monkeypatch):
        def overflow_in_replica_2(t, loss, g):
            if t == 3 and g.ndim == 2:
                g[2, 1] = 1e308
            return loss, g

        edit_oracle(monkeypatch, overflow_in_replica_2)
        cfgs = [parse_config(f"""
problem: {{kind: quadratic, dim: 3, seed: {seed}}}
optimizer: {{kind: adam}}
horizon: 20
stride: 10
name: run{seed}
""") for seed in (1, 2, 3)]
        with pytest.raises(DomainError,
                           match=r"^run3: raw rate 0\.0 at step 3, "
                                 r"coordinate 1"):
            runner.run_batch(cfgs, write_artifacts=False)

    # one loop of four; with 2 or 4 workers it is split among them
    @pytest.mark.parametrize("jobs", ["1", "2", "4"])
    def test_sweep_prints_one_line_per_run_in_config_order(
            self, tmp_path, capsys, jobs):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        # the sgdm and adam configs share one loop, interleaved by kind
        for name, kind, seed in (("a", "sgdm", 3), ("b", "adam", 3),
                                 ("c", "sgdm", 4), ("d", "adam", 5)):
            (sweep_dir / f"{name}.yaml").write_text(
                f"problem: {{kind: quadratic, dim: 2, seed: {seed}}}\n"
                f"optimizer: {{kind: {kind}}}\nhorizon: 30\nname: {name}\n")
        out_root = tmp_path / "runs"
        assert cli_main(["sweep", str(sweep_dir), "--out", str(out_root),
                         "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [Path(line.split()[0]).name[0] for line in lines] == \
            ["a", "b", "c", "d"]
        for line in lines:
            meta = json.loads(
                (Path(line.split()[0]) / "meta.json").read_text())
            assert f"loss={meta['final_loss']:.6g}" in line

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_replicas_may_share_a_seed(self, kind):
        problem = {"logistic": "{kind: logistic, n_samples: 30, dim: 3, "
                               "seed: 4}",
                   "mlp": "{kind: mlp, n_train: 24, n_test: 8, "
                          "hidden: [4], seed: 4}"}[kind]
        cfgs = [parse_config(f"problem: {problem}\noptimizer: "
                             f"{{kind: adam, alpha: {alpha}}}\n"
                             "horizon: 9\nbatch_size: 8\n")
                for alpha in (0.01, 0.02)]
        for cfg, got in zip(cfgs, runner.run_batch(cfgs,
                                                   write_artifacts=False)):
            want = run_experiment(cfg, write_artifacts=False)
            np.testing.assert_array_equal(got.losses, want.losses)
            np.testing.assert_array_equal(got.final_theta, want.final_theta)


#: The criterion-05 trio on the Reddi cycle, shortened; Adam de-biases its
#: moments and DstAdam does not, so the batch holds columns of both.
CYCLE_TRIO = {
    "adam": "{kind: adam, beta1: 0.0, beta2: 0.1}",
    "amsgrad": "{kind: amsgrad, beta1: 0.0, beta2: 0.1}",
    "dstadam": "{kind: dstadam}",
}


def _mixed_cfg(name, kind, seed=3, extra=""):
    return parse_config(f"problem: {{kind: quadratic, dim: 3, seed: {seed}}}\n"
                        f"optimizer: {{kind: {kind}{extra}}}\n"
                        f"horizon: 20\nname: {name}\n")


def _assert_records_equal(got, want):
    """Every field of two records but the wall clock and the run
    directory, bit for bit."""
    for field in dataclasses.fields(want):
        if field.name in ("wall_clock", "run_dir"):
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                field.name
        elif isinstance(b, LrHistogram):
            assert [(t, c.tolist(), u, o) for t, c, u, o in a.rows] == \
                [(t, c.tolist(), u, o) for t, c, u, o in b.rows]
        else:
            assert a == b, field.name


class TestMixedBatches:
    """Runs of different adaptive kinds on one problem share a loop."""

    def test_cycle_trio_records_equal_lone_records(self):
        cfgs = [parse_config("problem: {kind: reddi, c: 3.0, seed: 7}\n"
                             f"optimizer: {opt}\nhorizon: 3000\nstride: 1\n"
                             f"name: cycle-{kind}\n")
                for kind, opt in CYCLE_TRIO.items()]
        assert runner.group_configs(cfgs) == [[0, 1, 2]]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            _assert_records_equal(got, run_experiment(
                cfg, write_artifacts=False, keep_trajectory=True))

    def test_adaptive_mlp_records_equal_lone_records(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        cfgs = [config_module.load_config(root / f"mlp_{kind}.yaml")
                for kind in ("adabound", "adam", "dstadam", "sgdm")]
        # the four optimizers of the MLP comparison share one loop
        assert runner.group_configs(cfgs) == [[0, 1, 2, 3]]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            _assert_records_equal(got, run_experiment(
                cfg, write_artifacts=False, keep_trajectory=True))

    def test_sgdm_shares_the_adaptive_loop(self):
        cfgs = [_batch_cfg("a"), _batch_cfg("b", kind="adam"),
                _batch_cfg("c", kind="dstadam"),
                _batch_cfg("d", seed=9, lr=0.2)]
        assert runner.group_configs(cfgs) == [[0, 1, 2, 3]]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            _assert_records_equal(got, run_experiment(
                cfg, write_artifacts=False, keep_trajectory=True))
        # a stride fixes the loop's buffers: SGDM at another stride does
        # not join
        with pytest.raises(ConfigError, match="one loop key"):
            runner.run_batch(cfgs[1:3] + [config_module.with_overrides(
                cfgs[0], stride=2)])

    def test_a_nan_gradient_names_its_config(self, monkeypatch):
        def nan_in_row_1(t, loss, g):
            if t == 6 and g.ndim == 2:
                g[1, 2] = math.nan
            return loss, g

        edit_oracle(monkeypatch, nan_in_row_1)
        # row r of the loop is config r
        cfgs = [_mixed_cfg("a", "adam"), _mixed_cfg("b", "dstadam"),
                _mixed_cfg("c", "adam", seed=4)]
        with pytest.raises(DomainError) as err:
            runner.run_batch(cfgs, write_artifacts=False)
        assert str(err.value) == \
            "b: non-finite gradient at step 6, coordinate 2"
        assert err.value.replica == 1

    def test_an_error_in_one_groups_rule_names_its_config(self, monkeypatch):
        def overflow_in_row_4(t, loss, g):
            if t == 4 and g.ndim == 2:
                g[4, 1] = 1e308
            return loss, g

        edit_oracle(monkeypatch, overflow_in_row_4)
        # with rho_t = 1 DstAdam's rate is Adam's, which the overflowed
        # second moment makes 0; row 4 of the loop is config e
        ones = ", ".join(["1.0"] * 20)
        rule = (f", schedule: {{rho_kind: custom, rho_sequence: [{ones}]}}")
        cfgs = [_mixed_cfg("a", "adam"), _mixed_cfg("b", "dstadam"),
                _mixed_cfg("c", "adam", seed=4),
                _mixed_cfg("d", "dstadam", seed=5),
                _mixed_cfg("e", "dstadam", seed=6, extra=rule)]
        with pytest.raises(DomainError) as err:
            runner.run_batch(cfgs, write_artifacts=False)
        assert str(err.value) == \
            "e: eta_hat not positive at step 4, coordinate 1"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_lines_keep_config_order_across_kinds(self, tmp_path,
                                                        capsys, jobs):
        sweep_dir = tmp_path / "configs"
        sweep_dir.mkdir()
        for name, kind, seed in (("a", "adam", 3), ("b", "dstadam", 3),
                                 ("c", "adam", 4)):
            (sweep_dir / f"{name}.yaml").write_text(
                f"problem: {{kind: quadratic, dim: 2, seed: {seed}}}\n"
                f"optimizer: {{kind: {kind}}}\nhorizon: 30\nname: {name}\n")
        assert cli_main(["sweep", str(sweep_dir), "--out",
                         str(tmp_path / "runs"), "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [Path(line.split()[0]).name[0] for line in lines] == \
            ["a", "b", "c"]
        for line in lines:
            run_dir = Path(line.split()[0])
            lone = run_experiment(config_module.load_config(
                run_dir / "config.yaml"), out_root=str(tmp_path / "lone"))
            for name in CSV_ARTIFACTS:
                assert (run_dir / name).read_bytes() == \
                    (lone.run_dir / name).read_bytes(), (line, name)


#: A config and, for each kind, shape or tuple field of its problem and
#: loop, one change of it, made on a problem kind that reads the field.
_KEY_BASE = """
problem: {kind: quadratic, dim: 3, seed: 7, hidden: [4]}
optimizer:
  kind: generic
  schedule: {rho_kind: exponential, rho_sequence: [0.5], beta1_kind: constant}
  bounds: {kind: adadb, gamma: 0.5}
horizon: 20
stride: 1
batch_size: 8
"""
_KEY_SPLITS = [pytest.param(old, new, kind, id=f"{old}-{new}")
               for old, new, kind in (
                   ("kind: quadratic", "kind: logistic", "quadratic"),
                   ("dim: 3", "dim: 4", "quadratic"),
                   ("horizon: 20", "horizon: 21", "quadratic"),
                   ("stride: 1", "stride: 2", "quadratic"),
                   # fields that only a dataset kind reads, on such a kind
                   ("batch_size: 8", "batch_size: 9", "mlp"),
                   ("hidden: [4]", "hidden: [4, 4]", "mlp"))]

#: For each kind or tuple field of the optimizer, one change of it.
_OPTIMIZER_CHANGES = [("kind: generic", "kind: adabound"),
                      ("kind: adadb", "kind: swats"),
                      ("rho_kind: exponential", "rho_kind: constant"),
                      ("beta1_kind: constant", "beta1_kind: harmonic"),
                      ("rho_sequence: [0.5]", "rho_sequence: [0.25]")]


class TestBatchKey:
    """Which configs share one loop: :func:`runner.loop_key`."""

    @pytest.mark.parametrize("old, new, kind", _KEY_SPLITS)
    def test_a_kind_shape_or_tuple_field_splits_the_key(self, old, new,
                                                        kind):
        text = _KEY_BASE.replace("kind: quadratic", f"kind: {kind}")
        assert old in text
        base = parse_config(text)
        changed = parse_config(text.replace(old, new))
        assert runner.loop_key(base) != runner.loop_key(changed)

    def test_fields_a_kind_never_reads_keep_the_key(self, tmp_path):
        quadratic = ("problem: {kind: quadratic, dim: 2, seed: 3%s}\n"
                     "optimizer: {kind: adam}\nhorizon: 30\n")
        reddi = ("problem: {kind: reddi, seed: 3%s}\n"
                 "optimizer: {kind: dstadam}\nhorizon: 30\n")
        cfgs = [parse_config(text % extra) for text, extra in (
            (quadratic, ", hidden: [4]"),
            (quadratic + "batch_size: 9\n", ", hidden: [4, 4]"),
            (reddi, ""), (reddi, ", n_train: 64"))]
        assert runner.group_configs(cfgs) == [[0, 1], [2, 3]]
        for group in ([0, 1], [2, 3]):
            batch = runner.run_batch([cfgs[i] for i in group],
                                     str(tmp_path / "batch"))
            for i, got in zip(group, batch):
                lone = run_experiment(cfgs[i], str(tmp_path / f"lone{i}"))
                assert got.run_dir.name == lone.run_dir.name
                for name in (*CSV_ARTIFACTS, "config.yaml"):
                    assert (got.run_dir / name).read_bytes() == \
                        (lone.run_dir / name).read_bytes(), (i, name)

    @pytest.mark.parametrize("old, new", _OPTIMIZER_CHANGES)
    def test_an_optimizer_field_keeps_the_key(self, old, new):
        # every optimizer runs as a row of the one skeleton step
        assert old in _KEY_BASE
        base = parse_config(_KEY_BASE)
        changed = parse_config(_KEY_BASE.replace(old, new))
        assert runner.loop_key(base) == runner.loop_key(changed)

    def test_mlp_boxes_epsilon_and_bias_correction_share_one_group(self):
        def cfg(seed, box, epsilon, bias_correction):
            side = f", box_halfwidth: {box}" if box else ""
            return parse_config(
                "problem: {kind: mlp, n_train: 24, n_test: 8, hidden: [4], "
                f"seed: {seed}{side}}}\noptimizer: {{kind: adam, epsilon: "
                f"{epsilon}, bias_correction: {bias_correction}}}\n"
                "horizon: 9\nbatch_size: 8\n")

        cfgs = [cfg(4, None, 0.0, "true"), cfg(5, 0.3, 1.0e-8, "false"),
                cfg(4, 0.5, 1.0e-3, "true"), cfg(6, None, 1.0e-8, "false")]
        assert runner.group_configs(cfgs) == [[0, 1, 2, 3]]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            _assert_records_equal(got, run_experiment(
                cfg, write_artifacts=False, keep_trajectory=True))
        # the boxes bind, so the batch clamps some rows and not others
        assert np.abs(batch[1].final_theta).max() == 0.3

    @pytest.mark.parametrize("kind, a, b", [
        ("dstadam", "schedule: {rho_kind: custom, rho: 0.5, "
                    "rho_sequence: [0.9, 0.5, 0.25, 0.0]}",
         "schedule: {rho_kind: custom, rho: 0.7, "
         "rho_sequence: [0.9, 0.5, 0.25, 0.0]}"),
        ("dstadam", "schedule: {beta1_decay: 0.3}",
         "schedule: {beta1_decay: 0.6}"),
        ("dstadam", "schedule: {beta1_kind: geometric, beta1_decay: 0.3}",
         "schedule: {beta1_kind: geometric, beta1_decay: 0.6}"),
        ("generic", "bounds: {kind: swats, gamma: 0.1}",
         "bounds: {kind: swats}"),
        ("generic", "bounds: {kind: adadb, gamma: 0.1}",
         "bounds: {kind: adadb, gamma: 0.2}"),
    ])
    def test_values_a_kind_reads_or_not_share_one_group(self, kind, a, b):
        cfgs = [parse_config(
            "problem: {kind: quadratic, dim: 3, seed: %d}\n"
            "optimizer: {kind: %s, %s}\nhorizon: 4\n" % (seed, kind, extra))
            for seed, extra in ((3, a), (4, b))]
        assert runner.group_configs(cfgs) == [[0, 1]]
        batch = runner.run_batch(cfgs, write_artifacts=False,
                                 keep_trajectory=True)
        for cfg, got in zip(cfgs, batch):
            _assert_records_equal(got, run_experiment(
                cfg, write_artifacts=False, keep_trajectory=True))


def test_lu_run_reaches_its_last_step():
    # the lower bound used to round past alpha_star at t = T and the clamp
    # raised "clamp bounds inverted" at the last step
    record = run_experiment(quadratic_cfg(
        "generic", horizon=12,
        extra="  bounds: {kind: lu, alpha_star: 0.05}\n"),
        write_artifacts=False)
    assert len(record.losses) == 12
    np.testing.assert_array_equal(record.final_effective_lr, 0.05)


def _losses_patched_at(monkeypatch, step, values):
    """Make the batch's stacked problem return ``values`` as the losses
    of ``step``, its gradients as they are."""
    edit_oracle(monkeypatch, lambda t, loss, grad: (
        np.array(values) if t == step else loss, grad))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_batch_loss_names_its_replica(monkeypatch, bad):
    _losses_patched_at(monkeypatch, 3, [0.5, bad, 0.25])
    cfgs = [dataclasses.replace(quadratic_cfg(horizon=6, seed=seed),
                                name=f"run{seed}") for seed in (3, 4, 5)]
    with pytest.raises(DomainError) as err:
        runner.run_batch(cfgs, write_artifacts=False)
    assert str(err.value) == "run4: non-finite loss at step 3; run aborted"
    assert err.value.replica == 1


def test_finite_batch_losses_with_an_overflowing_sum_pass(monkeypatch):
    # the sum screen overflows; the exact test finds every loss finite
    _losses_patched_at(monkeypatch, 3, [1e308, 1e308, 1e308])
    cfgs = [quadratic_cfg(horizon=6, seed=seed) for seed in (3, 4, 5)]
    records = runner.run_batch(cfgs, write_artifacts=False)
    assert [r.losses[2] for r in records] == [1e308] * 3
