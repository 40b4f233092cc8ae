"""The quadratic's and the reddi cycle's step loop takes their losses from
the step slots (``slot_losses``): ``RunMonitor.screen`` computes a
buffer's losses at once from its gradient and iterate rows.  They must
be the per-step ``loss_and_grad`` losses bit for bit, at every step, in
a partial last buffer and on the loop's ``DomainError`` path, and a real
fault must raise what the per-step oracle's loop raises."""

import math

import numpy as np
import pytest

from transopt import runner
from transopt.config import parse_config
from transopt.diagnostics import RunMonitor, buffer_rows
from transopt.errors import DomainError
from transopt.problems import (LogisticMinibatch, MlpClassification,
                               QuadraticTracking, ReddiCycle)

#: Per variant: the problem lines of its configs (one config, or a batch
#: of three that differ in their data), whether the quadratic's centers
#: are an explicit (T, d) array, and the loop's width R * d.
VARIANTS = {
    **{f"quadratic-{how}-{size}-d{d}": (
        [f"{{kind: quadratic, dim: {d}, seed: {seed}}}"
         for seed in ((5,) if size == "lone" else (5, 6, 9))],
        how == "explicit", d * (1 if size == "lone" else 3))
       for how in ("seeded", "explicit") for size in ("lone", "stacked")
       for d in (1, 3, 10, 200)},
    "reddi-lone": (["{kind: reddi, c: 3.0}"], False, 1),
    "reddi-stacked": ([f"{{kind: reddi, c: {c}}}" for c in (3.0, 2.5, 5.0)],
                      False, 3),
}

OPTIMIZERS = ("{kind: dstadam}", "{kind: adam}", "{kind: amsgrad}")


def _rows(width):
    """The rows of a long loop's step buffers."""
    return buffer_rows(10 ** 6, width)


def _cfgs(variant, horizon):
    lines, _, _ = VARIANTS[variant]
    return [parse_config(f"problem: {line}\n"
                         f"optimizer: {OPTIMIZERS[r % len(OPTIMIZERS)]}\n"
                         f"horizon: {horizon}\nname: run{r}\n")
            for r, line in enumerate(lines)]


def _centers(cfg):
    """The seeded quadratic's centers, drawn as one (T, d) array."""
    return np.random.default_rng(cfg.problem.seed).uniform(
        -1.0, 1.0, size=(cfg.horizon, cfg.problem.dim))


def _explicit(patch, edit=None):
    """Build each quadratic on its explicit centers, which ``edit(r,
    centers)`` may change once the problem of config r is built."""
    build = runner.build_problem

    def explicit(cfg):
        problem = QuadraticTracking(_centers(cfg), build(cfg).box)
        if edit is not None:
            edit(int(cfg.name[3:]), problem.centers)
        return problem

    patch.setattr(runner, "build_problem", explicit)


def _fused(patch):
    """Make the loop call ``loss_and_grad`` at every step."""
    for kind in (QuadraticTracking, ReddiCycle):
        patch.setattr(kind, "slot_losses", None)


def _monitored(patch):
    """The loop's monitors, appended as the loops build them."""
    monitors = []

    class Kept(RunMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self)

    patch.setattr(runner, "RunMonitor", Kept)
    return monitors


def _failing_at(patch, step):
    """Make the loop's stepper raise a DomainError at ``step``, after the
    oracle wrote the step's gradient into its slot."""
    stack = runner.stack_kinds

    def patched(steppers):
        stepper = stack(steppers)
        original = stepper.step

        def step_or_fail(theta, grad):
            if stepper.state.t + 1 == step:
                raise DomainError("the stepper stops here")
            return original(theta, grad)

        stepper.step = step_or_fail
        return stepper

    patch.setattr(runner, "stack_kinds", patched)


def _losses(variant, horizon, fused, fail_at=None):
    """The (T, R) losses the loop's monitor holds after the run, and the
    run's error, if any."""
    with pytest.MonkeyPatch.context() as patch:
        if VARIANTS[variant][1]:
            _explicit(patch)
        if fused:
            _fused(patch)
        if fail_at is not None:
            _failing_at(patch, fail_at)
        monitors = _monitored(patch)
        error = None
        try:
            runner.run_batch(_cfgs(variant, horizon), write_artifacts=False)
        except DomainError as err:
            error = str(err)
        assert len(monitors) == 1
        return monitors[0].losses.copy(), error


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_the_loop_takes_the_slot_path_only_for_the_analytic_kinds():
    assert QuadraticTracking.slot_losses is not None
    assert ReddiCycle.slot_losses is not None
    assert LogisticMinibatch.slot_losses is None
    assert MlpClassification.slot_losses is None


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_slot_losses_are_the_oracles_at_every_step(variant):
    # three full buffers and a partial one
    rows = _rows(VARIANTS[variant][2])
    horizon = 3 * rows + 17
    got, error = _losses(variant, horizon, fused=False)
    want, _ = _losses(variant, horizon, fused=True)
    assert error is None
    assert np.isfinite(want).all() and want.shape[0] == horizon
    _assert_same_bits(got, want)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("where", ["first", "middle"])
def test_a_failing_step_screens_the_slot_losses_of_its_buffer(variant,
                                                              where):
    # the stepper fails at a buffer's first row, whose iterate entered
    # from the previous buffer, or in the middle of a buffer; the screen
    # on the loop's error path fills the rows it screens first
    rows = _rows(VARIANTS[variant][2])
    step = rows + 1 if where == "first" else rows + rows // 2 + 1
    got, error = _losses(variant, 3 * rows, fused=False, fail_at=step)
    want, want_error = _losses(variant, 3 * rows, fused=True, fail_at=step)
    assert error == want_error and error.endswith("the stepper stops here")
    assert np.isfinite(want[:step]).all()
    _assert_same_bits(got[:step], want[:step])


def _fault_error(size, value, step, fused):
    """The error of a run whose quadratic (replica 1 of a batch of three)
    has a center of ``value`` at ``step``, coordinate 1."""
    lines = ["{kind: quadratic, dim: 3, seed: %d}" % seed
             for seed in ((5,) if size == "lone" else (5, 6, 9))]
    cfgs = [parse_config(f"problem: {line}\noptimizer: {{kind: dstadam}}\n"
                         f"horizon: 300\nname: run{r}\n")
            for r, line in enumerate(lines)]
    bad = 0 if size == "lone" else 1

    def edit(r, centers):
        if r == bad:
            centers[step - 1, 1] = value

    with pytest.MonkeyPatch.context() as patch:
        _explicit(patch, edit)
        if fused:
            _fused(patch)
        with pytest.raises(DomainError) as err:
            runner.run_batch(cfgs, write_artifacts=False)
    return str(err.value), err.value.replica


@pytest.mark.parametrize("size", ["lone", "stacked"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
@pytest.mark.parametrize("step", [1, 40, 229])
def test_a_real_fault_raises_what_the_fused_loop_raises(size, value, step):
    # 1e200 leaves the gradient finite and overflows the loss; the
    # buffers of three rows at d = 3 hold 227 steps
    got = _fault_error(size, value, step, fused=False)
    assert got == _fault_error(size, value, step, fused=True)
    replica = 0 if size == "lone" else 1
    assert got == (f"run{replica}: non-finite loss at step {step}; "
                   "run aborted", replica)
