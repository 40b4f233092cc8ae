"""Coefficient blocks: a stepper that fills its t-only scalars a block of
steps at a time steps with the bits of the per-step skeleton, lone and
as a row of a kind batch, across block boundaries."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transopt import runner
from transopt.config import load_config
from transopt.errors import DomainError, HorizonError
from transopt.optim import (BLOCK_STEPS, Adam, Amsgrad, ClippedTransition,
                            DstAdam, FeasibleBox, MomentumSgd, StepConfig,
                            stack_kinds)
from transopt.schedule import (BoundFunctionSpec, TransitionSchedule,
                               eval_bounds)

#: Two block boundaries and part of a third block.
HORIZON = 2 * BLOCK_STEPS + 37
DIM = 3


class PerStepReference:
    """The skeleton step as it ran before coefficient blocks: each t-only
    scalar is computed at its own step, from the schedule's and the
    bounds' scalar functions, in the operation order of the step.

    ``opt`` is a lone stepper that has not stepped; only its
    hyperparameters are read.
    """

    def __init__(self, opt):
        self.opt = opt
        self.m = np.zeros(DIM)
        self.v = np.zeros(DIM)
        self.v_max = np.zeros(DIM)
        self.t = 0
        self.beta1_prod = self.beta2_prod = 1.0
        self.m_abs_peak = 0.0

    def _betas(self, t):
        opt = self.opt
        if isinstance(opt, DstAdam):
            b1 = opt.schedule.beta1_at(t)
            return b1, opt.schedule.beta2_at(t), 1.0 - b1
        # heavy ball takes the gradient undamped
        gain1 = 1.0 if isinstance(opt, MomentumSgd) else 1.0 - opt.beta1
        return opt.beta1, opt.beta2, gain1

    def step(self, theta, grad):
        opt, cfg = self.opt, self.opt.cfg
        t = self.t + 1
        b1, b2, gain1 = self._betas(t)
        beta1_prod = self.beta1_prod * b1
        beta2_prod = self.beta2_prod * b2
        m = self.m
        m *= b1
        m += gain1 * grad
        if isinstance(opt, MomentumSgd):
            rate = np.full(DIM, opt.lr)
        else:
            v = self.v
            v *= b2
            v += (1.0 - b2) * grad * grad
            if isinstance(opt, Amsgrad):
                v = np.maximum(self.v_max, v, out=self.v_max)
            if cfg.bias_correction:
                v = v / (1.0 - beta2_prod)
            rate = np.sqrt(v)
            rate += cfg.epsilon
            rate = np.divide(cfg.alpha, rate, out=rate)
        if cfg.bias_correction:
            m = m / (1.0 - beta1_prod)
        if isinstance(opt, ClippedTransition):
            if opt.bounds.kind == "adadb":
                m_abs = np.abs(self.m)
                self.m_abs_peak = np.maximum(
                    self.m_abs_peak, m_abs.max(axis=-1, keepdims=True))
                lower, upper = eval_bounds(opt.bounds, t, m_abs,
                                           self.m_abs_peak)
            else:
                lower, upper = eval_bounds(opt.bounds, t)
            rate = np.clip(rate, lower, upper)
        if isinstance(opt, DstAdam):
            rho_t, r_t = opt.schedule.rho_at(t), opt.schedule.r_at(t)
            rate *= rho_t
            rate += (1.0 - rho_t) * r_t
        eta = rate / math.sqrt(t) if cfg.sqrt_decay else rate
        theta = opt.box.clamp_into(theta - eta * m)
        self.t, self.beta1_prod, self.beta2_prod = t, beta1_prod, beta2_prod
        return theta, rate, eta


def _schedule(k, **kw):
    return TransitionSchedule(horizon=HORIZON, r_l=0.005 * (k + 1),
                              r_u=2.0 - 0.5 * k, **kw)


def _cfg(k, bias_correction=False):
    return StepConfig(alpha=0.01 * (k + 1), bias_correction=bias_correction,
                      sqrt_decay=k % 2 == 0)


#: Builders of replica k of each kind; replicas differ in their
#: hyperparameters, bias correction or sqrt_decay, and box.
KINDS = {
    "sgdm": lambda k: MomentumSgd(DIM, lr=0.05 * (k + 1),
                                  momentum=0.5 + 0.2 * k),
    "adam": lambda k: Adam(DIM, _cfg(k, bias_correction=True),
                           beta1=0.9 - 0.2 * k, beta2=0.99),
    "amsgrad": lambda k: Amsgrad(DIM, _cfg(k, bias_correction=k == 1),
                                 beta2=0.9 + 0.04 * k),
    "swats": lambda k: ClippedTransition(
        DIM, BoundFunctionSpec("swats", alpha_star=0.02 * (k + 1)), _cfg(k)),
    "adabound": lambda k: ClippedTransition(
        DIM, BoundFunctionSpec("adabound", alpha_star=0.05, beta2=0.99),
        _cfg(k, bias_correction=True), beta2=0.99),
    "adadb": lambda k: ClippedTransition(
        DIM, BoundFunctionSpec("adadb", alpha_star=0.05, gamma=1.0 + k),
        _cfg(k)),
    "lu": lambda k: ClippedTransition(
        DIM, BoundFunctionSpec("lu", alpha_star=0.05, horizon=HORIZON),
        _cfg(k), beta1=0.5 + 0.1 * k),
    "dstadam-exponential": lambda k: DstAdam(
        DIM, _schedule(k, rho=[None, 0.99, 0.995][k]),
        _cfg(k, bias_correction=True)),
    "dstadam-constant": lambda k: DstAdam(
        DIM, _schedule(k, rho_kind="constant", rho=0.3 + 0.2 * k), _cfg(k)),
    "dstadam-custom": lambda k: DstAdam(
        DIM, _schedule(k, rho_kind="custom", rho_sequence=tuple(
            np.linspace(1.0, 0.0, HORIZON).tolist())), _cfg(k)),
    "dstadam-geometric": lambda k: DstAdam(
        DIM, _schedule(k, beta1_kind="geometric",
                       beta1_decay=0.99 - 0.1 * k), _cfg(k)),
    "dstadam-harmonic": lambda k: DstAdam(
        DIM, _schedule(k, beta1_kind="harmonic", beta1=0.5 + 0.1 * k),
        _cfg(k, bias_correction=True)),
}


def _boxed(opt, k):
    if k == 1:
        opt.box = FeasibleBox.cube(0.3, DIM)
    return opt


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _assert_rows_match(stepper, lone, zero_at_step_1=()):
    """Step ``stepper`` over (R, d) rows, or (d,) for one, and each lone
    stepper and its per-step reference over its row, comparing bits.
    The rows in ``zero_at_step_1`` take a zero gradient at step 1.  The
    thetas, rates and etas of every step are kept and compared at the
    end, which names the first step, row and value that differ."""
    refs = [PerStepReference(opt) for opt in lone]
    rng = np.random.default_rng(len(lone))
    theta = rng.uniform(-0.5, 0.5, size=(len(lone), DIM))
    thetas = list(theta)
    lone_thetas = list(theta)
    if len(lone) == 1:
        theta = theta[0]
    # per step, (R, 3, d): each row's theta, rate and eta
    got, references, lones = [], [], []
    for t in range(1, HORIZON + 1):
        grad = rng.normal(size=np.shape(theta))
        if t == 1:
            grad[list(zero_at_step_1)] = 0.0
        theta = stepper.step(theta, grad)
        got.append(np.stack([theta, stepper.rate_raw(),
                             stepper.effective_lr()], axis=-2))
        grads = np.reshape(grad, (len(lone), DIM))
        step_refs, step_lones = [], []
        for r, (opt, ref) in enumerate(zip(lone, refs)):
            thetas[r], rate, eta = ref.step(thetas[r], grads[r])
            step_refs.append((thetas[r], rate, eta))
            lone_thetas[r] = opt.step(lone_thetas[r], grads[r])
            step_lones.append((lone_thetas[r], opt.rate_raw(),
                               opt.effective_lr()))
        references.append(step_refs)
        lones.append(step_lones)
    got = _bits(np.reshape(got, (HORIZON, len(lone), 3, DIM)))
    for source, want in (("reference", references), ("lone", lones)):
        bad = np.argwhere(got != _bits(np.array(want)))
        if len(bad):
            t, r, name, i = bad[0]
            pytest.fail(f"{('theta', 'rate', 'eta')[name]} differs from the "
                        f"{source} at t={t + 1} r={r} i={i}")
    assert stepper.state.t == HORIZON


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_lone_stepper_steps_as_the_per_step_skeleton(kind):
    _assert_rows_match(_boxed(KINDS[kind](1), 1), [_boxed(KINDS[kind](1), 1)])


@pytest.mark.parametrize("kind", list(KINDS))
def test_stacked_rows_step_as_the_per_step_skeleton(kind):
    def replicas():
        return [_boxed(KINDS[kind](k), k) for k in range(3)]

    _assert_rows_match(stack_kinds(replicas()), replicas())


def test_kind_batch_rows_step_as_the_per_step_skeleton():
    # every kind twice in a row; then rows that keep AMSGrad's running
    # max or adadb's |m_t| bound interleaved with rows that do not, their
    # alpha and gamma differing, with row 2's adadb peak 0 at step 1
    grouped = [(kind, k) for kind in KINDS for k in range(2)]
    interleaved = [("amsgrad", 0), ("adam", 1), ("adadb", 0), ("amsgrad", 1),
                   ("dstadam-exponential", 2), ("adadb", 1), ("sgdm", 0)]
    for kinds, zero in ((grouped, []), (interleaved, [2])):
        def rows():
            return [_boxed(KINDS[kind](k), k) for kind, k in kinds]

        _assert_rows_match(stack_kinds(rows()), rows(), zero_at_step_1=zero)


@pytest.mark.parametrize("rows", [
    [("sgdm", 0), ("adam", 1)], [("dstadam-zeros", 1)]],
    ids=["sgdm-and-adam", "dstadam-all-zeros-rho"])
def test_a_scale_that_may_be_nonzero_reads_the_second_moment(rows):
    # an Adam row's scale is 1.0, and a custom rho sequence is read a
    # block at a time, so even an all-zeros one may be nonzero later
    kinds = {**KINDS, "dstadam-zeros": lambda k: DstAdam(
        DIM, _schedule(k, rho_kind="custom", rho_sequence=(0.0,) * HORIZON),
        _cfg(k))}

    def steppers():
        return [_boxed(kinds[kind](k), k) for kind, k in rows]

    stepper = stack_kinds(steppers())
    _assert_rows_match(stepper, steppers())
    assert np.all(stepper.state.v != 0.0)


def _frozen(opt):
    s = opt.state
    return (s.t, _bits(np.asarray(s.beta1_prod, dtype=np.float64)),
            _bits(np.asarray(s.beta2_prod, dtype=np.float64)),
            _bits(opt.rate_raw()), _bits(opt.effective_lr()))


def _assert_unchanged(before, after):
    assert before[0] == after[0]
    for a, b in zip(before[1:], after[1:]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("at", [BLOCK_STEPS + 1, BLOCK_STEPS + 100],
                         ids=["first-of-block", "mid-block"])
@pytest.mark.parametrize("batched", [False, True], ids=["lone", "batch"])
def test_a_rate_error_leaves_the_state_as_it_was(at, batched):
    # rho_t = 1 at step `at` leaves the adaptive rate alone, and a
    # gradient that overflows v makes it 0: eta_hat is not positive
    rho = [0.5] * HORIZON
    rho[at - 1] = 1.0

    def dst():
        return DstAdam(DIM, TransitionSchedule(
            horizon=HORIZON, rho_kind="custom", rho_sequence=rho),
            StepConfig(bias_correction=True))

    opt = stack_kinds([Adam(DIM), dst()]) if batched else dst()
    rows = (2, DIM) if batched else (DIM,)
    rng = np.random.default_rng(3)
    theta = np.zeros(rows)
    for _ in range(at - 1):
        theta = opt.step(theta, rng.normal(size=rows))
    before = _frozen(opt)
    grad = rng.normal(size=rows)
    grad[..., 1] = 1e308
    with pytest.raises(DomainError) as err:
        opt.step(theta, grad)
    assert str(err.value) == \
        f"eta_hat not positive at step {at}, coordinate 1"
    assert err.value.replica == (1 if batched else None)
    _assert_unchanged(before, _frozen(opt))


@pytest.mark.parametrize("horizon", [BLOCK_STEPS, BLOCK_STEPS + 50],
                         ids=["first-of-block", "mid-block"])
def test_inverted_bounds_raise_past_the_lu_horizon(horizon):
    # past T the lu bounds cross: the fill of the step after T raises,
    # naming the step and the horizon
    opt = ClippedTransition(DIM, BoundFunctionSpec(
        "lu", alpha_star=0.05, horizon=horizon))
    rng = np.random.default_rng(5)
    theta = np.zeros(DIM)
    for _ in range(horizon):
        theta = opt.step(theta, rng.normal(size=DIM))
    before = _frozen(opt)
    with pytest.raises(HorizonError, match=(
            rf"^step {horizon + 1} exceeds lu bound horizon {horizon}$")):
        opt.step(theta, rng.normal(size=DIM))
    _assert_unchanged(before, _frozen(opt))


def test_a_fill_holds_few_bytes_a_step():
    # the quadratic-long stepper's block: its varying coefficients and
    # beta products, with no Python object a step
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / "quadratic_dstadam.yaml")
    box = runner.build_problem(cfg).box
    opt = runner.build_optimizer(cfg, cfg.problem.dim, cfg.horizon, box)
    rng = np.random.default_rng(6)
    theta = np.zeros(cfg.problem.dim)
    for _ in range(BLOCK_STEPS):
        theta = opt.step(theta, rng.normal(size=cfg.problem.dim))
    tracemalloc.start()
    try:
        opt._fill(opt.state.t + 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / BLOCK_STEPS <= 200
