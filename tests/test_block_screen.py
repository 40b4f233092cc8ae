"""The step loop screens its losses and gradients a buffer of steps at a
time (``RunMonitor.screen``), and raises the error a screen at every
step would raise: the same message, step, replica and coordinate."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transopt import runner, writer
from transopt.config import parse_config
from transopt.errors import DomainError

DIM = 3

#: The rows a batch draws from, by name: DstAdam, whose blend keeps its
#: rate positive after an infinite gradient; Adam with beta2 = 0, whose
#: v is NaN at a NaN gradient and one step after an infinite one (the
#: stepper's NaN-v screen); and Adam with beta2 = 0 and epsilon = 0,
#: whose zero gradient coordinate is a zero second moment (the stepper's
#: zero-rate screen).
ROWS = {"dst": "{kind: dstadam}",
        "nanv": "{kind: adam, beta2: 0.0}",
        "zero": "{kind: adam, beta2: 0.0, epsilon: 0.0}"}
ALL = sorted(ROWS)

#: Steps next to the edges of the step buffers (227 rows for three rows
#: at d = 3, 528 for one) and of the stepper's coefficient blocks (256).
EDGES = (1, 2, 226, 227, 228, 255, 256, 257, 453, 454, 455, 511, 512, 513,
         527, 528, 529, 600)

BIG = 1e308


def _cfgs(names, horizon):
    return [parse_config(f"problem: {{kind: quadratic, dim: {DIM}, "
                         f"seed: {seed}}}\noptimizer: {ROWS[name]}\n"
                         f"horizon: {horizon}\nname: {name}\n")
            for seed, name in enumerate(names, start=1)]


def _inject(monkeypatch, faults, zero=None, big=None):
    """Make the loop's problem return the fault values: ``faults`` holds
    (step, "loss" or "grad", replica, coordinate, value); at a ``zero``
    (step, replica, coordinate) the gradient is 0.0; at step ``big``
    every loss is 1e308.  A fault wins over a zero or a big loss."""
    stack = runner.stack_problems

    def patched(problems):
        problem = stack(problems)
        oracle = problem.loss_and_grad
        replicas = len(problems)

        def loss_and_grad(t, theta):
            loss, grad = oracle(t, theta)
            losses = np.array(loss, dtype=np.float64).reshape(replicas)
            grads = np.array(grad, dtype=np.float64).reshape(replicas, DIM)
            if t == big:
                losses[:] = BIG
            if zero is not None and zero[0] == t:
                grads[zero[1], zero[2]] = 0.0
            for step, target, r, i, value in faults:
                if step == t:
                    if target == "loss":
                        losses[r] = value
                    else:
                        grads[r, i] = value
            return losses.reshape(np.shape(loss)), grads.reshape(grad.shape)

        problem.loss_and_grad = loss_and_grad
        return problem

    monkeypatch.setattr(runner, "stack_problems", patched)


def _expected(names, faults, zero):
    """The message and replica of the first error a screen at each step
    raises: at a step, the loss screen (first bad replica), then the
    gradient screen (first bad replica, then coordinate), then the
    stepper's zero-rate screen; None when no screen fires."""
    batch = len(names) > 1
    events = []
    for step, target, r, i, _ in faults:
        if target == "loss":
            events.append((step, 0, r, 0, r,
                           f"non-finite loss at step {step}; run aborted"))
        else:
            events.append((step, 1, r, i, r if batch else None,
                           f"non-finite gradient at step {step}, "
                           f"coordinate {i}"))
    if zero is not None:
        step, r, i = zero
        events.append((step, 2, r, i, r if batch else None,
                       f"zero second moment at step {step}, coordinate {i} "
                       "with epsilon=0; supply a positive epsilon"))
    if not events:
        return None
    step, _, r, _, replica, message = min(events)
    return f"{names[r]}: {message}", replica


@st.composite
def scenarios(draw):
    if draw(st.booleans()):
        names = [draw(st.sampled_from(ALL))]
    else:
        names = draw(st.permutations(ALL))
    horizon = draw(st.integers(1, 600) | st.sampled_from(EDGES))
    steps = st.integers(1, horizon) | st.sampled_from(
        [t for t in EDGES if t <= horizon])
    replicas = st.integers(0, len(names) - 1)
    faults = draw(st.lists(st.tuples(
        steps, st.sampled_from(["loss", "grad"]), replicas,
        st.integers(0, DIM - 1),
        st.sampled_from([math.nan, math.inf, -math.inf])), max_size=3))
    zero = None
    if "zero" in names and draw(st.booleans()):
        zero = (draw(steps), names.index("zero"),
                draw(st.integers(0, DIM - 1)))
    # one step: two big losses of one run would overflow its regret
    big = draw(st.none() | steps)
    return names, horizon, faults, zero, big


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scenarios())
# a loss and a gradient at one step: the loss wins
@example((ALL, 300, [(40, "grad", 0, 1, math.nan),
                     (40, "loss", 2, 0, math.inf)], None, None))
# an infinite gradient in the beta2 = 0 row fires the NaN-v screen one
# step later, in the same buffer and across the buffer's edge
@example((ALL, 300, [(100, "grad", 1, 2, math.inf)], None, None))
@example((ALL, 300, [(227, "grad", 1, 0, -math.inf)], None, None))
@example((["nanv"], 600, [(528, "grad", 0, 1, math.inf)], None, None))
# a NaN gradient fires the NaN-v screen at its own step
@example((ALL, 300, [(50, "grad", 1, 0, math.nan)], None, None))
# the zero-rate screen after, at and before a bad input
@example((ALL, 300, [(30, "loss", 0, 0, math.nan)], (31, 2, 1), None))
@example((ALL, 300, [(40, "grad", 0, 1, math.nan)], (31, 2, 1), None))
@example((ALL, 300, [(31, "grad", 0, 2, math.nan)], (31, 2, 1), None))
@example((["zero"], 300, [(32, "loss", 0, 0, -math.inf)], (31, 0, 1), None))
# big losses of three rows overflow the block's sum and raise nothing
@example((ALL, 300, [], None, 5))
@example((ALL, 300, [(7, "grad", 2, 0, math.nan)], None, 7))
def test_a_block_screen_raises_what_each_step_would(scenario):
    names, horizon, faults, zero, big = scenario
    with pytest.MonkeyPatch.context() as patch:
        _inject(patch, faults, zero, big)
        want = _expected(names, faults, zero)
        if want is None:
            records = runner.run_batch(_cfgs(names, horizon),
                                       write_artifacts=False)
            for record in records:
                assert np.isfinite(record.losses).all()
                assert big is None or record.losses[big - 1] == BIG
            return
        try:
            runner.run_batch(_cfgs(names, horizon), write_artifacts=False)
        except DomainError as err:
            assert (str(err), err.replica) == want
        else:
            raise AssertionError(f"no error; expected {want}")


def test_big_finite_gradients_overflow_the_sum_and_pass(monkeypatch):
    # 1e308 in every coordinate: each block's gradient sum is +inf, and
    # DstAdam's blend keeps the rates of the overflowed v positive
    _inject(monkeypatch, [(t, "grad", 0, i, BIG)
                          for t in (3, 4) for i in range(DIM)])
    record = runner.run_batch(_cfgs(["dst"], 50), write_artifacts=False)[0]
    assert record.report.grad_bound_ok is False
    assert np.isfinite(record.losses).all()


@pytest.mark.parametrize("fork", [True, False])
def test_big_finite_gradients_pass_the_writers_reductions(monkeypatch,
                                                          tmp_path, fork):
    # the scenario above, written: 4000 steps fill eight 528-row buffers,
    # so a forked writer runs zeta, C2, the box test and |g|, and must
    # run them under the loop's errstate, as the loop does without one
    _inject(monkeypatch, [(t, "grad", 0, i, BIG)
                          for t in (3, 4) for i in range(DIM)])
    cfgs = _cfgs(["dst"], 4000)
    want = runner.run_batch(cfgs, write_artifacts=False)[0].report
    loops = 1
    if fork:
        monkeypatch.setattr(writer, "spare_core", lambda loops: True)
    else:
        def no_fork(*args):
            raise AssertionError("a writer process was forked")

        monkeypatch.setattr(writer.multiprocessing, "get_context", no_fork)
        loops = len(os.sched_getaffinity(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = runner.run_batch(cfgs, str(tmp_path), loops=loops)[0]
    assert record.report.grad_bound_ok is False
    assert repr(record.report) == repr(want)
    want.to_csv(tmp_path / "want.csv")
    assert (record.run_dir / "conditions.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
