#!/usr/bin/env python3
"""In-process microseconds per optimizer ``step``, kind by kind.

Usage, from the repository root::

    python3 tools/step_bench.py                  # 5000 steps, best of 5
    python3 tools/step_bench.py --steps 20 --repeats 1

For each stepper kind at d = 1, 10 and 354 (the cycle, the long
quadratic and the MLP), and for four kind batches, a fresh stepper
takes ``--steps`` steps on a fixed stream of gradients.  The batches
are the criterion-05 cycle trio (Adam and AMSGrad with beta1 0 and
beta2 0.1, and DstAdam, built from their configs), at d = 10, eight
AMSGrad replicas that differ in alpha and eight adadb replicas that
differ in alpha and gamma, and, at d = 3, the criterion-02 grid's eight
DstAdam rows, which differ in rho, r_l, r_u and sqrt_decay, so their
blend and sqrt(t) are (8, 1) columns broadcast over (8, 3) rows.  The
time of the loop over ``step`` alone, divided by the steps, is printed
as the best of ``--repeats`` runs.  A fresh stepper per run keeps the
coefficient fills inside the time.  Each timed stepper has its
``screens_inputs`` cleared, as the step loop of ``runner.run_batch``
clears it, and writes each step's theta and raw rate into the rows of
a step slot in turn (``step``'s ``out`` and ``rate_out``, as many rows
as ``diagnostics.buffer_rows`` gives the loop), as that loop has it, so
a row times the step that loop runs, without the shape check and
gradient screen of a direct call.
Only the public constructors, ``buffer_rows`` and ``stack_kinds``,
called with one stepper a row, are used, and a ``step`` without ``out``
is timed as the two-argument call, so the script runs unchanged on any
checkout whose ``stack_kinds`` takes that flat list, for comparison.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# transopt is imported from this checkout's src
from transopt import runner  # noqa: E402
from transopt.config import parse_config  # noqa: E402
from transopt.diagnostics import buffer_rows  # noqa: E402
from transopt.optim import (  # noqa: E402
    Adam, Amsgrad, ClippedTransition, DstAdam, MomentumSgd, StepConfig,
    stack_kinds)
from transopt.schedule import (  # noqa: E402
    BoundFunctionSpec, TransitionSchedule)

DIMS = (1, 10, 354)

CYCLE_TRIO = ("{kind: adam, beta1: 0.0, beta2: 0.1}",
              "{kind: amsgrad, beta1: 0.0, beta2: 0.1}",
              "{kind: dstadam}")

#: Replicas of the AMSGrad, adadb and grid batches, and the dimension of
#: the first two.
REPLICAS = 8
BATCH_DIM = 10

#: The dimension of the grid batch, and its rows' (r_l, r_u) pairs.
GRID_DIM = 3
GRID_PAIRS = ((0.005, 5.0), (0.1, 1.0), (0.5, 0.5), (0.01, 0.1))


def kinds(horizon: int) -> Dict[str, Callable[[int], object]]:
    """Builders of one stepper of each kind on d coordinates."""
    def bounds(kind, **kw):
        return lambda d: ClippedTransition(
            d, BoundFunctionSpec(kind, alpha_star=0.01, **kw))

    return {
        "sgdm": lambda d: MomentumSgd(d, lr=0.01, momentum=0.9),
        "adam": lambda d: Adam(d),
        "amsgrad": lambda d: Amsgrad(d),
        "swats": bounds("swats"),
        "adabound": bounds("adabound"),
        "adadb": bounds("adadb", gamma=1.0),
        "lu": bounds("lu", horizon=horizon),
        # the quadratic-long config's stepper
        "dstadam": lambda d: DstAdam(
            d, TransitionSchedule(horizon=horizon, beta1_kind="geometric",
                                  beta1_decay=0.99),
            StepConfig(sqrt_decay=True)),
    }


def cycle_trio(horizon: int):
    """The cycle trio's steppers, batched as the runner batches them."""
    optimizers = []
    for opt in CYCLE_TRIO:
        cfg = parse_config("problem: {kind: reddi, c: 3.0}\n"
                           f"optimizer: {opt}\nhorizon: {horizon}\n")
        box = runner.build_problem(cfg).box
        optimizers.append(runner.build_optimizer(cfg, 1, horizon, box))
    return stack_kinds(optimizers)


def batches(horizon: int) -> Dict[str, tuple]:
    """(d, builder) of the eight-replica AMSGrad, adadb and grid
    batches."""
    def cfg(k):
        return StepConfig(alpha=0.001 * (k + 1))

    def grid_row(k):
        r_l, r_u = GRID_PAIRS[k % 4]
        return DstAdam(GRID_DIM, TransitionSchedule(
            horizon=horizon, rho=[None, 0.9, 0.99][k % 3], r_l=r_l,
            r_u=r_u), StepConfig(sqrt_decay=k >= 4))

    return {
        f"amsgrad-x{REPLICAS}": (BATCH_DIM, lambda: stack_kinds([
            Amsgrad(BATCH_DIM, cfg(k)) for k in range(REPLICAS)])),
        f"adadb-x{REPLICAS}": (BATCH_DIM, lambda: stack_kinds([
            ClippedTransition(BATCH_DIM, BoundFunctionSpec(
                "adadb", alpha_star=0.01, gamma=1.0 + k), cfg(k))
            for k in range(REPLICAS)])),
        f"dstadam-x{REPLICAS}": (GRID_DIM, lambda: stack_kinds([
            grid_row(k) for k in range(REPLICAS)])),
    }


def us_per_step(build: Callable[[], object], grads: np.ndarray,
                repeats: int) -> float:
    """Best of ``repeats`` times of a fresh stepper's loop, per step,
    with its input screen cleared and its outputs written into rows, as
    in the runner's loop."""
    best = float("inf")
    for _ in range(repeats):
        opt = build()
        opt.screens_inputs = False
        theta = np.zeros(grads.shape[1:])
        # the rows of one step slot of the loop, in turn
        shape = (buffer_rows(len(grads), grads[0].size),) + theta.shape
        slots = itertools.cycle(list(zip(np.empty(shape), np.empty(shape))))
        slotted = "out" in inspect.signature(opt.step).parameters
        start = time.perf_counter()
        if slotted:
            for g, (out, rate) in zip(grads, slots):
                theta = opt.step(theta, g, out=out, rate_out=rate)
        else:
            for g in grads:
                theta = opt.step(theta, g)
        best = min(best, time.perf_counter() - start)
    return best / len(grads) * 1e6


def rows(steps: int, repeats: int) -> List[tuple]:
    """(name, d, us per step) for every kind and dimension and for the
    batches."""
    rng = np.random.default_rng(0)
    out = []
    for d in DIMS:
        grads = rng.normal(scale=0.1, size=(steps, d))
        for name, build in kinds(steps).items():
            out.append((name, d, us_per_step(lambda: build(d), grads,
                                             repeats)))
    grads = rng.normal(scale=0.1, size=(steps, 3, 1))
    out.append(("cycle-trio", 1,
                us_per_step(lambda: cycle_trio(steps), grads, repeats)))
    grads = {d: rng.normal(scale=0.1, size=(steps, REPLICAS, d))
             for d in (BATCH_DIM, GRID_DIM)}
    for name, (d, build) in batches(steps).items():
        out.append((name, d, us_per_step(build, grads[d], repeats)))
    return out


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=5000,
                        help="steps per timed loop (default 5000)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed loops per row; the best is printed")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be >= 1")
    print(f"{'stepper':<12}{'d':>5}{'us/step':>10}")
    for name, d, us in rows(args.steps, args.repeats):
        print(f"{name:<12}{d:>5}{us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
