"""Optimizer steppers.

Each stepper owns an :class:`OptimizerState` and advances it with
``step(theta, grad) -> theta_next``, which the step loop has write
theta_next and the raw rate into its rows (``out=``, ``rate_out=``).  A
single state must not be shared between concurrent runs; distinct
stepper instances are independent.

Every stepper runs one skeleton, :meth:`_AdaptiveStepper.step`: update
the moving averages m_t, v_t of the gradient and its square in place,
optionally keep the running max of v_t, optionally de-bias them, form
the rate alpha / (sqrt(v_t) + epsilon), blend it to scale * rate +
shift, clamp it into [lower, upper], optionally bound it by
base + |m_t| / (peak * (gamma * t)), optionally divide by sqrt(t), and
take the projected step theta - eta_t * m_t with the diagonal metric
1/eta_t.  The kinds differ only in these coefficients: :class:`Adam`
neither blends nor clamps, :class:`Amsgrad` keeps the running max,
:class:`ClippedTransition` clamps into its bound functions (adadb also
bounds the rate by |m_t|), :class:`DstAdam` blends with scale rho_t and
shift (1 - rho_t) * r_t toward the decreasing SGD target r_t, and
heavy-ball :class:`MomentumSgd` has gain 1.0 on the gradient and blends
with scale 0 and shift lr; a scale of 0.0 for the whole run tells the
skeleton to skip v_t.

Coefficient blocks: every coefficient depends on t alone, so a stepper
fills those that vary (the moment decays and gains, the bias-correction
divisors, the blend, the bounds and sqrt(t)) for its next
``BLOCK_STEPS`` steps in one call, as one float64 array with a row a
step, and each step copies its row into the stepper's register.  Powers
are taken on Python floats, the beta products by a sequential
``np.multiply.accumulate`` from the carried product, and the rest is
elementwise arithmetic, which rounds as the scalar does, so every step
keeps the bits it had when each scalar was computed at its own step.
The step's ufuncs read each number as a read-only float64 array made
once a run, 0-d where it is one value (a view of the register where it
varies), never as a Python float: on numpy 2.4 a ufunc call on a (10,)
array costs about 0.2 us more with a Python-float operand than with a
0-d one, and the lone DSTAdam step makes nine such calls.

A direct call to ``step`` rejects a bad input (a wrong shape or a
non-finite gradient, :func:`screen_gradients`) before any state
changes.  The step loop of :func:`transopt.runner.run_batch` clears its
stepper's ``screens_inputs`` and screens each buffer of steps once
instead (:meth:`transopt.diagnostics.RunMonitor.screen`), so there a
non-finite gradient enters m, v and theta, and the run fails at the end
of its buffer (64 to 528 steps), naming the step where it appeared.  A
NaN second moment (an overflowed one times a zero beta2) or a bad
derived rate raises after the in-place moment update, before t, the
beta products and the last rates advance.  A screen that the block's
coefficients show cannot fire at a step (the NaN screen under a
positive beta2, the positive-rate screen under a positive shift, the
metric screen under a finite largest rate) is skipped there.

A stepper steps the rows of the steppers it was built from: a lone
stepper is a batch of one row, its own, over a (d,) iterate, and
:func:`stack_kinds` merges R steppers of any kinds (say SGDM, Adam and
DstAdam on one problem) into one whose row r is stepper r, over (R, d)
iterates.  One merge takes each row's coefficients from its stepper: a
coefficient fixed and equal in every row stays one 0-d float64 array,
the rest are (R, 1) columns, so every update below runs once over all
rows, broadcasts row by row and gives each replica the bits it would
get alone.
"""

from __future__ import annotations

import copy
import math
import types
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .schedule import BoundFunctionSpec, TransitionSchedule, bound_values
# perfbench/tracer.py times the bound evaluations under this name
from .schedule import eval_bounds  # noqa: F401


def column(values: Sequence):
    """One field across R replicas: the value itself when every replica
    has it, else an (R, 1) column that broadcasts against (R, d) rows."""
    first = values[0]
    if all(v == first for v in values):
        return first
    return np.array(values)[:, None]


def stack_like(objs: Sequence):
    """One object standing for R objects built alike, field by field.

    Arrays stack along a new leading axis, numbers become a
    :func:`column`, and other objects (step configs, boxes and problems)
    are copied with each field stacked in turn.  Anything else, such as
    a kind string or a callable, must be the same in every object.
    """
    first = objs[0]
    if isinstance(first, np.ndarray):
        return np.stack(objs)
    if isinstance(first, (int, float)):
        return column(objs)
    if hasattr(first, "__dict__") and not isinstance(
            first, (type, types.FunctionType, types.MethodType)):
        if any(type(o) is not type(first) for o in objs):
            raise DomainError(f"cannot batch a {type(first).__name__} "
                              "with objects of other types")
        out = copy.copy(first)
        for name, value in vars(first).items():
            object.__setattr__(out, name,
                               stack_like([vars(o)[name] for o in objs]))
        return out
    if any(o != first for o in objs):
        raise DomainError(f"cannot batch differing values {objs!r}")
    return first


def stack_kinds(steppers: Sequence["_AdaptiveStepper"]
                ) -> "_AdaptiveStepper":
    """One stepper whose row r steps as ``steppers[r]`` would alone.

    The steppers may be of any kinds, on iterates of one dimension, and
    must not have stepped yet.  One stepper is returned as it is.  More
    become one skeleton stepper over (R, d) iterates whose rows are the
    steppers: their configs, boxes and states are stacked
    (:func:`stack_like`), so the rows' alpha, epsilon, bias correction
    and sqrt_decay are (R, 1) columns where they differ, and each block
    merges the rows' coefficients.  Row r gets the bits its stepper
    would get alone.
    """
    if len(steppers) == 1:
        return steppers[0]
    batch = _AdaptiveStepper(steppers[0].state.dim,
                             stack_like([o.cfg for o in steppers]),
                             stack_like([o.box for o in steppers]))
    batch.state = stack_like([o.state for o in steppers])
    batch._rows = tuple(steppers)
    return batch


def first_non_finite(block: np.ndarray) -> int:
    """The first index along the leading (step) axis of block at which
    some entry is not finite, or the block's length.  The sum screens
    the block in one reduction; the exact test runs only when the sum is
    not finite, which large finite values can reach by overflow."""
    if math.isfinite(np.add.reduce(block, None)):
        return len(block)
    return _first(~np.isfinite(block))


def screen_gradients(grads: np.ndarray, t0: int) -> None:
    """Raise DomainError at the first non-finite gradient of a block.

    ``grads`` holds the gradients of steps t0 + 1, t0 + 2, ... along its
    leading axis, each (d,) or, in a batch, (R, d); the error names the
    first bad step, then its first bad replica and coordinate.
    """
    k = first_non_finite(grads)
    if k < len(grads):
        _raise_first(~np.isfinite(grads[k]), f"non-finite gradient at step "
                                             f"{t0 + k + 1}, coordinate {{i}}")


def _raise_first(bad: np.ndarray, message: str) -> None:
    """Raise DomainError(message) at the first True entry of bad.

    ``message`` is formatted with the entry's coordinate ``i``; in an
    (R, d) batch the error also carries the entry's replica.
    """
    r, i = divmod(int(np.flatnonzero(bad)[0]), bad.shape[-1])
    raise DomainError(message.format(i=i),
                      replica=r if bad.ndim > 1 else None)


@dataclass
class StepConfig:
    """Scalar knobs common to the adaptive steppers.

    ``epsilon`` guards the 1/sqrt(v) denominator and may be set to 0 for
    theory-exact runs (then a zero second moment raises).  ``sqrt_decay``
    divides the rate by sqrt(t) as the convergence analysis assumes; off
    by default because the plain rate works better in practice.
    ``bias_correction`` de-biases the moment averages; the transition
    steppers leave it off by default.
    """

    alpha: float = 0.001
    epsilon: float = 1e-8
    bias_correction: bool = False
    sqrt_decay: bool = False

    def __post_init__(self):
        # written so that NaN fails them too
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not self.epsilon >= 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")


class FeasibleBox:
    """Axis-aligned feasible set [lo, hi].

    ``lo`` and ``hi`` are float64 arrays of the iterate's shape, -inf and
    +inf on an open side, so every box steps, clamps and stacks alike: a
    batch (:func:`stack_like`) may mix bounded and unbounded boxes, and
    clamping into an open side leaves the bits as they are.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if np.any(self.lo > self.hi):
            raise DomainError("box has lo > hi in some coordinate")

    @classmethod
    def unbounded(cls, dim: int) -> "FeasibleBox":
        return cls(np.full(dim, -math.inf), np.full(dim, math.inf))

    @classmethod
    def cube(cls, halfwidth: float, dim: int) -> "FeasibleBox":
        # written so that NaN fails it too
        if not halfwidth > 0.0:
            raise DomainError(f"halfwidth must be > 0, got {halfwidth}")
        return cls(np.full(dim, -halfwidth), np.full(dim, halfwidth))

    @property
    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.lo).all() and np.isfinite(self.hi).all())

    def contains(self, theta: np.ndarray) -> bool:
        """Whether theta lies in the box; False on NaN."""
        return bool((theta >= self.lo).all() and (theta <= self.hi).all())

    def widened(self, tol: float) -> "FeasibleBox":
        """The box grown by tol >= 0 on every bounded side."""
        return FeasibleBox(self.lo - tol, self.hi + tol)

    def project(self, y: np.ndarray) -> np.ndarray:
        return project_box(y, self)

    def clamp_into(self, y: np.ndarray) -> np.ndarray:
        """Clamp the float64 array y into the box in place; returns y."""
        np.maximum(y, self.lo, out=y)
        return np.minimum(y, self.hi, out=y)


def project_box(y: np.ndarray, box: FeasibleBox, metric=None) -> np.ndarray:
    """Metric-weighted projection of y onto the box.

    For a diagonal metric the weighted nearest point in a box is the
    coordinatewise clamp, whatever the (positive) weights are; the metric
    argument is still validated because a nonpositive weight would make
    the projection ill-defined.
    """
    if metric is not None:
        metric = np.asarray(metric, dtype=np.float64)
        if metric.shape not in ((), np.shape(y)):
            raise DimensionError(
                f"metric shape {metric.shape} does not match {np.shape(y)}"
            )
        if np.any(metric <= 0.0):
            raise DomainError("projection metric must be positive")
    return box.clamp_into(np.array(y, dtype=np.float64))


class OptimizerState:
    """Mutable per-run state: moments, step counter, last applied rates."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        # (d,), or (R, d) once stacked with its replicas' states
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.v_max = np.zeros(dim)
        # the running max of ||m||_inf, one per replica, for adadb's bound
        self.m_abs_peak = 0.0
        self.t = 0
        self.last_effective_lr: Optional[np.ndarray] = None
        self.last_rate_raw: Optional[np.ndarray] = None
        # Running products of the beta schedules, for bias correction
        # with time-varying decay (reduce to 1 - beta**t when constant):
        # beta1's and beta2's after steps products_from, products_from +
        # 1, ..., which the stepper's fill sets, so a step copies none
        self.products, self.products_from = ((1.0,), (1.0,)), 0

    beta1_prod = property(lambda s: s.products[0][s.t - s.products_from])
    beta2_prod = property(lambda s: s.products[1][s.t - s.products_from])


#: Steps whose coefficients a stepper fills at once.  A fill of the
#: quadratic-long DSTAdam's block of 1024 steps (two Python-float powers
#: a step, and its five varying values written into one array) took
#: about 260 us on a 2-core Xeon host, about 0.25 us a step, of which
#: about 60 us a block is fixed cost; a schedule's horizon ends a block
#: early, so a 200-step run fills 200 rows.
BLOCK_STEPS = 1024

#: The per-step coefficients, in the order of a step's operands.  A kind
#: sets beta1, gain1 (the first moment's gain on the gradient), beta2 and
#: gain2, the blend scale and shift, the clamp's lower and upper, whether
#: v_t is replaced by its running max, and the base and gamma of the
#: bound on |m_t|; the skeleton derives the bias-correction divisors
#: div1 = 1 - beta1_prod and div2 = 1 - beta2_prod from the beta
#: products, and root_t = sqrt(t).
COEFFICIENTS = ("beta1", "gain1", "beta2", "gain2", "scale", "shift",
                "lower", "upper", "running_max", "base", "gamma", "div1",
                "div2", "root_t")

#: What a kind that does not state a coefficient gets: a positive rate
#: times 1.0 plus 0.0, clamped into (-inf, inf), or bounded by +inf plus
#: any |m_t| term, keeps its bits, and v_t is not replaced.
NEUTRAL = {"scale": 1.0, "shift": 0.0, "lower": -math.inf,
           "upper": math.inf, "running_max": False, "base": math.inf,
           "gamma": 1.0}


def _products(carried, factors: np.ndarray) -> np.ndarray:
    """carried, carried * f_1, carried * f_1 * f_2, ... along the leading
    step axis of factors, multiplied in step order as step after step
    would (``np.multiply.accumulate`` is a sequential scan)."""
    out = np.empty((len(factors) + 1,)
                   + np.broadcast_shapes(np.shape(carried), factors.shape[1:]))
    out[0] = carried
    out[1:] = factors
    return np.multiply.accumulate(out, axis=0, out=out)


def _first(flags: np.ndarray) -> int:
    """The first step of a block at which some row's flag holds, or the
    block's length; ``flags`` has a leading step axis."""
    hits = np.flatnonzero(flags.reshape(len(flags), -1).any(axis=1))
    return int(hits[0]) if len(hits) else len(flags)


def _operand(value) -> np.ndarray:
    """value as a read-only float64 array for a step's ufuncs: 0-d for
    one number, else its (R, 1) column."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


def holds(flag) -> bool:
    """A bool, or whether any entry of a bool array holds.  Cheaper than
    ``np.any`` when ``flag`` comes from comparing scalars."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def _where(flag, values: np.ndarray, other=1.0) -> np.ndarray:
    """values where flag holds, else ``other`` (by default 1.0, which
    divides a value into itself).  ``flag`` is True, or an (R, 1) column
    in a batch whose rows differ in it."""
    if isinstance(flag, np.ndarray):
        return np.where(flag, values, other)
    return values


class _AdaptiveStepper:
    """The step shared by every stepper.

    A step updates m_t and v_t in place, forms the adaptive rate
    alpha / (sqrt(v_t) + epsilon) and applies the kind's coefficients of
    step t: the moment decays and gains, the blend scale * rate + shift,
    the clamp into [lower, upper], the bias-correction divisors and
    sqrt(t).  They depend on t alone, so :meth:`_fill` computes those
    that vary for a block of ``BLOCK_STEPS`` steps at once, one row a
    step, and step k of the block copies row k into the register, whose
    read-only views are the operands the step reads; a coefficient that
    holds for the whole run stays one 0-d float64 array, or one (R, 1)
    column.  The operands are made once a run (:meth:`_plan`).

    A kind states its coefficients in ``_coefficients(t, n)``.  By
    default they are the constant decays ``beta1`` and ``beta2`` and the
    gains 1 - beta1 and 1 - beta2, with no blend and no clamp; a
    coefficient a kind does not state takes its ``NEUTRAL`` value.  Two
    of them switch on a rule that reads the state, run once a step over
    all rows: ``running_max`` (AMSGrad) replaces v_t by its running max,
    and ``base`` and ``gamma`` (adadb) bound the rate by base + |m_t| /
    (peak * (gamma * t)), where peak is the running max of ||m_t||_inf
    and a zero peak, whose m_t is 0, counts as 1.  A blend whose scale
    is 0.0 in every row for the whole run (heavy ball) never reads the
    adaptive rate: then v, its square root and the divide are skipped
    and the rate is the blend's shift.
    """

    def __init__(self, dim: int, cfg: Optional[StepConfig],
                 box: Optional[FeasibleBox], beta1: float = 0.9,
                 beta2: float = 0.999):
        self.state = OptimizerState(dim)
        self.box = box if box is not None else FeasibleBox.unbounded(dim)
        self.cfg = cfg if cfg is not None else StepConfig()
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise DomainError(f"{name} must lie in [0, 1), got {value}")
        self.beta1 = beta1
        self.beta2 = beta2
        # the steppers whose coefficients the replicas take, one each:
        # this one alone, or a batch's (stack_kinds)
        self._rows = (self,)
        # the block of steps that starts at _block_start, one row a step
        # (_fill), and the step's operands, set at the first fill (_plan)
        self._block = ()
        self._block_start = 1
        self._operands = None
        # whether some replica's running max of ||m_t||_inf may still be 0
        self._zero_peak = True
        # whether step screens its inputs (_check_inputs)
        self.screens_inputs = True

    def _check_inputs(self, theta: np.ndarray, grad: np.ndarray):
        """Reject a bad step of a direct caller before any state changes.

        A non-finite gradient would otherwise pass into m, v and theta
        (``np.maximum`` and the rate blend propagate NaN), so it raises
        naming the step and the first bad coordinate: the gradient
        screen of a block of one step.  A stepper whose
        ``screens_inputs`` is cleared skips this; its caller screens the
        shapes and values (the step loop of
        :func:`transopt.runner.run_batch`).
        """
        shape = self.state.m.shape
        # np.shape, which costs more than the attribute, only for inputs
        # without a matching shape attribute
        if getattr(theta, "shape", None) != shape \
                and np.shape(theta) != shape:
            raise DimensionError(
                f"theta has shape {np.shape(theta)}, expected {shape}")
        if getattr(grad, "shape", None) != shape and np.shape(grad) != shape:
            raise DimensionError(
                f"grad has shape {np.shape(grad)}, expected {shape}")
        screen_gradients(np.asarray(grad)[None], self.state.t)

    def effective_lr(self) -> np.ndarray:
        """Per-coordinate rate applied at the most recent step."""
        if self.state.last_effective_lr is None:
            raise StateError("no step has been taken yet")
        return self.state.last_effective_lr.copy()

    def rate_raw(self) -> np.ndarray:
        """The pre-sqrt-decay rate of the most recent step (eta-hat)."""
        if self.state.last_rate_raw is None:
            raise StateError("no step has been taken yet")
        return self.state.last_rate_raw.copy()

    def _coefficients(self, t: int, n: int) -> Tuple[dict, dict]:
        """The kind's coefficients of the steps t .. t + n - 1.

        Returns (fixed, varying): ``fixed`` maps a name of
        ``COEFFICIENTS`` to a number (or bool) that holds for the whole
        run, ``varying`` to an array along a leading step axis of at
        most n entries (fewer where the run's horizon ends).
        """
        return {"beta1": self.beta1, "gain1": 1.0 - self.beta1,
                "beta2": self.beta2, "gain2": 1.0 - self.beta2}, {}

    def _plan(self, rows) -> None:
        """Set what holds for the whole run from the replicas' (fixed,
        varying) coefficients: the step's switches and its operands.  A
        coefficient fixed in every replica is a :func:`column` made an
        operand (the running-max flag keeps its form); one that varies
        in some replica, and div1, div2 and root_t where they are on, is
        a read-only view of the register that :meth:`step` refills, 0-d
        for a lone stepper and an (R, 1) column for a batch."""
        cfg = self.cfg
        self._debias = holds(cfg.bias_correction)
        self._decays = holds(cfg.sqrt_decay)
        self._kind_varies = [name for name in COEFFICIENTS
                             if any(name in v for _, v in rows)]
        self._varies = self._kind_varies + [
            name for name, on in (("div1", self._debias),
                                  ("div2", self._debias),
                                  ("root_t", self._decays)) if on]
        stated = {name for f, v in rows for name in (*f, *v)}
        fixed = self._fixed = {**NEUTRAL, **{
            name: column([f.get(name, NEUTRAL.get(name)) for f, _ in rows])
            for name in stated.difference(self._varies)}}
        self._cell = () if len(rows) == 1 else (len(rows), 1)
        self._register = np.empty((len(self._varies), len(rows), 1))
        operands = {name: value if name == "running_max" else
                    _operand(value) for name, value in fixed.items()}
        for name, x in zip(self._varies, self._register):
            operands[name] = x = x.reshape(self._cell)
            x.flags.writeable = False
        self._operands = tuple(map(operands.get, COEFFICIENTS))
        self._alpha = _operand(cfg.alpha)
        self._epsilon = _operand(cfg.epsilon)
        # replicas whose blended rate must be positive: all, or a column
        self._blend_rows = column([("scale" in f or "scale" in v)
                                   for f, v in rows])
        self._blends, self._clamps = "scale" in stated, "lower" in stated
        # v_t is unread under a scale of 0.0 in every row for the run
        self._adaptive = ("scale" in self._varies
                          or holds(fixed["scale"] != 0.0))
        self._running_max = "running_max" in stated
        self._bounds_m = "base" in stated
        # only a zero beta2 turns an overflowed v into NaN (inf * 0); a
        # varying beta2 keeps the screen on
        self._nan_v = ("beta2" in self._varies
                       or holds(np.equal(fixed["beta2"], 0.0)))
        self._zero_rate = holds(cfg.epsilon == 0.0)

    def _fill(self, t: int) -> None:
        """Compute the block of steps that starts at t: the varying
        coefficients as one (n, V, R, 1) array, whose row k step k copies
        into the register, the beta products and the screens' first steps.

        Replica r's coefficients come from ``self._rows[r]``, and a
        replica gets the ``NEUTRAL`` value of one its kind does not
        state.  Nothing the state reads changes if this raises, so a
        rejected step leaves the stepper as it was.
        """
        s, cfg = self.state, self.cfg
        rows = [o._coefficients(t, BLOCK_STEPS) for o in self._rows]
        n = min([BLOCK_STEPS, *(len(x) for _, v in rows for x in v.values())])
        if self._operands is None:
            self._plan(rows)
        # the block's steps by the replicas
        lead = (n, len(rows), 1)
        block = np.empty((n, len(self._varies)) + lead[1:])
        varying = dict(zip(self._varies, block.swapaxes(0, 1)))
        for name in self._kind_varies:
            for r, (f, v) in enumerate(rows):
                varying[name][:, r, 0] = (v[name][:n] if name in v else
                                          f.get(name, NEUTRAL.get(name)))

        def steps(name):
            return (varying[name] if name in varying
                    else np.broadcast_to(self._fixed[name], lead))

        prods = [_products(s.beta1_prod, steps("beta1")),
                 _products(s.beta2_prod, steps("beta2"))]
        if self._debias:
            for name, p in zip(("div1", "div2"), prods):
                varying[name][...] = _where(cfg.bias_correction, 1.0 - p[1:])
        if self._decays:
            varying["root_t"][...] = _where(cfg.sqrt_decay, np.sqrt(
                np.arange(t, t + n, dtype=np.float64)).reshape(n, 1, 1))
        # The first step of the block at which each screen can fire.  The
        # rate alpha / (sqrt(v) + epsilon) is >= 0 or NaN, and each later
        # operation is monotone in it, so a screen that the coefficients
        # show cannot fire is skipped; from that step on it runs.
        inverted_from = positive_from = n
        if self._clamps:
            inverted_from = _first(steps("lower") > steps("upper"))
        if self._blends:
            # rate * scale + shift >= shift > 0 for a scale >= 0; rows
            # that do not blend get shift 0.0 and are not screened
            positive_from = _first((steps("shift") <= 0.0)
                                   & self._blend_rows)
        # The largest rate each step can apply, in the step's order; the
        # bound on |m_t| only lowers it.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cap = np.divide(cfg.alpha, cfg.epsilon)
            if self._blends:
                cap = (cap * steps("scale") + steps("shift")
                       if self._adaptive else steps("shift"))
            if self._clamps:
                cap = np.minimum(np.maximum(cap, steps("lower")),
                                 steps("upper"))
        finite_from = _first(~np.isfinite(np.broadcast_to(cap, lead)))
        self._block, self._block_start = block, t
        s.products = [p.reshape((n + 1,) + self._cell) for p in prods]
        s.products_from = t - 1
        self._inverted_from = inverted_from
        self._positive_from = positive_from
        self._finite_from = finite_from

    def step(self, theta, grad, *, out=None, rate_out=None) -> np.ndarray:
        """The next theta, into ``out`` if given (which may be theta), and
        the raw rate into ``rate_out`` if given; a ufunc takes its output
        by position where numpy allows it, which it parses faster."""
        if self.screens_inputs:
            self._check_inputs(theta, grad)
        s = self.state
        t = s.t + 1
        k = t - self._block_start
        if not 0 <= k < len(self._block):
            self._fill(t)
            k = 0
        if self._varies:
            self._register[...] = self._block[k]
        (b1, gain1, b2, gain2, scale, shift, lower, upper, running_max, base,
         gamma, div1, div2, root_t) = self._operands
        # in place, in the operation order of b1 * m + gain1 * g
        m = s.m
        m *= b1
        m += gain1 * grad
        if self._adaptive:
            # b2 * v + (1 - b2) * g * g, in place
            v = s.v
            v *= b2
            v += gain2 * grad * grad
            # A finite gradient can overflow v to inf, which only zeroes
            # that coordinate's rate while b2 > 0 (the run monitors reject
            # that rate); b2 = 0 turns it into NaN at the next step, and
            # NaN would reach theta.  Screened as in screen_gradients.
            if self._nan_v and not math.isfinite(np.add.reduce(v, None)):
                bad = np.isnan(v)
                if bad.any():
                    _raise_first(bad, f"non-finite second moment at step "
                                      f"{t}, coordinate {{i}}")
            if self._running_max:
                # one max over all rows; the rows that keep it take it
                v = _where(running_max,
                           np.maximum(s.v_max, v, out=s.v_max), v)
            if self._debias:
                v = v / div2
            rate = np.sqrt(v, rate_out)
            rate += self._epsilon
            # sqrt(v) >= 0, so only epsilon == 0 can leave a zero
            # denominator
            if self._zero_rate and (rate == 0.0).any():
                _raise_first(rate == 0.0, f"zero second moment at step {t}, "
                                          "coordinate {i} with epsilon=0; "
                                          "supply a positive epsilon")
            rate = np.divide(self._alpha, rate, rate)
            if self._blends:
                rate *= scale
                rate += shift
                # fmin skips NaN, as the elementwise test does
                if k >= self._positive_from \
                        and np.fmin.reduce(rate, None) <= 0.0:
                    self._reject_nonpositive(t, rate)
        else:
            # the blend with scale 0
            rate = np.empty_like(m) if rate_out is None else rate_out
            rate[...] = shift
        if self._debias:
            m = m / div1
        if self._clamps:
            if k >= self._inverted_from:
                raise DomainError("clamp bounds inverted (lo > hi)")
            np.maximum(rate, lower, out=rate)
            np.minimum(rate, upper, out=rate)
        if self._bounds_m:
            self._bound_by_momentum(t, rate, base, gamma)
        eta = rate / root_t if self._decays else rate
        # The clamp into the box is the projection under the metric
        # 1/eta for any positive diagonal metric.  Every rule gives
        # eta >= 0 or NaN, so the metric is positive unless some eta is
        # +inf (fmax skips NaN); dividing by sqrt(t) >= 1 keeps a finite
        # rate finite.
        if k >= self._finite_from and np.fmax.reduce(eta, None) == math.inf:
            _raise_first(eta == math.inf, f"infinite rate at step {t}, "
                                          "coordinate {i}: the projection "
                                          "metric must be positive")
        # eta * m is a temporary, not out, which may be theta itself
        theta = self.box.clamp_into(np.subtract(theta, eta * m, out))
        s.t = t
        s.last_rate_raw, s.last_effective_lr = rate, eta
        return theta

    def _bound_by_momentum(self, t: int, rate: np.ndarray, base,
                           gamma) -> None:
        """Lower rate in place to base + |m_t| / (peak * (gamma * t)),
        adadb's upper bound, as :func:`transopt.schedule.eval_bounds`
        gives it.  A row without the bound has base +inf; fmin keeps its
        rate where |m_t| overflowed and the bound is NaN."""
        s = self.state
        m_abs = np.abs(s.m)
        peak = s.m_abs_peak = np.maximum(
            s.m_abs_peak, m_abs.max(axis=-1, keepdims=True))
        if self._zero_peak:
            # a row whose peak is 0 has m = 0, so any positive peak gives
            # it the bound base; a peak never falls back to 0
            zero = peak == 0.0
            self._zero_peak = zero.any()
            peak = np.where(zero, 1.0, peak)
        m_abs /= peak * (gamma * t)
        m_abs += base
        np.fmin(rate, m_abs, rate)

    def _reject_nonpositive(self, t: int, rate: np.ndarray) -> None:
        """Raise at the first rate <= 0 of a row that blends.  Only
        rho_t = 1 with an adaptive rate of 0 (an overflowed second
        moment) reaches 0."""
        bad = rate <= 0.0
        bad &= self._blend_rows
        if bad.any():
            _raise_first(bad, f"eta_hat not positive at step {t}, "
                              "coordinate {i}")


class MomentumSgd(_AdaptiveStepper):
    """Heavy-ball SGD: m <- momentum * m + g; theta <- theta - lr * m.

    The skeleton with an undamped first moment (gain 1.0, and 1.0 * g is
    g exactly) and the rate eta = lr, the blend 0 * rate + lr, which a
    lone stepper or an all-SGDM batch runs without v; beside adaptive
    rows its rows' v is updated but unread, and a beta2 in (0, 1) keeps
    an overflowed one inf, never NaN, so 0 * rate is 0.0.
    """

    def __init__(self, dim: int, lr: float = 0.1, momentum: float = 0.9,
                 box: Optional[FeasibleBox] = None):
        if not lr > 0.0:
            raise DomainError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise DomainError(f"momentum must lie in [0, 1), got {momentum}")
        super().__init__(dim, None, box, beta1=momentum, beta2=0.5)
        self.lr = lr

    def _coefficients(self, t: int, n: int) -> Tuple[dict, dict]:
        fixed, varying = super()._coefficients(t, n)
        fixed.update(gain1=1.0, scale=0.0, shift=self.lr)
        return fixed, varying


class Adam(_AdaptiveStepper):
    """Adam baseline; bias correction is on by default for this one."""

    def __init__(self, dim: int, cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        if cfg is None:
            cfg = StepConfig(bias_correction=True)
        super().__init__(dim, cfg, box, beta1, beta2)


class Amsgrad(Adam):
    """Adam with a coordinatewise running max of the second moment."""

    def _coefficients(self, t: int, n: int) -> Tuple[dict, dict]:
        fixed, varying = super()._coefficients(t, n)
        fixed["running_max"] = True
        return fixed, varying


class ClippedTransition(_AdaptiveStepper):
    """Generic transition stepper: clamp the adaptive rate into bounds.

    With the constant (swats) bounds the rate collapses to a single SGD
    rate; with widening/narrowing bounds it interpolates between Adam
    and SGD behaviour.  The bounds depending on t alone are coefficients
    of the block.  adadb's upper bound, alpha_star + |m_t| / (peak *
    (gamma * t)), is per-coordinate and reads the state: the kind states
    its lower bound alpha_star and the bound's base alpha_star and
    gamma, and the skeleton evaluates it each step.
    """

    def __init__(self, dim: int, bounds: BoundFunctionSpec,
                 cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, box, beta1, beta2)
        self.bounds = bounds

    def _coefficients(self, t: int, n: int) -> Tuple[dict, dict]:
        fixed, varying = super()._coefficients(t, n)
        bounds = self.bounds
        if bounds.kind == "swats":
            fixed["lower"] = fixed["upper"] = bounds.alpha_star
        elif bounds.kind == "adadb":
            fixed.update(lower=bounds.alpha_star, base=bounds.alpha_star,
                         gamma=bounds.gamma)
        else:
            varying["lower"], varying["upper"] = bound_values(bounds, t, n)
        return fixed, varying


class DstAdam(_AdaptiveStepper):
    """Decreasing-scaling transition from Adam to SGD.

    Per coordinate the raw rate is the rho_t-weighted blend

        eta_hat = rho_t * alpha / sqrt(v_t)  +  (1 - rho_t) * r_t

    so the run starts Adam-like and ends at the decreasing SGD rate r_t.
    The blend keeps every rate above (1 - rho_t) * r_t, which is what
    bounds 1/eta_hat by 1/(r_l (1 - rho)) for the whole run.  The betas
    of step t come from the schedule, like rho_t and r_t; the blend's
    scale is rho_t and its shift (1 - rho_t) * r_t.
    """

    def __init__(self, dim: int, schedule: TransitionSchedule,
                 cfg: Optional[StepConfig] = None,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, box, schedule.beta1, schedule.beta2)
        self.schedule = schedule

    def _coefficients(self, t: int, n: int) -> Tuple[dict, dict]:
        fixed, varying = super()._coefficients(t, n)
        schedule = self.schedule
        beta1, _, rho, r = schedule.block_values(t, n)
        if schedule.beta1_kind != "constant":
            varying.update(beta1=beta1, gain1=1.0 - beta1)
        if schedule.rho_kind == "constant":
            fixed["scale"] = schedule.rho
        else:
            varying["scale"] = rho
        varying["shift"] = (1.0 - rho) * r
        return fixed, varying
