import math

import numpy as np
import pytest

from transopt.errors import (DimensionError, DomainError, HorizonError,
                             StateError)
from transopt.optim import (COEFFICIENTS, Adam, Amsgrad, ClippedTransition,
                            DstAdam, FeasibleBox, MomentumSgd, StepConfig,
                            column, project_box, stack_kinds, stack_like)
from transopt.schedule import BoundFunctionSpec, TransitionSchedule


def unit_box(dim=2):
    return FeasibleBox.cube(1.0, dim)


class TestProjectBox:
    def test_clamp(self):
        out = project_box(np.array([2.0, -3.0]), unit_box(),
                          metric=np.array([1.0, 7.0]))
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_identity_inside(self):
        y = np.array([0.25, -0.75])
        out = project_box(y, unit_box(), metric=np.array([0.1, 3.0]))
        np.testing.assert_array_equal(out, y)

    def test_metric_must_be_positive(self):
        with pytest.raises(DomainError):
            project_box(np.array([0.0, 0.0]), unit_box(),
                        metric=np.array([1.0, 0.0]))

    def test_unbounded_box_is_identity(self):
        y = np.array([1e6, -1e6])
        np.testing.assert_array_equal(
            project_box(y, FeasibleBox.unbounded(2)), y)

    def test_open_sides_are_infinite_arrays_of_the_box_shape(self):
        box = FeasibleBox.unbounded(3)
        for side, inf in ((box.lo, -math.inf), (box.hi, math.inf)):
            assert side.dtype == np.float64 and side.shape == (3,)
            assert (side == inf).all()
        assert not box.is_bounded
        assert box.contains(np.array([-1e308, 0.0, 1e308]))
        assert not box.contains(np.array([0.0, math.nan, 0.0]))
        assert box.widened(1e-12).lo.shape == (3,)
        half_open = FeasibleBox(np.zeros(2), np.full(2, math.inf))
        assert not half_open.is_bounded
        np.testing.assert_array_equal(
            half_open.clamp_into(np.array([-1.0, 1e300])), [0.0, 1e300])
        assert FeasibleBox.cube(1.0, 2).is_bounded

    @pytest.mark.parametrize("halfwidth", [0.0, -1.0, math.nan])
    def test_cube_rejects_a_halfwidth_not_above_zero(self, halfwidth):
        with pytest.raises(DomainError, match="halfwidth must be > 0"):
            FeasibleBox.cube(halfwidth, 2)

    def test_nonexpansive_in_weighted_norm(self):
        # Lemma-style check, brute-forced over one thousand random tuples
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = rng.integers(1, 6)
            lo = rng.uniform(-2, 0, size=d)
            hi = lo + rng.uniform(0.1, 3, size=d)
            box = FeasibleBox(lo, hi)
            q = rng.uniform(0.1, 10.0, size=d)
            z1 = rng.uniform(-5, 5, size=d)
            z2 = rng.uniform(-5, 5, size=d)
            u1 = project_box(z1, box, metric=q)
            u2 = project_box(z2, box, metric=q)
            dist_u = np.linalg.norm(np.sqrt(q) * (u1 - u2))
            dist_z = np.linalg.norm(np.sqrt(q) * (z1 - z2))
            assert dist_u <= dist_z + 1e-12

    def test_agrees_with_grid_minimization(self):
        # the clamp must coincide with explicitly minimizing the weighted
        # distance over a fine lattice inside the box
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            lo = rng.uniform(-1.5, -0.5, size=d)
            hi = rng.uniform(0.5, 1.5, size=d)
            box = FeasibleBox(lo, hi)
            q = rng.uniform(0.5, 4.0, size=d)
            y = rng.uniform(-3, 3, size=d)
            axes = [np.linspace(lo[i], hi[i], 41) for i in range(d)]
            grids = np.meshgrid(*axes, indexing="ij")
            points = np.stack([g.ravel() for g in grids], axis=1)
            dists = ((points - y) ** 2 * q).sum(axis=1)
            best = points[np.argmin(dists)]
            resolution = max((hi - lo) / 40)
            out = project_box(y, box, metric=q)
            assert np.max(np.abs(out - best)) <= resolution + 1e-12


class TestMomentumSgd:
    def test_plain_sgd_step(self):
        opt = MomentumSgd(1, lr=0.1, momentum=0.0)
        theta = opt.step(np.array([1.0]), np.array([2.0]))
        assert theta[0] == pytest.approx(0.8, rel=1e-15)

    def test_stationary_without_gradient(self):
        opt = MomentumSgd(3, lr=0.1, momentum=0.9)
        theta = np.array([0.3, -0.2, 1.0])
        for _ in range(5):
            theta = opt.step(theta, np.zeros(3))
        np.testing.assert_array_equal(theta, [0.3, -0.2, 1.0])

    def test_two_step_heavy_ball_oracle(self):
        # hand-computed: step1 m=1, theta=-0.1; step2 m=1.9, theta=-0.29
        opt = MomentumSgd(1, lr=0.1, momentum=0.9)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        assert theta[0] == pytest.approx(-0.1, rel=1e-15)
        theta = opt.step(theta, np.array([1.0]))
        assert theta[0] == pytest.approx(-0.29, rel=1e-12)

    def test_projection_applied(self):
        opt = MomentumSgd(1, lr=10.0, momentum=0.0, box=unit_box(1))
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        assert theta[0] == -1.0

    def test_shape_mismatch(self):
        opt = MomentumSgd(2, lr=0.1)
        with pytest.raises(DimensionError):
            opt.step(np.zeros(2), np.zeros(3))

    def test_a_lone_stepper_skips_the_second_moment(self):
        # the rate never reads v, so a gradient whose square overflows
        # leaves v at zero and prints no overflow warning
        opt = MomentumSgd(2, lr=0.1, momentum=0.5)
        grad = np.array([1e300, 1.0])
        theta = opt.step(np.zeros(2), grad)
        np.testing.assert_array_equal(theta, -(0.1 * grad))
        np.testing.assert_array_equal(opt.state.v, 0.0)
        np.testing.assert_array_equal(opt.effective_lr(), 0.1)

    def test_an_sgdm_batch_skips_the_second_moment(self):
        # every row's blend scale is 0.0 for the whole run, so no row
        # reads v, whatever the rows' lr and momentum
        batch = stack_kinds([MomentumSgd(2, lr=0.1, momentum=0.5),
                             MomentumSgd(2, lr=0.2, momentum=0.0)])
        grad = np.array([[1e300, 1.0], [1.0, 1e300]])
        theta = batch.step(np.zeros((2, 2)), grad)
        np.testing.assert_array_equal(theta, -(np.array([[0.1], [0.2]])
                                               * grad))
        np.testing.assert_array_equal(batch.state.v, 0.0)


class TestAdam:
    def test_first_step_is_signed_alpha(self):
        # bias correction makes m_hat=g, v_hat=g**2, so the move is alpha*sign(g)
        cfg = StepConfig(alpha=0.01, epsilon=0.0, bias_correction=True)
        opt = Adam(3, cfg)
        theta = opt.step(np.zeros(3), np.array([5.0, -0.3, 2.0]))
        np.testing.assert_allclose(theta, [-0.01, 0.01, -0.01], rtol=1e-12)

    def test_single_step_oracle_no_bias_correction(self):
        cfg = StepConfig(alpha=0.001, epsilon=1e-8, bias_correction=False)
        opt = Adam(1, cfg, beta1=0.9, beta2=0.999)
        theta = opt.step(np.array([0.0]), np.array([1.0]))
        assert opt.state.m[0] == pytest.approx(0.1, rel=1e-15)
        assert opt.state.v[0] == pytest.approx(0.001, rel=1e-15)
        expected = -0.001 * 0.1 / (math.sqrt(0.001) + 1e-8)
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_moments_reach_fixed_point_under_constant_gradient(self):
        cfg = StepConfig(alpha=1e-6, epsilon=1e-8, bias_correction=False)
        opt = Adam(1, cfg, beta1=0.9, beta2=0.99)
        theta = np.array([0.0])
        for _ in range(3000):
            theta = opt.step(theta, np.array([2.0]))
        assert opt.state.m[0] == pytest.approx(2.0, rel=1e-9)
        assert opt.state.v[0] == pytest.approx(4.0, rel=1e-9)

    def test_effective_lr_at_first_corrected_step(self):
        cfg = StepConfig(alpha=0.05, epsilon=0.0, bias_correction=True)
        opt = Adam(2, cfg)
        opt.step(np.zeros(2), np.array([4.0, -0.5]))
        np.testing.assert_allclose(opt.effective_lr(),
                                   [0.05 / 4.0, 0.05 / 0.5], rtol=1e-12)

    def test_epsilon_zero_with_zero_gradient_raises(self):
        cfg = StepConfig(alpha=0.001, epsilon=0.0)
        opt = Adam(1, cfg)
        with pytest.raises(DomainError):
            opt.step(np.zeros(1), np.zeros(1))

    def test_effective_lr_before_any_step(self):
        with pytest.raises(StateError):
            Adam(1).effective_lr()


class TestAmsgrad:
    def test_matches_adam_on_monotone_second_moment(self):
        # constant gradient magnitude keeps v nondecreasing, so the max
        # never binds and the two trajectories coincide
        cfg = StepConfig(alpha=0.01, epsilon=1e-8, bias_correction=False)
        adam, ams = Adam(2, cfg), Amsgrad(2, cfg)
        ta = tb = np.zeros(2)
        rng = np.random.default_rng(0)
        signs = rng.choice([-1.0, 1.0], size=(50, 2))
        for k in range(50):
            g = signs[k] * 3.0
            ta, tb = adam.step(ta, g), ams.step(tb, g)
            np.testing.assert_allclose(tb, ta, rtol=0, atol=1e-15)

    def test_rate_strictly_smaller_after_gradient_spike(self):
        cfg = StepConfig(alpha=0.01, epsilon=1e-8, bias_correction=False)
        adam, ams = Adam(1, cfg), Amsgrad(1, cfg)
        ta = tb = np.zeros(1)
        stream = [10.0] + [0.1] * 30
        for g in stream:
            ta = adam.step(ta, np.array([g]))
            tb = ams.step(tb, np.array([g]))
        assert ams.effective_lr()[0] < adam.effective_lr()[0]

    def test_v_max_never_decreases(self):
        cfg = StepConfig(alpha=0.01, epsilon=1e-8)
        ams = Amsgrad(2, cfg)
        theta = np.zeros(2)
        rng = np.random.default_rng(1)
        prev = ams.state.v_max.copy()
        for _ in range(40):
            theta = ams.step(theta, rng.normal(size=2))
            assert np.all(ams.state.v_max >= prev)
            prev = ams.state.v_max.copy()


def run_paired(opt_a, opt_b, dim, steps=100, seed=0, transform=None):
    """Drive two steppers with the same gradient stream; return trajectories."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(steps, dim))
    ta = tb = rng.uniform(-0.5, 0.5, size=dim)
    traj_a, traj_b = [], []
    for k in range(steps):
        ga = ta - centers[k]
        gb = tb - centers[k]
        ta = opt_a.step(ta, ga)
        tb = opt_b.step(tb, gb)
        traj_a.append(ta.copy())
        traj_b.append(tb.copy())
    return np.array(traj_a), np.array(traj_b)


class TestClippedTransition:
    def test_swats_bounds_give_constant_rate(self):
        bounds = BoundFunctionSpec("swats", alpha_star=0.1)
        opt = ClippedTransition(2, bounds, StepConfig(alpha=0.001))
        opt.step(np.zeros(2), np.array([1.0, -2.0]))
        np.testing.assert_array_equal(opt.effective_lr(), [0.1, 0.1])

    def test_swats_equals_plain_sgd_at_zero_momentum(self):
        bounds = BoundFunctionSpec("swats", alpha_star=0.05)
        generic = ClippedTransition(3, bounds, StepConfig(), beta1=0.0)
        sgdm = MomentumSgd(3, lr=0.05, momentum=0.0)
        a, b = run_paired(generic, sgdm, dim=3, seed=11)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_swats_equals_heavy_ball_via_momentum_identity(self):
        # EMA momentum is (1-beta1) times the heavy-ball sum, so clipping
        # to alpha_star reproduces SGDM at lr alpha_star*(1-beta1)
        alpha_star, beta1 = 0.05, 0.9
        bounds = BoundFunctionSpec("swats", alpha_star=alpha_star)
        generic = ClippedTransition(3, bounds, StepConfig(), beta1=beta1)
        sgdm = MomentumSgd(3, lr=alpha_star * (1 - beta1), momentum=beta1)
        a, b = run_paired(generic, sgdm, dim=3, seed=12)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_free_clip_reduces_to_adam(self):
        # lu bounds far from the horizon with a vanishing alpha_star leave
        # (almost-zero, huge) limits, so the clip never binds
        bounds = BoundFunctionSpec("lu", alpha_star=1e-30, beta2=0.999,
                                   horizon=10**12)
        cfg = StepConfig(alpha=0.001, epsilon=1e-8, bias_correction=False)
        generic = ClippedTransition(2, bounds, cfg)
        adam = Adam(2, cfg, beta1=0.9, beta2=0.999)
        a, b = run_paired(generic, adam, dim=2, seed=13)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_adabound_rate_approaches_alpha_star(self):
        bounds = BoundFunctionSpec("adabound", alpha_star=0.1, beta2=0.999)
        cfg = StepConfig(alpha=0.001, epsilon=1e-8)
        opt = ClippedTransition(1, bounds, cfg)
        theta = np.array([0.0])
        rng = np.random.default_rng(5)
        for _ in range(20000):
            theta = opt.step(theta, rng.normal(size=1))
        lo, hi = 0.1 * (1 - 1 / (0.001 * 20000 + 1)), 0.1 * (1 + 1 / (0.001 * 20000))
        assert lo <= opt.effective_lr()[0] <= hi
        assert opt.effective_lr()[0] == pytest.approx(0.1, rel=0.06)

    def test_sqrt_decay_divides_rate(self):
        bounds = BoundFunctionSpec("swats", alpha_star=0.1)
        opt = ClippedTransition(1, bounds, StepConfig(sqrt_decay=True))
        for t in range(1, 5):
            opt.step(np.zeros(1), np.array([1.0]))
            assert opt.effective_lr()[0] == pytest.approx(
                0.1 / math.sqrt(t), rel=1e-12)
            assert opt.rate_raw()[0] == pytest.approx(0.1, rel=1e-12)


class TestDstAdam:
    def make(self, dim=2, horizon=100, eps=1e-8, sqrt_decay=False, **sched_kw):
        sched = TransitionSchedule(horizon=horizon, **sched_kw)
        cfg = StepConfig(alpha=0.001, epsilon=eps, sqrt_decay=sqrt_decay)
        return DstAdam(dim, sched, cfg)

    def test_rho_one_matches_adam_without_bias_correction(self):
        horizon = 100
        sched = TransitionSchedule(horizon=horizon, rho_kind="custom",
                                   rho_sequence=(1.0,) * horizon)
        cfg = StepConfig(alpha=0.001, epsilon=1e-8, bias_correction=False)
        dst = DstAdam(2, sched, cfg)
        adam = Adam(2, cfg, beta1=0.9, beta2=0.999)
        a, b = run_paired(dst, adam, dim=2, seed=21)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_rho_zero_is_momentum_sgd_at_decreasing_rate(self):
        horizon = 50
        sched = TransitionSchedule(horizon=horizon, rho_kind="custom",
                                   rho_sequence=(0.0,) * horizon,
                                   r_l=0.05, r_u=0.5)
        dst = DstAdam(1, sched, StepConfig(alpha=0.001, epsilon=1e-8))
        rng = np.random.default_rng(4)
        grads = rng.normal(size=horizon)
        theta = np.array([0.2])
        ref_theta, ref_m = 0.2, 0.0
        for t in range(1, horizon + 1):
            g = np.array([grads[t - 1]])
            theta = dst.step(theta, g)
            ref_m = 0.9 * ref_m + 0.1 * grads[t - 1]
            r_t = (0.5 - 0.05) * (1 - t / horizon) + 0.05
            ref_theta = ref_theta - r_t * ref_m
            assert theta[0] == pytest.approx(ref_theta, abs=1e-12)
            assert dst.effective_lr()[0] == pytest.approx(r_t, rel=1e-12)

    def test_single_step_reference_oracle(self):
        # Independently recomputed from the update rule at the reference
        # hyperparameters (alpha 1e-3, betas 0.9/0.999, r 5/0.005, T 78200,
        # rho 0.999764, eps 0): m=0.1, v=1e-3, theta' = -eta_hat * 0.1.
        horizon, rho = 78200, 0.999764
        sched = TransitionSchedule(horizon=horizon, rho=rho,
                                   r_l=0.005, r_u=5.0)
        dst = DstAdam(1, sched, StepConfig(alpha=0.001, epsilon=0.0))
        theta = dst.step(np.array([0.0]), np.array([1.0]))
        r1 = (5.0 - 0.005) * (1.0 - 1.0 / horizon) + 0.005
        a1 = 0.001 / math.sqrt(0.001)
        eta_hat = rho * (a1 - r1) + r1
        assert dst.state.m[0] == pytest.approx(0.1, rel=1e-15)
        assert dst.state.v[0] == pytest.approx(0.001, rel=1e-15)
        assert dst.effective_lr()[0] == pytest.approx(eta_hat, rel=1e-12)
        assert theta[0] == pytest.approx(-eta_hat * 0.1, rel=1e-12)

    def test_rate_band_lower_bound_every_step(self):
        # eta_hat >= r_t (1 - rho_t) >= r_l (1 - rho): the inverse-rate cap
        sched = TransitionSchedule(horizon=400, r_l=0.01, r_u=2.0, rho=0.99)
        dst = DstAdam(3, sched, StepConfig(alpha=0.001, epsilon=1e-8))
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1, 1, size=3)
        cap = 1.0 / (0.01 * (1.0 - 0.99))
        for t in range(1, 401):
            theta = dst.step(theta, rng.normal(size=3))
            rate = dst.rate_raw()
            r_t = sched.r_at(t)
            rho_t = sched.rho_at(t)
            assert np.all(rate >= r_t * (1 - rho_t) - 1e-15)
            assert np.all(1.0 / rate <= cap + 1e-12)

    def test_transition_endpoint_rates_near_r_l(self):
        horizon = 4000
        sched = TransitionSchedule(horizon=horizon, r_l=0.005, r_u=5.0)
        dst = DstAdam(2, sched, StepConfig(alpha=0.001, epsilon=1e-8))
        rng = np.random.default_rng(9)
        theta = rng.uniform(-1, 1, size=2)
        for t in range(1, horizon + 1):
            theta = dst.step(theta, theta - rng.uniform(-1, 1, size=2))
        final = dst.effective_lr()
        assert np.all(final >= 0.99 * 0.005)
        assert np.all(final <= 1.01 * 0.005)

    def test_c2_holds_on_zero_variance_control_run(self):
        # with zero gradients v stays 0, the rate decays monotonically,
        # and sqrt(t)/eta_hat never decreases
        horizon = 300
        sched = TransitionSchedule(horizon=horizon, r_l=0.005, r_u=5.0)
        dst = DstAdam(1, sched, StepConfig(alpha=0.001, epsilon=1e-8))
        theta = np.array([0.1])
        rates = []
        for _ in range(horizon):
            theta = dst.step(theta, np.zeros(1))
            rates.append(dst.rate_raw())
        inv = [math.sqrt(t) / r[0] for t, r in enumerate(rates, start=1)]
        assert all(b >= a - 1e-12 for a, b in zip(inv, inv[1:]))

    def test_horizon_overrun(self):
        dst = self.make(horizon=3)
        theta = np.zeros(2)
        for _ in range(3):
            theta = dst.step(theta, np.ones(2))
        with pytest.raises(HorizonError):
            dst.step(theta, np.ones(2))

    def test_sqrt_decay_applied_after_blend(self):
        dst = self.make(dim=1, horizon=10, sqrt_decay=True)
        dst.step(np.zeros(1), np.ones(1))
        dst.step(np.zeros(1), np.ones(1))
        assert dst.effective_lr()[0] == pytest.approx(
            dst.rate_raw()[0] / math.sqrt(2), rel=1e-12)

    def test_all_steppers_stay_feasible(self):
        box = unit_box(2)
        sched = TransitionSchedule(horizon=200, r_l=0.01, r_u=3.0)
        steppers = [
            MomentumSgd(2, lr=0.5, momentum=0.9, box=box),
            Adam(2, StepConfig(alpha=0.5), box=box),
            Amsgrad(2, StepConfig(alpha=0.5), box=box),
            ClippedTransition(2, BoundFunctionSpec("adabound", alpha_star=0.5),
                              StepConfig(alpha=0.5), box=box),
            DstAdam(2, sched, StepConfig(alpha=0.5), box=box),
        ]
        rng = np.random.default_rng(30)
        for opt in steppers:
            theta = np.zeros(2)
            for _ in range(200):
                theta = opt.step(theta, rng.normal(scale=3.0, size=2))
                assert box.contains(theta)


STEPPERS = {
    "sgdm": lambda: MomentumSgd(2),
    "adam": lambda: Adam(2),
    "amsgrad": lambda: Amsgrad(2),
    "adabound": lambda: ClippedTransition(
        2, BoundFunctionSpec("adabound", alpha_star=0.1)),
    "dstadam": lambda: DstAdam(2, TransitionSchedule(horizon=10)),
}


class TestNonFiniteGradient:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(STEPPERS))
    def test_direct_step_rejects_before_state_changes(self, kind, bad):
        opt = STEPPERS[kind]()
        theta = opt.step(np.zeros(2), np.array([0.5, -1.0]))
        s = opt.state
        t, m, v = s.t, s.m.copy(), s.v.copy()
        with pytest.raises(DomainError) as err:
            opt.step(theta, np.array([0.25, bad]))
        assert str(err.value) == "non-finite gradient at step 2, coordinate 1"
        assert s.t == t
        np.testing.assert_array_equal(s.m, m)
        np.testing.assert_array_equal(s.v, v)


def adaptive(kind, cfg=None, horizon=10):
    """One of the four adaptive steppers on d=2."""
    if kind == "adam":
        return Adam(2, cfg)
    if kind == "amsgrad":
        return Amsgrad(2, cfg)
    if kind == "adabound":
        return ClippedTransition(
            2, BoundFunctionSpec("adabound", alpha_star=0.1), cfg)
    return DstAdam(2, TransitionSchedule(horizon=horizon), cfg)


ADAPTIVE = ["adam", "amsgrad", "adabound", "dstadam"]


class TestCheckParity:
    """Each check keeps its type and message, and t, m, v stay unchanged."""

    def assert_rejected(self, opt, theta, grad, exc, message):
        s = opt.state
        t, m, v = s.t, s.m.copy(), s.v.copy()
        with pytest.raises(exc) as err:
            opt.step(theta, grad)
        assert str(err.value) == message
        assert s.t == t
        np.testing.assert_array_equal(s.m, m)
        np.testing.assert_array_equal(s.v, v)

    @pytest.mark.parametrize("kind", ADAPTIVE)
    def test_zero_denominator_with_epsilon_zero(self, kind):
        opt = adaptive(kind, StepConfig(epsilon=0.0))
        self.assert_rejected(
            opt, np.zeros(2), np.zeros(2), DomainError,
            "zero second moment at step 1, coordinate 0 with epsilon=0; "
            "supply a positive epsilon")

    def test_step_past_the_horizon(self):
        opt = adaptive("dstadam", horizon=3)
        theta = np.zeros(2)
        for _ in range(3):
            theta = opt.step(theta, np.array([0.5, -1.0]))
        self.assert_rejected(opt, theta, np.array([0.5, -1.0]), HorizonError,
                             "step 4 exceeds schedule horizon 3")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["sgdm"] + [k for k in ADAPTIVE
                                                 if k != "adabound"])
    def test_infinite_rate_fails_the_projection_metric(self, kind):
        # alpha / epsilon overflows; the clipped family's bounds cap it
        if kind == "sgdm":
            opt = MomentumSgd(2, lr=math.inf)
        else:
            opt = adaptive(kind, StepConfig(alpha=1e300, epsilon=1e-10))
        self.assert_rejected(opt, np.zeros(2), np.zeros(2), DomainError,
                             "infinite rate at step 1, coordinate 0: the "
                             "projection metric must be positive")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("kind", list(STEPPERS))
    def test_finite_gradient_with_an_overflowing_sum_is_accepted(self, kind):
        opt = STEPPERS[kind]()
        opt.step(np.zeros(2), np.array([1e308, 1e308]))
        assert opt.state.t == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ADAPTIVE)
    def test_overflowed_second_moment_times_zero_beta2(self, kind):
        # g^2 overflows v to inf at step 1, which only zeroes that rate;
        # beta2 = 0 makes it inf * 0 = NaN at step 2, which raises there
        cfg = StepConfig(bias_correction=False)
        opt = {
            "adam": lambda: Adam(2, cfg, beta1=0.0, beta2=0.0),
            "amsgrad": lambda: Amsgrad(2, cfg, beta1=0.0, beta2=0.0),
            "adabound": lambda: ClippedTransition(
                2, BoundFunctionSpec("adabound", alpha_star=0.1), cfg,
                beta1=0.0, beta2=0.0),
            "dstadam": lambda: DstAdam(
                2, TransitionSchedule(horizon=10, beta1=0.0, beta2=0.0), cfg),
        }[kind]()
        g = np.array([0.5, 1e200])
        theta = opt.step(np.zeros(2), g)
        assert opt.state.t == 1 and np.all(np.isfinite(theta))
        with pytest.raises(DomainError) as err:
            opt.step(theta, g)
        assert str(err.value) == \
            "non-finite second moment at step 2, coordinate 1"
        assert opt.state.t == 1
        assert np.all(np.isfinite(opt.rate_raw()))

    @pytest.mark.parametrize("kind", list(STEPPERS))
    def test_returned_rates_are_copies(self, kind):
        opt, twin = STEPPERS[kind](), STEPPERS[kind]()
        theta = np.array([0.3, -0.2])
        a = opt.step(theta, np.array([0.5, -1.0]))
        b = twin.step(theta, np.array([0.5, -1.0]))
        opt.effective_lr()[:] = -1.0
        opt.rate_raw()[:] = -1.0
        np.testing.assert_array_equal(opt.effective_lr(), twin.effective_lr())
        np.testing.assert_array_equal(opt.rate_raw(), twin.rate_raw())
        np.testing.assert_array_equal(opt.step(a, np.array([0.1, 0.2])),
                                      twin.step(b, np.array([0.1, 0.2])))


def _replica_steppers(kind, k, dim=3):
    """Stepper k of a batch: same kind and shape, its own hyperparameters."""
    box = FeasibleBox.cube(1.0 + 0.5 * k, dim)
    cfg = StepConfig(alpha=0.01 * (k + 1), sqrt_decay=k % 2 == 1)
    horizon = 12
    return {
        "sgdm": lambda: MomentumSgd(dim, lr=0.1 * (k + 1), momentum=0.5,
                                    box=box),
        "adam": lambda: Adam(dim, StepConfig(alpha=0.01 * (k + 1),
                                             bias_correction=True),
                             beta1=0.9 - 0.2 * k, beta2=0.99, box=box),
        "amsgrad": lambda: Amsgrad(dim, StepConfig(bias_correction=True),
                                   beta2=0.9 + 0.04 * k, box=box),
        "adabound": lambda: ClippedTransition(
            dim, BoundFunctionSpec("adabound", alpha_star=0.1 * (k + 1)),
            cfg, box=box),
        "adadb": lambda: ClippedTransition(
            dim, BoundFunctionSpec("adadb", alpha_star=0.05,
                                   gamma=1.0 + k), cfg, box=box),
        "lu": lambda: ClippedTransition(
            dim, BoundFunctionSpec("lu", alpha_star=0.05, horizon=16),
            cfg, beta1=0.5 + 0.1 * k, beta2=0.99 - 0.09 * k, box=box),
        "dstadam": lambda: DstAdam(dim, TransitionSchedule(
            horizon=horizon, r_l=0.005 * (k + 1), r_u=5.0 - k,
            rho=[None, 0.9, 0.99][k]), cfg, box=box),
        "dstadam-geometric": lambda: DstAdam(dim, TransitionSchedule(
            horizon=horizon, beta1_kind="geometric",
            beta1_decay=0.99 - 0.2 * k), cfg, box=box),
    }[kind]()


class TestStackedSteppers:
    """A batch of R steppers of one kind steps row r as stepper r would
    alone, bit for bit, with differing hyperparameters as columns."""

    @pytest.mark.parametrize("kind", ["sgdm", "adam", "amsgrad", "adabound",
                                      "adadb", "lu", "dstadam",
                                      "dstadam-geometric"])
    def test_rows_step_as_lone_steppers(self, kind):
        lone = [_replica_steppers(kind, k) for k in range(3)]
        batch = stack_kinds([_replica_steppers(kind, k) for k in range(3)])
        rng = np.random.default_rng(4)
        theta = rng.uniform(-0.5, 0.5, size=(3, 3))
        thetas = list(theta)
        for t in range(1, 13):
            grad = rng.normal(size=(3, 3))
            if t == 1 and kind == "adadb":
                grad[0] = 0.0  # one replica's adadb peak stays 0 a step
            theta = batch.step(theta, grad)
            for r, opt in enumerate(lone):
                thetas[r] = opt.step(thetas[r], grad[r])
                np.testing.assert_array_equal(theta[r], thetas[r])
                np.testing.assert_array_equal(batch.rate_raw()[r],
                                              opt.rate_raw())
                np.testing.assert_array_equal(batch.effective_lr()[r],
                                              opt.effective_lr())

    def test_shared_values_stay_floats(self):
        # eight DstAdam rows of the criterion-02 grid: rho, r_l, r_u and
        # sqrt_decay differ, the betas do not, so each step reads them as
        # floats
        pairs = [(0.005, 5.0), (0.1, 1.0), (0.5, 0.5), (0.01, 0.1)]
        batch = stack_kinds([DstAdam(3, TransitionSchedule(
            horizon=200, rho=[None, 0.9, 0.99][k % 3], r_l=pairs[k % 4][0],
            r_u=pairs[k % 4][1]), StepConfig(sqrt_decay=k >= 4))
            for k in range(8)])
        batch.step(np.zeros((8, 3)), np.ones((8, 3)))
        assert batch.state.m.shape == (8, 3)
        assert isinstance(batch.cfg.epsilon, float)
        assert batch.cfg.sqrt_decay.ravel().tolist() == \
            [False] * 4 + [True] * 4
        b1, gain1, b2, gain2, scale, shift = batch._block[0][:6]
        assert [b1, gain1, b2, gain2] == [0.9, 1.0 - 0.9, 0.999, 1.0 - 0.999]
        assert all(type(x) is float for x in (b1, gain1, b2, gain2))
        assert scale.shape == shift.shape == (8, 1)
        # a lone DstAdam is a batch of one row: every value of its steps is
        # a float
        lone = DstAdam(3, TransitionSchedule(horizon=200, rho=0.9),
                       StepConfig(bias_correction=True, sqrt_decay=True))
        lone.step(np.zeros(3), np.ones(3))
        assert [type(x) for x in lone._block[0]] == \
            [bool if name == "running_max" else float for name in COEFFICIENTS]

    def test_column(self):
        assert column([0.5, 0.5]) == 0.5
        np.testing.assert_array_equal(column([0.5, 1.0]), [[0.5], [1.0]])

    def test_unlike_steppers_are_rejected(self):
        with pytest.raises(DomainError, match="cannot batch"):
            stack_like([StepConfig(), FeasibleBox.unbounded(2)])
        with pytest.raises(DomainError, match="cannot batch"):
            stack_like([BoundFunctionSpec(kind, alpha_star=0.1, gamma=1.0)
                        for kind in ("swats", "adadb")])

    def test_errors_name_the_replica(self):
        batch = stack_kinds([Adam(3), Adam(3)])
        grad = np.zeros((2, 3))
        grad[1, 2] = math.nan
        with pytest.raises(DomainError) as err:
            batch.step(np.zeros((2, 3)), grad)
        assert str(err.value) == "non-finite gradient at step 1, coordinate 2"
        assert err.value.replica == 1
        with pytest.raises(DimensionError):
            batch.step(np.zeros(3), np.zeros(3))


def _kind_rows():
    """The steppers of a mixed batch: rows differ in alpha, epsilon, the
    bias correction, sqrt_decay and the box, and in each rule's own
    hyperparameters."""
    return [*(_replica_steppers("adam", k) for k in range(2)),
            _replica_steppers("amsgrad", 0),
            *(_replica_steppers("adadb", k) for k in range(2)),
            *(_replica_steppers("lu", k) for k in range(2)),
            Adam(3, StepConfig(epsilon=1e-3), box=FeasibleBox.cube(3.0, 3)),
            *(_replica_steppers("dstadam", k) for k in range(3)),
            _replica_steppers("dstadam-geometric", 1)]


def _sgdm_rows():
    """Heavy-ball steppers: a pair whose lr differs, and one with its own
    momentum and box."""
    return [*(_replica_steppers("sgdm", k) for k in range(2)),
            MomentumSgd(3, lr=0.3, momentum=0.0,
                        box=FeasibleBox.cube(0.5, 3))]


def _merged(stepper, names, steps=4):
    """The coefficients ``names`` of the stepper's first steps, each a
    list over the steps, as the merged block of step 1 holds them."""
    stepper._fill(1)
    return [[row[COEFFICIENTS.index(name)] for row in stepper._block[:steps]]
            for name in names]


class TestKindBatches:
    """stack_kinds: steppers of different kinds share the skeleton step,
    and row r steps as its stepper would alone, bit for bit."""

    def test_rows_step_as_lone_steppers(self):
        lone = _kind_rows()
        batch = stack_kinds(_kind_rows())
        assert batch.state.m.shape == (12, 3)
        assert batch.cfg.bias_correction.ravel().tolist() == \
            [True] * 3 + [False] * 9
        # the lu rows' constant betas: beta2 is one (R, 1) column for the
        # run, and beta1 a per-step array, as the geometric DstAdam row's
        # beta1 varies
        beta1, beta2 = _merged(batch, ("beta1", "beta2"))
        assert beta2[0] is beta2[3]
        assert beta2[0][5:7].ravel().tolist() == [0.99, 0.9]
        assert [x[5:7].tolist() for x in beta1] == [[[0.5], [0.6]]] * 4
        rng = np.random.default_rng(9)
        theta = rng.uniform(-0.5, 0.5, size=(12, 3))
        thetas = list(theta)
        for t in range(1, 13):
            grad = rng.normal(size=(12, 3))
            if t == 1:
                grad[3] = 0.0  # one adadb replica's peak stays 0 a step
            theta = batch.step(theta, grad)
            for r, opt in enumerate(lone):
                thetas[r] = opt.step(thetas[r], grad[r])
                assert theta[r].tobytes() == thetas[r].tobytes(), (t, r)
                assert batch.rate_raw()[r].tobytes() == \
                    opt.rate_raw().tobytes(), (t, r)
                assert batch.effective_lr()[r].tobytes() == \
                    opt.effective_lr().tobytes(), (t, r)

    def test_one_group_steps_as_it_does_alone(self):
        opt = Adam(3)
        assert stack_kinds([opt]) is opt
        assert stack_kinds([Adam(3), Adam(3)]).state.m.shape == (2, 3)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_sgdm_rows_step_as_lone_steppers(self):
        def rows():
            sgdm = _sgdm_rows()
            return [*sgdm[:2], *_kind_rows(), sgdm[2]]

        lone = rows()
        batch = stack_kinds(rows())
        assert batch.state.m.shape == (15, 3)
        # heavy ball's undamped first-moment gain and its rate lr as the
        # blend 0 * rate + lr; the geometric DstAdam row's beta1 and gain
        # vary, so every row's are per-step arrays
        sgdm = [0, 1, 14]
        gain1, beta1, scale, shift, beta2 = (
            [x[sgdm].tolist() for x in steps]
            for steps in _merged(batch, ("gain1", "beta1", "scale", "shift",
                                         "beta2")))
        assert gain1 == [[[1.0]] * 3] * 4
        assert beta1 == [[[0.5], [0.5], [0.0]]] * 4
        assert scale == [[[0.0]] * 3] * 4
        assert shift == [[[0.1], [0.2], [0.3]]] * 4
        assert beta2 == [[[0.5]] * 3] * 4
        rng = np.random.default_rng(10)
        theta = rng.uniform(-0.5, 0.5, size=(15, 3))
        thetas = list(theta)
        for t in range(1, 13):
            grad = rng.normal(size=(15, 3))
            if t == 3:
                # g^2 overflows the lone SGDM row's unused v to inf, which
                # its beta2 in (0, 1) keeps inf: no row raises
                grad[14, 0] = 1e308
            theta = batch.step(theta, grad)
            for r, opt in enumerate(lone):
                thetas[r] = opt.step(thetas[r], grad[r])
                assert theta[r].tobytes() == thetas[r].tobytes(), (t, r)
                assert batch.rate_raw()[r].tobytes() == \
                    opt.rate_raw().tobytes(), (t, r)
                assert batch.effective_lr()[r].tobytes() == \
                    opt.effective_lr().tobytes(), (t, r)
        assert batch.state.v[14, 0] == math.inf

    def test_errors_name_the_row(self):
        batch = stack_kinds([Adam(2), DstAdam(
            2, TransitionSchedule(horizon=10), StepConfig(epsilon=0.0))])
        with pytest.raises(DomainError) as err:
            batch.step(np.zeros((2, 2)), np.zeros((2, 2)))
        assert str(err.value) == ("zero second moment at step 1, coordinate "
                                  "0 with epsilon=0; supply a positive "
                                  "epsilon")
        assert err.value.replica == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_overflowed_momentum_keeps_the_rate_of_a_row_without_the_bound():
    # an SGDM row beside an adadb row has base +inf; its undamped m
    # overflows to inf at step 2, its term |m| / peak to inf / inf = NaN,
    # and fmin keeps its rate lr
    def rows():
        box = FeasibleBox.cube(5.0, 3)
        return [ClippedTransition(3, BoundFunctionSpec(
                    "adadb", alpha_star=0.01, gamma=1e-3),
                    StepConfig(alpha=0.1), box=box),
                MomentumSgd(3, lr=0.1, momentum=0.9, box=box)]

    lone, batch = rows(), stack_kinds(rows())
    rng = np.random.default_rng(5)
    theta = rng.uniform(-0.5, 0.5, size=(2, 3))
    thetas = list(theta)
    for t in range(1, 8):
        grad = rng.normal(size=(2, 3))
        grad[1, 0] = 1e308
        theta = batch.step(theta, grad)
        assert (batch.state.m[1, 0] == math.inf) == (t >= 2)
        for r, opt in enumerate(lone):
            thetas[r] = opt.step(thetas[r], grad[r])
            assert theta[r].tobytes() == thetas[r].tobytes(), (t, r)
            assert batch.rate_raw()[r].tobytes() == \
                opt.rate_raw().tobytes(), (t, r)
            assert batch.effective_lr()[r].tobytes() == \
                opt.effective_lr().tobytes(), (t, r)
    assert batch.rate_raw()[1].tolist() == [0.1] * 3


@pytest.mark.parametrize("batched", [False, True], ids=["lone", "batch"])
def test_a_zero_second_moment_names_step_and_coordinate(batched):
    # beta2 = 0 makes v the last squared gradient, so epsilon = 0 leaves a
    # zero denominator where step 2's gradient is 0
    def bare():
        return Adam(2, StepConfig(alpha=0.1, epsilon=0.0), beta2=0.0)

    opt = stack_kinds([Adam(2), bare()]) if batched else bare()
    rows = (2, 2) if batched else (2,)
    theta = opt.step(np.zeros(rows), np.ones(rows))
    with pytest.raises(DomainError) as err:
        opt.step(theta, np.broadcast_to([1.0, 0.0], rows))
    assert str(err.value) == ("zero second moment at step 2, coordinate 1 "
                              "with epsilon=0; supply a positive epsilon")
    assert err.value.replica == (1 if batched else None)
    assert opt.state.t == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_an_infinite_rate_names_its_replica():
    batch = stack_kinds([Adam(2), Adam(2, StepConfig(alpha=1e300,
                                                     epsilon=1e-10))])
    with pytest.raises(DomainError) as err:
        batch.step(np.zeros((2, 2)), np.zeros((2, 2)))
    assert str(err.value) == ("infinite rate at step 1, coordinate 0: the "
                              "projection metric must be positive")
    assert err.value.replica == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_zero_dstadam_rate_names_step_and_coordinate():
    # rho_t = 1 leaves the adaptive rate alone, and an overflowed second
    # moment makes it 0
    opt = DstAdam(2, TransitionSchedule(horizon=4, rho_kind="custom",
                                        rho_sequence=[1.0] * 4))
    theta = opt.step(np.zeros(2), np.array([0.5, 0.5]))
    with pytest.raises(DomainError) as err:
        opt.step(theta, np.array([0.5, 1e308]))
    assert str(err.value) == "eta_hat not positive at step 2, coordinate 1"
    assert err.value.replica is None


@pytest.mark.parametrize("make", [
    lambda **betas: Adam(2, **betas),
    lambda **betas: Amsgrad(2, **betas),
    lambda **betas: ClippedTransition(
        2, BoundFunctionSpec("adabound", alpha_star=0.1), **betas),
], ids=["adam", "amsgrad", "clipped"])
@pytest.mark.parametrize("name, value", [("beta1", 1.0), ("beta2", -0.1)])
def test_a_beta_outside_the_unit_interval_raises(make, name, value):
    with pytest.raises(DomainError) as err:
        make(**{name: value})
    assert str(err.value) == f"{name} must lie in [0, 1), got {value}"


@pytest.mark.parametrize("make, message", [
    (lambda: StepConfig(alpha=math.nan), "alpha must be > 0, got nan"),
    (lambda: StepConfig(epsilon=math.nan), "epsilon must be >= 0, got nan"),
    (lambda: MomentumSgd(2, lr=math.nan), "lr must be > 0, got nan"),
    (lambda: MomentumSgd(2, momentum=math.nan),
     "momentum must lie in [0, 1), got nan"),
    (lambda: BoundFunctionSpec("adabound", alpha_star=math.nan),
     "alpha_star must be > 0, got nan"),
    (lambda: BoundFunctionSpec("adadb", alpha_star=0.1, gamma=math.nan),
     "adadb requires gamma > 0, got nan"),
], ids=["alpha", "epsilon", "lr", "momentum", "alpha_star", "gamma"])
def test_a_nan_hyperparameter_raises(make, message):
    with pytest.raises(DomainError) as err:
        make()
    assert str(err.value) == message
