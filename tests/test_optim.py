import math

import numpy as np
import pytest

from transopt.errors import (DimensionError, DomainError, HorizonError,
                             StateError)
from transopt.optim import (Adam, Amsgrad, ClippedTransition, DstAdam,
                            FeasibleBox, MomentumSgd, StepConfig, project_box)
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
            project_box(y, FeasibleBox.unbounded()), y)

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
