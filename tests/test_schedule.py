import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transopt.errors import DomainError, HorizonError
from transopt.optim import BLOCK_STEPS
from transopt.schedule import (BETA1_KINDS, RHO_KINDS, BoundFunctionSpec,
                               TransitionSchedule, bound_values, eval_bounds,
                               rho_from_horizon)


def exp_schedule(rho, horizon=10**6, **kw):
    return TransitionSchedule(horizon=horizon, rho_kind="exponential",
                              rho=rho, **kw)


class TestRhoAt:
    def test_exponential_cube(self):
        assert exp_schedule(0.5).rho_at(3) == pytest.approx(0.125, rel=1e-15)

    def test_first_power(self):
        assert exp_schedule(0.37).rho_at(1) == pytest.approx(0.37, rel=1e-15)

    def test_reference_run_endpoint(self):
        # the six-digit rho = 0.999764 lands within a few percent of 1e-8
        # (rounding rho costs 0.964e-8; the exact root is covered below)
        value = exp_schedule(0.999764, horizon=78200).rho_at(78200)
        assert 1e-8 / 1.05 <= value <= 1e-8 * 1.05

    def test_constant_kind(self):
        s = TransitionSchedule(horizon=10, rho_kind="constant", rho=0.3)
        assert s.rho_at(1) == s.rho_at(7) == 0.3

    def test_custom_sequence_and_range(self):
        s = TransitionSchedule(horizon=3, rho_kind="custom",
                               rho_sequence=(1.0, 0.5, 0.0))
        assert s.rho_at(2) == 0.5
        with pytest.raises(HorizonError):
            s.rho_at(4)

    def test_exponential_nonincreasing_and_capped(self):
        s = exp_schedule(0.9, horizon=100)
        values = [s.rho_at(t) for t in range(1, 101)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v <= 0.9 for v in values)

    def test_t_zero_invalid(self):
        with pytest.raises(HorizonError):
            exp_schedule(0.5).rho_at(0)


class TestRhoFromHorizon:
    def test_reference_value(self):
        assert rho_from_horizon(78200, 1e-8) == pytest.approx(0.999764,
                                                              abs=1e-6)

    def test_first_root(self):
        assert rho_from_horizon(1, 1e-8) == pytest.approx(1e-8, rel=1e-15)

    def test_eighth_root(self):
        assert rho_from_horizon(8, 1e-8) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("horizon", [1, 7, 1000, 10**6])
    def test_round_trip_recovers_target(self, horizon):
        rho = rho_from_horizon(horizon, 1e-8)
        s = TransitionSchedule(horizon=horizon, rho=rho)
        assert s.rho_at(horizon) == pytest.approx(1e-8, rel=1e-10)

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5, -0.1])
    def test_bad_target(self, target):
        with pytest.raises(DomainError):
            rho_from_horizon(100, target)


class TestRAt:
    def test_endpoint_is_r_l(self):
        s = TransitionSchedule(horizon=200, r_l=0.005, r_u=5.0)
        assert s.r_at(200) == pytest.approx(0.005, rel=1e-12)

    def test_midpoint(self):
        s = TransitionSchedule(horizon=200, r_l=0.005, r_u=5.0)
        assert s.r_at(100) == pytest.approx((5.0 - 0.005) / 2 + 0.005,
                                            rel=1e-12)

    def test_degenerate_flat(self):
        s = TransitionSchedule(horizon=50, r_l=1.0, r_u=1.0)
        assert all(s.r_at(t) == 1.0 for t in (1, 25, 50))

    def test_beyond_horizon(self):
        s = TransitionSchedule(horizon=10)
        with pytest.raises(HorizonError):
            s.r_at(11)

    def test_affine_constant_decrement(self):
        s = TransitionSchedule(horizon=1000, r_l=0.25, r_u=3.0)
        step = (3.0 - 0.25) / 1000
        for t in (1, 17, 500, 998):
            assert s.r_at(t) - s.r_at(t + 1) == pytest.approx(step, rel=1e-12)

    def test_stays_in_band(self):
        s = TransitionSchedule(horizon=100, r_l=0.1, r_u=2.0)
        values = [s.r_at(t) for t in range(1, 101)]
        assert all(0.1 <= v < 2.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBeta1At:
    def test_geometric_starts_at_beta1(self):
        s = TransitionSchedule(horizon=10, beta1_kind="geometric",
                               beta1=0.9, beta1_decay=0.5)
        assert s.beta1_at(1) == pytest.approx(0.9, rel=1e-15)
        assert s.beta1_at(3) == pytest.approx(0.9 * 0.25, rel=1e-15)

    def test_harmonic(self):
        s = TransitionSchedule(horizon=10, beta1_kind="harmonic", beta1=0.9)
        assert s.beta1_at(9) == pytest.approx(0.1, rel=1e-12)

    def test_constant(self):
        s = TransitionSchedule(horizon=10, beta1=0.9)
        assert s.beta1_at(1) == s.beta1_at(10) == 0.9

    @pytest.mark.parametrize("kind,decay", [("constant", None),
                                            ("geometric", 0.99),
                                            ("harmonic", None)])
    def test_never_exceeds_beta1(self, kind, decay):
        s = TransitionSchedule(horizon=500, beta1_kind=kind, beta1=0.9,
                               beta1_decay=decay)
        assert all(s.beta1_at(t) <= 0.9 + 1e-15 for t in range(1, 501))


class TestArrayEvaluations:
    """block_values agrees with the per-step methods."""

    SCHEDULES = [
        dict(rho_kind="exponential", rho=0.999),
        dict(rho_kind="constant", rho=0.3),
        dict(rho_kind="custom", rho_sequence=tuple(np.linspace(1, 0, 400))),
        dict(beta1_kind="geometric", beta1_decay=0.99),
        dict(beta1_kind="harmonic"),
    ]

    @pytest.mark.parametrize("kw", SCHEDULES)
    def test_block_values_equal_scalar_methods(self, kw):
        s = TransitionSchedule(horizon=300, **kw)
        for start in (1, 129, 257):
            block = np.array(s.block_values(start, 128)).T
            ts = range(start, min(start + 128, 301))
            # the last block stops at the horizon
            assert block.shape == (len(ts), 4)
            want = np.array([[s.beta1_at(t), s.beta2_at(t), s.rho_at(t),
                              s.r_at(t)] for t in ts])
            np.testing.assert_array_equal(block.view(np.int64),
                                          want.view(np.int64))

    def test_block_values_past_horizon(self):
        s = TransitionSchedule(horizon=3)
        assert [len(x) for x in s.block_values(3, 5)] == [1] * 4
        with pytest.raises(HorizonError,
                           match="^step 4 exceeds schedule horizon 3$"):
            s.block_values(4, 5)


def _open_unit():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def schedules(draw):
    """Any schedule TransitionSchedule accepts, over horizons up to past
    two block boundaries; a custom rho sequence may hold 0 and 1."""
    horizon = draw(st.integers(1, 2 * BLOCK_STEPS + 100))
    r_l = draw(st.floats(1e-8, 1e3))
    r_u = draw(st.just(r_l) | st.floats(r_l, 1e4))
    rho_kind = draw(st.sampled_from(RHO_KINDS))
    rho = rho_sequence = None
    if rho_kind == "custom":
        pattern = draw(st.lists(st.sampled_from([0.0, 1.0])
                                | st.floats(0.0, 1.0), min_size=1, max_size=8))
        rho_sequence = pattern * math.ceil(horizon / len(pattern))
    else:
        rho = draw(st.none() | _open_unit())
    beta1_kind = draw(st.sampled_from(BETA1_KINDS))
    return TransitionSchedule(
        horizon=horizon, r_l=r_l, r_u=r_u, rho_kind=rho_kind, rho=rho,
        rho_sequence=rho_sequence, beta1_kind=beta1_kind,
        beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta1_decay=draw(_open_unit()) if beta1_kind == "geometric" else None)


class TestTheoremBounds:
    """The condition report's rho_bounded, r_ordered and beta1_bounded
    rows rest on these bounds holding for every accepted schedule."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(schedules())
    def test_stepper_blocks_stay_within_the_bounds(self, s):
        rho_sup = s.rho_sup()
        for t in range(1, s.horizon + 1, BLOCK_STEPS):
            # the blocks a stepper fills, as it fills them
            beta1, _, rho, r = s.block_values(t, BLOCK_STEPS)
            assert len(r) == min(BLOCK_STEPS, s.horizon + 1 - t)
            assert np.all(rho <= rho_sup)
            assert np.all(beta1 <= s.beta1)
            assert np.all((s.r_l <= r) & (r <= s.r_u))


class TestScheduleValidation:
    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            TransitionSchedule(horizon=10, rho=1.0)

    def test_r_order(self):
        with pytest.raises(DomainError):
            TransitionSchedule(horizon=10, r_l=5.0, r_u=0.005)

    @pytest.mark.parametrize("r_l, r_u", [(0.005, math.inf),
                                          (math.inf, math.inf),
                                          (0.005, math.nan)])
    def test_a_non_finite_rate_is_rejected(self, r_l, r_u):
        # r_T = inf * 0 would be NaN
        with pytest.raises(DomainError, match=r"r_l <= r_u < inf"):
            TransitionSchedule(horizon=10, r_l=r_l, r_u=r_u)

    def test_autofill_matches_formula(self):
        s = TransitionSchedule(horizon=78200)
        assert s.rho == pytest.approx(rho_from_horizon(78200), rel=1e-15)

    def test_custom_requires_sequence(self):
        with pytest.raises(DomainError):
            TransitionSchedule(horizon=3, rho_kind="custom")


class TestBoundFunctions:
    def test_adabound_row_at_t1(self):
        # hand evaluation: lower = 0.1*(1 - 1/1.001), upper = 0.1*(1 + 1000)
        spec = BoundFunctionSpec("adabound", alpha_star=0.1, beta2=0.999)
        lower, upper = eval_bounds(spec, 1)
        assert lower == pytest.approx(0.1 * (1 - 1 / 1.001), rel=1e-12)
        assert lower == pytest.approx(9.99001e-5, rel=1e-5)
        assert upper == pytest.approx(100.1, rel=1e-12)

    def test_swats_is_a_point(self):
        spec = BoundFunctionSpec("swats", alpha_star=0.1)
        for t in (1, 10, 10**6):
            assert eval_bounds(spec, t) == (0.1, 0.1)

    def test_adabound_limits_close_on_alpha_star(self):
        spec = BoundFunctionSpec("adabound", alpha_star=0.25, beta2=0.999)
        lower, upper = eval_bounds(spec, 10**9)
        assert lower == pytest.approx(0.25, rel=1e-5)
        assert upper == pytest.approx(0.25, rel=1e-5)

    def test_lu_row(self):
        spec = BoundFunctionSpec("lu", alpha_star=0.1, beta2=0.999,
                                 horizon=100)
        lower, upper = eval_bounds(spec, 10)
        assert lower == pytest.approx(0.1 * 10 / 100, rel=1e-12)
        assert upper == pytest.approx(0.1 + 1 / (0.001 * 10) - 1 / (0.001 * 100),
                                      rel=1e-12)
        # endpoint: upper collapses onto alpha_star, lower reaches it
        lower_T, upper_T = eval_bounds(spec, 100)
        assert lower_T == pytest.approx(0.1, rel=1e-12)
        assert upper_T == pytest.approx(0.1, rel=1e-12)

    def test_lu_lower_is_alpha_star_exactly_at_the_horizon(self):
        # 0.05 * 12 / 12 rounds to one ulp above 0.05, past the upper bound
        spec = BoundFunctionSpec("lu", alpha_star=0.05, horizon=12)
        assert eval_bounds(spec, 12) == (0.05, 0.05)
        for t in range(1, 12):
            assert eval_bounds(spec, t)[0] == 0.05 * t / 12

    def test_adadb_vector_upper(self):
        spec = BoundFunctionSpec("adadb", alpha_star=0.1, gamma=0.5)
        m_abs = np.array([0.2, 0.1])
        lower, upper = eval_bounds(spec, 4, momentum_abs=m_abs,
                                   momentum_abs_peak=0.2)
        assert lower == 0.1
        np.testing.assert_allclose(
            upper, 0.1 + m_abs / (0.2 * (0.5 * 4)), rtol=1e-12)
        assert np.all(lower <= upper)

    def test_adadb_degenerate_zero_peak(self):
        spec = BoundFunctionSpec("adadb", alpha_star=0.1, gamma=0.5)
        lower, upper = eval_bounds(spec, 1, momentum_abs=np.zeros(3),
                                   momentum_abs_peak=0.0)
        assert (lower, upper) == (0.1, 0.1)

    def test_adadb_missing_statistics(self):
        spec = BoundFunctionSpec("adadb", alpha_star=0.1, gamma=0.5)
        with pytest.raises(DomainError):
            eval_bounds(spec, 1)

    @pytest.mark.parametrize("kind,kw", [
        ("adabound", {"beta2": 0.999}),
        ("lu", {"beta2": 0.999, "horizon": 10**4}),
    ])
    def test_monotone_and_ordered_over_long_range(self, kind, kw):
        spec = BoundFunctionSpec(kind, alpha_star=0.1, **kw)
        ts = range(1, 10**4 + 1)
        lowers, uppers = zip(*(eval_bounds(spec, t) for t in ts))
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(lo <= up for lo, up in zip(lowers, uppers))

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            BoundFunctionSpec("swats", alpha_star=0.0)
        with pytest.raises(DomainError):
            BoundFunctionSpec("adadb", alpha_star=0.1, gamma=0.0)
        with pytest.raises(DomainError):
            BoundFunctionSpec("lu", alpha_star=0.1, horizon=None)


@pytest.mark.parametrize("spec", [
    BoundFunctionSpec("swats", alpha_star=0.1),
    BoundFunctionSpec("adabound", alpha_star=0.1, beta2=0.99),
    # steps 3 .. 14 end at the horizon, where lower is alpha_star itself
    BoundFunctionSpec("lu", alpha_star=0.05, horizon=14),
], ids=["swats", "adabound", "lu"])
def test_bound_values_equal_eval_bounds(spec):
    lower, upper = bound_values(spec, 3, 12)
    want = np.array([eval_bounds(spec, t) for t in range(3, 15)])
    np.testing.assert_array_equal(np.array([lower, upper]).T.view(np.int64),
                                  want.view(np.int64))


def test_bound_values_reject_adadb():
    spec = BoundFunctionSpec("adadb", alpha_star=0.1, gamma=1.0)
    with pytest.raises(DomainError, match="adadb bounds need momentum"):
        bound_values(spec, 1, 4)
