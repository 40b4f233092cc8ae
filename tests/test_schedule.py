import numpy as np
import pytest

from transopt.errors import DomainError, HorizonError
from transopt.schedule import (BoundFunctionSpec, TransitionSchedule,
                               eval_bounds, rho_from_horizon)


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
    """rho_values/beta1_values agree with the per-step methods."""

    SCHEDULES = [
        dict(rho_kind="exponential", rho=0.999),
        dict(rho_kind="constant", rho=0.3),
        dict(rho_kind="custom", rho_sequence=tuple(np.linspace(1, 0, 400))),
        dict(beta1_kind="geometric", beta1_decay=0.99),
        dict(beta1_kind="harmonic"),
    ]

    @pytest.mark.parametrize("kw", SCHEDULES)
    def test_match_scalar_methods(self, kw):
        s = TransitionSchedule(horizon=300, **kw)
        ts = range(1, 301)
        # numpy's pow may round the last bit differently from Python's
        np.testing.assert_allclose(s.rho_values(300),
                                   [s.rho_at(t) for t in ts],
                                   rtol=4 * np.finfo(float).eps, atol=0)
        np.testing.assert_allclose(s.beta1_values(300),
                                   [s.beta1_at(t) for t in ts],
                                   rtol=4 * np.finfo(float).eps, atol=0)

    def test_custom_sequence_too_short(self):
        s = TransitionSchedule(horizon=3, rho_kind="custom",
                               rho_sequence=(0.5, 0.5, 0.5))
        with pytest.raises(HorizonError):
            s.rho_values(4)


class TestScheduleValidation:
    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            TransitionSchedule(horizon=10, rho=1.0)

    def test_r_order(self):
        with pytest.raises(DomainError):
            TransitionSchedule(horizon=10, r_l=5.0, r_u=0.005)

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
