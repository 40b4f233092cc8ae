import math

import numpy as np
import pytest

from transopt.diagnostics import (BLOCK_ELEMENTS, C2Monitor, ConditionReport,
                                  LrHistogram, TheoryParams, block_rows,
                                  bound_corollary1, bound_corollary2,
                                  check_c2, estimate_zeta, eta_bound_check,
                                  lemma_a1_holds)
from transopt import diagnostics
from transopt.errors import DomainError
from transopt.optim import DstAdam, FeasibleBox, StepConfig
from transopt.schedule import TransitionSchedule


class TestLrHistogram:
    def test_identical_values_one_bin(self):
        hist = LrHistogram()
        hist.record(1, np.array([1.0, 1.0, 1.0]))
        _, counts, under, over = hist.rows[0]
        assert counts.sum() == 3 and under == 0 and over == 0
        assert (counts > 0).sum() == 1

    def test_below_grid_hits_underflow(self):
        hist = LrHistogram()
        hist.record(1, np.array([1e-12, 0.5]))
        _, counts, under, over = hist.rows[0]
        assert under == 1 and counts.sum() == 1 and over == 0

    def test_above_grid_hits_overflow(self):
        hist = LrHistogram()
        hist.record(1, np.array([5e3]))
        _, counts, under, over = hist.rows[0]
        assert over == 1 and counts.sum() == 0

    def test_row_conservation(self):
        hist = LrHistogram()
        rng = np.random.default_rng(0)
        for t in range(1, 20):
            lrs = 10.0 ** rng.uniform(-10, 4, size=17)
            hist.record(t, lrs)
        for _, counts, under, over in hist.rows:
            assert counts.sum() + under + over == 17

    def test_nonpositive_rate_rejected(self):
        hist = LrHistogram()
        with pytest.raises(DomainError):
            hist.record(1, np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected_with_step_and_coordinate(self, bad):
        hist = LrHistogram()
        hist.record(1, np.array([0.01, 0.02]))
        with pytest.raises(DomainError, match=r"step 4, coordinate 1"):
            hist.record(4, np.array([0.01, bad]))
        # the rejected row leaves no trace, so every row still totals d
        assert [t for t, *_ in hist.rows] == [1]

    def test_binning_matches_np_histogram_at_and_around_every_edge(self):
        hist = LrHistogram()
        edges = hist.edges
        probes = np.concatenate([edges, np.nextafter(edges, 0.0),
                                 np.nextafter(edges, np.inf)])
        hist.record(1, probes)
        _, counts, under, over = hist.rows[0]
        inside = probes[(probes >= edges[0]) & (probes < edges[-1])]
        expected, _ = np.histogram(inside, bins=edges)
        np.testing.assert_array_equal(counts, expected)
        assert under == int(np.sum(probes < edges[0]))
        assert over == int(np.sum(probes >= edges[-1]))

    def test_rows_span_counter_blocks(self):
        hist = LrHistogram()
        n = 2 * block_rows(len(hist.edges) + 1) + 3
        for t in range(1, n + 1):
            hist.record(t, np.array([10.0 ** (t % 11 - 8)]))
        rows = hist.rows
        assert [t for t, *_ in rows] == list(range(1, n + 1))
        assert all(c.sum() + u + o == 1 for _, c, u, o in rows)

    def test_block_rejects_with_step_and_coordinate(self):
        hist = LrHistogram()
        rows = np.full((4, 3), 0.01)
        rows[2, 1] = 0.0
        with pytest.raises(DomainError, match=r"step 30, coordinate 1"):
            hist.record_rows(np.array([10, 20, 30, 40]), rows)
        assert hist.rows == []

    def test_block_matches_row_by_row(self):
        rng = np.random.default_rng(2)
        rows = 10.0 ** rng.uniform(-10, 4, size=(9, 5))
        ts = np.arange(3, 30, 3)
        block, single = LrHistogram(), LrHistogram()
        block.record_rows(ts[:4], rows[:4])
        block.record_rows(ts[4:], rows[4:])
        for t, row in zip(ts.tolist(), rows):
            single.record(t, row)
        for a, b in zip(block.rows, single.rows):
            assert a[0] == b[0] and a[2:] == b[2:]
            np.testing.assert_array_equal(a[1], b[1])

    def test_csv_same_bytes_whatever_the_text_cache_holds(
            self, tmp_path, monkeypatch):
        hist = LrHistogram()
        rng = np.random.default_rng(4)
        for lo in range(0, 40, 8):
            # repeated and distinct counter rows, in blocks
            rows = 10.0 ** rng.integers(-9, 4, size=(8, 2)).astype(float)
            hist.record_rows(np.arange(lo + 1, lo + 9), rows)
        hist.to_csv(tmp_path / "cached.csv")
        monkeypatch.setattr(diagnostics, "TEXT_CACHE_ROWS", 0)
        hist.to_csv(tmp_path / "uncached.csv")
        cached = (tmp_path / "cached.csv").read_bytes()
        assert (tmp_path / "uncached.csv").read_bytes() == cached
        # row text as the csv module writes it: t, bins, under, overflow
        lines = cached.split(b"\r\n")
        t, counts, under, over = hist.rows[-1]
        assert lines[-2] == ",".join(
            map(str, [t, *counts.tolist(), under, over])).encode()

    def test_csv_export(self, tmp_path):
        hist = LrHistogram(n_bins=4, lo=1e-2, hi=1e2)
        hist.record(1, np.array([0.5, 60.0]))
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("t,")
        assert lines[0].endswith("underflow,overflow")


# ---------------------------------------------------------------------------
# The per-row loop versions the block passes replaced, kept as references.
# ---------------------------------------------------------------------------

def loop_check_c2(rate_rows, tol=1e-12):
    violations = []
    for k in range(1, len(rate_rows)):
        t = k + 1
        lhs = math.sqrt(t) / np.asarray(rate_rows[k])
        rhs = math.sqrt(t - 1) / np.asarray(rate_rows[k - 1])
        bad = np.nonzero(lhs < rhs - tol)[0]
        violations.extend((t, int(i)) for i in bad)
    return violations


def loop_estimate_zeta(grads, beta2):
    grads = np.asarray(grads, dtype=np.float64)
    if not np.any(grads):
        return None
    v = np.zeros(grads.shape[1])
    raw = np.zeros(grads.shape[1])
    zeta = 0.0
    for k in range(grads.shape[0]):
        t = k + 1
        beta = float(beta2)
        g2 = grads[k] * grads[k]
        v = beta * v + (1.0 - beta) * g2
        raw = raw + g2
        lhs = np.sqrt(t * v)
        rhs = np.sqrt(raw)
        active = rhs > 0.0
        if np.any(active & (lhs == 0.0)):
            return float("inf")
        if np.any(active):
            zeta = max(zeta, float(np.max(rhs[active] / lhs[active])))
    return zeta


def loop_eta_bound_check(rate_rows, r_l, rho, tol=1e-12):
    cap = 1.0 / (r_l * (1.0 - rho))
    for row in rate_rows:
        row = np.asarray(row, dtype=np.float64)
        if np.any(row <= 0.0):
            return False
        if np.any(1.0 / row > cap + tol):
            return False
    return True


#: (T, d) shapes where T straddles a block boundary, and where d is so
#: large that a block holds a single row.
BLOCK_SHAPES = [(2 * block_rows(10) + 5, 10), (block_rows(3) + 1, 3),
                (5, BLOCK_ELEMENTS + 7)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
class TestBlockPassesMatchLoops:
    def test_check_c2(self, shape):
        rng = np.random.default_rng(shape[0])
        rows = 10.0 ** rng.uniform(-3, 1, size=shape)
        expected = loop_check_c2(list(rows))
        assert check_c2(rows) == expected and expected
        # one shared t object per violating row
        got = check_c2(rows)
        assert all(a[0] is b[0] for a, b in zip(got, got[1:])
                   if a[0] == b[0])

    def test_estimate_zeta_bit_identical(self, shape):
        rng = np.random.default_rng(shape[1])
        grads = rng.normal(size=shape)
        grads[rng.uniform(size=shape) < 0.2] = 0.0
        for beta2 in (0.999, 0.9, 0.0):
            assert estimate_zeta(grads, beta2) == \
                loop_estimate_zeta(grads, beta2)

    def test_estimate_zeta_inf_in_last_block(self, shape):
        grads = np.ones(shape)
        grads[-1, -1] = 0.0
        assert estimate_zeta(grads, 0.0) == loop_estimate_zeta(grads, 0.0)
        assert estimate_zeta(grads, 0.0) == math.inf

    def test_eta_bound_check(self, shape):
        rng = np.random.default_rng(7)
        r_l, rho = 0.01, 0.9
        cap = 1.0 / (r_l * (1.0 - rho))
        rows = rng.uniform(1.0 / cap, 1.0, size=shape)
        assert eta_bound_check(rows, r_l, rho) is True
        for value in (0.5 / cap, 0.0, -1.0):
            bad = rows.copy()
            bad[-1, -1] = value
            assert eta_bound_check(bad, r_l, rho) is \
                loop_eta_bound_check(bad, r_l, rho) is False


class TestCheckC2:
    def test_constant_series_clean(self):
        rows = [np.array([0.3, 0.7])] * 10
        assert check_c2(rows) == []

    def test_doubling_rate_violates_at_t2(self):
        # sqrt(2)/(2 eta) < 1/eta, so t=2 must be flagged
        rows = [np.array([0.1]), np.array([0.2]), np.array([0.4])]
        violations = check_c2(rows)
        assert (2, 0) in violations and (3, 0) in violations

    def test_tolerance_absorbs_rounding(self):
        base = np.array([0.5])
        rows = [base, base * (1 + 1e-14)]
        assert check_c2(rows) == []

    @pytest.mark.parametrize("block", [1, 3, 40])
    def test_streamed_blocks_match_the_whole_array(self, block):
        rng = np.random.default_rng(block)
        rows = 10.0 ** rng.uniform(-3, 1, size=(37, 4))
        monitor = C2Monitor()
        for lo in range(0, len(rows), block):
            monitor.update(rows[lo:lo + block, None])
        expected = loop_check_c2(list(rows))
        assert check_c2(rows) == expected
        assert monitor.count.tolist() == [len(expected)]
        assert monitor.first == [expected[0]]

    @pytest.mark.parametrize("block", [1, 4, 6])
    def test_replicas_first_violations_in_different_blocks(self, block):
        # replica 0 first violates at step 3, replica 1 at step 8 in its
        # coordinate 2, replica 2 never; the blocks are fed step by step
        # or four or six steps at a time
        rows = np.full((12, 3, 4), 0.5)
        rows[2:, 0, 1] = 1.0
        rows[7:, 1, 2] = 2.0
        rows[9:, 1, 0] = 4.0
        monitor = C2Monitor(3)
        masks = [monitor.update(rows[lo:lo + block])
                 for lo in range(0, len(rows), block)]
        assert np.concatenate(masks).shape == rows.shape
        for r in range(3):
            expected = loop_check_c2(list(rows[:, r]))
            assert monitor.count[r] == len(expected)
            assert monitor.first[r] == (expected[0] if expected else None)
        assert monitor.first == [(3, 1), (8, 2), None]
        assert isinstance(monitor.first[0][0], int)

    def test_reported_not_asserted_on_sqrt_decay_run(self):
        # a real run may or may not violate; the monitor only reports
        sched = TransitionSchedule(horizon=50, r_l=0.05, r_u=0.5)
        opt = DstAdam(1, sched, StepConfig(alpha=0.001, sqrt_decay=True))
        rng = np.random.default_rng(1)
        theta, rows = np.array([0.3]), []
        for _ in range(50):
            theta = opt.step(theta, rng.normal(size=1))
            rows.append(opt.rate_raw())
        violations = check_c2(rows)
        assert isinstance(violations, list)


class TestEstimateZeta:
    def test_single_step_constant_beta2(self):
        # LHS = sqrt(1 - beta2) |g|, so zeta = 1/sqrt(0.001) = 31.6228
        zeta = estimate_zeta(np.array([[0.7]]), 0.999)
        assert zeta == pytest.approx(1.0 / math.sqrt(0.001), rel=1e-12)
        assert zeta == pytest.approx(31.6228, abs=1e-4)

    def test_beta2_zero_finite_when_latest_nonzero(self):
        zeta = estimate_zeta(np.array([[0.5], [2.0]]), 0.0)
        assert math.isfinite(zeta)

    def test_beta2_zero_infinite_when_latest_vanishes(self):
        assert estimate_zeta(np.array([[1.0], [0.0]]), 0.0) == math.inf

    def test_all_zero_history_absent(self):
        assert estimate_zeta(np.zeros((5, 2)), 0.999) is None

    def test_plugging_zeta_back_makes_condition_hold(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(40, 3))
        zeta = estimate_zeta(grads, 0.999)
        v = np.zeros(3)
        raw = np.zeros(3)
        tightest = math.inf
        for k in range(40):
            v = 0.999 * v + 0.001 * grads[k] ** 2
            raw += grads[k] ** 2
            lhs = np.sqrt((k + 1) * v)
            rhs = np.sqrt(raw) / zeta
            assert np.all(lhs >= rhs - 1e-12)
            tightest = min(tightest, float(np.min(lhs - rhs)))
        assert tightest == pytest.approx(0.0, abs=1e-10)


class TestEtaBoundCheck:
    def test_holds_for_blended_rates(self):
        # rho=0.5, r_l=1: every rate >= 0.5 so 1/rate <= 2
        rates = [np.array([0.5 * x + 0.5 * 1.0]) for x in (0.0, 0.3, 7.0)]
        assert eta_bound_check(rates, r_l=1.0, rho=0.5)

    def test_fabricated_violation(self):
        rates = [np.array([1.0]), np.array([1.0 * (1 - 0.5) / 2])]
        assert not eta_bound_check(rates, r_l=1.0, rho=0.5)

    def test_every_valid_dstadam_run_passes(self):
        for seed in range(5):
            sched = TransitionSchedule(horizon=120, r_l=0.01, r_u=1.0,
                                       rho=0.95)
            opt = DstAdam(2, sched, StepConfig(alpha=0.001))
            rng = np.random.default_rng(seed)
            theta, rows = rng.uniform(-1, 1, size=2), []
            for _ in range(120):
                theta = opt.step(theta, rng.normal(size=2))
                rows.append(opt.rate_raw())
            assert eta_bound_check(rows, r_l=0.01, rho=0.95)


class TestRunMonitorFlush:
    """A lone run's flush of three steps at d = 2, the rate of step 2,
    coordinate 1 replaced."""

    @staticmethod
    def flush(rate):
        monitor = diagnostics.RunMonitor(2, 3, 1, [FeasibleBox.unbounded(2)],
                                         [None], [False])
        grads, rates, thetas = monitor.buffers
        grads[:3] = 0.5
        rates[:3] = 0.1
        rates[1, 0, 1] = rate
        thetas[:3] = 0.0
        monitor.flush(3)
        return monitor

    def test_a_subnormal_rate_makes_the_inverse_rate_max_inf(self):
        # 1/1e-310 overflows to +inf; the rate is positive, so no raise
        monitor = self.flush(1e-310)
        assert monitor.inverse_rate.max.tolist() == [math.inf]
        assert monitor.rate_summary[0, 1].tolist() == [1e-310, 0.05, 0.1]

    def test_a_zero_rate_names_step_and_coordinate(self):
        with pytest.raises(DomainError) as err:
            self.flush(0.0)
        assert str(err.value).startswith(
            "raw rate 0.0 at step 2, coordinate 1: a rate must stay positive")
        assert err.value.replica == 0


def reference_params(**overrides):
    base = dict(d_inf=2.0, g_inf=1.0, beta1=0.9, rho=0.99, r_l=0.005,
                r_u=5.0, alpha=0.001, lam=0.5)
    base.update(overrides)
    return TheoryParams(**base)


class TestCorollaryBounds:
    def test_zero_gradients_leave_first_two_terms(self):
        params = reference_params()
        grads = np.zeros((10, 2))
        rate = np.array([0.04, 0.02])
        bound = bound_corollary1(grads, rate, params, zeta=None)
        term1 = (math.sqrt(10) * 4.0 / (2 * 0.1)) * (1 / 0.04 + 1 / 0.02)
        term2 = 2 * 4.0 / (2 * 0.005 * 0.01 * 0.25 * 0.1)
        assert bound == pytest.approx(term1 + term2, rel=1e-12)
        assert bound >= 0.0

    def test_single_step_closed_form(self):
        # hand evaluation of all four terms at T=1, d=1
        g, rate = 0.8, 0.03
        zeta = 2.5
        params = reference_params()
        bound = bound_corollary1(np.array([[g]]), np.array([rate]), params,
                                 zeta)
        one_minus = 0.1
        term1 = (1.0 * 4.0 / (2 * one_minus)) / rate
        term2 = 4.0 / (2 * 0.005 * (1 - 0.99) * (1 - 0.5) ** 2 * one_minus)
        term3 = 2 * 0.001 * 0.99 * zeta / one_minus ** 3 * g
        term4 = 5.0 * math.sqrt(1 + math.log(1)) / one_minus ** 3 * g ** 2
        assert bound == pytest.approx(term1 + term2 + term3 + term4,
                                      rel=1e-12)

    def test_corollary2_single_step_closed_form(self):
        g, rate = 0.8, 0.03
        zeta = 2.5
        params = reference_params(lam=None)
        bound = bound_corollary2(np.array([[g]]), np.array([rate]), params,
                                 zeta)
        one_minus = 0.1
        term1 = (1.0 * 4.0 / (2 * one_minus)) / rate
        term2 = 4.0 * 1.0 / (0.005 * (1 - 0.99) * one_minus)
        term3 = 2 * 0.001 * 0.99 * zeta / one_minus ** 3 * g
        term4 = 5.0 * 1.0 / one_minus ** 3 * g ** 2
        assert bound == pytest.approx(term1 + term2 + term3 + term4,
                                      rel=1e-12)

    def test_absent_zeta_with_nonzero_gradients(self):
        params = reference_params()
        grads = np.ones((4, 1))
        assert bound_corollary1(grads, np.array([0.1]), params, None) is None

    def test_prefix_evaluations_nondecreasing(self):
        sched = TransitionSchedule(horizon=60, r_l=0.05, r_u=1.0, rho=0.97)
        opt = DstAdam(2, sched, StepConfig(alpha=0.001, sqrt_decay=True))
        rng = np.random.default_rng(4)
        theta = rng.uniform(-1, 1, size=2)
        grads, rates = [], []
        for t in range(1, 61):
            g = rng.normal(size=2)
            theta = opt.step(theta, g)
            grads.append(g)
            rates.append(opt.rate_raw())
        grads = np.array(grads)
        params = reference_params(rho=0.97, r_l=0.05, r_u=1.0)
        previous = -math.inf
        for k in (1, 5, 20, 40, 60):
            zeta = estimate_zeta(grads[:k], 0.999)
            bound = bound_corollary1(grads[:k], rates[k - 1], params, zeta)
            assert bound >= previous
            previous = bound


class TestLemmaA1:
    def test_single_term(self):
        assert lemma_a1_holds([1.0])

    def test_four_ones_hand_value(self):
        # LHS = 1 + 1/sqrt(2) + 1/sqrt(3) + 1/2 ~= 2.7845 <= 4
        a = [1.0, 1.0, 1.0, 1.0]
        lhs = 1 + 1 / math.sqrt(2) + 1 / math.sqrt(3) + 0.5
        assert lhs == pytest.approx(2.7845, abs=1e-4)
        assert lemma_a1_holds(a)

    def test_leading_zeros_contribute_nothing(self):
        assert lemma_a1_holds([0.0, 0.0, 4.0, 1.0])

    def test_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            a = rng.uniform(0, 10, size=n)
            assert lemma_a1_holds(a)

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            lemma_a1_holds([1.0, -0.5])


class TestConditionReport:
    def test_all_hypotheses_requires_every_flag(self):
        report = ConditionReport(rho_bounded=True, r_ordered=True,
                                 beta1_bounded=True, grad_bound_ok=True,
                                 diameter_ok=True)
        assert report.all_hypotheses_hold
        report.grad_bound_ok = False
        assert not report.all_hypotheses_hold
        report.grad_bound_ok = None
        assert not report.all_hypotheses_hold

    def test_csv_round_trip_values(self, tmp_path):
        report = ConditionReport(zeta_min=31.6, c2_violation_count=1,
                                 c2_first_violation=(2, 0),
                                 rho_bounded=True, r_ordered=True,
                                 beta1_bounded=True, grad_bound_ok=False,
                                 diameter_ok=None, eta_inverse_bounded=True)
        path = tmp_path / "conditions.csv"
        report.to_csv(path)
        text = path.read_text()
        assert "zeta_min,31.6" in text
        assert "c2_violation_count,1" in text
        assert "grad_bound_ok,false" in text
        assert "diameter_ok,absent" in text
