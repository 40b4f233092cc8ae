import math
from pathlib import Path

import numpy as np
import pytest

from transopt import problems as problems_module
from transopt.diagnostics import buffer_rows
from transopt.errors import DimensionError, DomainError, SequenceError
from transopt.optim import FeasibleBox
from transopt.problems import (LogisticMinibatch, Mlp, QuadraticTracking,
                               RegretLedger, full_logistic_grad,
                               logistic_comparator, make_logistic,
                               make_mlp_problem, make_quadratic, make_reddi,
                               stack_problems, two_cluster_dataset)

DATA = Path(__file__).parent / "data"

#: Recorded at build time from a reference forward pass (net (2,3,2),
#: init seed 7, the four fixed points below).
GOLDEN_TINY_NET_LOSS = 0.86597312205458088


def single_draw(dim, horizon, seed):
    """The centers make_quadratic streams, drawn as one (T, d) array."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0,
                                               size=(horizon, dim))


def directional_fd(problem, t, theta, direction, h=1e-6):
    up = problem.loss_at(t, theta + h * direction)
    down = problem.loss_at(t, theta - h * direction)
    return (up - down) / (2 * h)


class TestQuadratic:
    def test_common_minimizer_at_zero(self):
        prob = QuadraticTracking(np.zeros((5, 3)), FeasibleBox.cube(1.0, 3))
        np.testing.assert_array_equal(prob.theta_star, np.zeros(3))
        assert prob.star_loss_at(2) == 0.0

    def test_alternating_centers_cancel(self):
        centers = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        prob = QuadraticTracking(centers, FeasibleBox.cube(2.0, 1))
        assert prob.theta_star[0] == 0.0

    def test_three_center_closed_form(self):
        # minimize sum of 0.5 (theta - c)^2 over {1, 1, 0}: mean = 2/3
        centers = np.array([[1.0], [1.0], [0.0]])
        prob = QuadraticTracking(centers, FeasibleBox.cube(2.0, 1))
        assert prob.theta_star[0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        prob = make_quadratic(4, horizon=20, seed=5)
        rng = np.random.default_rng(0)
        for t in (1, 7, 20):
            theta = rng.uniform(-1, 1, size=4)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            fd = directional_fd(prob, t, theta, u)
            assert fd == pytest.approx(float(prob.grad_at(t, theta) @ u),
                                       rel=1e-5)

    def test_convexity_midpoint_inequality(self):
        prob = make_quadratic(3, horizon=10, seed=1)
        rng = np.random.default_rng(2)
        for t in range(1, 11):
            a = rng.uniform(-2, 2, size=3)
            b = rng.uniform(-2, 2, size=3)
            mid = prob.loss_at(t, (a + b) / 2)
            assert mid <= (prob.loss_at(t, a) + prob.loss_at(t, b)) / 2 + 1e-12

    def test_gradient_bound_audit(self):
        prob = make_quadratic(3, horizon=50, seed=9)
        rng = np.random.default_rng(3)
        for t in range(1, 51):
            theta = prob.box.project(rng.uniform(-3, 3, size=3))
            assert np.max(np.abs(prob.grad_at(t, theta))) <= prob.grad_bound + 1e-12


class TestReddi:
    def test_cycle_sums_to_linear_loss(self):
        prob = make_reddi(c=3.0)
        theta = np.array([0.4])
        total = sum(prob.loss_at(t, theta) for t in (1, 2, 3))
        assert total == pytest.approx((3.0 - 2.0) * 0.4, rel=1e-12)

    def test_comparator_at_lower_endpoint(self):
        assert make_reddi(c=3.0).theta_star[0] == -1.0

    def test_slope_pattern(self):
        prob = make_reddi(c=4.0)
        slopes = [prob.grad_at(t, np.zeros(1))[0] for t in range(1, 8)]
        assert slopes == [4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0]

    def test_degenerate_construction_rejected(self):
        with pytest.raises(DomainError):
            make_reddi(c=1.0)

    def test_nan_slope_rejected(self):
        with pytest.raises(DomainError, match="needs C > 1, got C=nan"):
            make_reddi(c=math.nan)

    def test_gradient_bound(self):
        assert make_reddi(c=3.0).grad_bound == 3.0


class TestLogistic:
    def test_zero_weights_give_log_two(self):
        prob = make_logistic(64, 4, seed=0, batch_size=16)
        assert prob.loss_at(1, np.zeros(4)) == pytest.approx(math.log(2),
                                                             rel=1e-12)

    def test_separable_all_positive_pushes_to_boundary(self):
        rng = np.random.default_rng(11)
        features = np.column_stack([np.ones(40),
                                    rng.normal(scale=0.1, size=40)])
        labels = np.ones(40)
        prob = LogisticMinibatch(features, labels, batch_size=10, seed=0,
                                 box=FeasibleBox.cube(5.0, 2))
        assert prob.theta_star[0] == pytest.approx(5.0, abs=1e-9)

    def test_golden_comparator_reproduced(self):
        prob = make_logistic(200, 5, seed=42)
        golden = np.loadtxt(DATA / "logistic_n200_d5_seed42_theta_star.csv",
                            delimiter=",", skiprows=1)
        np.testing.assert_allclose(prob.theta_star, golden, atol=1e-9)

    def test_golden_dataset_reproduced(self):
        prob = make_logistic(200, 5, seed=42)
        # feature columns, then an integer label in {0, 1}
        data = np.loadtxt(DATA / "logistic_n200_d5_seed42.csv",
                          delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, :-1], prob.features, rtol=0,
                                   atol=0)
        np.testing.assert_array_equal(data[:, -1] == 1, prob.labels > 0)

    def test_comparator_gradient_is_tiny(self):
        prob = make_logistic(200, 5, seed=42)
        grad = full_logistic_grad(prob.theta_star, prob.features, prob.labels)
        assert np.max(np.abs(grad)) < 1e-8

    def test_gradient_matches_finite_differences(self):
        prob = make_logistic(96, 3, seed=4, batch_size=32)
        rng = np.random.default_rng(5)
        for t in (1, 2, 5):
            theta = rng.uniform(-1, 1, size=3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            fd = directional_fd(prob, t, theta, u)
            assert fd == pytest.approx(float(prob.grad_at(t, theta) @ u),
                                       rel=1e-5)

    def test_oracles_pure_and_epochs_partition(self):
        prob = make_logistic(50, 2, seed=8, batch_size=16)
        theta = np.array([0.3, -0.2])
        assert prob.loss_at(3, theta) == prob.loss_at(3, theta)
        for epoch in range(3):
            seen = np.concatenate([
                prob.batch_indices(epoch * prob.batches_per_epoch + s + 1)
                for s in range(prob.batches_per_epoch)])
            assert sorted(seen.tolist()) == list(range(50))

    def test_permutation_cache_keeps_only_current_epoch(self):
        prob = make_logistic(50, 2, seed=8, batch_size=16)
        first = prob.batch_indices(1).copy()
        for t in range(1, 50 * prob.batches_per_epoch + 1):
            prob.batch_indices(t)
            assert len(prob._orders) == 1
        # an evicted epoch is recomputed to the same order
        np.testing.assert_array_equal(prob.batch_indices(1), first)

    def test_training_set_size_is_public(self):
        assert make_logistic(50, 2, seed=8, batch_size=16).n_train == 50
        assert make_mlp_problem(1, n_train=40, n_test=8,
                                batch_size=8).n_train == 40
        assert make_quadratic(2, 5, seed=1).n_train is None
        assert make_reddi().n_train is None

    def test_convexity_midpoint_inequality(self):
        prob = make_logistic(64, 3, seed=6, batch_size=16)
        rng = np.random.default_rng(7)
        for t in range(1, 9):
            a = rng.uniform(-2, 2, size=3)
            b = rng.uniform(-2, 2, size=3)
            mid = prob.loss_at(t, (a + b) / 2)
            assert mid <= (prob.loss_at(t, a) + prob.loss_at(t, b)) / 2 + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_named_where_it_enters(self, bad):
        features = np.ones((6, 3))
        features[4, 1] = bad
        with pytest.raises(DomainError) as err:
            LogisticMinibatch(features, np.ones(6), batch_size=2, seed=0,
                              box=FeasibleBox.cube(1.0, 3))
        assert str(err.value) == \
            f"features: {bad} at row 4, column 1 is not finite"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_the_comparator_names_a_non_finite_feature(self, bad):
        features = np.random.default_rng(2).normal(size=(20, 3))
        features[7, 2] = bad
        with pytest.raises(DomainError) as err:
            logistic_comparator(features, np.ones(20), FeasibleBox.cube(1.0, 3))
        assert str(err.value) == \
            f"features: {bad} at row 7, column 2 is not finite"

    def test_declared_gradient_bound_holds(self):
        prob = make_logistic(80, 4, seed=9, batch_size=20)
        rng = np.random.default_rng(10)
        for t in range(1, 13):
            theta = prob.box.project(rng.uniform(-5, 5, size=4))
            assert np.max(np.abs(prob.grad_at(t, theta))) <= prob.grad_bound + 1e-12


class TestRegretLedger:
    def test_single_step(self):
        ledger = RegretLedger()
        ledger.update(1, 1.0, 0.25)
        assert ledger.regret == pytest.approx(0.75, rel=1e-15)

    def test_quadratic_trajectory_arithmetic(self):
        # f(theta) = theta^2, comparator loss 0, iterates 1, 1/2, 1/3
        ledger = RegretLedger()
        for t, theta in enumerate([1.0, 0.5, 1.0 / 3.0], start=1):
            ledger.update(t, theta ** 2, 0.0)
        assert ledger.regret == pytest.approx(49.0 / 36.0, rel=1e-12)

    def test_identical_losses_zero_regret(self):
        ledger = RegretLedger()
        for t in range(1, 6):
            ledger.update(t, 0.7, 0.7)
        assert all(r == 0.0 for _, r in ledger.series)

    def test_non_monotone_step_rejected(self):
        ledger = RegretLedger()
        ledger.update(1, 1.0, 0.0)
        ledger.update(2, 1.0, 0.0)
        with pytest.raises(SequenceError):
            ledger.update(2, 1.0, 0.0)

    def test_incremental_matches_recomputation(self):
        rng = np.random.default_rng(12)
        alg = rng.uniform(0, 2, size=200)
        star = rng.uniform(0, 1, size=200)
        ledger = RegretLedger()
        for t in range(1, 201):
            ledger.update(t, alg[t - 1], star[t - 1])
        for t, r in ledger.series[::37]:
            assert r == pytest.approx(np.sum(alg[:t] - star[:t]), abs=1e-12)


class TestMlp:
    def fixed_batch(self):
        x = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0], [0.0, -0.5]])
        y = np.array([0, 1, 1, 0])
        return x, y

    def test_zero_weights_uniform_softmax(self):
        net = Mlp((2, 3, 2))
        x, y = self.fixed_batch()
        loss, _ = net.forward(np.zeros(net.n_params), x, y)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_saturated_correct_class_drives_loss_to_zero(self):
        net = Mlp((2, 2))
        theta = np.zeros(net.n_params)
        theta[0] = 30.0   # w[0,0]
        theta[3] = 30.0   # w[1,1]
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        loss, _ = net.forward(theta, x, y)
        assert loss < 1e-10

    def test_golden_forward_value(self):
        net = Mlp((2, 3, 2))
        theta = net.init_params(seed=7)
        x, y = self.fixed_batch()
        loss, _ = net.forward(theta, x, y)
        assert loss == pytest.approx(GOLDEN_TINY_NET_LOSS, rel=1e-14)

    def test_softmax_rows_sum_to_one(self):
        net = Mlp((2, 3, 2))
        theta = net.init_params(seed=7)
        x, y = self.fixed_batch()
        _, logits = net.forward(theta, x, y)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = shifted / shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_backward_matches_central_differences(self):
        net = Mlp((2, 4, 3, 2))
        x, y = self.fixed_batch()
        rng = np.random.default_rng(20)
        for _ in range(3):
            theta = rng.normal(scale=0.7, size=net.n_params)
            grad = net.backward(theta, x, y)
            fd = np.zeros_like(theta)
            for i in range(len(theta)):
                h = 1e-5 * (1 + abs(theta[i]))
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (net.forward(up, x, y)[0]
                         - net.forward(down, x, y)[0]) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
            assert rel < 1e-5

    def test_duplicated_batch_keeps_mean_gradient(self):
        net = Mlp((2, 3, 2))
        theta = net.init_params(seed=3)
        x, y = self.fixed_batch()
        g1 = net.backward(theta, x, y)
        g2 = net.backward(theta, np.concatenate([x, x]),
                          np.concatenate([y, y]))
        np.testing.assert_allclose(g2, g1, rtol=1e-12)

    def test_gradient_vanishes_at_converged_minimum(self):
        # one linear layer on slightly overlapping data has a strict
        # finite minimum; descend to it and check backward is ~zero there
        net = Mlp((2, 2))
        x = np.array([[1.0, 0.2], [0.9, -0.1], [-1.0, 0.1], [-0.8, -0.3],
                      [1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 0, 1, 1, 1, 0])   # two flipped points: no separation
        theta = np.zeros(net.n_params)
        for _ in range(20000):
            theta = theta - 0.5 * net.backward(theta, x, y)
        assert np.linalg.norm(net.backward(theta, x, y)) < 1e-6


class TestMlpProblem:
    def test_dataset_deterministic(self):
        x1, y1 = two_cluster_dataset(64, seed=5)
        x2, y2 = two_cluster_dataset(64, seed=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_problem_shapes_and_batching(self):
        prob = make_mlp_problem(seed=3, hidden=(4,), n_train=20, n_test=10,
                                batch_size=8)
        assert prob.dim == prob.net.n_params
        assert prob.batches_per_epoch == 3
        theta = prob.initial_point(3)
        loss = prob.loss_at(1, theta)
        assert math.isfinite(loss)
        grad = prob.grad_at(1, theta)
        assert grad.shape == (prob.dim,)
        assert 0.0 <= prob.test_accuracy(theta) <= 1.0


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    """_sigmoid equals the boolean-mask reference bit for bit."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
               1e-320, -1e-320, 5e-324, -5e-324, 709.78, -709.78]

    def assert_bits(self, z):
        np.testing.assert_array_equal(
            problems_module._sigmoid(z).view(np.int64),
            reference_sigmoid(z).view(np.int64))

    def test_special_values(self):
        self.assert_bits(np.array(self.SPECIAL))

    def test_random_arrays_with_special_values(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = rng.normal(scale=10.0 ** rng.uniform(-3, 3),
                           size=rng.integers(1, 70))
            spots = rng.integers(0, len(z), size=3)
            z[spots] = rng.choice(self.SPECIAL, size=3)
            self.assert_bits(z)
        self.assert_bits(rng.normal(scale=5.0, size=(8, 32)))

    def test_nan_gives_nan(self):
        out = problems_module._sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == reference_sigmoid(np.array([1.0]))[0]


def reference_mlp(net, theta, x, y):
    """Loss, logits and gradient from the per-row reductions and the
    fancy-index label entries that the column folds replaced."""
    x = np.asarray(x, dtype=np.float64)
    layers = net._unpack(np.asarray(theta, dtype=np.float64))
    activations = [x]
    h = x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
        activations.append(h)
    w_out, b_out = layers[-1]
    logits = h @ w_out + b_out
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    entries = np.arange(y.size), y.ravel()
    picked = log_probs.reshape(-1, log_probs.shape[-1])[entries]
    loss = -np.mean(picked.reshape(y.shape), axis=-1)
    delta = np.exp(log_probs)
    delta.reshape(-1, delta.shape[-1])[entries] -= 1.0
    delta /= y.shape[-1]
    grads = []
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        grads.append((activations[i].mT @ delta, delta.sum(axis=-2)))
        if i > 0:
            delta = (delta @ w.mT) * (activations[i] > 0.0)
    flat = []
    for gw, gb in reversed(grads):
        flat.append(gw.reshape(delta.shape[:-2] + (-1,)))
        flat.append(gb)
    return loss, logits, np.concatenate(flat, axis=-1)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestMlpOracleBits:
    """The MLP oracle's column folds, one-hot delta and in-place forward
    give the reference's loss, logits and gradient bit for bit."""

    SCALES = (0.1, 1.0, 10.0, 1e3)

    def assert_reference(self, net, theta, x, y):
        want = reference_mlp(net, theta, x, y)
        loss, grad = net.loss_and_grad(theta, x, y)
        assert_same_bits(loss, want[0])
        assert_same_bits(grad, want[2])
        loss, logits = net.forward(theta, x, y)
        assert_same_bits(loss, want[0])
        assert_same_bits(logits, want[1])
        return want

    def assert_step(self, prob, t, theta):
        """The problem's oracle at step t, whose batch it gathers with
        np.take, against the reference on a fancy-indexed batch."""
        idx = prob.batch_indices(t)
        want_loss, want_logits, want_grad = self.assert_reference(
            prob.net, theta, prob.x_train[idx], prob.y_train[idx])
        loss, grad = prob.loss_and_grad(t, theta)
        assert_same_bits(loss, want_loss)
        assert_same_bits(grad, want_grad)
        return want_logits

    def thetas(self, shape, seed):
        rng = np.random.default_rng(seed)
        yield np.zeros(shape)
        for scale in self.SCALES:
            yield rng.normal(scale=scale, size=shape)

    @pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
    def test_lone_problem(self, hidden):
        prob = make_mlp_problem(seed=3, hidden=hidden, n_train=40, n_test=8,
                                batch_size=16)
        saturated = False
        for theta in self.thetas(prob.dim, seed=len(hidden)):
            for t in (1, prob.batches_per_epoch + 1):
                logits = self.assert_step(prob, t, theta)
                # a row whose other class underflows exp: log-sum exactly 0
                saturated |= bool(np.any(np.ptp(logits, axis=-1) > 800.0))
        assert saturated

    @pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
    @pytest.mark.parametrize("seeds", [(6, 6, 6, 6), (1, 2, 7)])
    def test_stacked_problems(self, hidden, seeds):
        problems = [make_mlp_problem(seed=s, hidden=hidden, n_train=40,
                                     n_test=8, batch_size=16) for s in seeds]
        stacked = stack_problems(problems)
        for theta in self.thetas(stacked.shape, seed=len(seeds)):
            for t in (1, 2 * problems[0].batches_per_epoch + 1):
                self.assert_step(stacked, t, theta)

    @pytest.mark.parametrize("classes", range(1, Mlp.MAX_CLASSES + 1))
    def test_every_allowed_head_width(self, classes):
        net = Mlp((3, 4, classes))
        rng = np.random.default_rng(classes)
        x = rng.normal(size=(3, 21, 3))
        y = rng.integers(0, classes, size=(3, 21))
        for theta in self.thetas((3, net.n_params), seed=classes):
            self.assert_reference(net, theta, x, y)
            self.assert_reference(net, theta[0], x[0], y[0])

    def test_a_head_wider_than_the_fold_limit_is_rejected(self):
        with pytest.raises(DimensionError, match="at most 7"):
            Mlp((2, 4, 8))


class TestFusedOracle:
    """loss_and_grad equals the separate loss_at and gradient bit for bit.

    The reference gradients are the expressions of the separate
    gradient oracles that loss_and_grad replaced.
    """

    def assert_fused(self, prob, t, theta, ref_grad):
        loss, grad = prob.loss_and_grad(t, theta)
        assert loss == prob.loss_at(t, theta)
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(prob.grad_at(t, theta), ref_grad)

    def test_quadratic(self):
        prob = make_quadratic(4, horizon=6, seed=2)
        theta = np.array([0.3, -1.2, 0.7, 1.9])
        for t in (1, 4, 6):
            self.assert_fused(prob, t, theta,
                              theta - single_draw(4, 6, seed=2)[t - 1])

    def test_reddi(self):
        prob = make_reddi(3.0)
        theta = np.array([0.4])
        for t in (1, 2, 3, 4):
            slope = prob.c if t % 3 == 1 else -1.0
            self.assert_fused(prob, t, theta, np.array([slope]))

    def test_logistic_across_an_epoch_boundary(self):
        prob = make_logistic(50, 3, seed=8, batch_size=16)
        theta = np.array([0.3, -0.2, 1.1])
        edge = prob.batches_per_epoch
        for t in (1, edge, edge + 1):
            idx = prob.batch_indices(t)
            x, y = prob.features[idx], prob.labels[idx]
            margins = y * (x @ theta)
            weights = -y * reference_sigmoid(-margins)
            self.assert_fused(prob, t, theta, x.T @ weights / len(y))

    def test_mlp_across_an_epoch_boundary(self):
        prob = make_mlp_problem(seed=3, hidden=(5, 4), n_train=40, n_test=8,
                                batch_size=16)
        theta = prob.initial_point(3)
        edge = prob.batches_per_epoch
        for t in (1, edge, edge + 1):
            idx = prob.batch_indices(t)
            x, y = prob.x_train[idx], prob.y_train[idx]
            ref = reference_mlp(prob.net, theta, x, y)[2]
            self.assert_fused(prob, t, theta, ref)
            loss, grad = prob.net.loss_and_grad(theta, x, y)
            assert loss == prob.net.forward(theta, x, y)[0]
            np.testing.assert_array_equal(grad, ref)
            np.testing.assert_array_equal(prob.net.backward(theta, x, y), ref)


def block_losses(prob, horizon, rows):
    """The comparator's losses at steps 1 .. horizon from ``block``, loaded
    ``rows`` steps at a time as the step loop loads its buffers."""
    out = np.empty(prob.shape[:-1] + (horizon,))
    for t0 in range(0, horizon, rows):
        n = min(rows, horizon - t0)
        out[..., t0:t0 + n] = prob.block(t0, n)
    return out


class TestStarLosses:
    """The comparator's losses that ``block`` returns equal star_loss_at
    at every step, bit for bit, in blocks of one step, of seven, of the
    step loop's buffer and of the whole horizon."""

    def assert_per_step(self, problems, horizon):
        # one problem alone, or the rows of several stacked
        prob = stack_problems(problems)
        want = [[p.star_loss_at(t) for t in range(1, horizon + 1)]
                for p in problems]
        for rows in (1, 7, buffer_rows(horizon, math.prod(prob.shape)),
                     horizon):
            got = block_losses(prob, horizon, rows)
            assert got.shape == prob.shape[:-1] + (horizon,)
            np.testing.assert_array_equal(
                bits(got.reshape(len(problems), horizon)), bits(want))

    @pytest.mark.parametrize("dim", [1, 3, 10, 1100])
    def test_quadratic_across_block_boundaries(self, dim):
        # two full blocks of a long run's rows and part of a third
        horizon = 2 * buffer_rows(10 ** 6, dim) + 5
        prob = make_quadratic(dim, horizon, seed=dim)
        assert buffer_rows(horizon, dim) < horizon / 2
        self.assert_per_step([prob], horizon)
        self.assert_per_step([prob], horizon - 1)

    def test_quadratic_past_its_horizon(self):
        with pytest.raises(DomainError, match=(
                "^step 6 outside the problem horizon 5$")):
            make_quadratic(2, 5, seed=1).block(5, 1)

    def test_reddi(self):
        self.assert_per_step([make_reddi(3.5)], 100)

    def test_logistic(self):
        prob = make_logistic(50, 3, seed=8, batch_size=16)
        self.assert_per_step([prob], 3 * prob.batches_per_epoch + 1)

    @pytest.mark.parametrize("n, batch", [(96, 32), (100, 32), (200, 7)])
    def test_logistic_epochs_with_a_partial_last_batch(self, n, batch):
        prob = make_logistic(n, 3, seed=n + batch, batch_size=batch)
        per_epoch = prob.batches_per_epoch
        # ends inside an epoch's full batches, on its partial last batch
        # (where there is one) and just after an epoch boundary
        for horizon in (per_epoch + 2, 3 * per_epoch, 2 * per_epoch + 1):
            self.assert_per_step([prob], horizon)

    @pytest.mark.parametrize("kind", ["quadratic-d1", "quadratic-d3",
                                      "reddi", "logistic"])
    def test_stacked_replicas_with_a_shared_seed(self, kind):
        # replicas 0 and 2 share their data
        seeds = (4, 9, 4)
        if kind.startswith("quadratic"):
            # d = 1 holds its centers, d = 3 streams them; the step loop's
            # buffer splits the horizon in three
            dim = int(kind[-1])
            horizon = 2 * buffer_rows(10 ** 6, 3 * dim) + 5
            problems = [make_quadratic(dim, horizon, seed=s) for s in seeds]
        elif kind == "reddi":
            horizon, problems = 100, [make_reddi(float(s)) for s in seeds]
        else:
            # epochs of three full batches of 32 and a partial one of 4
            problems = [make_logistic(100, 3, seed=s, batch_size=32)
                        for s in seeds]
            horizon = 3 * problems[0].batches_per_epoch + 1
        self.assert_per_step(problems, horizon)

    def test_no_comparator(self):
        prob = make_mlp_problem(seed=3, hidden=(4,), n_train=16, n_test=8,
                                batch_size=8)
        assert prob.block(0, 2) is None
        with pytest.raises(DomainError, match="no comparator"):
            prob.star_loss_at(2)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestStreamedQuadratic:
    """make_quadratic streams its centers a block at a time; every value
    it gives equals the problem on one (T, d) draw, bit for bit."""

    @staticmethod
    def horizon(dim):
        # two build blocks and part of a third (a block of the step loop
        # is at most 528 rows, so those end inside the horizon too)
        return 2 * max(1, problems_module.BUILD_ELEMENTS // dim) + 7

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 200])
    def test_build_pass_and_comparator_losses(self, dim):
        horizon = self.horizon(dim)
        streamed = make_quadratic(dim, horizon, seed=dim)
        whole = QuadraticTracking(single_draw(dim, horizon, seed=dim),
                                  FeasibleBox.cube(2.0, dim))
        assert (dim == 1) == (streamed.centers is not None)
        np.testing.assert_array_equal(bits(streamed.theta_star),
                                      bits(whole.theta_star))
        assert bits(streamed.grad_bound) == bits(whole.grad_bound)
        for t in (horizon, horizon - 1):
            rows = buffer_rows(t, dim)
            np.testing.assert_array_equal(
                bits(block_losses(streamed, t, rows)),
                bits(block_losses(whole, t, rows)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 200])
    def test_stacked_oracle_either_side_of_a_block_boundary(self, dim):
        horizon = 2 * buffer_rows(10 ** 6, 3 * dim) + 5
        seeds = (4, 9, 4)
        streamed = stack_problems([make_quadratic(dim, horizon, seed=s)
                                   for s in seeds])
        whole = stack_problems([
            QuadraticTracking(single_draw(dim, horizon, seed=s),
                              FeasibleBox.cube(2.0, dim)) for s in seeds])
        rows = buffer_rows(horizon, 3 * dim)
        assert rows < horizon / 2
        theta = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, dim))
        # blocks loaded as the step loop loads them, then a step that
        # jumps back and one past the loaded block
        for t0 in range(0, horizon, rows):
            n = min(rows, horizon - t0)
            np.testing.assert_array_equal(bits(streamed.block(t0, n)),
                                          bits(whole.block(t0, n)))
            for t in (t0 + 1, t0 + n):
                for got, want in zip(streamed.loss_and_grad(t, theta),
                                     whole.loss_and_grad(t, theta)):
                    np.testing.assert_array_equal(bits(got), bits(want))
        for t in (rows, rows + 1, 2 * rows + 1, horizon):
            for got, want in zip(streamed.loss_and_grad(t, theta),
                                 whole.loss_and_grad(t, theta)):
                np.testing.assert_array_equal(bits(got), bits(want))

    def test_blocks_hold_the_loaded_steps_only(self):
        prob = make_quadratic(4, 1000, seed=3)
        assert prob.centers is None
        prob.block(200, 50)
        assert prob._centers.shape == (50, 4)
        prob.loss_and_grad(900, np.zeros(4))
        assert prob._centers.shape == (buffer_rows(101, 4), 4)
        with pytest.raises(DomainError,
                           match="step 1001 outside the problem horizon"):
            prob.loss_and_grad(1001, np.zeros(4))
        with pytest.raises(DomainError,
                           match="step 0 outside the problem horizon"):
            prob.loss_and_grad(0, np.zeros(4))


class TestStackedOracles:
    """Row r of a stacked oracle equals problem r's lone oracle bit for
    bit, each replica with its own data and its own epoch order."""

    def assert_rows(self, problems, horizon, theta):
        stacked = stack_problems(problems)
        assert stacked.shape == (len(problems), problems[0].dim)
        for t in range(1, horizon + 1):
            loss, grad = stacked.loss_and_grad(t, theta)
            assert loss.shape == (len(problems),)
            for r, prob in enumerate(problems):
                want_loss, want_grad = prob.loss_and_grad(t, theta[r])
                assert loss[r] == want_loss, (t, r)
                np.testing.assert_array_equal(grad[r], want_grad)

    def thetas(self, problems, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, size=(len(problems), problems[0].dim))

    def test_one_problem_is_itself(self):
        prob = make_quadratic(3, 5, seed=1)
        assert stack_problems([prob]) is prob

    def test_quadratic(self):
        problems = [make_quadratic(4, 9, seed=s, box_halfwidth=1.0 + s)
                    for s in range(3)]
        self.assert_rows(problems, 9, self.thetas(problems))

    def test_reddi_slopes_differ(self):
        problems = [make_reddi(c) for c in (3.0, 2.5, 4.0)]
        self.assert_rows(problems, 7, self.thetas(problems))

    def test_logistic_across_epochs_with_a_partial_batch(self):
        problems = [make_logistic(30, 3, seed=s, batch_size=8)
                    for s in (2, 5)]
        self.assert_rows(problems, 3 * problems[0].batches_per_epoch + 1,
                         self.thetas(problems))

    def test_mlp_across_epochs(self):
        problems = [make_mlp_problem(seed=s, hidden=(5, 4), n_train=40,
                                     n_test=8, batch_size=16)
                    for s in (1, 2, 7)]
        theta = np.stack([p.initial_point(s)
                          for s, p in zip((1, 2, 7), problems)])
        self.assert_rows(problems, 2 * problems[0].batches_per_epoch + 1,
                         theta)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_shared_seeds_build_one_permutation_per_epoch(self, kind,
                                                          monkeypatch):
        seeds = (5, 5, 3, 5)
        make = {"logistic": lambda s: make_logistic(30, 3, seed=s,
                                                    batch_size=8),
                "mlp": lambda s: make_mlp_problem(seed=s, hidden=(4,),
                                                  n_train=24, n_test=8,
                                                  batch_size=8)}[kind]
        problems = [make(s) for s in seeds]
        stacked = stack_problems(problems)
        calls = []
        order = problems_module._epoch_order
        monkeypatch.setattr(problems_module, "_epoch_order",
                            lambda *args: calls.append(args) or order(*args))
        n, per_epoch = problems[0].n_train, problems[0].batches_per_epoch
        for epoch in range(3):
            orders = stacked._epoch_orders(epoch)
            # replica r's order, shifted into its rows of the stacked data
            for r, prob in enumerate(problems):
                np.testing.assert_array_equal(
                    orders[r] - r * n, prob._epoch_orders(epoch))
        # two distinct seeds, so two permutations an epoch for the batch,
        # then one per lone problem
        assert [c[:2] for c in calls] == [
            args for epoch in range(3)
            for args in [(5, epoch), (3, epoch)] + [(s, epoch) for s in seeds]]
        self.assert_rows(problems, 2 * per_epoch + 1, self.thetas(problems))

    def test_unlike_problems_are_rejected(self):
        with pytest.raises(DomainError, match="cannot batch"):
            stack_problems([make_quadratic(3, 5, seed=1), make_reddi(3.0)])
        with pytest.raises(ValueError):
            stack_problems([make_quadratic(3, 5, seed=1),
                            make_quadratic(4, 5, seed=1)])


class TestLabelRange:
    """A class label outside [0, k) raises where the labels enter, naming
    the first bad row; a negative one used to pick a class from the
    end."""

    @pytest.mark.parametrize("bad", [-1, 2], ids=["minus-one", "k"])
    def test_forward(self, bad):
        net = Mlp((2, 3, 2))
        y = np.array([0, 1, bad, bad])
        with pytest.raises(DomainError) as err:
            net.forward(net.init_params(7), np.zeros((4, 2)), y)
        assert str(err.value) == \
            f"labels: label {bad} at row 2 lies outside [0, 2)"

    @pytest.mark.parametrize("bad", [-1, 2], ids=["minus-one", "k"])
    @pytest.mark.parametrize("split", ["y_train", "y_test"])
    def test_problem(self, bad, split):
        net = Mlp((2, 3, 2))
        x, y = two_cluster_dataset(8, seed=1)
        labels = {"y_train": y, "y_test": y.copy()}
        labels[split][5] = bad
        with pytest.raises(DomainError) as err:
            problems_module.MlpClassification(
                net, x, labels["y_train"], x, labels["y_test"],
                batch_size=4, seed=1)
        assert str(err.value) == \
            f"{split}: label {bad} at row 5 lies outside [0, 2)"
