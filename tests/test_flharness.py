"""Tests for the quadratic FL training harness and convergence bound."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedagg import mm_symmetric, model
from fedagg.flharness import (
    QuadraticTask,
    error_free_aggregator,
    fl_round,
    local_gradient,
    mbtc_aggregator,
    qsgd_aggregator,
    random_task,
    run_training,
    smoothness_constants,
    uniform_aggregator,
)
from fedagg.model import RateBudget
from oracles import absolute_loss, power_iteration_extremes, unrolled_bound


class TestTask:
    def test_theta_star_is_stationary(self):
        task = random_task(3, 8, samples_per_device=20, seed=0)
        g = sum(
            w * local_gradient(task.theta_star, task, m)
            for m, w in enumerate(task.weights)
        )
        assert np.abs(g).max() < 1e-10

    def test_loss_star_is_minimum(self):
        task = random_task(2, 5, samples_per_device=12, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = task.theta_star + 0.1 * rng.standard_normal(5)
            assert task.loss(theta) >= task.loss_star - 1e-12

    def test_weights_sum_to_one(self):
        task = random_task(4, 6, samples_per_device=9, seed=3)
        assert np.sum(task.weights) == pytest.approx(1.0)

    def test_smoothness_matches_power_iteration(self):
        task = random_task(3, 10, samples_per_device=25, seed=4)
        omega, big_omega = smoothness_constants(task)
        lo, hi = power_iteration_extremes(task.hessian)
        assert omega == pytest.approx(lo, rel=1e-6)
        assert big_omega == pytest.approx(hi, rel=1e-6)

    @pytest.mark.parametrize(
        "designs, targets, mu",
        [
            ((), (), 0.1),
            ((np.ones((2, 3)), np.zeros((0, 3))), (np.ones(2), np.zeros(0)), 0.1),
            ((np.array([[1.0, np.nan]]),), (np.ones(1),), 0.1),
            ((np.ones((2, 2)),), (np.array([1.0, np.inf]),), 0.1),
            ((np.ones((2, 2)),), (np.ones(2),), np.nan),
            ((np.ones((2, 2)),), (np.ones(2),), -0.5),
        ],
        ids=["no_device", "device_without_samples", "nan_design", "inf_target", "nan_mu", "negative_mu"],
    )
    def test_rejects_invalid_task(self, designs, targets, mu):
        # Each once failed later, or not at all: an IndexError, NaN weights or
        # gradients with a RuntimeWarning, or a LinAlgError in round 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                QuadraticTask(designs=designs, targets=targets, mu=mu)

    def test_designs_are_views_of_one_read_only_stack(self):
        task = QuadraticTask(designs=(np.ones((3, 2)), np.ones((1, 2))), targets=(np.ones(3), np.ones(1)))
        assert task.designs[1].base is task.designs[0].base
        assert task.designs[1].shape == (1, 2) and task.targets[1].shape == (1,)
        for a in (task.designs[0], task.targets[0], task.weights, task.sample_counts):
            assert not a.flags.writeable

    def test_rejects_nonconvex(self):
        task = QuadraticTask(
            designs=(np.zeros((3, 2)),), targets=(np.zeros(3),), mu=0.0
        )
        with pytest.raises(ValueError):
            smoothness_constants(task)


class TestLossGap:
    @settings(max_examples=200)
    @given(
        M=st.integers(1, 4),
        N=st.integers(1, 8),
        K=st.integers(1, 12),
        log_mu=st.floats(-4.0, 1.0),
        log_step=st.floats(-14.0, 4.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_quadratic_form_matches_loss_difference(self, M, N, K, log_mu, log_step, seed):
        task = random_task(M, N, samples_per_device=K, seed=seed, mu=10.0**log_mu)
        theta = task.theta_star + 10.0**log_step * np.random.default_rng(seed).standard_normal(N)
        gap = task.loss_gap(theta)
        assert gap >= 0.0
        # L(theta) - L* cancels: each loss carries up to (N + K + 2) eps of its
        # absolute-value form. Over 40,000 draws of these ranges the two gaps
        # differed by at most 0.54 of that bound, and by up to 164 eps of
        # L(theta) + L*, so the loss itself is no scale for the error.
        eps = np.finfo(float).eps
        bound = (N + K + 2) * eps * (absolute_loss(task, theta) + absolute_loss(task, task.theta_star))
        assert abs(gap - (task.loss(theta) - task.loss_star)) <= bound


class TestLocalGradient:
    def test_matches_finite_differences(self):
        task = random_task(2, 4, samples_per_device=10, seed=5)
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(4)
        g = local_gradient(theta, task, 0)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (task.local_loss(theta + e, 0) - task.local_loss(theta - e, 0)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-5)


class TestTraining:
    def test_error_free_linear_convergence(self):
        task = random_task(3, 8, samples_per_device=30, seed=9)
        trace = run_training(task, error_free_aggregator(), T=40, seed=0)
        assert np.abs(trace.error_energy).max() == 0.0
        # Gap contracts at least by (1 - omega/Omega) per round.
        assert trace.loss_gap[-1] < trace.loss_gap[0] * 1e-3
        assert np.all(trace.loss_gap <= trace.bound_value + 1e-12)

    def test_per_round_inequality_with_quantizers(self):
        task = random_task(4, 16, samples_per_device=40, seed=10)
        omega, big_omega = smoothness_constants(task)
        contraction = 1.0 - omega / big_omega
        aggs = {
            "qsgd": qsgd_aggregator(4),
            "uniform": uniform_aggregator(4),
            "mbtc": mbtc_aggregator(RateBudget(np.full(4, 3.0))),
        }
        for name, agg in aggs.items():
            trace = run_training(task, agg, T=15, seed=11)
            for t in range(15):
                rhs = contraction * trace.loss_gap[t] + (
                    trace.error_energy[t] * task.N / (2 * big_omega)
                )
                assert trace.loss_gap[t + 1] <= rhs + 1e-9, name

    def test_unrolled_equals_recursion(self):
        task = random_task(2, 8, samples_per_device=15, seed=12)
        omega, big_omega = smoothness_constants(task)
        trace = run_training(task, qsgd_aggregator(2), T=10, seed=13)
        closed = unrolled_bound(
            trace.loss_gap[0], trace.error_energy * task.N, omega, big_omega
        )
        assert closed == pytest.approx(trace.bound_value[-1], abs=1e-12)

    def test_deterministic(self):
        task = random_task(2, 8, samples_per_device=15, seed=14)
        a = run_training(task, qsgd_aggregator(2), T=5, seed=1)
        b = run_training(task, qsgd_aggregator(2), T=5, seed=1)
        assert np.array_equal(a.loss_gap, b.loss_gap)
        assert np.array_equal(a.error_energy, b.error_energy)

    def test_work_per_run_and_per_mbtc_round(self):
        # The Hessian is decomposed once per task, however many runs share it;
        # each mbtc round validates one covariance and makes one theta call
        # (the one-group solve at the fitted rho = 0 starts at its optimum),
        # and builds no selection list and no distortion trace.
        task = random_task(8, 64, samples_per_device=32, seed=800)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
            for seed in (1, 2):
                run_training(task, error_free_aggregator(), T=3, seed=seed)
        assert eig.call_count == 1
        T = 10
        with mock.patch.object(mm_symmetric, "theta", wraps=mm_symmetric.theta) as theta, \
                mock.patch.object(model, "validate_psd", wraps=model.validate_psd) as psd, \
                mock.patch.object(mm_symmetric, "enumerate_selections") as selections, \
                mock.patch.object(mm_symmetric, "symmetric_distortion") as distortion:
            run_training(task, mbtc_aggregator(RateBudget(np.full(8, 3.0))), T=T, seed=5)
        assert (theta.call_count, psd.call_count) == (T, T)
        assert selections.call_count == distortion.call_count == 0

    def test_rejects_zero_rounds(self):
        task = random_task(1, 2, samples_per_device=5, seed=15)
        with pytest.raises(ValueError):
            run_training(task, error_free_aggregator(), T=0)


class TestFlRound:
    @settings(max_examples=100, deadline=None)
    @given(
        N=st.integers(1, 12),
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        mu=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_stacked_gradients_match_the_per_device_formula(self, N, counts, mu, seed):
        # Unequal sample counts pad the design stack with zero rows.
        rng = np.random.default_rng(seed)
        designs = [rng.standard_normal((k, N)) for k in counts]
        targets = [rng.standard_normal(k) for k in counts]
        task = QuadraticTask(designs=tuple(designs), targets=tuple(targets), mu=mu)
        theta = rng.standard_normal(N)
        seen = []

        def capture(vectors, c, seed):
            seen.append(vectors.copy())
            return error_free_aggregator()(vectors, c, seed)

        fl_round(theta, task, capture, eta=0.01)
        (gradients,) = seen
        for m, (a, y) in enumerate(zip(designs, targets)):
            expect = a.T @ (a @ theta - y) / len(y) + mu * theta
            # The same sums in another order: each entry is within 1e-12 of
            # its absolute-value form.
            scale = np.abs(a).T @ (np.abs(a) @ np.abs(theta) + np.abs(y)) / len(y) + mu * np.abs(theta)
            assert np.all(np.abs(gradients[m] - expect) <= 1e-12 * scale)
            assert np.array_equal(local_gradient(theta, task, m), gradients[m])

    def test_error_energy_zero_when_exact(self):
        task = random_task(2, 6, samples_per_device=12, seed=16)
        theta, energy, report = fl_round(
            np.zeros(6), task, error_free_aggregator(), eta=0.01
        )
        assert energy == 0.0
        assert theta.shape == (6,)
        assert np.all(np.isinf(report))
