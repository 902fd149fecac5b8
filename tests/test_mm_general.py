"""Tests for the general-case MM optimizer."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedagg import barrier, mm_general
from fedagg.barrier import interior_start, minimize_linear
from fedagg.mm_general import (
    OptimizeResult,
    build_surrogate,
    doubling_start,
    find_feasible_init,
    mm_loop,
    optimize,
    solve_surrogate,
)
from fedagg.mm_symmetric import _build_surrogate, enumerate_selections, optimize_symmetric, theta
from fedagg.model import (
    Q_MIN,
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    SymmetricSourceModel,
    symmetric_covariance,
)
from fedagg.region import (
    _required_bits,
    all_subsets,
    cond_mutual_info,
    distortion,
    is_feasible,
    sum_mutual_info,
)
from oracles import chi_xi, full_row_solve, grid_search, quad_form_lower_bound
from test_barrier import count_barrier_evaluations


def random_model(rng, M):
    g = rng.standard_normal((M, M + 2))
    sigma = g @ g.T / (M + 2)
    c = rng.uniform(0.2, 1.0, size=M)
    return GaussianSourceModel(sigma_x=sigma, c=c)


class TestQuadFormLowerBound:
    def test_tight_at_minimizer(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            B = random_model(rng, 4).sigma_x + 0.1 * np.eye(4)
            a = rng.standard_normal(4)
            b_star = np.linalg.solve(B, a)
            exact = float(a @ b_star)
            assert quad_form_lower_bound(a, b_star, B) == pytest.approx(exact, abs=1e-10)

    def test_lower_bound_elsewhere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            B = random_model(rng, 3).sigma_x + 0.1 * np.eye(3)
            a = rng.standard_normal(3)
            exact = float(a @ np.linalg.solve(B, a))
            b = rng.standard_normal(3)
            assert quad_form_lower_bound(a, b, B) <= exact + 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            quad_form_lower_bound([1.0], [1.0], [[-1.0]])


class TestChiXi:
    def test_tight_at_expansion_point(self):
        # chi_S + xi_S evaluated at the expansion point equals the exact
        # conditional mutual information of the subset.
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_model(rng, 4)
            qv = rng.uniform(0.05, 2.0, size=4)
            q = MbtcParams(qv)
            for mask in range(1, 1 << 4):
                S = [m for m in range(4) if mask >> m & 1]
                bound = chi_xi(model.sigma_x, qv, qv, S)
                if len(S) == 4:
                    exact = sum_mutual_info(model, q)
                else:
                    exact = cond_mutual_info(model, q, S)
                assert bound == pytest.approx(exact, abs=1e-9)

    def test_upper_bound_away_from_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, 3)
            q_hat = MbtcParams(rng.uniform(0.1, 1.0, size=3))
            q = MbtcParams(rng.uniform(0.05, 3.0, size=3))
            for mask in range(1, 1 << 3):
                S = [m for m in range(3) if mask >> m & 1]
                bound = chi_xi(model.sigma_x, q_hat.q, q.q, S)
                if len(S) == 3:
                    exact = sum_mutual_info(model, q)
                else:
                    exact = cond_mutual_info(model, q, S)
                assert bound >= exact - 1e-10


class TestSurrogate:
    def test_constraint_rows_tight_at_expansion(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3)
        budget = RateBudget(np.array([5.0, 5.0, 5.0]))
        q_hat = find_feasible_init(model, budget)
        prob = build_surrogate(model, budget, q_hat)
        vals = prob.value(q_hat.q)
        for mask, val in zip(range(1, 1 << 3), vals):
            S = [m for m in range(3) if mask >> m & 1]
            if len(S) == 3:
                exact = sum_mutual_info(model, q_hat)
                bud = float(np.sum(budget.r))
            else:
                exact = cond_mutual_info(model, q_hat, S)
                bud = float(np.sum(budget.r[S]))
            assert val == pytest.approx(exact - bud, abs=1e-9)

    @settings(max_examples=40)
    @given(M=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_batched_rows_tight_majorizing_and_match_chi_xi(self, M, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((M, M + 3))
        model = GaussianSourceModel(sigma_x=g @ g.T / (M + 3), c=np.ones(M))
        q_hat = rng.uniform(0.1, 3.0, size=M)
        q = rng.uniform(0.1, 3.0, size=M)
        # Each device's budget is the whole sum-rate, so q_hat is feasible.
        budget = RateBudget(np.full(M, sum_mutual_info(model, q_hat)))
        prob = build_surrogate(model, budget, q_hat)
        members = all_subsets(M)
        rows_at_hat = prob.value(q_hat) + prob.budgets
        rows_at_q = prob.value(q) + prob.budgets
        np.testing.assert_allclose(
            rows_at_hat, _required_bits(model, q_hat, members), rtol=0, atol=1e-9
        )
        assert np.all(rows_at_q - _required_bits(model, q, members) >= -1e-9)
        for row, value in zip(members, rows_at_q):
            S = np.flatnonzero(row)
            assert chi_xi(model.sigma_x, q_hat, q, S) == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_rejects_infeasible_expansion(self):
        model = GaussianSourceModel(sigma_x=np.eye(2), c=np.ones(2))
        budget = RateBudget(np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            build_surrogate(model, budget, MbtcParams(np.full(2, 1e-6)))

    def test_surrogate_solution_feasible_for_original(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model = random_model(rng, 3)
            budget = RateBudget(rng.uniform(0.5, 2.0, size=3))
            q_hat = find_feasible_init(model, budget)
            prob = build_surrogate(model, budget, q_hat)
            q = solve_surrogate(prob, np.zeros(prob.budgets.shape[0], dtype=bool))
            ok, worst = is_feasible(model, q, budget)
            assert ok, worst


def drawn_m10_instance(k):
    """The M=10 instance default_rng([k, 1]) draws: Sigma = G G' / 13 with
    G ~ N(0, 1)^{10 x 13}, c ~ U(0.2, 1) and budgets r ~ U(0.5, 2)."""
    rng = np.random.default_rng([k, 1])
    g = rng.standard_normal((10, 13))
    model = GaussianSourceModel(sigma_x=g @ g.T / 13, c=rng.uniform(0.2, 1.0, size=10))
    return model, RateBudget(rng.uniform(0.5, 2.0, size=10))


class TestCertifiedSolves:
    def test_binds_on_drawn_instances(self, monkeypatch):
        # Solves that stop short of optimal send MM runs through the
        # numerical regression branch and leave slack on every subset. On
        # working sets the barrier evaluates at most 30,000 rows per
        # instance, not all 1,023 rows in every evaluation.
        counters = count_barrier_evaluations(monkeypatch, mm_general)
        for k in range(12):
            model, budget = drawn_m10_instance(k)
            counters.clear()
            res = optimize(model, budget)
            assert sum(c.rows for c in counters) <= 30_000, k
            assert len(res.iterates) == len(res.trace), f"regression branch at k={k}"
            ok, worst = is_feasible(model, res.q, budget)
            assert ok and worst <= 1e-5, (k, worst)
            if k in (9, 10):
                assert res.distortion <= {9: 0.3053, 10: 0.6069}[k]

    def test_benchmark_instance_solves_are_certified(self, monkeypatch, caplog):
        # The optimize benchmark's M=10 instance: each surrogate solve ends
        # inside the region on a gap certificate, within 60 iterations.
        counters = count_barrier_evaluations(monkeypatch, mm_general)
        with caplog.at_level(logging.DEBUG, logger="fedagg.barrier"):
            optimize(*drawn_m10_instance(3))
        records = [r.getMessage() for r in caplog.records if r.name == "fedagg.barrier"]
        assert counters and len(records) == len(counters)
        # One gradient per iteration, plus one at the certified point.
        assert max(c.grads for c in counters) - 1 <= 60
        for message in records:
            stats = {k.strip(): v for k, v in re.findall(r"([a-z ]+)=([^,\s]+)", message)}
            assert float(stats["gap"]) <= 1e-9 and float(stats["worst slack"]) >= 0.0

    @pytest.mark.parametrize("k", [39, 15])
    def test_certifies_below_the_formed_matrix_floor(self, k):
        # A formed H + J' diag(lambda / s) J loses H once a few active rows
        # outweigh the rest by about 1e16; on model 39 its dual residual then
        # stalls above 3e-11.
        model, budget = drawn_m10_instance(k)
        with mock.patch.object(barrier, "RESIDUAL_TOL", 3e-11):
            res = optimize(model, budget)
        ok, worst = is_feasible(model, res.q, budget)
        assert ok, (k, worst)


def assert_matches_full_row_solve(problem, q):
    """q meets every surrogate row and its objective matches the full-row
    solve's to 1e-9, on the barrier's gap scale max(1, |objective|)."""
    assert problem.value(q).max() <= 0.0
    f = problem.objective_weights
    reference = float(f @ full_row_solve(problem))
    assert abs(f @ q - reference) <= 1e-9 * max(1.0, abs(reference))


class TestWorkingSet:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 6))
    def test_general_matches_full_row_solve(self, seed, M):
        rng = np.random.default_rng(seed)
        model = random_model(rng, M)
        budget = RateBudget(rng.uniform(0.5, 2.0, size=M))
        q = find_feasible_init(model, budget).q
        work = np.zeros((1 << M) - 1, dtype=bool)
        for _ in range(2):  # an empty mask, then the one the first solve left
            problem = build_surrogate(model, budget, q)
            q = solve_surrogate(problem, work)
            assert_matches_full_row_solve(problem, q)

    @settings(max_examples=40, deadline=None)
    @example(rho=0.25, sigma2=1.0, groups=[(2, 0.5), (2, 0.5)])  # a degenerate restricted solve
    @given(
        rho=st.floats(0.0, 0.95),
        sigma2=st.floats(0.5, 2.0),
        groups=st.lists(
            st.tuples(st.integers(1, 6), st.floats(0.5, 3.0)), min_size=2, max_size=3
        ),
    )
    def test_grouped_matches_full_row_solve(self, rho, sigma2, groups):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=tuple(groups))
        sel = enumerate_selections(model.group_sizes)

        def feasible(q):
            rows = theta(rho, sigma2, model.group_sizes, q, sel) - sel @ model.group_rates
            return rows.max() <= 0.0

        q = doubling_start(sigma2, len(groups), feasible)
        work = np.zeros(sel.shape[0], dtype=bool)
        for _ in range(2):
            problem = _build_surrogate(model, sel, q)
            q = solve_surrogate(problem, work)
            assert_matches_full_row_solve(problem, q)

    def test_certifies_a_zero_multiplier_row(self, caplog):
        # Rows (0,1), (1,0), (1,1) and (2,0) of this surrogate: row (2,0)
        # touches the optimum with a zero multiplier while the multiplier of
        # binding row (1,1) grows without bound. The solve must still end on
        # its gap certificate, at the symmetric optimum.
        model = SymmetricSourceModel(rho=0.25, sigma2=1.0, groups=((2, 0.5), (2, 0.5)))
        sel = enumerate_selections(model.group_sizes)
        budgets = sel @ model.group_rates
        q_hat = doubling_start(
            1.0, 2, lambda q: (theta(0.25, 1.0, model.group_sizes, q, sel) - budgets).max() <= 0.0
        )
        problem = _build_surrogate(model, sel, q_hat)
        rows = (sel[:, None] == [[0, 1], [1, 0], [1, 1], [2, 0]]).all(axis=2).any(axis=1)
        q0 = interior_start(problem.value, problem.expansion_point, Q_MIN)
        with caplog.at_level(logging.DEBUG, logger="fedagg.barrier"):
            q = minimize_linear(problem.objective_weights, problem.restrict(rows), q0, x_min=Q_MIN)
        (message,) = [r.getMessage() for r in caplog.records if r.name == "fedagg.barrier"]
        assert float(re.search(r"gap=([^,\s]+)", message).group(1)) <= 1e-9
        assert q[0] == pytest.approx(q[1], rel=1e-12, abs=0.0)

    def test_logs_working_set(self, caplog):
        # One record per surrogate solve; the mask only grows, from the
        # 2 * M = 20 seed rows by the rows each record adds.
        with caplog.at_level(logging.DEBUG, logger="fedagg.mm_general"):
            res = optimize(*drawn_m10_instance(3))
        records = [r.getMessage() for r in caplog.records if r.name == "fedagg.mm_general"]
        assert len(records) == res.iterations
        size = 20
        for message in records:
            work, n, solves, added = map(int, re.fullmatch(
                r"working set: (\d+) of (\d+) rows, (\d+) restricted solves, (\d+) rows added",
                message).groups())
            size += added
            assert (work, n) == (size, 1023)
            assert solves >= 1 and (added > 0) == (solves > 1)


class TestOptimize:
    def test_single_source_closed_form(self):
        # M = 1 optimum: q* = sigma^2 / (2^{2R} - 1), D* = sigma^2 2^{-2R}.
        sigma2 = 1.7
        model = GaussianSourceModel(sigma_x=np.array([[sigma2]]), c=np.array([1.0]))
        for R in (0.5, 1.0, 2.0):
            res = optimize(model, RateBudget(np.array([R])))
            assert res.distortion == pytest.approx(sigma2 * 2.0 ** (-2 * R), abs=1e-8)
            assert res.q.q[0] == pytest.approx(sigma2 / (2.0 ** (2 * R) - 1), rel=1e-6)

    def test_trace_monotone_and_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = random_model(rng, 3)
            budget = RateBudget(rng.uniform(0.5, 2.0, size=3))
            res = optimize(model, budget)
            diffs = np.diff(np.array(res.trace))
            assert np.all(diffs >= -1e-10)
            ok, worst = is_feasible(model, res.q, budget)
            assert ok, worst

    def test_matches_grid_oracle_m2(self):
        rng = np.random.default_rng(7)
        model = GaussianSourceModel(
            sigma_x=symmetric_covariance(0.6, 1.0, 2), c=np.array([0.5, 0.5])
        )
        budget = RateBudget(np.array([1.0, 1.5]))
        res = optimize(model, budget)
        _, d_grid = grid_search(model.sigma_x, model.c, budget.r, n_per_axis=160)
        assert res.distortion <= d_grid * (1 + 1e-3)

    def test_result_fields(self):
        model = GaussianSourceModel(sigma_x=np.eye(2), c=np.ones(2))
        res = optimize(model, RateBudget(np.ones(2)))
        assert isinstance(res, OptimizeResult)
        assert res.iterations >= 1
        assert len(res.iterates) == len(res.trace)
        assert res.distortion == pytest.approx(
            distortion(model, res.q), abs=1e-12
        )

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
    def test_rejects_invalid_eps(self, eps):
        model = GaussianSourceModel(
            sigma_x=symmetric_covariance(0.5, 1.0, 2), c=np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError, match="eps"):
            optimize(model, RateBudget(np.array([1.0, 1.5])), eps=eps)

    def test_zero_covariance(self):
        # A zero covariance is PSD: every rate is 0 at any q, so the start
        # (doubled from 1, not from trace/M = 0) is feasible and the target
        # carries no variance to lose.
        model = GaussianSourceModel(sigma_x=np.zeros((2, 2)), c=np.ones(2))
        budget = RateBudget(np.ones(2))
        res = optimize(model, budget)
        assert np.isfinite(res.q.q).all()
        assert is_feasible(model, res.q, budget)[0]
        assert res.distortion == 0.0


def general_scale_model(j: int):
    """Four devices, Sigma = 2^j G G' / 7 with G ~ N(0, 1)^{4 x 7} from
    default_rng([3, 1]), c = 1 and budgets (1, 1.5, 0.7, 2)."""
    g = np.random.default_rng([3, 1]).standard_normal((4, 7))
    model = GaussianSourceModel(sigma_x=2.0**j * (g @ g.T) / 7, c=np.ones(4))
    return model, RateBudget(np.array([1.0, 1.5, 0.7, 2.0]))


def grouped_scale_model(j: int) -> SymmetricSourceModel:
    """The optimize benchmark's 3 x 20 grouped model at sigma2 = 2^j."""
    return SymmetricSourceModel(rho=0.9, sigma2=2.0**j, groups=((20, 1.0), (20, 2.0), (20, 3.0)))


def worst_slack(model, budget, q) -> float:
    members = all_subsets(model.M)
    return float((members @ budget.r - _required_bits(model, q, members)).min())


class TestScaleFree:
    """A model scaled by 2^j gets the unit model's answer scaled by 2^j: the
    rates do not change when Sigma and q scale together, and the barrier
    starts its floor rows at their own slack, in the units of q. Lifted to
    the rate rows' slack floor, they failed small-scale models (2^-14 here,
    2^-7 grouped)."""

    @settings(max_examples=40)
    @given(j=st.integers(-24, 20))
    def test_solves_at_every_scale(self, j):
        model, budget = general_scale_model(j)
        res = optimize(model, budget)
        assert worst_slack(model, budget, res.q) >= -1e-9
        unit = optimize(*general_scale_model(0)).distortion
        assert res.distortion / 2.0**j == pytest.approx(unit, rel=1e-6, abs=0.0)

        sym = grouped_scale_model(j)
        res = optimize_symmetric(sym, 1 / 60)
        sel = enumerate_selections(sym.group_sizes)
        rows = theta(sym.rho, sym.sigma2, sym.group_sizes, res.q_groups, sel) - sel @ sym.group_rates
        assert rows.max() <= 1e-9
        unit = optimize_symmetric(grouped_scale_model(0), 1 / 60).distortion
        assert res.distortion / 2.0**j == pytest.approx(unit, rel=1e-6, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSmallNoise:
    """High rates and widely spread variances put q far below the model's
    scale, so the barrier starts close to its floor rows x >= Q_MIN in
    absolute terms; lifted to the rate rows' slack floor of 1e-3 there, these
    solves took log2 of a negative q or ran out of Newton iterations."""

    @pytest.mark.parametrize("k", range(6))
    def test_drawn_instances_at_eight_times_the_budget(self, k):
        model, budget = drawn_m10_instance(k)
        budget = RateBudget(budget.r * 8)
        assert worst_slack(model, budget, optimize(model, budget).q) >= -1e-9

    def test_grouped_high_rates_at_three_scales(self):
        distortions = []
        for sigma2 in (1e-3, 1.0, 1e3):
            sym = SymmetricSourceModel(rho=0.9, sigma2=sigma2,
                                       groups=((20, 4.0), (20, 6.0), (20, 8.0)))
            res = optimize_symmetric(sym, 1 / 60)
            sel = sym.group_sizes * enumerate_selections(np.ones(3, dtype=int))
            rows = theta(sym.rho, sigma2, sym.group_sizes, res.q_groups, sel) - sel @ sym.group_rates
            assert rows.max() <= 1e-9
            distortions.append(res.distortion / sigma2)
        np.testing.assert_allclose(distortions, distortions[1], rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("k", range(10))
    def test_device_variances_over_eight_decades(self, k):
        # Sigma = D^(1/2) (G G' / 8) D^(1/2), D = 10^U(-4, 4) per device.
        rng = np.random.default_rng([k, 7])
        g = rng.standard_normal((5, 8))
        root = np.sqrt(10.0 ** rng.uniform(-4.0, 4.0, size=5))
        budget = RateBudget(rng.uniform(0.5, 2.0, size=5))
        model = GaussianSourceModel(sigma_x=root[:, None] * (g @ g.T / 8) * root, c=np.ones(5))
        assert worst_slack(model, budget, optimize(model, budget).q) >= -1e-9


class TestMmLoop:
    def test_regression_keeps_previous_q(self):
        # The objective rises for two steps, then falls on the third.
        objective = {1.0: 1.0, 2.0: 2.0, 3.0: 3.0, 4.0: 2.5}
        q, trace, iterates, iterations = mm_loop(
            np.array([1.0]), lambda q: objective[q[0]], lambda q: q + 1.0, 1e-6, 50
        )
        assert q.tolist() == [3.0]
        assert trace == (1.0, 2.0, 3.0, 3.0)
        assert [x.tolist() for x in iterates] == [[1.0], [2.0], [3.0]]
        assert iterations == 3
        q, trace, _, iterations = mm_loop(
            np.array([1.0]), lambda q: 1.0 if q[0] == 1.0 else np.nan, lambda q: q + 1.0, 1e-6, 50
        )
        assert (q.tolist(), trace, iterations) == ([1.0], (1.0, 1.0), 1)

    def test_stops_on_small_increase_and_max_iter(self):
        q, trace, iterates, iterations = mm_loop(
            np.array([0.0]), lambda q: 1.0 + 1e-9 * q[0], lambda q: q + 1.0, 1e-6, 50
        )
        assert (q.tolist(), iterations, len(trace), len(iterates)) == ([1.0], 1, 2, 2)
        q, trace, iterates, iterations = mm_loop(
            np.array([0.0]), lambda q: q[0], lambda q: q + 1.0, 1e-6, 4
        )
        assert (q.tolist(), trace, iterations) == ([4.0], (0.0, 1.0, 2.0, 3.0, 4.0), 4)
