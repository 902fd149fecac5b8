"""Tests for the grouped symmetric-rate optimizer."""

import logging
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedagg import mm_general, mm_symmetric
from fedagg.flharness import mbtc_aggregator, random_task, run_training
from fedagg.errors import SolverError
from fedagg.mm_general import doubling_start, optimize
from fedagg.mm_symmetric import (
    _build_surrogate,
    enumerate_selections,
    optimize_symmetric,
    symmetric_distortion,
    symmetric_objective,
    theta,
)
from fedagg.model import Q_MIN, MbtcParams, RateBudget, SymmetricSourceModel
from fedagg.region import cond_mutual_info, distortion, is_feasible, sum_mutual_info
from oracles import bisect_one_group, grouped_grid_optimum, theta_decimal
from test_barrier import count_barrier_evaluations


class TestEnumerateSelections:
    def test_count_and_contents(self):
        sel = enumerate_selections([2, 3])
        assert sel.shape == (3 * 4 - 1, 2)
        rows = {tuple(r) for r in sel.tolist()}
        assert (0, 0) not in rows
        assert len(rows) == sel.shape[0]
        assert (2, 3) in rows and (0, 1) in rows

    def test_single_group(self):
        sel = enumerate_selections([4])
        assert sel.shape == (4, 1)
        assert set(sel[:, 0].tolist()) == {1, 2, 3, 4}

    def test_order_is_product_order(self):
        for sizes in ([2, 3], [4], [1, 0, 2], [3, 1, 2, 1]):
            expected = [v for v in product(*(range(s + 1) for s in sizes)) if sum(v) >= 1]
            sel = enumerate_selections(sizes)
            assert sel.dtype == np.dtype(int)
            assert [tuple(r) for r in sel.tolist()] == expected

    def test_rejects_oversized_enumeration(self):
        with pytest.raises(ValueError):
            enumerate_selections([10**7])


class TestThetaReduction:
    def test_theta_matches_conditional_mi(self):
        # Any subset with the same per-group counts yields the same constraint,
        # and it must equal the grouped closed form exactly.
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = rng.uniform(0.0, 0.95)
            sigma2 = rng.uniform(0.5, 2.0)
            groups = ((2, 1.0), (3, 1.5))
            model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=groups)
            gmodel, _ = model.expand()
            qg = rng.uniform(0.05, 2.0, size=2)
            q = MbtcParams(np.repeat(qg, [2, 3]))
            cases = {
                (1, 0): [0],
                (2, 0): [0, 1],
                (0, 2): [2, 4],
                (1, 2): [1, 2, 3],
                (2, 2): [0, 1, 3, 4],
            }
            for sel, S in cases.items():
                val = theta(rho, sigma2, [2, 3], qg, sel)
                exact = cond_mutual_info(gmodel, q, S)
                assert val == pytest.approx(exact, abs=1e-10)
            full = theta(rho, sigma2, [2, 3], qg, (2, 3))
            assert full == pytest.approx(sum_mutual_info(gmodel, q), abs=1e-10)

    @pytest.mark.parametrize("q", [1e3, 7213475203.569817, 1e12, 1e40])
    def test_keeps_its_digits_at_small_rates(self, q):
        # Each term is about 1/q bits: rounding 1 + x before the logarithm
        # would keep only the digits of x above 2^-53.
        for s in (1, 2, 4):
            exact = theta_decimal(0.5, 1.0, 4, q, s)
            assert theta(0.5, 1.0, [4], [q], [s]) == pytest.approx(exact, rel=1e-14, abs=0.0)


def exact_rows(model: SymmetricSourceModel, q, selections) -> np.ndarray:
    """Exact theta(q, s) - s . r for every selection, one batched call."""
    bits = theta(model.rho, model.sigma2, model.group_sizes, q, selections)
    return bits - selections @ model.group_rates


def drawn_grouped_model(k: int) -> SymmetricSourceModel:
    """3 groups of 20 devices from default_rng([k, 7]): rho ~ U(0.5, 0.95),
    sorted rates ~ U(0.5, 3), sigma2 = 1; solved at lambda = 1/60."""
    rng = np.random.default_rng([k, 7])
    rho = rng.uniform(0.5, 0.95)
    rates = np.sort(rng.uniform(0.5, 3.0, size=3))
    return SymmetricSourceModel(rho=rho, sigma2=1.0, groups=tuple((20, float(r)) for r in rates))


class TestGroupedSurrogate:
    @given(
        rho=st.floats(0.0, 0.95),
        sigma2=st.floats(0.5, 2.0),
        groups=st.lists(
            st.tuples(st.integers(1, 5), st.floats(0.5, 3.0)), min_size=1, max_size=3
        ),
        log_q_hat=st.lists(st.floats(-3.0, 2.0), min_size=3, max_size=3),
        log_q=st.lists(st.floats(-3.0, 2.0), min_size=3, max_size=3),
    )
    def test_rows_tight_and_majorizing(self, rho, sigma2, groups, log_q_hat, log_q):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=tuple(groups))
        J = len(groups)
        q_hat, q = 10.0 ** np.array(log_q_hat[:J]), 10.0 ** np.array(log_q[:J])
        sel = enumerate_selections(model.group_sizes)
        batched = theta(rho, sigma2, model.group_sizes, q, sel)
        one_row = [theta(rho, sigma2, model.group_sizes, q, s) for s in sel]
        assert np.abs(batched - one_row).max() <= 1e-12
        problem = _build_surrogate(model, sel, q_hat)
        assert np.abs(problem.value(q_hat) - exact_rows(model, q_hat, sel)).max() <= 1e-9
        assert np.all(problem.value(q) >= exact_rows(model, q, sel) - 1e-9)


class TestSolveQGroups:
    """The q-only solve, which mbtc calls without lambda, against the report
    that optimize_symmetric builds around the same solve."""

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(0.0, 0.95, exclude_max=True),
        sigma2=st.floats(0.01, 10.0),
        groups=st.lists(
            st.tuples(st.integers(1, 6), st.floats(0.25, 3.0)), min_size=1, max_size=3
        ),
        lams=st.lists(st.sampled_from([1e-3, 0.125, 1.0, -2.5, 40.0]), min_size=1, max_size=3),
    )
    def test_matches_optimize_symmetric_bit_for_bit(self, rho, sigma2, groups, lams):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=tuple(groups))
        q = mm_symmetric.solve_q_groups(model)
        for lam in lams:
            assert q.tobytes() == optimize_symmetric(model, lam).q_groups.tobytes()

    def test_one_group_builds_no_selections_and_no_traces(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("the q-only one-group solve builds no selection or trace")

        for name in ("enumerate_selections", "symmetric_distortion", "symmetric_objective"):
            monkeypatch.setattr(mm_symmetric, name, no_call)
        model = SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=((10, 2.0),))
        q = mm_symmetric.solve_q_groups(model)
        assert q.shape == (1,) and exact_rows(model, q, np.arange(1, 11)[:, None]).max() <= 0.0


class TestSymmetricDistortion:
    def test_matches_matrix_form(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = rng.uniform(0.0, 0.95)
            sigma2 = rng.uniform(0.5, 2.0)
            lam = rng.uniform(0.2, 1.5)
            model = SymmetricSourceModel(
                rho=rho, sigma2=sigma2, groups=((2, 1.0), (2, 2.0))
            )
            gmodel, _ = model.expand(lam=lam)
            qg = rng.uniform(0.05, 2.0, size=2)
            d = symmetric_distortion(model, lam, qg)
            d_mat = distortion(gmodel, MbtcParams(np.repeat(qg, [2, 2])))
            assert d == pytest.approx(d_mat, abs=1e-10)

    def test_objective_distortion_monotone_link(self):
        # Larger recast objective means smaller distortion.
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((3, 1.0),))
        qa, qb = np.array([0.5]), np.array([0.2])
        ta = symmetric_objective(0.5, 1.0, [3], qa)
        tb = symmetric_objective(0.5, 1.0, [3], qb)
        assert tb > ta
        assert symmetric_distortion(model, 1.0, qb) < symmetric_distortion(model, 1.0, qa)


class TestOptimizeSymmetric:
    def test_agrees_with_general_optimizer(self):
        for rho, groups in [
            (0.0, ((3, 1.0),)),
            (0.5, ((2, 1.0), (2, 2.0))),
            (0.9, ((4, 1.5),)),
        ]:
            model = SymmetricSourceModel(rho=rho, sigma2=1.0, groups=groups)
            gmodel, budget = model.expand(lam=1.0 / model.M)
            res_sym = optimize_symmetric(model, lam=1.0 / model.M)
            res_gen = optimize(gmodel, budget)
            assert res_sym.distortion == pytest.approx(res_gen.distortion, abs=1e-5)

    def test_traces_monotone(self):
        model = SymmetricSourceModel(rho=0.8, sigma2=1.0, groups=((3, 1.0), (2, 2.0)))
        res = optimize_symmetric(model, lam=0.2)
        assert np.all(np.diff(np.array(res.objective_trace)) >= -1e-12)
        assert np.all(np.diff(np.array(res.trace)) <= 1e-12)
        assert len(res.trace) == len(res.objective_trace)

    def test_constraint_count_and_feasibility(self):
        model = SymmetricSourceModel(rho=0.6, sigma2=1.0, groups=((2, 1.0), (3, 1.5)))
        res = optimize_symmetric(model, lam=0.2)
        assert res.n_constraints == 3 * 4 - 1
        gmodel, budget = model.expand(lam=0.2)
        ok, worst = is_feasible(gmodel, res.q, budget)
        assert ok, worst

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("groups", [((2, 1.0),), ((2, 1.0), (1, 2.0))])
    def test_rejects_invalid_eps(self, eps, groups):
        # One group skips the MM loop, so the check cannot live only there.
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=groups)
        with pytest.raises(ValueError, match="eps"):
            optimize_symmetric(model, lam=0.5, eps=eps)

    def test_rejects_zero_lambda(self):
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((2, 1.0),))
        with pytest.raises(ValueError):
            optimize_symmetric(model, lam=0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((2, 1.0),))
        with pytest.raises(ValueError):
            optimize_symmetric(model, lam=lam)

    def test_grouped_workload_evaluation_count(self, monkeypatch):
        # 3 groups of 20 devices at rho 0.9 (9,260 selections, 7 whole-group
        # rows): about one constraint evaluation per interior-point
        # iteration, each on a working set of rows.
        wrappers = count_barrier_evaluations(monkeypatch, mm_general)
        groups = ((20, 1.0), (20, 2.0), (20, 3.0))
        optimize_symmetric(SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=groups), 1 / 60)
        assert wrappers
        assert sum(w.values for w in wrappers) <= 1_000
        assert sum(w.rows for w in wrappers) <= 20_000

    def test_distortion_finite_at_huge_variance(self):
        # gain**2 overflowed here; the distortion scales with sigma2.
        groups = ((3, 0.01),)
        huge = optimize_symmetric(SymmetricSourceModel(rho=0.5, sigma2=1e300, groups=groups), 1 / 3)
        unit = optimize_symmetric(SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=groups), 1 / 3)
        assert np.isfinite(huge.distortion)
        assert huge.distortion == pytest.approx(1e300 * unit.distortion, rel=1e-9)

    def test_converges_where_newton_budget_ran_out(self):
        # A solve that is not centered before it moves on can exhaust the
        # Newton budget here (SolverError).
        groups = ((20, 1.1926), (20, 1.55), (20, 1.5772))
        model = SymmetricSourceModel(rho=0.7018, sigma2=1.0, groups=groups)
        res = optimize_symmetric(model, 1 / 60)
        sel = enumerate_selections(model.group_sizes)
        assert sel.shape[0] == 9260
        rows = exact_rows(model, res.q_groups, sel)
        assert np.all(rows <= 1e-9)
        assert rows.max() >= -1e-6

    def test_converges_on_drawn_model_8_7(self):
        # default_rng([8, 7]) draws rho 0.5585 and rates (0.9111, 1.0951,
        # 1.4483), a model on which uncentered solves exhaust the budget.
        model = drawn_grouped_model(8)
        assert model.rho == pytest.approx(0.5585, abs=1e-4)
        res = optimize_symmetric(model, 1 / 60)
        sel = enumerate_selections(model.group_sizes)
        rows = exact_rows(model, res.q_groups, sel)
        assert -1e-6 <= rows.max() <= 1e-9
        assert res.distortion <= 0.0021117

    def test_regression_step_repeats_last_distortion(self, monkeypatch):
        # A second surrogate solve that lands on larger q lowers the recast
        # objective: the MM keeps the first iterate and stops.
        solver = mm_symmetric.solve_surrogate
        calls = []

        def worse_second(problem, work):
            calls.append(1)
            if len(calls) == 1:
                return solver(problem, work)
            return 2.0 * problem.expansion_point

        monkeypatch.setattr(mm_symmetric, "solve_surrogate", worse_second)
        model = SymmetricSourceModel(rho=0.8, sigma2=1.0, groups=((3, 1.0), (2, 2.0)))
        res = optimize_symmetric(model, lam=0.2)
        assert res.iterations == 2 and len(res.iterates) == 2
        assert len(res.trace) == len(res.objective_trace) == 3
        assert res.trace[-1] == res.trace[-2] == res.distortion
        assert res.objective_trace[-1] == res.objective_trace[-2]
        assert np.array_equal(res.q_groups, res.iterates[-1])


class TestWholeGroupRows:
    """J >= 2 carries only the whole-group selections; enumerate_selections
    (every selection) and a grid search are the oracles."""

    @settings(max_examples=300)
    @given(
        rho=st.floats(0.0, 0.999, exclude_max=True),
        sigma2=st.floats(0.5, 2.0),
        groups=st.lists(
            st.tuples(st.integers(1, 8), st.floats(0.1, 4.0)), min_size=1, max_size=4
        ),
        log_q=st.lists(st.floats(-2.0, 3.0), min_size=4, max_size=4),
    )
    def test_whole_groups_decide_feasibility(self, rho, sigma2, groups, log_q):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=tuple(groups))
        sizes = model.group_sizes
        q = 10.0 ** np.array(log_q[: sizes.size])
        sel = enumerate_selections(sizes)
        rows = exact_rows(model, q, sel)
        whole = np.all((sel == 0) | (sel == sizes), axis=1)
        assert whole.sum() == 2**sizes.size - 1
        assert abs(max(0.0, rows.max()) - max(0.0, rows[whole].max())) <= 1e-12

    def test_solves_above_the_selection_cap(self):
        # 21^5 - 1 = 4,084,100 selections; every exact row is checked in
        # chunks of one first-group count each, without enumerate_selections.
        groups = tuple((20, r) for r in (1.0, 1.5, 2.0, 2.5, 3.0))
        model = SymmetricSourceModel(rho=0.8, sigma2=1.0, groups=groups)
        res = optimize_symmetric(model, 1 / 100)
        assert res.n_constraints == 21**5 - 1
        sizes = model.group_sizes
        rest = np.indices(tuple(sizes[1:] + 1)).reshape(sizes.size - 1, -1).T
        worst = -np.inf
        for first in range(sizes[0] + 1):
            sel = np.column_stack([np.full(rest.shape[0], first), rest])
            worst = max(worst, exact_rows(model, res.q_groups, sel).max())
        assert worst <= 0.0

    @settings(max_examples=20)
    @given(
        rho=st.floats(0.0, 0.98),
        groups=st.lists(
            st.tuples(st.integers(2, 12), st.floats(0.2, 4.0)), min_size=2, max_size=2
        ),
    )
    def test_two_groups_match_grid_optimum(self, rho, groups):
        # 4 to 24 devices, past the 2 or 3 that criterion 2's grid covers.
        model = SymmetricSourceModel(rho=rho, sigma2=1.0, groups=tuple(groups))
        res = optimize_symmetric(model, 1.0 / model.M)
        mm = symmetric_objective(rho, 1.0, model.group_sizes, res.q_groups)
        _, grid = grouped_grid_optimum(rho, 1.0, model.group_sizes, model.group_rates)
        assert grid <= mm * (1.0 + 1e-8)

    def test_theta_row_budget(self, monkeypatch):
        # The benchmark's 3 x 20 model: 7 rows per exact check, not 9,260.
        rows = []

        def counted(*args):
            rows.append(np.atleast_2d(args[4]).shape[0])
            return theta(*args)

        monkeypatch.setattr(mm_symmetric, "theta", counted)
        groups = ((20, 1.0), (20, 2.0), (20, 3.0))
        optimize_symmetric(SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=groups), 1 / 60)
        assert set(rows) == {7}
        assert sum(rows) <= 100

    def test_logs_one_solve_over_every_whole_group_row(self, caplog):
        # The benchmark's 3 x 20 model: its 7 rows are at most 4 * dim = 12,
        # so each surrogate is solved once over all of them, with no re-solve.
        groups = ((20, 1.0), (20, 2.0), (20, 3.0))
        with caplog.at_level(logging.DEBUG, logger="fedagg.mm_general"):
            optimize_symmetric(SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=groups), 1 / 60)
        records = [r.getMessage() for r in caplog.records if r.name == "fedagg.mm_general"]
        assert records
        assert set(records) == {"working set: 7 of 7 rows, 1 restricted solves, 0 rows added"}

    def test_group_count_cap(self, monkeypatch):
        # 2^21 - 1 whole-group rows exceed MAX_SELECTIONS: rejected before any work.
        def no_work(*args, **kwargs):
            raise AssertionError("the cap must reject the model before any work")

        monkeypatch.setattr(mm_symmetric, "theta", no_work)
        monkeypatch.setattr(mm_symmetric, "solve_surrogate", no_work)
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((1, 1.0),) * 21)
        with pytest.raises(ValueError, match="exceeds cap"):
            optimize_symmetric(model, 1 / 21)

    @pytest.mark.parametrize(
        "model",
        # An MM over all 9,260 selections ended up to 2.8e-14 bits above 0
        # on these three drawn models.
        [drawn_grouped_model(k) for k in (19, 36, 37)]
        + [
            # Without the nudge the last MM point reads 8.9e-16, 7.1e-15 and
            # 2.8e-14 bits above 0 on these models.
            SymmetricSourceModel(rho=0.863, sigma2=1.0, groups=((5, 1.2442), (22, 3.5931))),
            SymmetricSourceModel(rho=0.2954, sigma2=1.0, groups=((12, 0.394), (20, 2.1913))),
            SymmetricSourceModel(
                rho=0.6261,
                sigma2=1.0,
                groups=((9, 3.2328), (16, 1.9216), (14, 0.539), (12, 0.9143)),
            ),
        ],
        ids=["drawn-19", "drawn-36", "drawn-37", "rho-0.863", "rho-0.2954", "rho-0.6261"],
    )
    def test_exact_rows_hold_after_pull_back(self, model):
        # The barrier's point meets the surrogate rows, but an exact row can
        # round a few ulps above 0 there; each MM step nudges q back in.
        res = optimize_symmetric(model, 1.0 / model.M)
        sel = enumerate_selections(model.group_sizes)
        for q in res.iterates:
            assert exact_rows(model, q, sel).max() <= 0.0
        assert np.array_equal(res.q_groups, res.iterates[-1])


one_group = dict(
    rho=st.floats(0.0, 0.95),
    sigma2=st.floats(0.5, 2.0),
    M=st.integers(1, 29),
    r=st.floats(0.5, 4.0),
)


wide_one_group = dict(
    rho=st.floats(0.0, 0.999),
    sigma2=st.floats(1e-3, 1e3),
    M=st.integers(1, 60),
    r=st.floats(0.05, 12.0),
)


def one_group_rows(model: SymmetricSourceModel, q: float) -> np.ndarray:
    """Exact theta(q, s) - s r for s = 1..M, from the reference formula."""
    (M, r), = model.groups
    return np.array(
        [theta(model.rho, model.sigma2, [M], [q], [s]) - s * r for s in range(1, M + 1)]
    )


class TestOneGroupExact:
    @given(**one_group, log_q=st.floats(-3.0, 2.0), ratio=st.floats(1.01, 10.0))
    def test_rows_fall_strictly_in_q(self, rho, sigma2, M, r, log_q, ratio):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        q = 10.0**log_q
        assert np.all(one_group_rows(model, q) > one_group_rows(model, ratio * q))

    @given(**one_group)
    def test_returned_q_is_feasible_and_binds(self, rho, sigma2, M, r):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        res = optimize_symmetric(model, lam=1.0 / M)
        rows = one_group_rows(model, res.q_groups[0])
        assert rows.max() <= 1e-12
        assert rows.max() >= -1e-9
        assert res.iterations == 1 and len(res.iterates) == 2
        assert res.n_constraints == M
        assert res.objective_trace[1] >= res.objective_trace[0]
        assert res.trace[0] == symmetric_distortion(model, 1.0 / M, res.iterates[0])
        assert res.trace[1] <= res.trace[0]

    @given(**{**one_group, "M": st.integers(2, 29)}, data=st.data())
    def test_matches_mm_on_two_equal_rate_groups(self, rho, sigma2, M, r, data):
        # ((k, r), (M - k, r)) is the same problem with J = 2, so the MM solves it.
        k = data.draw(st.integers(1, M - 1))
        exact = optimize_symmetric(
            SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),)), 1.0 / M
        )
        mm = optimize_symmetric(
            SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((k, r), (M - k, r))), 1.0 / M
        )
        assert exact.distortion <= mm.distortion * (1.0 + 1e-12)
        assert np.all(np.abs(mm.q_groups / exact.q_groups[0] - 1.0) <= 1e-6)

    @given(sigma2=one_group["sigma2"], M=one_group["M"], r=one_group["r"])
    def test_independent_sources_closed_form(self, sigma2, M, r):
        model = SymmetricSourceModel(rho=0.0, sigma2=sigma2, groups=((M, r),))
        q = optimize_symmetric(model, lam=1.0 / M).q_groups[0]
        assert q == pytest.approx(sigma2 / (2.0 ** (2.0 * r) - 1.0), rel=1e-12)

    def test_runs_neither_mm_nor_barrier(self, monkeypatch):
        def no_barrier(*args, **kwargs):
            raise AssertionError("a one-group model must not run the barrier")

        monkeypatch.setattr(mm_general, "minimize_linear", no_barrier)
        monkeypatch.setattr(mm_general, "interior_start", no_barrier)
        model = SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=((8, 3.0),))
        assert optimize_symmetric(model, lam=1.0 / 8).iterations == 1
        task = random_task(4, 16, samples_per_device=16, seed=5)
        trace = run_training(task, mbtc_aggregator(RateBudget(np.full(4, 2.0))), T=5, seed=6)
        assert np.all(np.isfinite(trace.loss_gap))

    @settings(max_examples=200)
    @given(**wide_one_group)
    def test_matches_reference_bisection(self, rho, sigma2, M, r):
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        sel = enumerate_selections([M])

        def feasible(q):
            return exact_rows(model, q, sel).max() <= 0.0

        q = optimize_symmetric(model, lam=1.0 / M).q_groups
        assert exact_rows(model, q, sel).max() <= 0.0
        reference = bisect_one_group(feasible, doubling_start(sigma2, 1, feasible))
        assert q[0] == pytest.approx(reference[0], rel=1e-12, abs=0.0)

    @settings(max_examples=200)
    @given(**{**wide_one_group, "rho": st.just(0.0) | wide_one_group["rho"], "M": st.integers(1, 64)})
    def test_every_row_holds_exactly(self, rho, sigma2, M, r):
        # At rho = 0 row s is s times row 1 up to rounding, so the sum-rate
        # row alone can read <= 0 while a smaller row rounds above 0: the
        # optimizer must test every row, each scaled by M / s.
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        q = optimize_symmetric(model, lam=1.0 / M).q_groups
        assert one_group_rows(model, q[0]).max() <= 0.0

    def test_lower_bracket_end_below_the_floor(self):
        # d = 2^39.5 - 1 puts sigma2 / d at 1.29e-12, above Q_MIN, and
        # (1 - rho) sigma2 / d at 6.4e-13, below it: the lower end is clamped
        # to Q_MIN, every row holds there, and it is the optimum.
        model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((5, 19.75),))
        res = optimize_symmetric(model, lam=0.2)
        assert res.q_groups[0] == Q_MIN
        assert res.iterates[0][0] > Q_MIN
        assert one_group_rows(model, res.q_groups[0]).max() <= 0.0

    @given(**wide_one_group)
    def test_closed_form_bracket(self, rho, sigma2, M, r):
        # With d = 2^(2r) - 1, every row holds at sigma2 / d and none has
        # slack at (1 - rho) sigma2 / d, up to rounding.
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        sel = enumerate_selections([M])
        d = 2.0 ** (2.0 * r) - 1.0
        tol = 16.0 * np.finfo(float).eps * r * sel[:, 0]
        assert np.all(exact_rows(model, [sigma2 / d], sel) <= tol)
        assert np.all(exact_rows(model, [(1.0 - rho) * sigma2 / d], sel) >= -tol)

    @staticmethod
    def _count_theta_calls(monkeypatch, rho, sigma2, M, r):
        theta_calls = []

        def counted(*args):
            theta_calls.append(args)
            return theta(*args)

        monkeypatch.setattr(mm_symmetric, "theta", counted)
        model = SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=((M, r),))
        optimize_symmetric(model, lam=1.0 / M)
        return len(theta_calls)

    @pytest.mark.parametrize(
        "rho, sigma2, M, r, calls",
        [
            # Ceilings the solve has always met; the Newton counts below are
            # the tight ones.
            (0.0, 1.0, 8, 3.0, 2),
            (0.0, 0.0137, 8, 3.0, 2),
            (0.0, 420.0, 8, 3.0, 2),
            (0.0, 2.5, 30, 1.0, 2),
            (0.9, 1.0, 10, 2.0, 25),
        ],
    )
    def test_theta_call_budget(self, monkeypatch, rho, sigma2, M, r, calls):
        assert 1 <= self._count_theta_calls(monkeypatch, rho, sigma2, M, r) <= calls

    @pytest.mark.parametrize(
        "rho, sigma2, M, r, calls",
        [
            # Independent sources: the single-source start is the optimum.
            (0.0, 1.0, 8, 3.0, 1),
            (0.0, 0.0137, 8, 3.0, 1),
            (0.0, 420.0, 8, 3.0, 1),
            (0.0, 2.5, 30, 1.0, 1),
            # The sweep's model (mbtc at 2 bits, rho 0.9, 10 devices).
            (0.9, 1.0, 10, 2.0, 9),
        ],
    )
    def test_newton_theta_call_budget(self, monkeypatch, rho, sigma2, M, r, calls):
        assert 1 <= self._count_theta_calls(monkeypatch, rho, sigma2, M, r) <= calls

    def test_infeasible_closed_form_end_falls_back_to_doubling(self, monkeypatch):
        # One extra millibit on every row puts the closed-form end far outside
        # what the one-ulp nudges reach; the doubling start still brackets q*.
        monkeypatch.setattr(mm_symmetric, "theta", lambda *args: theta(*args) + 1e-3)
        model = SymmetricSourceModel(rho=0.0, sigma2=1.0, groups=((6, 2.0),))
        sel = enumerate_selections([6])

        def feasible(q):
            return (mm_symmetric.theta(0.0, 1.0, [6], q, sel) - 2.0 * sel[:, 0]).max() <= 0.0

        res = optimize_symmetric(model, lam=1.0 / 6)
        assert res.q_groups[0] > 1.0 / 15.0
        assert feasible(res.q_groups) and feasible(res.iterates[0])
        reference = bisect_one_group(feasible, doubling_start(1.0, 1, feasible))
        assert res.q_groups[0] == pytest.approx(reference[0], rel=1e-12, abs=0.0)

    def test_extreme_rates_are_defined_without_warnings(self):
        def solve(rate):
            model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((4, rate),))
            return model, optimize_symmetric(model, lam=0.25).q_groups

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 2^(2r) overflows: the optimum sits below the floor.
            assert solve(600.0)[1][0] == Q_MIN
            # The root of the 50-digit rows (oracles.theta_decimal) is
            # 7213475203.56981703...; rounding 1 + x in theta gave 7213480713.5.
            q = solve(1e-10)[1][0]
            assert q == pytest.approx(7213475203.569817, rel=1e-15)
            # d = 2^(2r) - 1 is about 2 r ln 2 here; q* lies in [a/d, sigma2/d].
            model, q = solve(1e-300)
            d = np.expm1(2e-300 * np.log(2.0))
            assert np.isfinite(q[0]) and 0.5 / d <= q[0] <= 1.0 / d * (1.0 + 1e-12)
            assert exact_rows(model, q, enumerate_selections([4])).max() <= 0.0
            # sigma2 / d overflows: no finite q meets the rows.
            with pytest.raises(SolverError, match="float range"):
                solve(1e-320)
