"""Direct tests of the primal-dual interior-point solver on problems with
known optima."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedagg import barrier
from fedagg.barrier import interior_start, minimize_linear
from fedagg.errors import SolverError
from fedagg.mm_general import build_surrogate, find_feasible_init
from fedagg.model import Q_MIN, GaussianSourceModel, RateBudget
from oracles import lp_vertex_minimum


class HalfspaceConstraints:
    """Rows a_i . x <= b_i."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    def value(self, x):
        return self.A @ x - self.b

    def grad(self, x):
        return self.A

    def hess_weighted(self, x, w):
        return np.zeros(x.shape[0])


class CountingConstraints:
    """Wraps a constraint set and counts the solver's calls into it and the
    rows its value calls return."""

    def __init__(self, inner):
        self.inner = inner
        self.values = 0
        self.rows = 0
        self.grads = 0

    def value(self, x):
        g = self.inner.value(x)
        self.values += 1
        self.rows += g.shape[0]
        return g

    def grad(self, x):
        self.grads += 1
        return self.inner.grad(x)

    def hess_weighted(self, x, w):
        return self.inner.hess_weighted(x, w)


def count_barrier_evaluations(monkeypatch, module):
    """Route every minimize_linear call of module through
    CountingConstraints; the returned list collects the wrappers."""
    wrappers = []
    solver = module.minimize_linear

    def counted(f, cons, *args, **kwargs):
        wrappers.append(CountingConstraints(cons))
        return solver(f, wrappers[-1], *args, **kwargs)

    monkeypatch.setattr(module, "minimize_linear", counted)
    return wrappers


def simplex_problem():
    # min x + 2y s.t. -x <= -0.5, -y <= -0.25: optimum at (0.5, 0.25).
    cons = HalfspaceConstraints([[-1.0, 0.0], [0.0, -1.0]], [-0.5, -0.25])
    return np.array([1.0, 2.0]), cons, np.array([2.0, 2.0])


class TestMinimizeLinear:
    def test_simplex_vertex(self):
        f, cons, x0 = simplex_problem()
        x = minimize_linear(f, cons, x0, x_min=1e-12)
        assert np.abs(x - [0.5, 0.25]).max() < 1e-7

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simplex_vertex_at_small_scale(self):
        # The floor rows start at their own slack x0 - x_min: lifted to the
        # rate rows' 1e-3, they started this x far off its floor rows.
        f, cons, x0 = simplex_problem()
        small = HalfspaceConstraints(cons.A, cons.b * 1e-4)
        x = minimize_linear(f, small, x0 * 1e-4, x_min=1e-12)
        assert np.abs(x / 1e-4 - [0.5, 0.25]).max() < 1e-8

    def test_certified_stop_within_grad_gate(self):
        # The optimum is a vertex, where steps stop moving x in floating
        # point: the solve must end on its gap certificate, well inside the
        # Newton budget, rather than keep stepping.
        f, cons, x0 = simplex_problem()
        counted = CountingConstraints(cons)
        x = minimize_linear(f, counted, x0, x_min=1e-12)
        assert np.abs(x - [0.5, 0.25]).max() < 1e-7
        assert counted.grads <= 200

    def test_budget_face(self):
        # min -(x + y) s.t. x + y <= 1 and x, y <= 0.8: optimum value -1.
        cons = HalfspaceConstraints(
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 0.8, 0.8]
        )
        x = minimize_linear(np.array([-1.0, -1.0]), cons, np.array([0.3, 0.3]),
                            x_min=1e-12)
        assert np.sum(x) == pytest.approx(1.0, abs=1e-7)

    def test_floor_active(self):
        # min x with only the floor active: optimum at x_min.
        cons = HalfspaceConstraints([[1.0]], [10.0])
        x = minimize_linear(np.array([1.0]), cons, np.array([1.0]), x_min=0.01)
        assert x[0] == pytest.approx(0.01, abs=1e-6)

    def test_solver_error_carries_iterate(self, monkeypatch):
        monkeypatch.setattr(barrier, "MAX_NEWTON_TOTAL", 3)
        f, cons, x0 = simplex_problem()
        with pytest.raises(SolverError) as info:
            minimize_linear(f, cons, x0, x_min=1e-12)
        last = info.value.last_iterate
        assert np.all(cons.value(last) < 0) and np.all(last > 1e-12)

    def test_logs_solver_statistics(self, caplog):
        assert any(
            isinstance(h, logging.NullHandler) for h in logging.getLogger("fedagg").handlers
        )
        f, cons, x0 = simplex_problem()
        counted = CountingConstraints(cons)
        with caplog.at_level(logging.DEBUG, logger="fedagg.barrier"):
            minimize_linear(f, counted, x0, x_min=1e-12)
        records = [r for r in caplog.records if r.name == "fedagg.barrier"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        # One gradient per iteration, plus one at the certified point.
        assert f"{counted.grads - 1} iterations" in message
        for field in ("primal residual=", "dual residual=", "worst slack=", "pull-back="):
            assert field in message
        stats = {k.strip(): v for k, v in re.findall(r"([a-z ]+)=([^,\s]+)", message)}
        assert 0.0 <= float(stats["gap"]) <= 1e-9
        assert float(stats["dual residual"]) <= 1e-10
        assert re.search(r"worst slack=\S+ at row [01],", message)


@st.composite
def bounded_lps(draw):
    """The box [lo, lo + 1]^dim cut by 1-5 random half-spaces, each passing
    a margin beyond an interior point x0, and a random objective."""
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    lo = draw(st.floats(0.0, 1.0))
    x0 = lo + draw(arrays(float, dim, elements=st.floats(0.1, 0.9)))
    A = draw(arrays(float, (n, dim), elements=st.floats(-1.0, 1.0)))
    margin = draw(arrays(float, n, elements=st.floats(0.01, 1.0)))
    f = draw(arrays(float, dim, elements=st.floats(-1.0, 1.0)))
    rows = np.vstack([A, np.eye(dim)])
    return rows, np.r_[A @ x0 + margin, np.full(dim, lo + 1.0)], f, x0, lo


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(bounded_lps())
    def test_matches_vertex_oracle(self, lp):
        rows, bounds, f, x0, lo = lp
        x = minimize_linear(f, HalfspaceConstraints(rows, bounds), x0, x_min=lo)
        dim = x.shape[0]
        best = lp_vertex_minimum(
            np.vstack([rows, -np.eye(dim)]), np.r_[bounds, np.full(dim, -lo)], f
        )
        assert abs(f @ x - best) <= 1e-7
        assert np.all(rows @ x - bounds <= 0) and np.all(lo - x <= 0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(2, 4), budget=st.integers(1, 4))
    def test_budget_error_carries_strictly_feasible_iterate(self, seed, M, budget):
        # Nonlinear rows: iterates of the slack form may leave the region,
        # but the iterate handed back must be one that is strictly inside.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((M, M + 2))
        model = GaussianSourceModel(sigma_x=g @ g.T / (M + 2), c=rng.uniform(0.2, 1.0, M))
        rates = RateBudget(rng.uniform(0.5, 2.0, M))
        cons = build_surrogate(model, rates, find_feasible_init(model, rates))
        q0 = interior_start(cons.value, cons.expansion_point, Q_MIN)
        with mock.patch.object(barrier, "MAX_NEWTON_TOTAL", budget):
            with pytest.raises(SolverError) as info:
                minimize_linear(cons.objective_weights, cons, q0, x_min=Q_MIN)
        last = info.value.last_iterate
        assert np.all(cons.value(last) < 0) and np.all(last > Q_MIN)
