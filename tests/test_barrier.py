"""Direct tests of the log-barrier solver on problems with known optima."""

import logging

import numpy as np
import pytest

from fedagg import barrier
from fedagg.barrier import ConstraintSet, minimize_linear
from fedagg.errors import SolverError


class HalfspaceConstraints(ConstraintSet):
    """Rows a_i . x <= b_i."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    def value(self, x):
        return self.A @ x - self.b

    def grad(self, x):
        return self.A

    def hess_weighted(self, x, w):
        return np.zeros((x.shape[0], x.shape[0]))


class CountingConstraints(ConstraintSet):
    """Wraps a constraint set and counts the solver's calls into it."""

    def __init__(self, inner):
        self.inner = inner
        self.values = 0
        self.grads = 0

    def value(self, x):
        self.values += 1
        return self.inner.value(x)

    def grad(self, x):
        self.grads += 1
        return self.inner.grad(x)

    def hess_weighted(self, x, w):
        return self.inner.hess_weighted(x, w)


def simplex_problem():
    # min x + 2y s.t. -x <= -0.5, -y <= -0.25: optimum at (0.5, 0.25).
    cons = HalfspaceConstraints([[-1.0, 0.0], [0.0, -1.0]], [-0.5, -0.25])
    return np.array([1.0, 2.0]), cons, np.array([2.0, 2.0])


class TestMinimizeLinear:
    def test_simplex_vertex(self):
        f, cons, x0 = simplex_problem()
        x = minimize_linear(f, cons, x0, x_min=1e-12)
        assert np.abs(x - [0.5, 0.25]).max() < 1e-7

    def test_stalled_stages_end_early(self):
        # With newton_tol = 0 no stage ends on its decrement; the stages at
        # large t stall once the accepted step no longer changes x, and each
        # must end there instead of repeating that step up to the stage cap.
        f, cons, x0 = simplex_problem()
        counted = CountingConstraints(cons)
        x = minimize_linear(f, counted, x0, x_min=1e-12, newton_tol=0.0)
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
        assert f"{counted.grads} Newton steps" in message
        assert "stages" in message and "stalled" in message and "final t=" in message
