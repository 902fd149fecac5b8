"""Primal log-barrier interior-point solver for small dense convex subproblems.

Minimizes a linear objective f'x subject to smooth convex constraints
g_i(x) <= 0 and box lower bounds x >= x_min. Newton steps with backtracking
line search (alpha = 0.25, beta = 0.5); barrier parameter t scales by 10 per
outer stage from t = 1 until n_constraints / t < 1e-9 (centering as in Boyd &
Vandenberghe, Convex Optimization, section 11.3).

A centering stage ends when the Newton decrement falls below tolerance, after
40 steps, or when it stalls: the accepted iterate x + lam * step equals x in
floating point (or the line search underflows). Every further step of a
stalled stage would recompute the same step from the same x, so ending it
returns the same point and keeps the 500-step budget for later stages.

Each solve logs one DEBUG record on the ``fedagg.barrier`` logger with its
Newton steps, stages, stalled stages and final t.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import SolverError

ALPHA = 0.25
BETA = 0.5
T_INIT = 1.0
T_SCALE = 10.0
GAP_TOL = 1e-9
MAX_NEWTON_TOTAL = 500
MAX_NEWTON_PER_STAGE = 40

logger = logging.getLogger(__name__)


class ConstraintSet:
    """Interface for a batch of smooth convex constraints g(x) <= 0.

    value(x) -> (n,) array; grad(x) -> (n, dim) array;
    hess_weighted(x, w) -> (dim, dim) array equal to sum_i w_i * Hess g_i(x).
    """

    def value(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def grad(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def hess_weighted(self, x, w):  # pragma: no cover - interface
        raise NotImplementedError


def interior_start(values, x_hat, x_min):
    """A strictly interior point near an expansion point x_hat.

    Scales x_hat up until every constraint value is negative. MM surrogates
    share the exact rate gradient at x_hat, which is strictly negative in
    every coordinate, so scaling up moves strictly into the interior.
    """
    for bump in (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 3.0, 7.0, 15.0):
        cand = x_hat * (1.0 + bump)
        if np.all(values(cand) < 0) and np.all(cand > x_min):
            return cand
    raise SolverError("could not find a strictly interior start", last_iterate=x_hat)


def minimize_linear(f, cons: ConstraintSet, x0, x_min=0.0, newton_tol=1e-10):
    """Barrier minimization of f'x over {g(x) <= 0, x >= x_min}.

    x0 must be strictly feasible. Raises SolverError (carrying the last
    iterate) if the Newton-iteration budget is exhausted.
    """
    f = np.asarray(f, dtype=float)
    x = np.array(x0, dtype=float)
    dim = x.shape[0]
    x_min = np.broadcast_to(np.asarray(x_min, dtype=float), (dim,))
    g0 = cons.value(x)
    if np.any(g0 >= 0) or np.any(x <= x_min):
        raise SolverError("initial point is not strictly feasible", last_iterate=x)
    n_cons = g0.shape[0] + dim

    def phi(xx, t):
        # Array methods, not np.any/np.sum: phi runs a few hundred times per
        # solve, and the module-level wrappers cost more than the reductions.
        if (xx <= x_min).any():
            return np.inf
        g = cons.value(xx)
        if (g >= 0).any():
            return np.inf
        return t * f @ xx - np.log(-g).sum() - np.log(xx - x_min).sum()

    t = T_INIT
    newton_used = 0
    stages = stalled = 0
    while True:
        # Newton centering for the current t. At large t the decrement can
        # float just above tolerance; the per-stage cap accepts the
        # approximately centered point instead of burning the budget.
        stages += 1
        stage_used = 0
        while stage_used < MAX_NEWTON_PER_STAGE:
            if newton_used >= MAX_NEWTON_TOTAL:
                raise SolverError(
                    f"barrier solver exceeded {MAX_NEWTON_TOTAL} Newton iterations",
                    last_iterate=x,
                )
            newton_used += 1
            stage_used += 1
            g = cons.value(x)
            s = -g
            jac = cons.grad(x)
            inv_s = 1.0 / s
            grad = t * f + jac.T @ inv_s + (-1.0 / (x - x_min))
            hess = (
                (jac * inv_s[:, None] ** 2).T @ jac
                + cons.hess_weighted(x, inv_s)
                + np.diag(1.0 / (x - x_min) ** 2)
            )
            try:
                step = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
            decrement2 = float(-grad @ step)
            if decrement2 / 2.0 <= newton_tol:
                break
            # phi(x, t) from the g above: x is strictly feasible here.
            base = t * f @ x - np.log(-g).sum() - np.log(x - x_min).sum()
            slope = float(grad @ step)
            lam = 1.0
            while phi(x + lam * step, t) > base + ALPHA * lam * slope:
                lam *= BETA
                if lam < 1e-14:
                    break
            x_new = x + lam * step
            if lam < 1e-14 or np.array_equal(x_new, x):
                stalled += 1
                break
            x = x_new
        if n_cons / t < GAP_TOL:
            logger.debug(
                "barrier solve: %d Newton steps, %d stages (%d stalled), final t=%g",
                newton_used, stages, stalled, t,
            )
            return x
        t *= T_SCALE
