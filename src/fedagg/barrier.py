"""Primal-dual interior-point solver for small dense convex subproblems.

Minimizes f'x subject to smooth convex rows g(x) <= 0 and the linear rows
x_min - x <= 0 by Mehrotra's predictor-corrector (SIAM J. Optim. 1992;
Wright, Primal-Dual Interior-Point Methods, SIAM 1997) on the slack form
g(x) + s = 0 (Nocedal & Wright, Numerical Optimization, ch. 19), from
lambda = mu0 / s, mu0 fitting f + J'lambda = 0. The rows g start at
s = max(-g(x0), 1e-3): they read in bits, and slacks that start near zero
would shrink out of step with the dual residual. The floor rows start at their
own slack x0 - x_min, which reads in units of x; a floor of 1e-3 there would
start a small x far off its floor rows and stall the solve.
Each iteration takes R from one QR of [sqrt(lambda / s) J; sqrt(H)], H
diagonal, and solves R'R dx = rhs with two general (pivoted LU) solves, on R'
and then on R, for the predictor and the corrector (centering
(mu_aff / mu)^3). The floor rows give the stack full column rank.
R'R = H + J' diag(lambda / s) J, which is never formed: the
formed sum loses H once a few active rows outweigh the rest by about 1e16.
Steps are 0.95 of the longest that keeps s and lambda positive.

It stops on a certificate (Boyd & Vandenberghe, Convex Optimization, 11.7):
dual residual f + J'lambda <= 1e-10 and gap eta = -g(x)'lambda <= 1e-9, both
scaled by the objective. Convex rows bend up from their linearization, so x
can end just outside the region; it then moves to x + theta (x_in - x), x_in
the last strictly feasible iterate and theta the least that convexity proves
feasible, and f'(x_out - x) joins eta. Each solve logs one DEBUG record on
``fedagg.barrier``: iterations, gap, residuals, worst slack, its row, theta.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import SolverError

GAP_TOL = 1e-9
RESIDUAL_TOL = 1e-10
STEP_FRACTION = 0.95
SLACK_FLOOR = 1e-3
MAX_NEWTON_TOTAL = 200

logger = logging.getLogger(__name__)


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


def _max_step(s, ds, lam, dlam):
    """Largest alpha keeping s + alpha ds and lam + alpha dlam >= 0; s, lam > 0."""
    shrink = max(float((-ds / s).max()), float((-dlam / lam).max()))
    return 1.0 / shrink if shrink > 0 else np.inf


def minimize_linear(f, cons, x0, x_min=0.0):
    """Minimize f'x over {g(x) <= 0, x >= x_min} from a strictly feasible x0
    to a point where every row is <= 0. Raises SolverError, carrying the last
    strictly feasible iterate, after MAX_NEWTON_TOTAL iterations.

    cons is the constraint set of n smooth convex rows g(x) <= 0: value(x) ->
    (n,) array; grad(x) -> (n, dim) array; hess_weighted(x, w) -> (dim,)
    array, the diagonal of sum_i w_i * Hess g_i(x), which must be diagonal."""
    f, x = np.asarray(f, dtype=float), np.array(x0, dtype=float)
    dim = x.shape[0]
    x_min = np.broadcast_to(np.asarray(x_min, dtype=float), (dim,))
    floor_jac = -np.eye(dim)  # built once: the floor rows do not move

    def rows(xx):  # the constraint rows, then the floor rows
        return np.concatenate([cons.value(xx), x_min - xx])
    def jacobian(xx):
        return np.vstack([cons.grad(xx), floor_jac])

    g, jac = rows(x), jacobian(x)
    if not (g < 0).all():
        raise SolverError("initial point is not strictly feasible", last_iterate=x)
    n_cons = g.shape[0] - dim
    s = np.concatenate([np.maximum(-g[:n_cons], SLACK_FLOOR), -g[n_cons:]])
    v = jac.T @ (1.0 / s)
    mu0 = -float(f @ v) / max(float(v @ v), np.finfo(float).tiny)
    lam = (mu0 if mu0 > 0 else 1.0) / s
    for iteration in range(MAX_NEWTON_TOTAL + 1):
        if (g < 0).all():
            x_in, g_in = x, g
        r_dual = f + jac.T @ lam
        dual_res = float(np.abs(r_dual).max()) / max(1.0, float(np.abs(f).max()))
        if dual_res <= RESIDUAL_TOL and -g @ lam <= GAP_TOL * max(1.0, abs(f @ x)):
            out = g > 0
            theta = float((g[out] / (g[out] - g_in[out])).max()) if out.any() else 0.0
            x_out = x + theta * (x_in - x)
            g_out = rows(x_out) if theta else g
            gap = float(f @ (x_out - x) - g @ lam)
            if (g_out <= 0).all() and gap <= GAP_TOL * max(1.0, abs(f @ x_out)):
                worst = int(np.argmax(g_out[:n_cons])) if n_cons else -1
                logger.debug(
                    "barrier solve: %d iterations, gap=%.3g, primal residual=%.3g, "
                    "dual residual=%.3g, worst slack=%.3g at row %d, pull-back=%.3g",
                    iteration, gap, float(np.abs(g + s).max()), dual_res,
                    -g_out[worst] if n_cons else np.inf, worst, theta)
                return x_out
        if iteration == MAX_NEWTON_TOTAL:
            raise SolverError(f"barrier exceeded {iteration} Newton iterations", last_iterate=x_in)
        w, r_prim = lam / s, g + s
        h = cons.hess_weighted(x, lam[:n_cons])
        r = np.linalg.qr(np.vstack([np.sqrt(w)[:, None] * jac, np.diag(np.sqrt(h))]), mode="r")

        def direction(r_cent):
            # Newton step on (f + J'lam, g + s, s*lam - target), r_cent = s*lam - target
            rhs = jac.T @ (r_cent / s - w * r_prim) - r_dual
            dx = np.linalg.solve(r, np.linalg.solve(r.T, rhs))
            ds = -r_prim - jac @ dx
            return dx, -(r_cent + lam * ds) / s, ds

        _, dlam, ds = direction(s * lam)
        alpha = min(1.0, _max_step(s, ds, lam, dlam))
        mu = float(s @ lam) / s.shape[0]
        mu_aff = float((s + alpha * ds) @ (lam + alpha * dlam)) / s.shape[0]
        dx, dlam, ds = direction(s * lam + ds * dlam - (mu_aff / mu) ** 3 * mu)
        alpha = min(1.0, STEP_FRACTION * _max_step(s, ds, lam, dlam))
        x, lam, s = x + alpha * dx, lam + alpha * dlam, s + alpha * ds
        g, jac = rows(x), jacobian(x)
