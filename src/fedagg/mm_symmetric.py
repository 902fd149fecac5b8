"""Grouped symmetric MM optimizer.

Under equicorrelated sources, uniform target coefficients, and grouped rate
budgets, the rate constraints collapse to one row per selection vector
(per-group participation counts), and the objective becomes separable in the
J group variances.

A model with one group (J = 1, every device on the same budget r) is solved
exactly, with neither MM nor the barrier. Its rows are
theta(q, s) = s/2 log2(1 + a/q) + 1/2 log2((1 + M u) / (1 + (M - s) u)) for
s = 1..M, with a = (1 - rho) sigma2 and u = rho sigma2 / (a + q). Both terms
fall strictly in q (u falls in q, and the ratio rises in u), so the feasible
set {q : theta(q, s) <= s r for every s} is a half-line [q*, inf). The
objective M / (q + a) falls in q, so q* is the optimum: a geometric bisection
on the exact rows finds it to the last bit. Models with J >= 2 run the MM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import ConstraintSet, interior_start, minimize_linear
from .errors import SolverError
from .mm_general import mm_loop
from .model import Q_MIN, MbtcParams, SymmetricSourceModel
from .region import LOG2E

MAX_SELECTIONS = 10**6
HALF_LOG2E = 0.5 * LOG2E


def enumerate_selections(group_sizes) -> np.ndarray:
    """All per-group count vectors with at least one device selected.

    Lexicographic (itertools.product) order; shape (prod(M_j + 1) - 1, J).
    """
    sizes = np.atleast_1d(np.asarray(group_sizes, dtype=int))
    total = int(np.prod(sizes + 1))
    if total > MAX_SELECTIONS:
        raise ValueError(f"selection count {total} exceeds cap {MAX_SELECTIONS}")
    return np.ascontiguousarray(np.indices(tuple(sizes + 1)).reshape(sizes.size, -1).T[1:])


def theta(rho, sigma2, group_sizes, q_groups, selection) -> float:
    """Exact per-selection rate requirement in bits/symbol."""
    sizes = np.asarray(group_sizes, dtype=float)
    q = np.atleast_1d(np.asarray(q_groups, dtype=float))
    s = np.asarray(selection, dtype=float)
    a = (1.0 - rho) * sigma2
    t1 = 0.5 * np.sum(s * np.log2(1.0 + a / q))
    t2 = 0.5 * np.log2(1.0 + np.sum(sizes * rho * sigma2 / (a + q)))
    t3 = 0.5 * np.log2(1.0 + np.sum((sizes - s) * rho * sigma2 / (a + q)))
    return float(t1 + t2 - t3)


def theta_up(rho, sigma2, group_sizes, q_groups, selection, q_hat_groups) -> float:
    """Convex majorant of theta: third term replaced by its tangent at q_hat."""
    sizes = np.asarray(group_sizes, dtype=float)
    q = np.atleast_1d(np.asarray(q_groups, dtype=float))
    q_hat = np.atleast_1d(np.asarray(q_hat_groups, dtype=float))
    s = np.asarray(selection, dtype=float)
    a = (1.0 - rho) * sigma2
    t1 = 0.5 * np.sum(s * np.log2(1.0 + a / q))
    t2 = 0.5 * np.log2(1.0 + np.sum(sizes * rho * sigma2 / (a + q)))
    rest = (sizes - s) * rho * sigma2
    h_hat = 1.0 + np.sum(rest / (a + q_hat))
    t3 = -0.5 * np.log2(h_hat)
    t4 = HALF_LOG2E / h_hat * np.sum(rest / (a + q_hat) ** 2 * (q - q_hat))
    return float(t1 + t2 + t3 + t4)


def symmetric_objective(rho, sigma2, group_sizes, q_groups) -> float:
    """Recast objective sum_j M_j / (q_j + (1-rho) s2), to be maximized."""
    sizes = np.asarray(group_sizes, dtype=float)
    q = np.atleast_1d(np.asarray(q_groups, dtype=float))
    return float(np.sum(sizes / (q + (1.0 - rho) * sigma2)))


def symmetric_distortion(model: SymmetricSourceModel, lam: float, q_groups) -> float:
    """Distortion of the expanded model via the rank-one inversion identity."""
    M = model.M
    rho, sigma2 = model.rho, model.sigma2
    t = symmetric_objective(rho, sigma2, model.group_sizes, q_groups)
    signal = lam**2 * M * sigma2 * (1.0 + (M - 1) * rho)
    gain = ((M - 1) * rho + 1.0) * lam * sigma2
    return max(signal - gain**2 / (1.0 / t + rho * sigma2), 0.0)


class _ThetaUpConstraints(ConstraintSet):
    """Vectorized theta_up rows minus per-selection budgets."""

    def __init__(self, model: SymmetricSourceModel, selections, q_hat):
        self.sizes = model.group_sizes.astype(float)
        self.rho = model.rho
        self.sigma2 = model.sigma2
        self.a = (1.0 - model.rho) * model.sigma2
        self.sel = selections.astype(float)  # (n, J)
        self.q_hat = np.asarray(q_hat, dtype=float)
        self.budgets = self.sel @ model.group_rates
        rest = (self.sizes[None, :] - self.sel) * self.rho * self.sigma2  # (n, J)
        self.h_hat = 1.0 + rest @ (1.0 / (self.a + self.q_hat))
        self.tangent = rest / (self.a + self.q_hat) ** 2 / self.h_hat[:, None]  # (n,J)
        self.const = (
            -0.5 * np.log2(self.h_hat)
            - HALF_LOG2E * self.tangent @ self.q_hat
            - self.budgets
        )

    def value(self, q):
        inv = 1.0 / (self.a + q)
        t1 = 0.5 * self.sel @ np.log2(1.0 + self.a / q)
        t2 = 0.5 * np.log2(1.0 + (self.sizes * self.rho * self.sigma2 * inv).sum())
        t4 = HALF_LOG2E * self.tangent @ q
        return t1 + t2 + t4 + self.const

    def grad(self, q):
        inv = 1.0 / (self.a + q)
        # d/dq of 0.5*log2((q + a)/q) is (1/(2 ln 2)) (1/(q+a) - 1/q)
        g1 = HALF_LOG2E * self.sel * (inv - 1.0 / q)[None, :]
        coef = self.sizes * self.rho * self.sigma2
        h = 1.0 + (coef * inv).sum()
        g2 = HALF_LOG2E * (-coef * inv**2) / h
        return g1 + g2 + HALF_LOG2E * self.tangent

    def hess_weighted(self, q, w):
        inv = 1.0 / (self.a + q)
        d1 = HALF_LOG2E * (w @ self.sel) * (1.0 / q**2 - inv**2)
        coef = self.sizes * self.rho * self.sigma2
        h = 1.0 + (coef * inv).sum()
        u1 = -coef * inv**2
        w_sum = float(w.sum())
        d2 = HALF_LOG2E * w_sum * (2.0 * coef * inv**3) / h
        rank1 = -HALF_LOG2E * w_sum * np.outer(u1, u1) / h**2
        return np.diag(d1 + d2) + rank1


def _find_feasible_groups(model: SymmetricSourceModel, selections) -> np.ndarray:
    # theta_up expanded at q itself is theta, so the rows' values at q are
    # the exact per-selection requirements minus budgets.
    alpha = model.sigma2
    for _ in range(200):
        q = np.full(len(model.group_sizes), alpha)
        if np.all(_ThetaUpConstraints(model, selections, q).value(q) <= 1e-12):
            return q
        alpha *= 2.0
    raise SolverError("feasible initializer did not terminate")  # pragma: no cover


def _bisect_one_group(model: SymmetricSourceModel, selections, q0: np.ndarray) -> np.ndarray:
    """Smallest q, clamped at Q_MIN, whose exact one-group rows are all <= 0;
    q0 is feasible. Each row falls strictly in q, so feasibility is monotone:
    halve down to an infeasible point, then bisect geometrically until the
    bracket stops shrinking, and return its feasible end."""

    def feasible(q):
        x = np.array([q])
        return _ThetaUpConstraints(model, selections, x).value(x).max() <= 0.0

    hi = float(q0[0])
    lo = 0.5 * hi
    while feasible(lo):
        if lo <= Q_MIN:
            return np.array([Q_MIN])
        hi, lo = lo, 0.5 * lo
    while lo < (mid := np.sqrt(lo * hi)) < hi:
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return np.array([max(hi, Q_MIN)])


@dataclass(frozen=True)
class SymmetricOptimizeResult:
    """Per-device parameters plus distortion/objective traces."""

    q: MbtcParams  # expanded per-device
    q_groups: np.ndarray
    distortion: float
    trace: tuple  # distortion after each iteration (non-increasing)
    objective_trace: tuple  # recast objective (non-decreasing)
    iterations: int
    n_constraints: int
    iterates: tuple = ()  # q_groups per iteration, starting at the initializer


def optimize_symmetric(
    model: SymmetricSourceModel,
    lam: float,
    eps: float = 1e-6,
    max_iter: int = 200,
) -> SymmetricOptimizeResult:
    """MM loop on the grouped recast problem (one group: exact bisection, one
    iteration); expands q per device at the end."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    sizes = model.group_sizes
    selections = enumerate_selections(sizes)
    a = (1.0 - model.rho) * model.sigma2

    def objective(q):
        return symmetric_objective(model.rho, model.sigma2, sizes, q)

    def step(q):
        cons = _ThetaUpConstraints(model, selections, q)
        # Surrogate objective: minimize sum_j M_j q_j / (q_hat_j + a)^2.
        f = sizes.astype(float) / (q + a) ** 2
        q0 = interior_start(cons.value, q, Q_MIN)
        return minimize_linear(f, cons, q0, x_min=Q_MIN)

    q0 = _find_feasible_groups(model, selections)
    if len(sizes) == 1:
        q = _bisect_one_group(model, selections, q0)
        obj_trace, iterates, iterations = (objective(q0), objective(q)), (q0, q), 1
    else:
        q, obj_trace, iterates, iterations = mm_loop(q0, objective, step, eps, max_iter)
    d_trace = [symmetric_distortion(model, lam, x) for x in iterates]
    d_trace += d_trace[-1:] * (len(obj_trace) - len(d_trace))  # after a regression
    return SymmetricOptimizeResult(
        q=MbtcParams(np.repeat(q, sizes)),
        q_groups=q,
        distortion=symmetric_distortion(model, lam, q),
        trace=tuple(d_trace),
        objective_trace=obj_trace,
        iterations=iterations,
        n_constraints=selections.shape[0],
        iterates=iterates,
    )
