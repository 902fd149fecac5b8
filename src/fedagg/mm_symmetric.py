"""Grouped symmetric MM optimizer.

Under equicorrelated sources, uniform target coefficients and grouped rate
budgets, the rate constraints collapse to one row theta(q, s) <= s . r per
selection vector s (per-group participation counts), and the objective to the
separable sum_j M_j / (q_j + a). With a = (1 - rho) sigma2 and
u = rho sigma2 / (a + q), theta(q, s) = 1/2 (s . log2(1 + a/q)
+ log2(1 + M . u) - log2(1 + (M - s) . u)) is the general subset rate on the
group subspace q_m = q_{j(m)}.

One group (J = 1) is solved exactly, with neither MM nor the barrier: each
row falls strictly in q (u falls in q, and the ratio rises in u), so the
feasible set is a half-line [q*, inf); M / (q + a) falls in q, so q* is the
optimum, and a geometric bisection on the exact rows finds it to the last bit.

J >= 2 runs MM on the tangent surrogate of ``mm_general`` on the group
subspace. There theta(q, s) + 1/2 s . log2 q is the concave part of the
general rate (1/2 log2 det of a Schur complement, of a linear map of q), so
its tangent at q_hat gives a convex row W . q - 1/2 s . log2 q + k_s that lies
above theta and equals it at q_hat. This replaces the paper's theta_up, which
linearized only the log2(1 + (M - s) . u) term. MM stays monotone: q_hat is
feasible for the surrogate, its optimum is feasible for the exact rows, and the
linearized objective lies below the convex recast objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import interior_start, minimize_linear
from .mm_general import HALF_LOG2E, SurrogateProblem, check_eps, doubling_start, mm_loop
from .model import Q_MIN, MbtcParams, SymmetricSourceModel

MAX_SELECTIONS = 10**6


def enumerate_selections(group_sizes) -> np.ndarray:
    """All per-group count vectors with at least one device selected.

    Lexicographic (itertools.product) order; shape (prod(M_j + 1) - 1, J).
    """
    sizes = np.atleast_1d(np.asarray(group_sizes, dtype=int))
    total = int(np.prod(sizes + 1))
    if total > MAX_SELECTIONS:
        raise ValueError(f"selection count {total} exceeds cap {MAX_SELECTIONS}")
    return np.ascontiguousarray(np.indices(tuple(sizes + 1)).reshape(sizes.size, -1).T[1:])


def theta(rho, sigma2, group_sizes, q_groups, selection):
    """Exact per-selection rate requirement in bits/symbol: a float for one
    selection (J,), an (n,) array for a stack of selections (n, J)."""
    sizes = np.asarray(group_sizes, dtype=float)
    q = np.atleast_1d(np.asarray(q_groups, dtype=float))
    s = np.asarray(selection, dtype=float)
    a = (1.0 - rho) * sigma2
    u = rho * sigma2 / (a + q)
    bits = 0.5 * (
        s @ np.log2(1.0 + a / q) + np.log2(1.0 + sizes @ u) - np.log2(1.0 + (sizes - s) @ u)
    )
    return float(bits) if s.ndim == 1 else bits


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


def _build_surrogate(model: SymmetricSourceModel, selections, q_hat) -> SurrogateProblem:
    """Tangent rows of every selection at q_hat (see the module docstring)."""
    sizes, sel = model.group_sizes.astype(float), selections.astype(float)
    c = model.rho * model.sigma2
    inv = 1.0 / ((1.0 - model.rho) * model.sigma2 + q_hat)
    rest = sizes - sel
    lin = HALF_LOG2E * (
        sel * inv
        - sizes * c * inv**2 / (1.0 + sizes @ (c * inv))
        + rest * c * inv**2 / (1.0 + rest @ (c * inv))[:, None]
    )
    bits = theta(model.rho, model.sigma2, sizes, q_hat, sel)
    return SurrogateProblem(
        objective_weights=sizes * inv**2,
        linear_weights=lin,
        log_weights=sel,
        constants=bits - lin @ q_hat + 0.5 * sel @ np.log2(q_hat),
        budgets=sel @ model.group_rates,
        expansion_point=q_hat.copy(),
    )


def _bisect_one_group(feasible, q0: np.ndarray) -> np.ndarray:
    """Smallest q, clamped at Q_MIN, that meets the exact one-group rows
    (feasible(q)); q0 is feasible. Each row falls strictly in q, so
    feasibility is monotone: halve down to an infeasible point, then bisect
    geometrically until the bracket stops shrinking, and return its feasible
    end."""
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
    if lam == 0 or not np.isfinite(lam):
        raise ValueError(f"lambda must be nonzero and finite, got {lam}")
    check_eps(eps)
    sizes = model.group_sizes
    selections = enumerate_selections(sizes)
    budgets = selections @ model.group_rates

    def feasible(q):  # every exact row theta(q, s) - s . r is <= 0
        return (theta(model.rho, model.sigma2, sizes, q, selections) - budgets).max() <= 0.0

    def objective(q):
        return symmetric_objective(model.rho, model.sigma2, sizes, q)

    def step(q):
        problem = _build_surrogate(model, selections, q)
        q0 = interior_start(problem.value, q, Q_MIN)
        return minimize_linear(problem.objective_weights, problem, q0, x_min=Q_MIN)

    q0 = doubling_start(model.sigma2, len(sizes), feasible)
    if len(sizes) == 1:
        q = _bisect_one_group(feasible, q0)
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
