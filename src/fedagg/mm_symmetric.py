"""Grouped symmetric MM optimizer.

Under equicorrelated sources, uniform target coefficients and grouped rate
budgets, the rate constraints collapse to one row theta(q, s) <= s . r per
selection vector s (per-group participation counts), and the objective to the
separable sum_j M_j / (q_j + a). With a = (1 - rho) sigma2 and
u = rho sigma2 / (a + q), theta(q, s) = 1/2 (s . log2(1 + a/q)
+ log2(1 + M . u) - log2(1 + (M - s) . u)) is the general subset rate on the
group subspace q_m = q_{j(m)}.

One group (J = 1, rate r) is solved exactly, with neither MM nor the barrier:
each row falls strictly in q (u falls in q, and the ratio rises in u), so the
feasible set is a half-line [q*, inf); M / (q + a) falls in q, so q* is the
optimum. With d = 2^(2r) - 1, q* lies in [a/d, sigma2/d]. The ratio
(1 + M . u) / (1 + (M - s) . u) is at least 1, so theta(q, s) >=
1/2 s log2(1 + a/q); it is at most 1 + s u <= (1 + u)^s, and
(1 + a/q)(1 + u) = 1 + sigma2/q, so theta(q, s) <= 1/2 s log2(1 + sigma2/q).
The ends differ by the factor 1 / (1 - rho) and meet at rho = 0, where
q* = sigma2/d. theta(q, s) is convex in s with theta(q, 0) = 0 (see below),
so theta(q, s) / s rises in s and the sum-rate row s = M binds. In y = 1/q
it reads 1/2 [(M - 1) log2(1 + a y) + log2(1 + c y)] - M r with
c = sigma2 (1 + (M - 1) rho), concave and rising, so each Newton step in y
from the feasible start sigma2/d lands between the last point and the root
(Ortega and Rheinboldt, 1970): q falls monotonically to q*, and at rho = 0
the start is q* and no step runs.

J >= 2 runs MM on the tangent surrogate of ``mm_general`` on the group
subspace. There theta(q, s) + 1/2 s . log2 q is the concave part of the
general rate (1/2 log2 det of a Schur complement, of a linear map of q), so
its tangent at q_hat gives a convex row W . q - 1/2 s . log2 q + k_s that lies
above theta and equals it at q_hat. This replaces the paper's theta_up, which
linearized only the log2(1 + (M - s) . u) term. MM stays monotone: q_hat is
feasible for the surrogate, its optimum is feasible for the exact rows, and the
linearized objective lies below the convex recast objective. Each surrogate is
solved by ``mm_general.solve_surrogate`` on a working set of rows that grows
until the returned point meets every row; a point optimal on a subset of the
rows and feasible for all of them is the optimum of the full surrogate.

The rows are the 2^J - 1 whole-group selections s = b * (M_1, ..., M_J),
b in {0, 1}^J minus 0, not all prod(M_j + 1) - 1 selections of the paper's
Algorithm 2 (7 rows, not 9,260, on 3 groups of 20 devices). They decide
feasibility exactly: at fixed q, row(s) = theta(q, s) - s . r is convex in s
on the box prod [0, M_j], since its only nonlinear term is
-1/2 log2(1 + (M - s) . u), minus the log of a positive affine function of s.
A convex function on a box peaks at a vertex (Rockafellar, Convex Analysis,
1970, Cor. 32.3.2), every vertex but s = 0 is a whole-group selection, and
row(0) = 0. So every selection row holds if and only if the whole-group rows
hold, and an MM on them solves the full problem. The barrier's point meets the
surrogate rows, which lie above the exact ones, but rounding can leave an
exact row a few ulps above 0; each MM step then nudges q up by 1, 2, 4, ...
ulps until every exact whole-group row reads <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .mm_general import (
    HALF_LOG2E,
    SurrogateProblem,
    check_eps,
    doubling_start,
    mm_loop,
    solve_surrogate,
)
from .model import Q_MIN, MbtcParams, SymmetricSourceModel
from .region import single_source_rd

MAX_SELECTIONS = 10**6
NUDGES = 8  # steps of 1, 2, 4, ... ulps that pull a rounded-out q into the exact rows


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
    selection (J,), an (n,) array for a stack of selections (n, J). Each
    log2(1 + x) is taken as log1p(x) / ln 2, so rates far below a bit keep
    their digits."""
    sizes = np.asarray(group_sizes, dtype=float)
    q = np.atleast_1d(np.asarray(q_groups, dtype=float))
    s = np.asarray(selection, dtype=float)
    a = (1.0 - rho) * sigma2
    u = rho * sigma2 / (a + q)
    bits = HALF_LOG2E * (
        s @ np.log1p(a / q) + np.log1p(sizes @ u) - np.log1p((sizes - s) @ u)
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
    # gain * (gain / denominator): gain**2 can leave the float range where
    # signal and the product do not (sigma2 = 1e300).
    return max(signal - gain * (gain / (1.0 / t + rho * sigma2)), 0.0)


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
        # sizes * inv^2 times sigma2^2: free of units, like the general path's w^2
        objective_weights=sizes * (model.sigma2 * inv) ** 2,
        linear_weights=lin,
        log_weights=sel,
        constants=bits - lin @ q_hat + 0.5 * sel @ np.log2(q_hat),
        budgets=sel @ model.group_rates,
        expansion_point=q_hat.copy(),
    )


def _solve_one_group(model: SymmetricSourceModel, worst):
    """Feasible start q0 and the smallest q, clamped at Q_MIN, with
    worst(q) <= 0.

    worst(q) is the largest exact row scaled by M / s: the sum-rate row up
    to rounding. The start sigma2/d is pulled in by ``_pull_in`` if rounding
    leaves it outside, and doubled if that fails. Newton steps in y = 1/q
    with the sum-rate row's slope (module docstring) run until one fails to
    lower q or reaches the lower end a/d; a step that rounding lands just
    outside is pulled in and ends the solve.
    """
    (size, rate), = model.groups
    a = (1.0 - model.rho) * model.sigma2
    c = a + size * model.rho * model.sigma2
    lowest = single_source_rd(a, rate)[0]
    q = single_source_rd(model.sigma2, rate)[0]
    if not np.isfinite(q):
        raise SolverError(f"one-group optimum exceeds the float range at rate {rate}")
    if q <= Q_MIN:
        return Q_MIN, Q_MIN

    def pulled_in(x, fx):  # x, where worst reads fx > 0, pulled in; None if no nudge holds
        nudged = _pull_in(x, lambda z: fx if z == x else worst(z))
        return None if nudged == x else nudged

    f = worst(q)
    if f > 0.0:
        q = pulled_in(q, f) or doubling_start(2.0 * q, 1, lambda x: worst(x) <= 0.0)[0]
        f = worst(q)
    q0 = q
    while f < 0.0:
        # y - f / g'(y), where y g'(y) = 1/2 log2(e) ((M - 1) a / (a + q) + c / (c + q))
        step = max(q / (1.0 - f / (HALF_LOG2E * ((size - 1) * a / (a + q) + c / (c + q)))), Q_MIN)
        if not lowest < step < q:
            break
        f_step = worst(step)
        if f_step > 0.0:
            return q0, min(q, pulled_in(step, f_step) or q)
        q, f = step, f_step
    return q0, q


def _pull_in(q, rows):
    """The first of q and its NUDGES nudges up by 1, 2, 4, ... ulps at which
    every exact row (rows(q)) reads <= 0; q itself if none does."""
    x = q
    for k in range(NUDGES):
        if rows(x).max() <= 0.0:
            return x
        x = x + np.spacing(x) * 2.0**k
    return x if rows(x).max() <= 0.0 else q


@dataclass(frozen=True)
class SymmetricOptimizeResult:
    """Per-device parameters plus distortion/objective traces."""

    q: MbtcParams  # expanded per-device
    q_groups: np.ndarray
    distortion: float
    trace: tuple  # distortion after each iteration (non-increasing)
    objective_trace: tuple  # recast objective (non-decreasing)
    iterations: int
    n_constraints: int  # prod(M_j + 1) - 1 selection rows of the problem
    iterates: tuple = ()  # q_groups per iteration, starting at the initializer


def optimize_symmetric(
    model: SymmetricSourceModel,
    lam: float,
    eps: float = 1e-6,
    max_iter: int = 200,
) -> SymmetricOptimizeResult:
    """MM loop on the grouped recast problem; expands q per device at the end.

    One group runs no MM: its optimum comes from Newton steps (module
    docstring), reported as one iteration from the single-source start. Two
    or more groups carry the 2^J - 1 whole-group rows; more than
    MAX_SELECTIONS of them raise ValueError."""
    if lam == 0 or not np.isfinite(lam):
        raise ValueError(f"lambda must be nonzero and finite, got {lam}")
    check_eps(eps)
    sizes = model.group_sizes
    if len(sizes) == 1:
        selections = enumerate_selections(sizes)
    else:  # whole groups decide feasibility (module docstring)
        selections = sizes * enumerate_selections(np.ones_like(sizes))
    budgets = selections @ model.group_rates

    def rows(q):  # exact theta(q, s) - s . r of every selection carried
        return theta(model.rho, model.sigma2, sizes, q, selections) - budgets

    def objective(q):
        return symmetric_objective(model.rho, model.sigma2, sizes, q)

    work = np.zeros(selections.shape[0], dtype=bool)

    def step(q):
        return _pull_in(solve_surrogate(_build_surrogate(model, selections, q), work), rows)

    if len(sizes) == 1:
        per_device = sizes[0] / selections[:, 0]  # M / s
        solved = _solve_one_group(model, lambda q: (rows(q) * per_device).max())
        q0, q = np.reshape(solved, (2, 1))
        obj_trace, iterates, iterations = (objective(q0), objective(q)), (q0, q), 1
    else:
        q0 = doubling_start(model.sigma2, len(sizes), lambda q: rows(q).max() <= 0.0)
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
        n_constraints=math.prod(int(m) + 1 for m in sizes) - 1,
        iterates=iterates,
    )
