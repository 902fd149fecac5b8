"""General-case MM optimizer for the distortion minimization problem.

Each iteration builds a convex surrogate (linear objective, linear-minus-log
rate constraints tight at the expansion point) and solves it with the
primal-dual interior-point solver of ``barrier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barrier import ConstraintSet, interior_start, minimize_linear
from .errors import SolverError
from .model import Q_MIN, GaussianSourceModel, MbtcParams, RateBudget
from .region import LOG2E, _membership, all_subsets, by_complement_size, distortion, is_feasible

HALF_LOG2E = 0.5 * LOG2E


def _expansion(sigma: np.ndarray, qv: np.ndarray, idx: np.ndarray, comp: np.ndarray):
    """Stacked (E_S, F_S) at qv for n subsets of one size, given as (n, |S|)
    and (n, |S^c|) device indices. An empty complement gives E of width 0
    and F = G.
    """
    cross = _blocks(sigma, idx, comp)
    comp_block = _blocks(sigma, comp, comp)
    _add_diagonal(comp_block, qv[comp])
    E = np.linalg.solve(comp_block, cross.swapaxes(1, 2)).swapaxes(1, 2)
    F = _blocks(sigma, idx, idx)
    _add_diagonal(F, qv[idx])
    F -= E @ cross.swapaxes(1, 2)
    return E, F


def _blocks(sigma: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stacked submatrices sigma[rows[i]][:, cols[i]] (a copy)."""
    return sigma[rows[:, :, None], cols[:, None, :]]


def _add_diagonal(blocks: np.ndarray, d: np.ndarray) -> None:
    """Add d[i] to the diagonal of blocks[i] in place."""
    k = np.arange(d.shape[1])
    blocks[:, k, k] += d


def expansion_matrices(model: GaussianSourceModel, q_hat, S):
    """Tangency matrices (E_S, F_S) for a proper subset, or G for the full set."""
    qv = q_hat.q if isinstance(q_hat, MbtcParams) else np.asarray(q_hat, dtype=float)
    _, idx, comp = next(by_complement_size(_membership(S, model.M)[None, :]))
    E, F = _expansion(model.sigma_x, qv, idx, comp)
    return (E[0], F[0]) if comp.size else F[0]


def _tangent_rows(sigma: np.ndarray, idx: np.ndarray, comp: np.ndarray, E, F):
    """Weights w (n, M) and constants k (n,) of the majorants chi_S + xi_S of
    n subset mutual informations, w . q - 0.5 * sum_{m in S} log2(q_m) + k,
    each tight where its (E, F) were formed. Subsets share one size and come
    as in _expansion; the full set is the subset with an empty complement.
    """
    f_inv = np.linalg.inv(F)
    E_t = E.swapaxes(1, 2)
    cross = _blocks(sigma, idx, comp)
    w = np.zeros((idx.shape[0], sigma.shape[0]))
    np.put_along_axis(w, idx, HALF_LOG2E * np.diagonal(f_inv, axis1=1, axis2=2), axis=1)
    np.put_along_axis(
        w, comp, HALF_LOG2E * np.diagonal(E_t @ f_inv @ E, axis1=1, axis2=2), axis=1
    )
    inner = (
        _blocks(sigma, idx, idx)
        + E @ _blocks(sigma, comp, comp) @ E_t
        - E @ cross.swapaxes(1, 2)
        - cross @ E_t
    )
    const = (
        0.5 * np.linalg.slogdet(F)[1] * LOG2E
        + HALF_LOG2E * np.trace(f_inv @ inner, axis1=1, axis2=2)
        - idx.shape[1] * HALF_LOG2E
    )
    return w, const


def chi_xi(model: GaussianSourceModel, E, F, q, S) -> float:
    """Upper bound chi_S + xi_S on the conditional (or sum) mutual information.

    For the full set, pass E = None and F = G.
    """
    qv = q.q if isinstance(q, MbtcParams) else np.asarray(q, dtype=float)
    _, idx, comp = next(by_complement_size(_membership(S, model.M)[None, :]))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    try:
        np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        raise ValueError("F (or G) must be positive definite") from None
    E = np.reshape(np.asarray([] if E is None else E, dtype=float), (idx.size, comp.size))
    w, const = _tangent_rows(model.sigma_x, idx, comp, E[None], F[None])
    return float(w[0] @ qv - 0.5 * np.sum(np.log2(qv[idx[0]])) + const[0])


@dataclass(frozen=True)
class SurrogateProblem:
    """Convex surrogate: minimize sum b_m^2 q_m s.t. linear-minus-log rate rows.

    Row i reads: linear_weights[i] . q - 0.5 * sum_{m in log_mask[i]} log2(q_m)
    + constants[i] <= budgets[i].
    """

    objective_weights: np.ndarray  # b_m^2
    masks: tuple  # subset bitmask per constraint row
    linear_weights: np.ndarray  # (n, M)
    log_mask: np.ndarray  # (n, M) bool
    constants: np.ndarray  # (n,)
    budgets: np.ndarray  # (n,)
    expansion_point: np.ndarray = field(default=None)

    def constraint_values(self, q: np.ndarray) -> np.ndarray:
        logs = self.log_mask @ np.log2(q)
        return self.linear_weights @ q - 0.5 * logs + self.constants - self.budgets


class _SurrogateConstraints(ConstraintSet):
    def __init__(self, problem: SurrogateProblem):
        self.p = problem

    def value(self, q):
        return self.p.constraint_values(q)

    def grad(self, q):
        return self.p.linear_weights - HALF_LOG2E * self.p.log_mask / q[None, :]

    def hess_weighted(self, q, w):
        diag = HALF_LOG2E * (w @ self.p.log_mask) / q**2
        return np.diag(diag)


def build_surrogate(
    model: GaussianSourceModel, budget: RateBudget, q_hat
) -> SurrogateProblem:
    """Expand all 2^M - 1 rate constraints at q_hat; q_hat must be feasible."""
    q_hat = q_hat if isinstance(q_hat, MbtcParams) else MbtcParams(q_hat)
    feasible, worst = is_feasible(model, q_hat, budget)
    if not feasible:
        raise ValueError(f"expansion point is infeasible (worst slack {worst:.3e})")
    sigma = model.sigma_x
    qv = q_hat.q
    b = np.linalg.solve(sigma + np.diag(qv), sigma @ model.c)
    members = all_subsets(model.M)
    lin = np.empty(members.shape)
    consts = np.empty(members.shape[0])
    for rows, idx, comp in by_complement_size(members):
        E, F = _expansion(sigma, qv, idx, comp)
        lin[rows], consts[rows] = _tangent_rows(sigma, idx, comp, E, F)
    return SurrogateProblem(
        objective_weights=b**2,
        masks=tuple(range(1, 1 << model.M)),
        linear_weights=lin,
        log_mask=members,
        constants=consts,
        budgets=members @ budget.r,
        expansion_point=qv.copy(),
    )


def solve_surrogate(problem: SurrogateProblem) -> MbtcParams:
    """Solve the convex surrogate with the primal-dual interior-point method."""
    q0 = interior_start(problem.constraint_values, problem.expansion_point, Q_MIN)
    q = minimize_linear(
        problem.objective_weights, _SurrogateConstraints(problem), q0, x_min=Q_MIN
    )
    return MbtcParams(np.maximum(q, Q_MIN))


def find_feasible_init(model: GaussianSourceModel, budget: RateBudget) -> MbtcParams:
    """Uniform q = alpha*1, doubling alpha from trace/M until feasible."""
    alpha = float(np.trace(model.sigma_x)) / model.M
    for _ in range(200):
        q = MbtcParams(np.full(model.M, alpha))
        feasible, _ = is_feasible(model, q, budget)
        if feasible:
            return q
        alpha *= 2.0
    raise SolverError("feasible initializer did not terminate")  # pragma: no cover


def _original_objective(model: GaussianSourceModel, qv: np.ndarray) -> float:
    sigma = model.sigma_x
    a = sigma @ model.c
    return float(a @ np.linalg.solve(sigma + np.diag(qv), a))


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of an MM run: parameters, distortion, per-iteration objective."""

    q: MbtcParams
    distortion: float
    trace: tuple  # original objective after each iteration
    iterations: int
    iterates: tuple = ()  # q vector per iteration, starting at the initializer


def mm_loop(q0: np.ndarray, objective, step, eps: float, max_iter: int):
    """MM driver of both optimizers: q -> step(q) while the objective (to be
    maximized) rises by more than the fraction eps; returns (q, objective
    trace, iterates from q0 on, iterations). A step that lowers the objective,
    or makes it NaN, is a numerical regression: keep q, repeat the last
    objective, and stop."""
    q, obj = q0, objective(q0)
    trace, iterates = [obj], [q0.copy()]
    for _ in range(max_iter):
        q_new = step(q)
        obj_new = objective(q_new)
        if not obj_new >= obj:
            trace.append(obj)
            break
        q = q_new
        trace.append(obj_new)
        iterates.append(q.copy())
        if (obj_new - obj) <= eps * max(abs(obj), 1e-300):
            break
        obj = obj_new
    return q, tuple(trace), tuple(iterates), len(trace) - 1


def optimize(
    model: GaussianSourceModel,
    budget: RateBudget,
    eps: float = 1e-6,
    max_iter: int = 200,
) -> OptimizeResult:
    """MM loop: surrogate construction + barrier solve until the fractional
    increase of the original objective drops below eps."""
    q, trace, iterates, iterations = mm_loop(
        find_feasible_init(model, budget).q,
        lambda q: _original_objective(model, q),
        lambda q: solve_surrogate(build_surrogate(model, budget, q)).q,
        eps,
        max_iter,
    )
    q = MbtcParams(q)
    return OptimizeResult(
        q=q,
        distortion=distortion(model, q),
        trace=trace,
        iterations=iterations,
        iterates=iterates,
    )
