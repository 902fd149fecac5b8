"""General-case MM optimizer for the distortion minimization problem.

Each iteration builds a convex surrogate at the expansion point q_hat and
solves it with the primal-dual interior-point solver of ``barrier``. The
objective is linearized at q_hat. With K = Sigma + diag(q), each subset rate

    I(x_S; u_S | u_{S^c}) = 0.5 log2 det K - 0.5 log2 det K_{S^c S^c}
                            - 0.5 sum_{m in S} log2 q_m

is a concave part (0.5 log2 det of the Schur complement of K_{S^c S^c},
which is matrix-concave in q) minus a log term. The surrogate row keeps the
log term and replaces the concave part by its tangent at q_hat: the paper's
majorant chi_S + xi_S, an upper bound tight at q_hat. A differentiable
majorant tight at an interior point shares the function's gradient there
(Sun, Babu & Palomar, IEEE Trans. Signal Process. 65(3), 2017), so row S has
the weight 0.5 log2(e) ([K^-1]_mm - [(K_{S^c S^c})^-1]_mm) on q_m, the second
term for m in S^c only, and the constant that makes it equal the exact rate
at q_hat. The rates come from ``region._required_bits`` and the weights from
one batched inverse per complement size.

At an MM optimum only about M of the rows bind, so ``solve_surrogate`` hands
the barrier a working set of rows, which one MM run keeps and grows, and
checks every row at the point the barrier returns, adding the violated ones
and solving again until none is. That point is optimal for a relaxation of
the surrogate (fewer rows) and feasible for all of it, so it is the full
surrogate's optimum; the restricted multipliers, padded with zeros for the
rows left out, keep the barrier's gap certificate valid for the full
surrogate. The barrier certifies a restricted problem even where it is
degenerate and the full one is not (a row touching the optimum with a zero
multiplier).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .barrier import interior_start, minimize_linear
from .errors import SolverError
from .model import Q_MIN, GaussianSourceModel, MbtcParams, RateBudget
from .region import (
    LOG2E,
    _qvec,
    _required_bits,
    all_subsets,
    by_complement_size,
    distortion,
    is_feasible,
    mmse_combiner,
    slack_feasible,
)

HALF_LOG2E = 0.5 * LOG2E

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SurrogateProblem:
    """Convex surrogate: minimize sum b_m^2 q_m s.t. linear-minus-log rate rows
    and q >= Q_MIN.

    Row i reads: linear_weights[i] . q - 0.5 * log_weights[i] . log2(q)
    + constants[i] <= budgets[i]; in ``build_surrogate`` row i is subset mask
    i + 1 and log_weights its membership.
    """

    objective_weights: np.ndarray  # b_m^2
    linear_weights: np.ndarray  # (n, M)
    log_weights: np.ndarray  # (n, M) membership (bool) or counts
    constants: np.ndarray  # (n,)
    budgets: np.ndarray  # (n,)
    expansion_point: np.ndarray

    def value(self, q):
        logs = self.log_weights @ np.log2(q)
        return self.linear_weights @ q - 0.5 * logs + self.constants - self.budgets

    def grad(self, q):
        return self.linear_weights - HALF_LOG2E * self.log_weights / q[None, :]

    def hess_weighted(self, q, w):
        return HALF_LOG2E * (w @ self.log_weights) / q**2

    def restrict(self, rows) -> SurrogateProblem:
        """The same surrogate on the rows that the boolean mask rows selects."""
        return replace(
            self,
            linear_weights=self.linear_weights[rows],
            log_weights=self.log_weights[rows],
            constants=self.constants[rows],
            budgets=self.budgets[rows],
        )


def build_surrogate(model: GaussianSourceModel, budget: RateBudget, q_hat) -> SurrogateProblem:
    """Expand all 2^M - 1 rate constraints at q_hat (tangent rows, see the
    module docstring); q_hat must be feasible."""
    qv = _qvec(q_hat)
    members = all_subsets(model.M)
    budgets = members @ budget.r
    bits = _required_bits(model, qv, members)
    feasible, worst = slack_feasible(budgets - bits)
    if not feasible:
        raise ValueError(f"expansion point is infeasible (worst slack {worst:.3e})")
    K = model.sigma_x + np.diag(qv)
    lin = np.tile(np.diag(np.linalg.inv(K)), (members.shape[0], 1))
    for rows, comp in by_complement_size(members):
        if comp.shape[1]:
            comp_inv = np.linalg.inv(K[comp[:, :, None], comp[:, None, :]])
            lin[rows[:, None], comp] -= np.diagonal(comp_inv, axis1=1, axis2=2)
    lin *= HALF_LOG2E
    return SurrogateProblem(
        objective_weights=mmse_combiner(model, qv) ** 2,
        linear_weights=lin,
        log_weights=members,
        constants=bits - lin @ qv + 0.5 * members @ np.log2(qv),
        budgets=budgets,
        expansion_point=qv.copy(),
    )


def solve_surrogate(problem: SurrogateProblem, work: np.ndarray) -> np.ndarray:
    """Solve the convex surrogate on a working set of its rows; every row holds
    at the returned q.

    work is a boolean row mask that the caller keeps for a whole MM run; an
    empty one is seeded with every row when there are at most 4 * dim of
    them, else with the 2 * dim rows of least slack at the interior start.
    Each restricted solve starts from that strictly interior point of all
    rows. While the result breaks rows outside work, up to 2 * dim of the
    most violated join work and the solve repeats.
    """
    q0 = interior_start(problem.value, problem.expansion_point, Q_MIN)
    batch = 2 * q0.shape[0]
    if not work.any():
        rows = np.argsort(problem.value(q0))[-batch:] if work.size > 2 * batch else slice(None)
        work[rows] = True
    solves = added = 0
    while True:
        solves += 1
        q = minimize_linear(problem.objective_weights, problem.restrict(work), q0, x_min=Q_MIN)
        g = problem.value(q)
        violated = np.flatnonzero((g > 0) & ~work)
        if not violated.size:
            break
        work[violated[np.argsort(g[violated])[-batch:]]] = True
        added += min(violated.size, batch)
    logger.debug(
        "working set: %d of %d rows, %d restricted solves, %d rows added",
        int(work.sum()), work.size, solves, added)
    return q


def doubling_start(alpha: float, dim: int, feasible) -> np.ndarray:
    """Uniform start q = alpha*1 of both optimizers: double alpha until the
    predicate feasible(q) holds."""
    for _ in range(200):
        q = np.full(dim, alpha)
        if feasible(q):
            return q
        alpha *= 2.0
    raise SolverError("feasible initializer did not terminate")  # pragma: no cover


def find_feasible_init(model: GaussianSourceModel, budget: RateBudget) -> MbtcParams:
    """Uniform q = alpha*1, doubling alpha from trace/M (from 1 if the trace
    is 0) until feasible."""
    alpha = float(np.trace(model.sigma_x)) / model.M or 1.0
    return MbtcParams(doubling_start(alpha, model.M, lambda q: is_feasible(model, q, budget)[0]))


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of an MM run: parameters, distortion, per-iteration objective."""

    q: MbtcParams
    distortion: float
    trace: tuple  # original objective after each iteration
    iterations: int
    iterates: tuple = ()  # q vector per iteration, starting at the initializer


def check_eps(eps: float) -> None:
    """Reject an MM stop fraction that is NaN, infinite or negative; both
    optimizers call this before any work."""
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


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
    check_eps(eps)
    q0 = find_feasible_init(model, budget).q
    work = np.zeros((1 << model.M) - 1, dtype=bool)  # one flag per all_subsets row
    q, trace, iterates, iterations = mm_loop(
        q0,
        lambda q: float(model.sigma_x @ model.c @ mmse_combiner(model, q)),
        lambda q: solve_surrogate(build_surrogate(model, budget, q), work),
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
