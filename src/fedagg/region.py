"""Closed-form region quantities: mutual informations, distortion, MMSE combiner.

Subsets of devices are represented as bitmasks (bit m set = device m in the
subset); enumeration is in increasing integer order so binding constraints
are reported deterministically.

Silent devices (q = +inf) drop out of every rate term: their u_m carries
nothing, so they are removed before any determinant is taken, and a subset
that holds only silent devices requires 0 bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import Q_MIN, GaussianSourceModel, MbtcParams, RateBudget, _readonly

MAX_ENUM_M = 25
LOG2E = 1.0 / np.log(2.0)


def _qvec(q, M: int) -> np.ndarray:
    """The test-channel variances of q, an MbtcParams (checked when built) or
    an array: the one reader of q, which raises ValueError unless there are
    exactly M and none of an array's lies below Q_MIN. A NaN entry passes."""
    raw = not isinstance(q, MbtcParams)
    qv = np.atleast_1d(np.asarray(q, dtype=float)) if raw else q.q
    if qv.shape != (M,):
        raise ValueError(f"got {qv.size} test-channel variances for {M} devices")
    if raw and (qv < Q_MIN).any():
        raise ValueError(f"all q entries must be >= {Q_MIN} (or +inf)")
    return qv


def _rates(budget: RateBudget, M: int) -> np.ndarray:
    """The one reader of a budget: its M rates, or ValueError on another count."""
    if budget.r.shape != (M,):
        raise ValueError(f"got a budget of {budget.r.size} rates for {M} devices")
    return budget.r


def all_subsets(M: int) -> np.ndarray:
    """(2^M - 1, M) membership matrix of every nonempty subset, rows in
    increasing bitmask order (row i is mask i + 1)."""
    if M > MAX_ENUM_M:
        raise ValueError(f"constraint enumeration capped at M = {MAX_ENUM_M}, got {M}")
    masks = np.arange(1, 1 << M)
    return (masks[:, None] >> np.arange(M)) & 1 == 1


def _membership(S, M: int) -> np.ndarray:
    """Membership row of a bitmask or an iterable of device indices."""
    if isinstance(S, (int, np.integer)):
        return (int(S) >> np.arange(M)) & 1 == 1
    row = np.zeros(M, dtype=bool)
    row[[int(m) for m in S]] = True
    return row


def by_complement_size(members: np.ndarray, K: np.ndarray):
    """Group the rows of an (n, M) boolean membership matrix by complement size.

    Yields (rows, comp, blocks) per nonzero size in increasing order: the row
    numbers, the ascending device indices outside each row's subset,
    (len(rows), |S^c|), and the stacked blocks K_{S^c S^c} of the (M, M) K.
    """
    for rows, comp in _complement_plan(members.shape, members.tobytes()):
        yield rows, comp, K[comp[:, :, None], comp[:, None, :]]


@lru_cache(maxsize=32)  # solves ask again and again for a few membership matrices
def _complement_plan(shape, packed: bytes):
    outside = ~np.frombuffer(packed, dtype=bool).reshape(shape)
    sizes, plan = outside.sum(axis=1), []
    # bincount, not np.unique: numpy 2.4's unique imports numpy.ma on first use
    for k in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        rows = np.flatnonzero(sizes == k)
        comp = np.nonzero(outside[rows])[1].reshape(rows.size, k)
        plan.append((_readonly(rows), _readonly(comp)))
    return tuple(plan)


def _logdet2(a: np.ndarray):
    """log2-determinant of a (stack of) positive definite matrices."""
    sign, logdet = np.linalg.slogdet(a)
    if (sign <= 0).any():
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return logdet * LOG2E


def _required_bits(model: GaussianSourceModel, q, members: np.ndarray) -> np.ndarray:
    """I(x_S; u_S | u_{S^c}) in bits/symbol for every row S of an (n, M)
    membership matrix.

    Silent devices are dropped first, so a row of silent devices requires 0
    bits; rounding never takes a rate below 0. One slogdet per complement size.
    """
    qv = _qvec(q, model.M)
    live = ~np.isposinf(qv)
    q_live = qv[live]
    inside = members[:, live]
    block = model.sigma_x[np.ix_(live, live)] + np.diag(q_live)
    comp_logdet = np.zeros(inside.shape[0])
    for rows, _, blocks in by_complement_size(inside, block):
        comp_logdet[rows] = _logdet2(blocks)
    log_q = np.sum(np.where(inside, np.log2(q_live), 0.0), axis=1)
    bits = np.maximum(0.5 * (_logdet2(block) - comp_logdet - log_q), 0.0)
    return np.where(inside.any(axis=1), bits, 0.0)


def cond_mutual_info(model: GaussianSourceModel, q, S) -> float:
    """I(x^S; u^S | u^{S^c}) in bits/symbol for a nonempty proper subset S."""
    row = _membership(S, model.M)
    if not row.any() or row.all():
        raise ValueError("S must be a nonempty proper subset (use sum_mutual_info for the full set)")
    return float(_required_bits(model, q, row[None, :])[0])


def sum_mutual_info(model: GaussianSourceModel, q) -> float:
    """I(x; u) in bits/symbol."""
    return float(_required_bits(model, q, np.ones((1, model.M), dtype=bool))[0])


def mmse_combiner(model: GaussianSourceModel, q) -> np.ndarray:
    """Weights w = (S + Q)^{-1} S c with Y_hat = w^T u, over the devices that
    are not silent; silent devices (q = +inf) get weight zero."""
    qv = _qvec(q, model.M)
    w = np.zeros(model.M)
    f = np.flatnonzero(~np.isposinf(qv))
    if f.size:
        sigma = model.sigma_x
        block = sigma[f[:, None], f] + np.diag(qv[f])
        w[f] = np.linalg.solve(block, (sigma @ model.c)[f])
    return w


def distortion(model: GaussianSourceModel, q, w=None) -> float:
    """Aggregation distortion v(q) = c'Sc - c'S(S+Q)^{-1}Sc = c'Sc - c'S w,
    clamped at zero; w = mmse_combiner(model, q), solved here unless given."""
    f = ~np.isposinf(_qvec(q, model.M))
    a = model.sigma_x @ model.c
    w = mmse_combiner(model, q) if w is None else w
    return max(float(model.c @ model.sigma_x @ model.c) - float(a[f] @ w[f]), 0.0)


def _constraint_columns(model: GaussianSourceModel, q, budget: RateBudget):
    """(required, budget, slack) bits of all 2^M - 1 subsets, in bitmask order."""
    members = all_subsets(model.M)
    required = _required_bits(model, q, members)
    have = members @ _rates(budget, model.M)
    return required, have, have - required


def is_feasible(model: GaussianSourceModel, q, budget: RateBudget):
    """Check all 2^M - 1 subset rate constraints: slack_feasible of the
    slacks (budget sum - required bits), i.e. (feasible, worst_slack)."""
    return slack_feasible(_constraint_columns(model, q, budget)[2])


def slack_feasible(slack: np.ndarray):
    """(feasible, worst slack) of constraint slacks: feasible iff every slack
    >= -1e-9, so a NaN slack is infeasible."""
    return bool(np.all(slack >= -1e-9)), float(np.min(slack))


def constraint_report(model: GaussianSourceModel, q, budget: RateBudget):
    """Per-constraint rows (subset_mask, required_bits, budget_bits, slack)."""
    columns = _constraint_columns(model, q, budget)
    return [
        (mask, float(req), float(have), float(slack))
        for mask, req, have, slack in zip(range(1, 1 << model.M), *columns)
    ]


def single_source_rd(sigma2: float, R: float):
    """Closed-form M=1 reduction: q* = s2/(2^{2R}-1), D* = s2 * 2^{-2R}.

    2^{2R} - 1 is formed as expm1(2R ln 2), so rates far below a bit keep
    their digits. Past the float range (R above 512) it reads inf and q* 0.0;
    D* reads 0.0 once 2^{-2R} underflows, as at R = 600."""
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    with np.errstate(over="ignore"):
        q_star = sigma2 / np.expm1(2.0 * np.log(2.0) * R)
    return float(q_star), sigma2 * 2.0 ** (-2.0 * R)
