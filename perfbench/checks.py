"""Correctness checks computed apart from the program.

Every evaluator here is plain numpy written from the formulas of the model:
Gaussian test channels u_m = x_m + n_m with n_m ~ N(0, q_m), an MMSE
estimate of the weighted sum c'x, and rate constraints
sum_{m in S} r_m >= I(x_S; u_S | u_{S^c}) for every nonempty subset S.
None of them calls into ``fedagg``, and none compares against a stored copy
of an earlier output. Each check returns a list of failure messages; an
empty list means the output passed.

The checks avoid anything a correct change could move: the rotation (only
its orthogonality matters) and the rates a scheme is charged.
"""

from __future__ import annotations

import numpy as np

LN2 = np.log(2.0)
SLACK_TOL = 1e-9  # bits; rounding allowance on a satisfied rate constraint
BINDING_TOL = 1e-6  # bits; a constraint this close to its budget is binding
FIT_TOL = 0.01  # relative; least allowed gap between empirical and predicted distortion
SIGMAS = 6.0  # sampling-error allowance, in standard errors, on measured distortions


def empirical_covariance(updates) -> np.ndarray:
    """Second moments of the mean-removed rows, divided by the row length."""
    x = np.asarray(updates, dtype=float)
    x = x - x.mean(axis=1, keepdims=True)
    return x @ x.T / x.shape[1]


def predicted_distortion(sigma, c, q) -> float:
    """v(q) = c'Sc - c'S(S+Q)^-1 Sc, the MMSE distortion of the combined estimate."""
    sigma = np.asarray(sigma, dtype=float)
    a = sigma @ c
    return float(c @ a - a @ np.linalg.solve(sigma + np.diag(q), a))


def centralized_bound(sigma, c, total_rate: float) -> float:
    """c'Sc 2^(-2 R): no encoder that sees every x_m does better at R bits."""
    return float(c @ np.asarray(sigma) @ c) * 2.0 ** (-2.0 * total_rate)


def subset_membership(M: int) -> np.ndarray:
    """(2^M - 1, M) boolean rows; row k - 1 is the subset with bitmask k."""
    masks = np.arange(1, 1 << M)
    return (masks[:, None] >> np.arange(M)[None, :]) & 1 == 1


def subset_required_bits(sigma, q) -> np.ndarray:
    """I(x_S; u_S | u_{S^c}) for every nonempty subset, by batched slogdet.

    I = (log det(S+Q) - log det((S+Q)_{S^c}) - sum_{m in S} log q_m) / (2 ln 2);
    subsets are grouped by complement size so one slogdet call takes each group.
    """
    q = np.asarray(q, dtype=float)
    M = q.shape[0]
    k_mat = np.asarray(sigma, dtype=float) + np.diag(q)
    member = subset_membership(M)
    sign, full = np.linalg.slogdet(k_mat)
    if sign <= 0:
        raise ValueError("S + Q is not positive definite")
    sub = np.zeros(member.shape[0])
    comp_size = M - member.sum(axis=1)
    for k in range(1, M):
        rows = np.nonzero(comp_size == k)[0]
        idx = np.nonzero(~member[rows])[1].reshape(-1, k)
        signs, logdets = np.linalg.slogdet(k_mat[idx[:, :, None], idx[:, None, :]])
        if np.any(signs <= 0):
            raise ValueError("a principal block of S + Q is not positive definite")
        sub[rows] = logdets
    return (full - sub - member @ np.log(q)) / (2.0 * LN2)


def subset_slacks(sigma, q, rates) -> np.ndarray:
    """Budget minus required bits for every nonempty subset (>= 0 is feasible)."""
    member = subset_membership(len(q))
    return member @ np.asarray(rates, dtype=float) - subset_required_bits(sigma, q)


def equicorrelated(rho: float, sigma2: float, M: int) -> np.ndarray:
    return sigma2 * (rho * np.ones((M, M)) + (1.0 - rho) * np.eye(M))


def group_selections(sizes) -> np.ndarray:
    """Every per-group count vector with at least one device selected."""
    grids = np.meshgrid(*(np.arange(s + 1) for s in sizes), indexing="ij")
    sel = np.stack([g.ravel() for g in grids], axis=1)
    return sel[sel.sum(axis=1) > 0]


def grouped_required_bits(rho, sigma2, sizes, q_groups, selections) -> np.ndarray:
    """Required bits of every selection for equicorrelated sources.

    With S = a I + b 11' (a = (1-rho) s2, b = rho s2) and the determinant
    lemma, log det(D + b 11') = sum log(a + q_m) + log(1 + b sum 1/(a + q_m)).
    """
    sizes = np.asarray(sizes, dtype=float)
    q = np.asarray(q_groups, dtype=float)
    sel = np.asarray(selections, dtype=float)
    a, b = (1.0 - rho) * sigma2, rho * sigma2
    inv = 1.0 / (a + q)
    own = sel @ np.log((a + q) / q)
    full = np.log1p(b * sizes @ inv)
    rest = np.log1p(b * (sizes[None, :] - sel) @ inv)
    return (own + full - rest) / (2.0 * LN2)


def selection_subset(sizes, selection) -> list:
    """Device indices of one subset with the given per-group counts."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return [int(s) + i for s, n in zip(starts, selection) for i in range(int(n))]


def check_feasible(slacks, label: str, require_binding: bool) -> list:
    errors = []
    worst = float(np.min(slacks))
    if not np.all(np.isfinite(slacks)):
        errors.append(f"{label}: non-finite constraint slack")
    elif worst < -SLACK_TOL:
        errors.append(f"{label}: a rate constraint is violated (worst slack {worst:.3e} bits)")
    elif require_binding and worst > BINDING_TOL:
        errors.append(f"{label}: no rate constraint is binding (worst slack {worst:.3e} bits)")
    return errors


def check_monotone(values, increasing: bool, label: str, tol: float = 1e-10) -> list:
    v = np.asarray(values, dtype=float)
    step = np.diff(v) if increasing else -np.diff(v)
    if np.all(step >= -tol * max(1.0, np.max(np.abs(v)))):
        return []
    return [f"{label}: trace is not monotone"]


def check_at_least(value: float, floor: float, label: str) -> list:
    if not np.isfinite(value) or value < floor:
        return [f"{label}: distortion {value!r} is below the centralized bound {floor!r}"]
    return []


def check_close(value: float, expected: float, rel: float, label: str) -> list:
    if not np.isfinite(value) or abs(value - expected) > rel * abs(expected):
        return [f"{label}: {value!r} differs from {expected!r} by more than {rel:g} relative"]
    return []


# --- sweep -----------------------------------------------------------------


def mbtc_sampling_error(sigma, c, q, n: int) -> float:
    """Relative standard error of the empirical mbtc distortion over n symbols.

    The error is (c - w)'x - w'z with w the MMSE combiner and z ~ N(0, Q) drawn
    afresh per symbol, so with A = (c - w)'S(c - w) and V = w'Qw its mean
    square has variance (4 A V + 2 V^2) / n around D = A + V.
    """
    sigma = np.asarray(sigma, dtype=float)
    w = np.linalg.solve(sigma + np.diag(q), sigma @ c)
    a = float((c - w) @ sigma @ (c - w))
    v = float(w @ (q * w))
    return float(np.sqrt((4.0 * a * v + 2.0 * v * v) / n) / (a + v))


def qsgd_variance_bound(updates, c):
    """Upper bound on the expected distortion of unbiased stochastic
    quantization, and the bound's relative standard error.

    Per element the error variance is ||v||^2 f (1 - f) / s^2 with
    f <= |v_i| s / ||v||, so each device's error energy is at most
    ||v||_2 ||v||_1 for any s >= 1 levels; devices quantize independently.
    At s = 1 the error is ||v|| on each of about ||v||_1 / ||v||_2 elements
    (a Poisson count), which sets the spread of the measured distortion.
    """
    y = np.asarray(updates, dtype=float)
    norm2 = np.linalg.norm(y, axis=1)
    norm1 = np.abs(y).sum(axis=1)
    per_device = np.asarray(c) ** 2 * norm2 * norm1
    rel_err = float(np.sqrt(np.sum(per_device**2 * norm2 / norm1)) / np.sum(per_device))
    return float(np.sum(per_device) / y.shape[1]), rel_err


def check_sweep(rows, updates, c, q, rates) -> dict:
    """Failure messages per scheme row of one sweep_distortion call.

    rows: (scheme, rho, rate, charged_bits, distortion, seed) tuples.
    updates, c, q: the source matrix, weights and optimized noise the mbtc
    row used. The mbtc optimizer fits an equicorrelated model to the
    covariance, so q is held to the constraints of that fitted model.
    """
    c = np.asarray(c, dtype=float)
    q = np.asarray(q, dtype=float)
    rates = np.asarray(rates, dtype=float)
    sigma = empirical_covariance(updates)
    floor = centralized_bound(sigma, c, float(rates.sum()))
    dist = {row[0]: float(row[4]) for row in rows}
    errors = {row[0]: check_at_least(float(row[4]), floor, row[0]) for row in rows}
    if "mbtc" in dist:
        e = errors["mbtc"]
        tol = max(FIT_TOL, SIGMAS * mbtc_sampling_error(sigma, c, q, updates.shape[1]))
        e += check_close(dist["mbtc"], predicted_distortion(sigma, c, q), tol,
                         "mbtc empirical vs predicted distortion")
        M = sigma.shape[0]
        sigma2 = float(np.mean(np.diag(sigma)))
        rho = float(np.mean(sigma[~np.eye(M, dtype=bool)])) / sigma2
        e += check_feasible(subset_slacks(equicorrelated(rho, sigma2, M), q, rates),
                            "mbtc q", require_binding=False)
        for other in ("qsgd", "uniform"):
            if other in dist and not dist["mbtc"] < dist[other]:
                e.append(f"mbtc distortion {dist['mbtc']!r} is not below {other} {dist[other]!r}")
    if "qsgd" in dist:
        bound, rel_err = qsgd_variance_bound(updates, c)
        if not dist["qsgd"] <= (1.0 + SIGMAS * rel_err) * bound:
            errors["qsgd"].append(
                f"qsgd distortion {dist['qsgd']!r} exceeds its variance bound {bound!r}"
            )
    return errors


# --- fl_train --------------------------------------------------------------


def normal_equations(designs, targets, mu: float):
    """Hessian and optimum of sum_m w_m ||A_m t - y_m||^2 / (2 K_m) + mu ||t||^2 / 2
    with w_m = K_m / K, which is one ridge problem over the stacked samples."""
    a = np.vstack(designs)
    y = np.concatenate(targets)
    k = a.shape[0]
    hess = a.T @ a / k + mu * np.eye(a.shape[1])
    theta = np.linalg.solve(hess, a.T @ y / k)
    return hess, theta, a, y


def check_training(trace, designs, targets, mu: float, theta_star_program) -> list:
    """Contraction inequality per round, unrolled-bound identity, theta*."""
    errors = []
    hess, theta_star, a, y = normal_equations(designs, targets, mu)
    k = a.shape[0]
    eig = np.linalg.eigvalsh(hess)
    omega, big_omega = float(eig[0]), float(eig[-1])
    kappa = 1.0 - omega / big_omega
    n = hess.shape[0]
    scale = float(np.linalg.norm(theta_star))
    if np.linalg.norm(np.asarray(theta_star_program) - theta_star) > 1e-9 * max(scale, 1.0):
        errors.append("theta* differs from the normal-equation solution")

    def loss(t):
        r = a @ t - y
        return float(r @ r / (2 * k) + mu * t @ t / 2)

    gaps = np.asarray(trace.loss_gap, dtype=float)
    energy = np.asarray(trace.error_energy, dtype=float) * n  # ||e_t||^2
    errors += check_close(gaps[0], loss(np.zeros(n)) - loss(theta_star), 1e-9,
                          "initial loss gap")
    if np.any(gaps < -1e-9 * max(1.0, gaps[0])):
        errors.append("a loss gap is negative")
    rhs = kappa * gaps[:-1] + energy / (2.0 * big_omega)
    if not np.all(gaps[1:] <= rhs + 1e-9):
        worst = int(np.argmax(gaps[1:] - rhs))
        errors.append(f"contraction inequality fails at round {worst + 1}")
    recursion = [gaps[0]]
    for e in energy:
        recursion.append(kappa * recursion[-1] + e / (2.0 * big_omega))
    powers = kappa ** np.arange(len(energy) - 1, -1, -1)
    unrolled = gaps[0] * kappa ** len(energy) + float(powers @ energy) / (2.0 * big_omega)
    errors += check_close(unrolled, recursion[-1], 1e-9, "unrolled bound vs recursion")
    bound = np.asarray(trace.bound_value, dtype=float)
    if bound.shape != (len(recursion),) or not np.allclose(bound, recursion, rtol=1e-9, atol=0):
        errors.append("program's bound recursion differs from the benchmark's")
    return errors


# --- optimize --------------------------------------------------------------


def check_general(result, sigma, c, rates) -> list:
    q = np.asarray(result.q.q, dtype=float)
    errors = check_feasible(subset_slacks(sigma, q, rates), "general q", require_binding=True)
    errors += check_close(result.distortion, predicted_distortion(sigma, c, q), 1e-9,
                          "general distortion at q")
    errors += check_monotone(result.trace, increasing=True, label="general objective")
    errors += check_at_least(result.distortion,
                             centralized_bound(sigma, c, float(np.sum(rates))), "general")
    return errors


def check_grouped(result, rho, sigma2, groups, lam, samples: int = 8) -> list:
    sizes = np.array([s for s, _ in groups])
    rates = np.array([r for _, r in groups], dtype=float)
    q_groups = np.asarray(result.q_groups, dtype=float)
    sel = group_selections(sizes)
    slack = sel @ rates - grouped_required_bits(rho, sigma2, sizes, q_groups, sel)
    errors = check_feasible(slack, "grouped q", require_binding=True)
    # Cross-check the closed form on a few selections against slogdet on
    # the expanded M x M model.
    M = int(sizes.sum())
    sigma = equicorrelated(rho, sigma2, M)
    q = np.repeat(q_groups, sizes)
    if not np.array_equal(np.asarray(result.q.q), q):
        errors.append("per-device q does not expand the group values")
    k_mat = sigma + np.diag(q)
    full = np.linalg.slogdet(k_mat)[1]
    picks = np.linspace(0, len(sel) - 1, samples).astype(int)
    closed = grouped_required_bits(rho, sigma2, sizes, q_groups, sel[picks])
    for row, expect in zip(sel[picks], closed):
        members = selection_subset(sizes, row)
        comp = np.setdiff1d(np.arange(M), members)
        sub = np.linalg.slogdet(k_mat[np.ix_(comp, comp)])[1] if comp.size else 0.0
        direct = (full - sub - np.sum(np.log(q[members]))) / (2.0 * LN2)
        if abs(direct - expect) > 1e-8 * max(1.0, abs(direct)):
            errors.append("grouped rate formula disagrees with slogdet")
            break
    c = np.full(M, lam)
    errors += check_close(result.distortion, predicted_distortion(sigma, c, q), 1e-8,
                          "grouped distortion at q")
    errors += check_monotone(result.objective_trace, increasing=True, label="grouped objective")
    errors += check_monotone(result.trace, increasing=False, label="grouped distortion")
    errors += check_at_least(result.distortion,
                             centralized_bound(sigma, c, float(sizes @ rates)), "grouped")
    return errors
