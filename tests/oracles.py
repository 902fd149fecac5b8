"""Independent oracles used by the test suite.

These deliberately avoid the library's closed-form code paths: the grid
search re-derives determinants from principal-minor expansions, and the
Monte-Carlo oracles estimate information/distortion quantities from samples.
The reference formulas, source generators, the one-group bisection, the
full-row surrogate solve and the grouped grid search at the end serve only
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import combinations, product

import numpy as np

from fedagg.barrier import interior_start, minimize_linear
from fedagg.model import Q_MIN, empirical_covariance
from fedagg.seeds import seed_stream
from fedagg.simulate import GAUSSIAN_STEP
from fedagg.transform import DEFAULT_SEGMENT_LEN

LOG2E = 1.0 / np.log(2.0)


def principal_minors(a: np.ndarray) -> dict:
    """det of every principal submatrix, keyed by index tuple ('' -> 1)."""
    m = a.shape[0]
    out = {(): 1.0}
    for size in range(1, m + 1):
        for idx in combinations(range(m), size):
            sub = a[np.ix_(idx, idx)]
            out[idx] = float(np.linalg.det(sub))
    return out


def det_plus_diag(minors: dict, indices: tuple, q_cols: np.ndarray) -> np.ndarray:
    """det(A_C + diag(q_C)) over a batch of q rows, via the minor expansion
    det(A + D) = sum_{T subset C} prod(q_T) * det(A_{C minus T})."""
    npts = q_cols.shape[0]
    total = np.zeros(npts)
    idx_set = tuple(indices)
    for size in range(len(idx_set) + 1):
        for chosen in combinations(idx_set, size):
            rest = tuple(i for i in idx_set if i not in chosen)
            prod = np.ones(npts)
            for i in chosen:
                prod = prod * q_cols[:, i]
            total += prod * minors[rest]
    return total


def grid_mutual_informations(sigma: np.ndarray, q_grid: np.ndarray):
    """Required bits per subset (dict mask -> array over grid rows)."""
    m = sigma.shape[0]
    minors = principal_minors(sigma)
    full_idx = tuple(range(m))
    det_full = det_plus_diag(minors, full_idx, q_grid)
    out = {}
    for mask in range(1, 1 << m):
        inside = tuple(i for i in range(m) if mask >> i & 1)
        outside = tuple(i for i in range(m) if not mask >> i & 1)
        det_out = det_plus_diag(minors, outside, q_grid)
        log_q = np.zeros(q_grid.shape[0])
        for i in inside:
            log_q += np.log(q_grid[:, i])
        out[mask] = 0.5 * LOG2E * (np.log(det_full) - np.log(det_out) - log_q)
    return out


def grid_distortion(sigma: np.ndarray, c: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """v(q) over grid rows via det(A + aa^T + Q) identities (no solves)."""
    m = sigma.shape[0]
    a = sigma @ c
    minors_plain = principal_minors(sigma)
    minors_rank1 = principal_minors(sigma + np.outer(a, a))
    full_idx = tuple(range(m))
    det_plain = det_plus_diag(minors_plain, full_idx, q_grid)
    det_rank1 = det_plus_diag(minors_rank1, full_idx, q_grid)
    quad = (det_rank1 - det_plain) / det_plain
    return float(c @ sigma @ c) - quad


def _det_tensor(minors, qs, indices):
    """det(A_C + diag q_C) on the product grid, via broadcasting.

    qs[i] is the i-th axis reshaped to broadcast along axis i; the result
    broadcasts over exactly the axes in C.
    """
    idx_set = tuple(indices)
    total = np.zeros(())
    for size in range(len(idx_set) + 1):
        for chosen in combinations(idx_set, size):
            rest = tuple(i for i in idx_set if i not in chosen)
            term = np.array(minors[rest])
            for i in chosen:
                term = term * qs[i]
            total = total + term
    return total


def grid_search(sigma, c, rates, n_per_axis=200, refine=3, lo_hi=None):
    """Exhaustive log-spaced grid search of the distortion minimization problem.

    Feasibility is checked from scratch on every grid point (all subset
    constraints, in the linear-determinant domain so no solver code is
    shared with the library). Refinement shrinks the box around the
    incumbent. Returns (q_best, d_best).
    """
    sigma = np.asarray(sigma, dtype=float)
    c = np.asarray(c, dtype=float)
    rates = np.asarray(rates, dtype=float)
    m = sigma.shape[0]
    if lo_hi is None:
        trace_unit = np.trace(sigma) / m
        lo = np.full(m, trace_unit * 2.0 ** (-2.0 * float(np.sum(rates))) / 100.0)
        hi = np.full(m, trace_unit * 2.0 ** (2.0 * float(np.max(rates))) * 100.0)
    else:
        lo, hi = (np.full(m, v, dtype=float) for v in lo_hi)
    minors_plain = principal_minors(sigma)
    a = sigma @ c
    minors_rank1 = principal_minors(sigma + np.outer(a, a))
    full_idx = tuple(range(m))
    prior = float(c @ sigma @ c)
    best_q, best_d = None, np.inf
    for _ in range(refine):
        axes = [np.geomspace(lo[i], hi[i], n_per_axis) for i in range(m)]
        qs = []
        for i in range(m):
            shape = [1] * m
            shape[i] = n_per_axis
            qs.append(axes[i].reshape(shape))
        det_full = _det_tensor(minors_plain, qs, full_idx)
        feasible = np.ones((n_per_axis,) * m, dtype=bool)
        for mask in range(1, 1 << m):
            inside = tuple(i for i in range(m) if mask >> i & 1)
            outside = tuple(i for i in range(m) if not mask >> i & 1)
            # I(S) <= B  <=>  det_full <= det_out * prod(q_S) * 2^{2B}
            rhs = _det_tensor(minors_plain, qs, outside)
            for i in inside:
                rhs = rhs * qs[i]
            budget = float(np.sum(rates[list(inside)])) + 1e-9
            feasible &= det_full <= rhs * 2.0 ** (2.0 * budget)
        if not feasible.any():
            lo, hi = lo / 4.0, hi * 4.0
            continue
        det_rank1 = _det_tensor(minors_rank1, qs, full_idx)
        flat = np.flatnonzero(feasible.ravel())
        # v(q) = c'Sc + 1 - det(S + aa' + Q)/det(S + Q)  (rank-one identity)
        d = prior + 1.0 - det_rank1.ravel()[flat] / det_full.ravel()[flat]
        k = int(np.argmin(d))
        multi = np.unravel_index(flat[k], (n_per_axis,) * m)
        q_cand = np.array([axes[i][multi[i]] for i in range(m)])
        if d[k] < best_d:
            best_d = float(d[k])
            best_q = q_cand.copy()
        # shrink to +/- 2 grid cells around the incumbent, per axis
        new_lo, new_hi = np.empty(m), np.empty(m)
        for i in range(m):
            step = (np.log(hi[i]) - np.log(lo[i])) / (n_per_axis - 1)
            center = np.log(best_q[i])
            new_lo[i] = np.exp(center - 2 * step)
            new_hi[i] = np.exp(center + 2 * step)
        lo, hi = new_lo, new_hi
    return best_q, best_d


def lp_vertex_minimum(A, b, f, tol=1e-9) -> float:
    """min f'x over the bounded polytope {A x <= b} by vertex enumeration.

    Every choice of dim rows with a nonsingular system gives a candidate
    vertex; those that meet all rows to tol are feasible, and a bounded LP
    attains its minimum at one of them.
    """
    A, b, f = (np.asarray(v, dtype=float) for v in (A, b, f))
    best = np.inf
    for idx in combinations(range(A.shape[0]), A.shape[1]):
        sub = A[list(idx)]
        with np.errstate(divide="ignore"):  # LAPACK's det of a singular matrix
            if abs(np.linalg.det(sub)) < 1e-9:
                continue
        vertex = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ vertex <= b + tol):
            best = min(best, float(f @ vertex))
    return best


def mc_conditional_mi(sigma, q, inside, n_samples=10**6, seed=0):
    """Sample-based estimate of I(x^S; u^S | u^{S^c}) in bits."""
    sigma = np.asarray(sigma, dtype=float)
    q = np.asarray(q, dtype=float)
    m = sigma.shape[0]
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(sigma + 1e-14 * np.eye(m))
    x = rng.standard_normal((n_samples, m)) @ chol.T
    v = rng.standard_normal((n_samples, m)) * np.sqrt(q)
    u = x + v
    inside = list(inside)
    outside = [i for i in range(m) if i not in inside]
    cov_u = np.cov(u.T)
    cov_u = np.atleast_2d(cov_u)
    if outside:
        s_ss = cov_u[np.ix_(inside, inside)]
        s_so = cov_u[np.ix_(inside, outside)]
        s_oo = cov_u[np.ix_(outside, outside)]
        schur = s_ss - s_so @ np.linalg.solve(s_oo, s_so.T)
    else:
        schur = cov_u[np.ix_(inside, inside)]
    cov_v = np.atleast_2d(np.cov(v.T))[np.ix_(inside, inside)]
    return 0.5 * LOG2E * (
        np.linalg.slogdet(schur)[1] - np.linalg.slogdet(cov_v)[1]
    )


def mc_mmse_distortion(sigma, c, q, w, n_samples=10**6, seed=0):
    """Sample-based E[(c'x - w'u)^2]."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(sigma + 1e-14 * np.eye(m))
    x = rng.standard_normal((n_samples, m)) @ chol.T
    u = x + rng.standard_normal((n_samples, m)) * np.sqrt(np.asarray(q, dtype=float))
    err = x @ np.asarray(c, dtype=float) - u @ np.asarray(w, dtype=float)
    return float(np.mean(err**2))


def power_iteration_extremes(h: np.ndarray, iters=20000, seed=0):
    """Largest/smallest eigenvalues via power iteration on H and s*I - H."""
    rng = np.random.default_rng(seed)
    n = h.shape[0]

    def dominant(mat):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = mat @ v
            lam_new = float(v @ w)
            v = w / np.linalg.norm(w)
            if abs(lam_new - lam) < 1e-14 * max(abs(lam_new), 1.0):
                lam = lam_new
                break
            lam = lam_new
        return lam

    top = dominant(h)
    shift = top * (1 + 1e-6)
    bottom = shift - dominant(shift * np.eye(n) - h)
    return bottom, top


def quad_form_lower_bound(a, b, B) -> float:
    """Lower bound 2 a'b - b'Bb of the quadratic form a'B^{-1}a; B must be PD."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise ValueError("B must be positive definite") from None
    return float(2.0 * a @ b - b @ B @ b)


def chi_xi(sigma, q_hat, q, S) -> float:
    """The paper's majorant chi_S(q) + xi_S(q) of I(x_S; u_S | u_{S^c}), tight
    at q_hat, formed per subset from E_S and F_S (S the full set: E is empty
    and F = G = Sigma + diag(q_hat)).

    E_S = Sigma_{S S^c} (Sigma_{S^c S^c} + Q_hat_{S^c})^-1 is the linear
    estimator of u_S from u_{S^c} at q_hat and F_S its error covariance there.
    At q the same estimator's error covariance X(q) dominates the Schur
    complement, and log det X <= log det F + tr(F^-1 (X - F)), so
    chi_S = 0.5 log2 det F + 0.5 log2(e) (tr(F^-1 X(q)) - |S|) and
    xi_S = -0.5 sum_{m in S} log2 q_m.
    """
    sigma = np.asarray(sigma, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    q = np.asarray(q, dtype=float)
    S = sorted(int(m) for m in S)
    C = [m for m in range(sigma.shape[0]) if m not in S]
    k_hat = sigma + np.diag(q_hat)
    E = np.linalg.solve(k_hat[np.ix_(C, C)], sigma[np.ix_(C, S)]).T if C else np.zeros((len(S), 0))
    F = k_hat[np.ix_(S, S)] - E @ sigma[np.ix_(C, S)]
    A = np.hstack([np.eye(len(S)), -E])  # u_S - E u_{S^c}
    X = A @ (sigma + np.diag(q))[np.ix_(S + C, S + C)] @ A.T
    _, logdet_f = np.linalg.slogdet(F)
    chi = 0.5 * LOG2E * (logdet_f + np.trace(np.linalg.solve(F, X)) - len(S))
    return float(chi - 0.5 * np.sum(np.log2(q[S])))


def unrolled_bound(initial_gap: float, error_energies, omega: float, big_omega: float):
    """Closed-form unrolled bound; equals the recursion algebraically.

    error_energies are the unnormalized squared error norms ||e^(t)||^2
    (TrainTrace stores ||e||^2 / N, so multiply by N before passing).
    """
    contraction = 1.0 - omega / big_omega
    e = np.asarray(error_energies, dtype=float)
    t = e.shape[0]
    out = initial_gap * contraction**t
    for i, energy in enumerate(e):
        out += contraction ** (t - 1 - i) * energy / (2.0 * big_omega)
    return out


def absolute_loss(task, theta) -> float:
    """The task's loss with every product and sum taken in absolute value:
    sum_m w_m || |A_m| |theta| + |y_m| ||^2 / (2 K_m) + mu ||theta||^2 / 2.
    Rounding moves a computed loss by at most about (N + K + 2) eps times
    this, K the largest sample count (each residual entry is an N-term dot
    product, each squared norm a K-term sum)."""
    theta = np.abs(np.asarray(theta, dtype=float))
    total = 0.0
    for w, a, y in zip(task.weights, task.designs, task.targets):
        r = np.abs(a) @ theta + np.abs(y)
        total += w * (r @ r / (2 * a.shape[0]) + task.mu * theta @ theta / 2)
    return float(total)


@dataclass(frozen=True)
class Assumption1Spec:
    """Linear-combination source model: updates = coefficients @ base vectors."""

    coefficients: np.ndarray  # (M, K)
    taus: np.ndarray  # (K,)
    anisotropic_first: bool = False

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        taus = np.atleast_1d(np.asarray(self.taus, dtype=float))
        if e.shape[1] != taus.shape[0]:
            raise ValueError("coefficient columns must match len(taus)")
        if not np.all(taus > 0):
            raise ValueError("taus must be positive")
        object.__setattr__(self, "coefficients", e)
        object.__setattr__(self, "taus", taus)

    def limit_covariance(self) -> np.ndarray:
        """E diag(tau^2) E^T, the asymptotic cross-moment matrix."""
        return self.coefficients @ np.diag(self.taus**2) @ self.coefficients.T


def assumption1_sources(spec: Assumption1Spec, N: int, seed: int):
    """Draw base vectors and mix them into M update vectors.

    When anisotropic_first is set, the first base vector is a fixed-direction
    spike plus Gaussian noise (still satisfying the norm-energy condition).
    """
    k = spec.taus.shape[0]
    base = np.empty((k, N))
    for i in range(k):
        rng = np.random.default_rng(seed_stream(seed, "base", i))
        z = rng.standard_normal(N)
        if i == 0 and spec.anisotropic_first:
            beta = 0.5
            sign = 1.0 if rng.random() < 0.5 else -1.0
            spike = np.zeros(N)
            spike[0] = sign * np.sqrt(N)
            base[i] = spec.taus[i] * (np.sqrt(1.0 - beta**2) * z + beta * spike)
        else:
            base[i] = spec.taus[i] * z
    return [spec.coefficients[m] @ base for m in range(spec.coefficients.shape[0])]


def gaussianization_check(rotated, pre_rotation) -> dict:
    """Covariance preservation plus per-device excess kurtosis after rotation."""
    x = np.atleast_2d(np.asarray(rotated, dtype=float))
    n = x.shape[1]
    if n < 10**4:
        raise ValueError("need N >= 1e4 for a meaningful check")
    post = x @ x.T / n
    pre = empirical_covariance(pre_rotation)
    cov_err = float(np.abs(post - pre).max())
    centered = x - x.mean(axis=1, keepdims=True)
    m2 = np.mean(centered**2, axis=1)
    m4 = np.mean(centered**4, axis=1)
    kurt = m4 / m2**2 - 3.0
    return {"covariance_error": cov_err, "excess_kurtosis": kurt}


def hartley_reference(x) -> np.ndarray:
    """Orthonormal discrete Hartley transform along the last axis from the
    complex FFT: H = Re F - Im F."""
    f = np.fft.fft(np.asarray(x, dtype=float), norm="ortho")
    return f.real - f.imag


def rotation_reference(v, seed: int, inverse: bool = False) -> np.ndarray:
    """Segment-by-segment x -> H D2 H D1 x (inverse: D1 H D2 H x) on
    ``hartley_reference``, over the library's segments and with the +-1
    diagonals of its seed rule."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rng = np.random.default_rng(seed_stream(seed, "hartley-signs"))
    d1, d2 = rng.integers(0, 2, size=(2, n)) * 2.0 - 1.0
    h = hartley_reference
    out = np.empty_like(v)
    for lo in range(0, n, DEFAULT_SEGMENT_LEN):
        s = slice(lo, lo + DEFAULT_SEGMENT_LEN)
        if inverse:
            out[..., s] = d1[s] * h(d2[s] * h(v[..., s]))
        else:
            out[..., s] = h(d2[s] * h(d1[s] * v[..., s]))
    return out


def allocating_segments(v, seed: int, inverse: bool = False) -> np.ndarray:
    """The rotation as the library computed it before it ran in its output
    buffer: each Hartley pass and sign flip returns a new array. The same
    operations in the same order, so the in-place map must equal it bit for bit."""

    def hartley(x):
        n = x.shape[-1]
        f = np.fft.rfft(x, norm="ortho")
        out = np.empty(x.shape)
        np.subtract(f.real, f.imag, out=out[..., : n // 2 + 1])
        h = (n - 1) // 2
        np.add(f.real[..., h:0:-1], f.imag[..., h:0:-1], out=out[..., n - h :])
        return out

    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rng = np.random.default_rng(seed_stream(seed, "hartley-signs"))
    d1, d2 = rng.integers(0, 2, size=(2, n)) * 2.0 - 1.0
    full = n - n % DEFAULT_SEGMENT_LEN
    out = np.empty_like(v)
    for lo, hi, seg in ((0, full, DEFAULT_SEGMENT_LEN), (full, n, n - full)):
        if lo < hi:
            x = v[..., lo:hi].reshape(v.shape[:-1] + ((hi - lo) // seg, seg))
            s1, s2 = d1[lo:hi].reshape(-1, seg), d2[lo:hi].reshape(-1, seg)
            y = s1 * hartley(s2 * hartley(x)) if inverse else hartley(s2 * hartley(s1 * x))
            out[..., lo:hi] = y.reshape(v.shape[:-1] + (hi - lo,))
    return out


def stacked_quantize_rotated(x, bits: int, unit_step: float) -> np.ndarray:
    """The uniform quantizer body as the library computed it before it took
    the stack in row blocks: one np.std over the whole stack, then the same
    in-place passes over every row. Works in place on x and returns it."""
    scale = np.std(x, axis=-1, keepdims=True)
    silent = scale == 0.0
    levels = 2**bits
    step = np.where(silent, 1.0, scale) * unit_step
    lo = -0.5 * levels * step
    x -= lo
    x /= step
    np.floor(x, out=x)
    np.clip(x, 0, levels - 1, out=x)
    x += 0.5
    x *= step
    x += lo
    np.copyto(x, 0.0, where=silent)
    return x


def rotate_everything_mbtc(updates, c, q, seed: int, noise):
    """The mbtc estimate by the long road, on a noise stack that the caller
    supplies: rotate the whole mean-removed stack by the rotation of
    seed_stream(seed, "rotation"), add noise row m to device m (none to a
    silent device), MMSE-combine with w = (S + Q)^-1 S c over the devices that
    speak, de-rotate, and add c . means."""
    updates = np.asarray(updates, dtype=float)
    c, q = np.asarray(c, dtype=float), np.asarray(q, dtype=float)
    means = updates.mean(axis=1)
    g = updates - means[:, None]
    sigma = g @ g.T / g.shape[1]
    rotation = seed_stream(seed, "rotation")
    x = rotation_reference(g, rotation)
    speak = np.flatnonzero(np.isfinite(q))
    w = np.zeros(len(q))
    w[speak] = np.linalg.solve(sigma[np.ix_(speak, speak)] + np.diag(q[speak]), (sigma @ c)[speak])
    u = np.zeros_like(x)
    u[speak] = x[speak] + noise[speak]
    return rotation_reference(w @ u, rotation, inverse=True) + c @ means


def allocating_qsgd(v, s: int, dither) -> np.ndarray:
    """QSGD of one row v with the uniform dither row that the caller draws, as
    the library computes it but with each step returning a new array: the norm
    is the root of the row's sum of squares, and the same operations run in
    the same order, so the library's quantizer must equal it bit for bit."""
    v = np.asarray(v, dtype=float)
    norm = float(np.sqrt(np.sum(v * v)))
    if norm == 0.0:
        return np.zeros_like(v)
    r = np.abs(v) / norm * s
    low = np.floor(r)
    xi = (low + (dither < (r - low))) / s
    return norm * np.sign(v) * xi


def whole_stack_uniform(vectors, c, bits: int, seed: int) -> np.ndarray:
    """The uniform aggregator's estimate as the library formed it from one
    rotated copy of the whole stack: c @ quantize(rotate(stack)), de-rotated
    once, with the rotation of seed_stream(seed, "rotation") in the
    library's operation order (``allocating_segments``)."""
    rotation = seed_stream(seed, "rotation")
    unit_step = GAUSSIAN_STEP[bits - 1] if bits <= len(GAUSSIAN_STEP) else 8.0 / 2**bits
    x = stacked_quantize_rotated(allocating_segments(vectors, rotation), bits, unit_step)
    return allocating_segments(np.asarray(c, dtype=float) @ x, rotation, inverse=True)


def whole_stack_mbtc(updates, c, q, seed: int):
    """The mbtc estimate at a given q as the library forms it, from one
    mean-removed copy g of the whole stack: Sigma = g g^T / N, w the MMSE
    combiner over the devices that speak, and xi + c . means + w @ g. The
    noise xi is sqrt(sum_m w_m^2 q_m), over the devices that speak, times the
    one N(0, I) row of seed_stream(seed, "aux-noise"), and zeros when every
    device is silent. Returns the estimate and Sigma."""
    updates = np.asarray(updates, dtype=float)
    c, q = np.asarray(c, dtype=float), np.asarray(q, dtype=float)
    means = updates.mean(axis=1)
    g = updates - means[:, None]
    sigma = g @ g.T / g.shape[1]
    speak = np.flatnonzero(np.isfinite(q))
    w = np.zeros(len(q))
    w[speak] = np.linalg.solve(sigma[np.ix_(speak, speak)] + np.diag(q[speak]), (sigma @ c)[speak])
    z = np.zeros(g.shape[1])
    if speak.size:
        rng = np.random.default_rng(seed_stream(seed, "aux-noise"))
        z = np.sqrt(np.sum(w[speak] ** 2 * q[speak])) * rng.standard_normal(g.shape[1])
    return z + c @ means + w @ g, sigma


def theta_decimal(rho, sigma2, M: int, q, s: int, digits: int = 50) -> float:
    """One-group theta(q, s) in bits from ``digits``-digit decimal arithmetic
    on the exact values of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = digits
        rho, sigma2, q = Decimal(rho), Decimal(sigma2), Decimal(q)
        a = (1 - rho) * sigma2
        u = rho * sigma2 / (a + q)
        nats = s * (1 + a / q).ln() + (1 + M * u).ln() - (1 + (M - s) * u).ln()
        return float(nats / (2 * Decimal(2).ln()))


def single_source_decimal(sigma2, R, digits: int = 50):
    """(q*, D*) = (sigma2 / (2^{2R} - 1), sigma2 2^{-2R}) from ``digits``-digit
    decimal arithmetic on the exact values of the float inputs; 2^{2R} - 1
    is summed as a series where it would cancel."""
    with localcontext() as ctx:
        ctx.prec = digits
        x = 2 * Decimal(R) * Decimal(2).ln()
        if x > 1:
            d = x.exp() - 1
        else:  # x + x^2/2! + ...: at x <= 1 the 2 digits-th term is below 10^-digits
            term, d = Decimal(1), Decimal(0)
            for k in range(1, 2 * digits):
                term *= x / k
                d += term
        return float(Decimal(sigma2) / d), float(Decimal(sigma2) / (d + 1))


def bisect_one_group(feasible, q0: np.ndarray) -> np.ndarray:
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


def full_row_solve(problem) -> np.ndarray:
    """An MM surrogate solved over all of its rows in one interior-point solve,
    from the strictly interior start near its expansion point: the reference
    for a working-set solve."""
    q0 = interior_start(problem.value, problem.expansion_point, Q_MIN)
    return minimize_linear(problem.objective_weights, problem, q0, x_min=Q_MIN)


def grouped_grid_optimum(rho, sigma2, sizes, rates, lo=1e-5, hi=1e3, n_per_axis=200, refine=4):
    """Largest recast objective sum_j M_j / (q_j + (1 - rho) sigma2) over a
    log-spaced grid of group noise levels q in [lo, hi]^J, refined around the
    incumbent. A grid point counts only if it meets the rate row of every
    selection (all prod(M_j + 1) - 1 of them, each from its own nats formula).
    Memory grows as n_per_axis^J; meant for J = 2. Returns (q_best, best)."""
    sizes, rates = np.asarray(sizes, dtype=float), np.asarray(rates, dtype=float)
    J = sizes.size
    sels = np.array([v for v in product(*(range(int(m) + 1) for m in sizes)) if sum(v)], dtype=float)
    a = (1.0 - rho) * sigma2
    lo, hi = np.full(J, lo), np.full(J, hi)
    best_q, best = None, -np.inf
    for _ in range(refine):
        axes = [np.geomspace(lo[j], hi[j], n_per_axis) for j in range(J)]
        q = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, J)
        u = rho * sigma2 / (a + q)
        log_gain, log_full = np.log(1.0 + a / q), np.log(1.0 + u @ sizes)
        ok = np.ones(q.shape[0], dtype=bool)
        for s in sels:
            nats = log_gain @ s + log_full - np.log(1.0 + u @ (sizes - s))
            ok &= nats <= 2.0 * np.log(2.0) * (s @ rates)
        if not ok.any():
            break
        objective = np.where(ok, (sizes / (q + a)).sum(axis=1), -np.inf)
        k = int(np.argmax(objective))
        if objective[k] > best:
            best, best_q = float(objective[k]), q[k].copy()
        step = np.log(hi / lo) / (n_per_axis - 1)  # shrink to +/- 2 cells
        lo, hi = best_q * np.exp(-2.0 * step), best_q * np.exp(2.0 * step)
    return best_q, best
