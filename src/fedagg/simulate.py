"""End-to-end aggregation simulation: the noise-addition surrogate for the
achievability scheme, baseline quantizers, and distortion/rate measurement.

Aggregators, shared by the sweep and the FL harness, map (vectors, c, seed) to
(estimate of c @ vectors, charged bits per device). Each call, a direct
``mbtc_aggregate`` one too, checks its input once, in ``_stack``, before any
quantizer, rotation or optimizer runs, then walks the (M, N) stack in blocks,
holding a fraction of it. A call with seed s
draws one stream per purpose: seed_stream(s, "rotation") for the uniform
baseline's public rotation, seed_stream(s, "qsgd") for QSGD's dither (row m
is device m's), and seed_stream(s, "aux-noise") for mbtc's one noise row.

Baselines are charged their emitted symbol widths; mbtc the singleton rates
I(x_m; u_m | u_{-m}) at the optimized q under the empirical covariance, which
can sum below I(x; u), so they are not an achievable vector (ROADMAP item 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mm_symmetric
from .model import GaussianSourceModel, MbtcParams, RateBudget, SymmetricSourceModel
from .region import _qvec, _rates, _required_bits, distortion, mmse_combiner
from .seeds import seed_stream
from .transform import (
    DeviceUpdateBatch,
    _diagonals,
    _rotate_rows,
    haar_derotate,
    haar_rotate,
    row_blocks,
)

SCALAR_BITS = 64  # one float64 side-channel scalar (norm or scale)


def synthetic_sources(rho: float, M: int, N: int, seed: int) -> np.ndarray:
    """(M, N) rows y_m = sqrt(rho) s + sqrt(1-rho) w_m: unit variance, correlation rho."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    shared = np.sqrt(rho) * np.random.default_rng(seed_stream(seed, "shared")).standard_normal(N)
    out = np.empty((M, N))
    for m, y in enumerate(out):
        np.random.default_rng(seed_stream(seed, "device", m)).standard_normal(out=y)
        y *= np.sqrt(1.0 - rho)
        y += shared
    return out


def measure_distortion(target, estimate) -> float:
    """Average squared error per symbol."""
    target = np.asarray(target, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if target.shape != estimate.shape:
        raise ValueError(f"shape mismatch {target.shape} vs {estimate.shape}")
    diff = target - estimate
    return float(np.sum(np.square(diff, out=diff)) / target.shape[0])


def mbtc_noise_surrogate(n: int, w, q_star, seed: int):
    """Combined test-channel noise w @ z of the decoder-output surrogate, for
    the MMSE combiner w solved at q_star, where device m adds z_m ~ N(0, q_m I_n)
    and a silent device (q_m = +inf) none. Drawn by its law: one N(0, I_n) row
    of seed_stream(seed, "aux-noise") times sqrt(sum_m w_m^2 q_m) over the
    devices that speak; zeros, with nothing drawn, when every device is silent."""
    qv = _qvec(q_star, len(w))
    speak = ~np.isposinf(qv)
    if not speak.any():
        return np.zeros(n)
    out = np.random.default_rng(seed_stream(seed, "aux-noise")).standard_normal(n)
    out *= math.sqrt(float(np.square(np.asarray(w, dtype=float)[speak]) @ qv[speak]))
    return out


@dataclass(frozen=True)
class AggregationResult:
    """One mbtc aggregation: estimate, charged rates and the optimized q."""

    estimate: np.ndarray
    rate_report: np.ndarray  # bits/symbol charged per device
    predicted_distortion: float
    q: MbtcParams


def _fit_symmetric(sigma: np.ndarray, rates: np.ndarray):
    """Project an empirical covariance onto the equicorrelated family and group
    devices by identical rates (group order = first occurrence); returns the
    model and each device's group index."""
    m = sigma.shape[0]
    sigma2, off = float(sigma.diagonal().mean()), sigma[~np.eye(m, dtype=bool)]
    rho = min(max(float(off.mean()) / sigma2, 0.0), 1.0 - 1e-9) if m > 1 else 0.0
    first = {}  # rate -> its group, numbered at the rate's first occurrence
    group = np.array([first.setdefault(r, len(first)) for r in rates.tolist()])
    groups = tuple((int(n), r) for n, r in zip(np.bincount(group), first))
    return SymmetricSourceModel(rho=rho, sigma2=sigma2, groups=groups), group


def mbtc_aggregate(
    batch: DeviceUpdateBatch, c, budget: RateBudget, seed: int = 0
) -> AggregationResult:
    """Estimate statistics, fit the grouped model and optimize q on it, add
    auxiliary noise, combine. Under a public orthogonal rotation R the decoder
    forms R^-1 (w @ (R x + z)) = w @ x + R^-1 (w @ z), and R^-1 (w @ z) has the
    law of w @ z: no rotation runs, and one noise row is added to w @ x."""
    x, c = _stack(batch.updates, c)
    (M, N), mu = x.shape, x.mean(axis=1, keepdims=True)
    rates = _rates(budget, M)
    # Column blocks, each mean-removed on its own: no copy of the stack is made.
    cols = row_blocks(N, M)
    gram = np.zeros((M, M))
    for b in cols:
        g = x[:, b] - mu
        gram += g @ g.T
    model = GaussianSourceModel(sigma_x=gram / N, c=c)
    if model.sigma_x.trace():
        sym, group = _fit_symmetric(model.sigma_x, rates)
        q = MbtcParams(mm_symmetric.solve_q_groups(sym)[group])
    else:
        # Zero trace: no device varies, or the Gram matrix underflowed. All devices
        # stay silent and the means carry c @ updates.
        q = MbtcParams(np.full(M, np.inf))
    w = mmse_combiner(model, q)
    estimate = mbtc_noise_surrogate(N, w, q, seed)
    estimate += float(c @ mu[:, 0])
    for b in cols:
        estimate[b] += w @ (x[:, b] - mu)
    return AggregationResult(
        estimate=estimate,
        rate_report=_required_bits(model, q, np.eye(M, dtype=bool)),
        predicted_distortion=distortion(model, q, w),
        q=q,
    )


def _check_levels(name: str, value, top) -> None:
    if not 1 <= value < top:  # top: where the level count (2^b or s) leaves the floats
        raise ValueError(f"{name} must be in [1, {top}), got {value}")


def qsgd_quantize(v, s: int, seed: int):
    """Unbiased stochastic quantization to levels {0, 1/s, ..., 1} of |v|/||v||,
    dithered by seed_stream(seed, "qsgd"): the QSGD aggregator on v alone with
    weight 1, bit for bit (1 * x and 0 + x are exact). Charged bits/symbol: sign
    + fixed-width level index per element, plus one 64-bit norm scalar."""
    total, charges = qsgd_aggregator(s)(np.asarray(v, dtype=float)[None], np.ones(1), seed)
    return total, float(charges[0])


# MSE-optimal uniform step, in sigma, for a unit Gaussian at 1..6 bits
# (Max, "Quantizing for minimum distortion", IRE Trans. IT, 1960).
GAUSSIAN_STEP = (1.596, 0.9957, 0.5860, 0.3352, 0.1881, 0.1041)


def _quantize_rotated(x, bits_per_element: int):
    """Uniform quantizer body over already rotated rows, with one scale
    (the row's standard deviation) per row. The step is Gaussian MSE-optimal
    up to 6 bits and spans [-4 sigma, 4 sigma] from 7 bits on; a row of scale
    0 quantizes to zeros. Works in place on x, a buffer the caller owns: the
    uniform aggregator passes one row block of its rotation at a time."""
    b = bits_per_element
    _check_levels("bits_per_element", b, sys.float_info.max_exp)
    levels = 2**b
    unit_step = GAUSSIAN_STEP[b - 1] if b <= len(GAUSSIAN_STEP) else 8.0 / levels
    scale = np.std(x, axis=-1, keepdims=True)
    silent = scale == 0.0
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


def rotated_uniform_quantize(v, bits_per_element: int, seed: int):
    """Rotate segments, quantize uniformly (``_quantize_rotated``), de-rotate."""
    v = np.asarray(v, dtype=float)
    xq = _quantize_rotated(haar_rotate(v, seed), bits_per_element)
    return haar_derotate(xq, seed), bits_per_element + SCALAR_BITS / v.shape[0]


def _stack(vectors, c):
    """The checked (M, N) float stack of the device vectors and their M
    weights. A float array is not copied; a list of equal-length vectors is
    stacked once. Raises ValueError on ragged rows, on a stack with no device
    or no coordinate, on a weight count off M and on a non-finite weight; the
    vectors' values are not scanned, which would take a pass over the stack."""
    if not isinstance(vectors, np.ndarray) and len({np.shape(v) for v in vectors}) > 1:
        raise ValueError("all vectors must share one length")
    x, c = np.asarray(vectors, dtype=float), np.asarray(c, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an (M, N) stack of device vectors, got shape {x.shape}")
    if c.shape != x.shape[:1]:
        raise ValueError(f"{x.shape[0]} vectors but {c.size} weights")
    if not x.size:
        raise ValueError(f"expected at least one device and one coordinate, got shape {x.shape}")
    if not np.isfinite(c).all():
        raise ValueError("weights must be finite")
    return x, c


def _add_rows(total, rows, weights, out) -> None:
    """total += w_m * row_m in device order, each product formed in out, a reused
    row: the target's and QSGD's one sum. A loop, as np.add.reduce may sum one
    column pairwise and np.add.accumulate takes ~6x as long on rows of 2^17."""
    for w, row in zip(weights, rows):
        total += np.multiply(w, row, out=out)


def baseline_aggregate(vectors, c):
    """c @ vectors as the in-order sum total += c_m * v from 0, over the
    checked stack: the target every aggregator is measured against."""
    x, c = _stack(vectors, c)
    total = np.zeros(x.shape[1])
    _add_rows(total, x, c, np.empty(x.shape[1]))
    return total


def qsgd_levels_for_rate(rate_bits: float) -> int:
    """Largest level count whose fixed-width charge fits the rate (min 1)."""
    # Capped at 2^1024 - 1, which no float holds and qsgd_aggregator rejects.
    budget = min(int(math.floor(rate_bits)), sys.float_info.max_exp + 1) - 1
    return max(2**budget - 1, 1) if budget >= 1 else 1


def error_free_aggregator():
    """Exact weighted sum; no finite rate is charged."""
    return lambda vectors, c, seed: (baseline_aggregate(vectors, c), np.full(len(c), np.inf))


def qsgd_aggregator(s: int):
    """Each device quantized by QSGD with s levels, dithered by row m of one
    stream, seed_stream(seed, "qsgd"), a row block at a time in three reused
    buffers. A row's norm is the root of its sum of squares, taken on this
    thread; a zero row quantizes to zeros and is charged its norm scalar only.
    Weighted rows are added in device order by ``_add_rows``, as in the target."""
    _check_levels("level count", s, sys.float_info.max)

    def aggregate(vectors, c, seed):
        x, c = _stack(vectors, c)
        n, rng = x.shape[1], np.random.default_rng(seed_stream(seed, "qsgd"))
        charge = (n * (1 + math.ceil(math.log2(s + 1))) + SCALAR_BITS) / n
        blocks = row_blocks(*x.shape)
        buffers, total, charges = np.empty((3, blocks[0].stop, n)), np.zeros(n), np.empty(len(c))
        for b in blocks:
            r, low, u = buffers[:, : b.stop - b.start]
            norm = np.sqrt(np.sum(np.square(x[b], out=r), axis=1, keepdims=True))
            scale = np.where(norm == 0.0, 1.0, norm)  # a zero row's levels are all 0
            np.multiply(np.divide(np.abs(x[b], out=r), scale, out=r), s, out=r)  # |v| / norm * s
            np.subtract(r, np.floor(r, out=low), out=r)
            # Round up with probability r - low: xi = (low + (u < r - low)) / s.
            low += np.less(rng.random(out=u), r, out=u)
            low /= s
            np.multiply(np.multiply(np.sign(x[b], out=r), scale, out=r), low, out=r)  # norm sign(v) xi
            _add_rows(total, r, c[b], u[0])  # u is free once r is quantized
            charges[b] = np.where(norm[:, 0] == 0.0, SCALAR_BITS / n, charge)
        return total, charges

    return aggregate


def uniform_aggregator(bits_per_element: int):
    """Each device rotated by the public rotation and quantized uniformly.

    The +-1 diagonals are drawn once per call. Rotation, quantization and
    the c-weighted sum take one row block at a time in one reused buffer;
    de-rotation is linear and shared, so the sum is de-rotated once, in
    place, instead of once per device.
    """
    _check_levels("bits_per_element", bits_per_element, sys.float_info.max_exp)

    def aggregate(vectors, c, seed):
        x, c = _stack(vectors, c)
        d = _diagonals(seed_stream(seed, "rotation"), x.shape[1])
        blocks = row_blocks(*x.shape)
        y, total = np.empty((blocks[0].stop, x.shape[1])), np.zeros(x.shape[1])
        for b in blocks:
            rows = _rotate_rows(x[b], d, False, y[: b.stop - b.start])
            total += c[b] @ _quantize_rotated(rows, bits_per_element)
        del y, rows  # not held while the sum is de-rotated
        _rotate_rows(total[None], d, True, total[None])
        return total, np.full(len(c), bits_per_element + SCALAR_BITS / x.shape[1])

    return aggregate


def mbtc_aggregator(budget: RateBudget):
    """The mbtc pipeline, charged its singleton rates."""

    def aggregate(vectors, c, seed):
        res = mbtc_aggregate(DeviceUpdateBatch(vectors), c, budget, seed=seed)
        return res.estimate, res.rate_report

    return aggregate


_SWEEP_AGGREGATORS = {
    "mbtc": lambda M, rate: mbtc_aggregator(RateBudget(np.full(M, rate))),
    "qsgd": lambda M, rate: qsgd_aggregator(qsgd_levels_for_rate(rate)),
    "uniform": lambda M, rate: uniform_aggregator(max(1, int(math.floor(rate)))),
}


def sweep_distortion(rhos, rates, M: int, N: int, seed: int, schemes):
    """Distortion-vs-rate sweep on synthetic sources.

    Yields rows (scheme, rho, rate_bits, charged_bits, distortion, seed),
    each from one aggregator call with the row's own run seed. Baseline
    charged rates may exceed the nominal rate when the nominal rate is below
    the scheme's minimum emission width.
    """
    if not set(schemes) <= _SWEEP_AGGREGATORS.keys():
        raise ValueError(f"unknown scheme in {tuple(schemes)!r}")
    rates = [float(rate) for rate in rates]
    if not (rates and len(rhos) and len(schemes)):
        raise ValueError(f"a sweep needs a rho, a rate and a scheme, got {rhos}, {rates}, {schemes}")
    if not all(0.0 < rate < math.inf for rate in rates):
        raise ValueError(f"rates must be positive and finite, got {rates}")
    if not all(0.0 <= rho < 1.0 for rho in rhos):
        raise ValueError(f"rho must be in [0, 1), got {tuple(rhos)}")
    # Built, and their level counts checked, before any source is drawn.
    aggregators = {(s, rate): _SWEEP_AGGREGATORS[s](M, rate) for rate in rates for s in schemes}
    rows = []
    c = np.full(M, 1.0 / M)
    for rho in rhos:
        sources = synthetic_sources(rho, M, N, seed_stream(seed, "sources", float(rho)))
        for rate in rates:
            for scheme in schemes:
                aggregate = aggregators[scheme, rate]
                run_seed = seed_stream(seed, "run", scheme, float(rho), rate)
                estimate, charges = aggregate(sources, c, run_seed)
                # The target is formed for this measurement only, so no (N,)
                # row is held while an aggregator runs.
                dist = measure_distortion(baseline_aggregate(sources, c), estimate)
                del estimate  # not held while the next aggregator runs
                rows.append((scheme, float(rho), rate, float(np.max(charges)), dist, seed))
        del sources  # not held while the next rho's stack is drawn
    return rows
