"""Data pre/post-processing: mean removal, segmented random rotation, inverse
transform, synthetic correlated-update generators, and Gaussianization checks.

Segments are rotated by a randomized Hartley transform (FFT, no stored matrix);
the shared randomness is modeled by a 64-bit seed carried with the batch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import empirical_covariance
from .seeds import seed_stream

DEFAULT_SEGMENT_LEN = 1024


def mean_remove(g):
    """Split a vector (or row-stacked vectors) into mean-removed part and mean(s)."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g_bar = float(np.mean(g))
        return g - g_bar, g_bar
    g_bar = g.mean(axis=1)
    return g - g_bar[:, None], g_bar


def haar_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Reference Haar sampler: QR of a Gaussian with R-diagonal sign correction."""
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))[None, :]


def _hartley(x: np.ndarray) -> np.ndarray:
    # Orthonormal DHT along the last axis: symmetric and its own inverse.
    f = np.fft.fft(x, norm="ortho")
    return f.real - f.imag


def _apply_segments(v, seed: int, segment_len: int, inverse: bool):
    # Accepts a vector or row-stacked vectors. All full segments of all rows
    # go through one batched transform; the short tail takes one more call.
    if segment_len < 1:
        raise ValueError(f"segment_len must be >= 1, got {segment_len}")
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rng = np.random.default_rng(seed_stream(seed, "hartley-signs"))
    d1, d2 = rng.integers(0, 2, size=(2, n)) * 2.0 - 1.0
    full = n - n % segment_len
    out = np.empty_like(v)
    for lo, hi, seg in ((0, full, segment_len), (full, n, n - full)):
        if lo < hi:
            x = v[..., lo:hi].reshape(v.shape[:-1] + ((hi - lo) // seg, seg))
            s1, s2 = d1[lo:hi].reshape(-1, seg), d2[lo:hi].reshape(-1, seg)
            y = s1 * _hartley(s2 * _hartley(x)) if inverse else _hartley(s2 * _hartley(s1 * x))
            out[..., lo:hi] = y.reshape(v.shape[:-1] + (hi - lo,))
    return out


def haar_rotate(g_tilde, seed: int, segment_len: int = DEFAULT_SEGMENT_LEN):
    """Rotate each length-segment_len block as x -> H D2 H D1 x.

    D1, D2: seeded random +-1 diagonals; H: orthonormal discrete Hartley transform.
    Orthogonal and Gaussianizing like a Haar rotation, with no stored matrix.
    Takes one vector or an (M, N) stack; the short tail block takes the same map.
    """
    return _apply_segments(g_tilde, seed, segment_len, inverse=False)


def haar_derotate(x, seed: int, segment_len: int = DEFAULT_SEGMENT_LEN):
    """Inverse (x -> D1 H D2 H x per block) of haar_rotate with the same seed."""
    return _apply_segments(x, seed, segment_len, inverse=True)


def inverse_transform(x_hat, means, c, seed: int, segment_len: int = DEFAULT_SEGMENT_LEN):
    """Undo the rotation and add back the aggregated means."""
    x_hat = np.asarray(x_hat, dtype=float)
    means = np.asarray(means, dtype=float)
    c = np.asarray(c, dtype=float)
    if means.shape != c.shape:
        raise ValueError(f"means shape {means.shape} != c shape {c.shape}")
    return haar_derotate(x_hat, seed, segment_len) + float(c @ means)


@dataclass(frozen=True)
class DeviceUpdateBatch:
    """Raw local updates plus the shared rotation seed and segmentation."""

    updates: np.ndarray  # (M, N)
    rotation_seed: int
    segment_len: int = DEFAULT_SEGMENT_LEN

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.updates, dtype=float))
        if self.segment_len < 1:
            raise ValueError("segment_len must be positive")
        object.__setattr__(self, "updates", u)

    @property
    def M(self) -> int:
        return self.updates.shape[0]

    @property
    def N(self) -> int:
        return self.updates.shape[1]

    @cached_property
    def means(self) -> np.ndarray:
        return self.updates.mean(axis=1)

    @cached_property
    def mean_removed(self) -> np.ndarray:
        return self.updates - self.means[:, None]

    @cached_property
    def rotated(self) -> np.ndarray:
        return haar_rotate(self.mean_removed, self.rotation_seed, self.segment_len)

    def to_bytes(self) -> bytes:
        header = struct.pack("<qqqq", self.M, self.N, self.segment_len, self.rotation_seed)
        return header + self.updates.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DeviceUpdateBatch":
        if len(blob) < 32:
            raise ValueError(f"blob of {len(blob)} bytes has no 32-byte header")
        m, n, seg, seed = struct.unpack_from("<qqqq", blob)
        if min(m, n, seg) < 1 or len(blob) != 32 + 8 * m * n:
            raise ValueError(f"header M={m}, N={n}, segment_len={seg} for {len(blob)} bytes")
        body = np.frombuffer(blob, dtype="<f8", offset=32).reshape(m, n)
        return cls(updates=body.copy(), rotation_seed=seed, segment_len=seg)


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
