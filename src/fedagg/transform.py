"""Data pre/post-processing: segmented random rotation and the update-batch
container, which holds the updates alone.

Segments of DEFAULT_SEGMENT_LEN coordinates (the tail shorter) are rotated by
a randomized Hartley transform (one real FFT per Hartley pass, no stored
matrix); the shared randomness is a 64-bit seed that the caller passes, in the
pipeline seed_stream(s, "rotation") of the call seed s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeds import seed_stream

DEFAULT_SEGMENT_LEN = 1024
# Passes over a stack of rows walk it in blocks of whole rows, about this many
# elements each, so their temporaries scale with a block, not with the stack.
BLOCK_ELEMENTS = 2**17


def row_blocks(rows: int, n: int):
    """Slices of whole rows, max(1, BLOCK_ELEMENTS // n) rows each, covering
    range(rows) in order."""
    step = max(1, BLOCK_ELEMENTS // max(n, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def haar_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Reference Haar sampler: QR of a Gaussian with R-diagonal sign correction."""
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))[None, :]


def _hartley(x: np.ndarray, out: np.ndarray, f: np.ndarray) -> np.ndarray:
    # Orthonormal DHT along the last axis, written to out (which may be x):
    # symmetric and its own inverse. f is complex scratch of the real FFT's
    # shape. From the real FFT f: H[k] = Re f[k] - Im f[k] for k <= n/2, and
    # the mirrored bins H[n-k] = Re f[k] + Im f[k] for 1 <= k <= (n-1)/2.
    n = x.shape[-1]
    np.fft.rfft(x, norm="ortho", out=f)
    np.subtract(f.real, f.imag, out=out[..., : n // 2 + 1])
    h = (n - 1) // 2
    np.add(f.real[..., h:0:-1], f.imag[..., h:0:-1], out=out[..., n - h :])
    return out


def _diagonals(seed: int, n: int) -> np.ndarray:
    # D1 and D2, the +-1 int8 rows of seed_stream(seed, "hartley-signs")'s int64
    # draws of integers(0, 2, n), one row after the other (the bits of one (2, n)
    # draw), each freed once copied in. A float times +-1 is exact.
    rng = np.random.default_rng(seed_stream(seed, "hartley-signs"))
    d = np.empty((2, n), np.int8)
    for row in d:
        row[:] = rng.integers(0, 2, size=n)
    d *= 2
    d -= 1
    return d


def _rotate_rows(x, d, inverse: bool, y) -> np.ndarray:
    # Rotates (inverse: de-rotates) x, a (k, n) block of rows, into y, a C-ordered
    # (k, n) array that may be x, and returns y; d is _diagonals'. The full segments
    # take one batched transform and the tail one more, in views of y, each span
    # with complex scratch of its own, freed before the next span's is made.
    k, n = x.shape
    full = n - n % DEFAULT_SEGMENT_LEN
    for lo, hi, seg in ((0, full, DEFAULT_SEGMENT_LEN), (full, n, n - full)):
        if lo == hi:
            continue
        s1, s2 = d[:, lo:hi].reshape(2, -1, seg)
        xs, ys = (a[:, lo:hi].reshape(k, -1, seg) for a in (x, y))
        f = np.empty((k, (hi - lo) // seg, seg // 2 + 1), complex)
        _hartley(xs if inverse else np.multiply(s1, xs, out=ys), ys, f)
        ys *= s2
        _hartley(ys, ys, f)
        del f
        if inverse:
            ys *= s1
    return y


def _rotated(v, seed: int, inverse: bool) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    stacked = (math.prod(v.shape[:-1]), v.shape[-1])
    rows, out = v.reshape(stacked), np.empty(stacked)
    d = _diagonals(seed, stacked[1])
    for block in row_blocks(*stacked):
        _rotate_rows(rows[block], d, inverse, out[block])
    return out.reshape(v.shape)


def haar_rotate(g_tilde, seed: int):
    """Rotate each length-DEFAULT_SEGMENT_LEN block as x -> H D2 H D1 x.

    D1, D2: seeded random +-1 diagonals; H: orthonormal discrete Hartley transform.
    Orthogonal and Gaussianizing like a Haar rotation, with no stored matrix.
    Takes one vector or an (M, N) stack; the short tail block takes the same map.
    """
    return _rotated(g_tilde, seed, inverse=False)


def haar_derotate(x, seed: int):
    """Inverse (x -> D1 H D2 H x per block) of haar_rotate with the same seed."""
    return _rotated(x, seed, inverse=True)


@dataclass(frozen=True)
class DeviceUpdateBatch:
    """Raw local updates, an (M, N) float array or M equal-length vectors, held
    as given; ``mbtc_aggregate`` checks them in ``simulate._stack``. The rotation
    is not carried: it follows the seed of the call that aggregates the batch."""

    updates: np.ndarray  # (M, N)
