"""Data pre/post-processing: segmented random rotation and the update-batch
container, which holds the updates and their means.

Segments of DEFAULT_SEGMENT_LEN coordinates (the tail shorter) are rotated by
a randomized Hartley transform (one real FFT per Hartley pass, no stored
matrix); the shared randomness is a 64-bit seed that the caller passes, in the
pipeline seed_stream(s, "rotation") of the call seed s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def _signs(rng: np.random.Generator, n: int) -> np.ndarray:
    # One +-1 diagonal: the int64 draw of integers(0, 2, n), mapped in place.
    d = rng.integers(0, 2, size=n)
    d *= 2
    d -= 1
    return d.astype(np.int8)


def _apply_segments(v, seed: int, inverse: bool, out=None):
    # Yields (block, y) per row block of v, a vector or row-stacked vectors:
    # y holds the block's rows rotated (inverse: de-rotated) in out[block],
    # or without out in one buffer that every block reuses. A block's full
    # segments take one batched transform and the tail one more, in views of
    # y (C-ordered rows), each with complex scratch of its own size that is
    # freed before the block is yielded: the caller's work on y never runs
    # beside it. The +-1 diagonals are drawn once per call, row by row (the
    # bits of one (2, n) draw), and held as int8 rows: a float times +-1 is
    # exact, so the map is unchanged.
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rng = np.random.default_rng(seed_stream(seed, "hartley-signs"))
    d1, d2 = (_signs(rng, n) for _ in range(2))
    full = n - n % DEFAULT_SEGMENT_LEN
    spans = [s for s in ((0, full, DEFAULT_SEGMENT_LEN), (full, n, n - full)) if s[0] < s[1]]
    stacked = (math.prod(v.shape[:-1]), n)
    rows, blocks = v.reshape(stacked), row_blocks(*stacked)
    step = blocks[0].stop if blocks else 0
    dest = np.empty((step, n)) if out is None else out.reshape(stacked)
    for block in blocks:
        k = block.stop - block.start
        y_rows = dest[:k] if out is None else dest[block]
        for lo, hi, seg in spans:
            s1, s2 = d1[lo:hi].reshape(-1, seg), d2[lo:hi].reshape(-1, seg)
            x, y = (a[:, lo:hi].reshape(k, -1, seg) for a in (rows[block], y_rows))
            f = np.empty((k, (hi - lo) // seg, seg // 2 + 1), complex)
            _hartley(x if inverse else np.multiply(s1, x, out=y), y, f)
            y *= s2
            _hartley(y, y, f)
            del f
            if inverse:
                y *= s1
        yield block, y_rows


def _rotated(v, seed: int, inverse: bool) -> np.ndarray:
    out = np.empty(np.shape(v))
    for _ in _apply_segments(v, seed, inverse, out):
        pass
    return out


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
    """Raw local updates (an (M, N) float array, held without a copy) and
    their per-device means; no mean-removed copy is made. The rotation is not
    carried: it follows the seed of the call that aggregates the batch."""

    updates: np.ndarray  # (M, N)

    def __post_init__(self):
        object.__setattr__(self, "updates", np.atleast_2d(np.asarray(self.updates, dtype=float)))

    @property
    def M(self) -> int:
        return self.updates.shape[0]

    @property
    def N(self) -> int:
        return self.updates.shape[1]

    @cached_property
    def means(self) -> np.ndarray:
        return self.updates.mean(axis=1)
