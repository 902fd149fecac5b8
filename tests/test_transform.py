"""Tests for segment rotation, de-rotation of a weighted sum, and device update batches."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedagg import transform
from fedagg.model import RateBudget, empirical_covariance
from fedagg.simulate import mbtc_aggregate, synthetic_sources
from fedagg.transform import (
    DeviceUpdateBatch,
    haar_derotate,
    haar_matrix,
    haar_rotate,
)
from oracles import (
    Assumption1Spec,
    assumption1_sources,
    gaussianization_check,
    allocating_segments,
    hartley_reference,
    rotation_reference,
)


class TestHaarMatrix:
    def test_orthogonal(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 7, 64):
            U = haar_matrix(dim, rng)
            assert np.abs(U @ U.T - np.eye(dim)).max() < 1e-12

    def test_distribution_not_degenerate(self):
        # Entries of a Haar matrix column are exchangeable; the plain QR of a
        # Gaussian without a sign fix over-represents certain orthants.
        rng = np.random.default_rng(1)
        first = np.array([haar_matrix(4, rng)[0, 0] for _ in range(2000)])
        assert abs(first.mean()) < 0.05


class TestRotation:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        # A tail alone, one full segment, and three full segments plus a tail.
        for n in (64, 600, 1024, 3500):
            v = rng.standard_normal(n)
            x = haar_rotate(v, seed=9)
            back = haar_derotate(x, seed=9)
            assert np.abs(back - v).max() < 1e-9

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(3000)
        x = haar_rotate(v, seed=5)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(v), abs=1e-9)

    def test_deterministic_in_seed(self):
        v = np.arange(100, dtype=float)
        a = haar_rotate(v, seed=1)
        b = haar_rotate(v, seed=1)
        c = haar_rotate(v, seed=2)
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_shared_rotation_preserves_cross_moments(self):
        # All devices use the same per-segment rotations, so G X X^T G^T summed
        # over segments keeps the M x M empirical covariance exactly.
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 2048))
        x = np.vstack([haar_rotate(row, seed=7) for row in g])
        pre = empirical_covariance(g)
        post = empirical_covariance(x)
        assert np.abs(pre - post).max() < 1e-10


class TestRotationProperties:
    # n up to 3000 spans two full 1024-long segments plus a tail.
    @settings(max_examples=80)
    @given(
        n=st.integers(1, 3000),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_inverse_norm_rows_and_seed(self, n, rows, seed, data_seed):
        v = np.random.default_rng(data_seed).standard_normal((rows, n))
        x = haar_rotate(v, seed)
        assert np.abs(haar_derotate(x, seed) - v).max() < 1e-12
        norms = np.linalg.norm(v, axis=1)
        assert np.abs(np.linalg.norm(x, axis=1) - norms).max() < 1e-12 * norms.max()
        by_row = np.vstack([haar_rotate(r, seed) for r in v])
        assert np.abs(by_row - x).max() < 1e-12
        assert np.array_equal(haar_rotate(v, seed), x)
        # Below 64 coordinates two seeds can draw the same map (at n = 1 it
        # is a sign flip, which repeats with odds 1/2).
        if n >= 64:
            assert not np.allclose(haar_rotate(v, seed + 1), x)

    @settings(max_examples=80)
    @given(
        n=st.integers(1, 3000),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_fft_reference(self, n, rows, seed, data_seed):
        # The real-FFT Hartley transform against the complex-FFT map.
        v = np.random.default_rng(data_seed).standard_normal((rows, n))
        tol = 1e-12 * np.linalg.norm(v, axis=1).max()
        x = haar_rotate(v, seed)
        assert np.abs(x - rotation_reference(v, seed)).max() <= tol
        back = haar_derotate(v, seed)
        assert np.abs(back - rotation_reference(v, seed, inverse=True)).max() <= tol

    @pytest.mark.parametrize("n", [1, 2, 3, 999, 1000, 1024])
    def test_hartley_matches_complex_fft_at_edge_lengths(self, n):
        v = np.random.default_rng(n).standard_normal((2, n))
        tol = 1e-12 * np.linalg.norm(v, axis=1).max()
        h = transform._hartley(v, np.empty_like(v), np.empty((2, n // 2 + 1), dtype=complex))
        assert np.abs(h - hartley_reference(v)).max() <= tol
        assert np.abs(haar_rotate(v, 31) - rotation_reference(v, 31)).max() <= tol
        back = rotation_reference(v, 31, inverse=True)
        assert np.abs(haar_derotate(v, 31) - back).max() <= tol

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 1200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_explicit_matrix_orthogonal(self, n, seed):
        # The n x n matrix costs O(n^2) memory, so n stops short of the 3000
        # above; the round trip and norm properties cover the longer vectors.
        # Past 1024 it still holds one full segment and a tail.
        E = haar_rotate(np.eye(n), seed)
        assert np.abs(E @ E.T - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize(
    "shape", [(10, 2**17), (2**17,), (2, 3000), (777,), (3, 2**17 + 77), (2100, 64)]
)
def test_in_place_passes_equal_allocating_passes(shape):
    # The in-place rotation runs the same operations in the same order as
    # the allocating one, so it rounds the same way, tail segments included.
    # It takes the rows in blocks and the oracle takes the whole stack at
    # once; each row's FFT does not depend on the rows batched with it.
    v = np.random.default_rng(shape[-1]).standard_normal(shape)
    assert np.array_equal(haar_rotate(v, 19), allocating_segments(v, 19))
    assert np.array_equal(haar_derotate(v, 19), allocating_segments(v, 19, inverse=True))


@settings(max_examples=8)
@given(seed=st.integers(0, 2**64 - 1), data_seed=st.integers(0, 2**32 - 1))
def test_long_rows_equal_allocating_passes(seed, data_seed):
    # 128 full segments and a 77-long tail per row, each row a block of its
    # own: the int8 sign rows of every seed flip the same bits as float ones.
    v = np.random.default_rng(data_seed).standard_normal((3, 2**17 + 77))
    assert np.array_equal(haar_rotate(v, seed), allocating_segments(v, seed))
    assert np.array_equal(haar_derotate(v, seed), allocating_segments(v, seed, inverse=True))


class TestRowBlocks:
    def test_blocks_hold_whole_rows(self):
        assert transform.row_blocks(10, 2**17) == [slice(m, m + 1) for m in range(10)]
        assert transform.row_blocks(3, 2**17 + 77) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        # 2^17 // 64 = 2048 rows a block: the (2100, 64) stack above crosses one boundary.
        assert transform.row_blocks(2100, 64) == [slice(0, 2048), slice(2048, 2100)]
        assert transform.row_blocks(8, 64) == [slice(0, 8)]
        assert transform.row_blocks(0, 64) == []

    @pytest.mark.parametrize("shape, calls", [((8, 64), 2), ((10, 2**17), 20)])
    def test_one_rfft_per_hartley_pass_and_block(self, shape, calls):
        # Short rows share one block; each 2^17-long row is a block of its own.
        v = np.random.default_rng(3).standard_normal(shape)
        with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
            haar_rotate(v, 5)
        assert rfft.call_count == calls

    def test_empty_stacks(self):
        assert haar_rotate(np.empty((0, 64)), 5).shape == (0, 64)
        assert haar_derotate(np.empty((3, 0)), 5).shape == (3, 0)


def test_rotation_builds_no_dense_matrix(monkeypatch):
    qr = np.linalg.qr

    def no_qr_in_transform(*args, **kwargs):
        # Only QR calls made from fedagg.transform fail; other modules may factor.
        if sys._getframe(1).f_globals.get("__name__") == transform.__name__:
            raise AssertionError("the rotation must not build a dense QR matrix")
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", no_qr_in_transform)
    v = np.random.default_rng(12).standard_normal((2, 2**17))
    x = haar_rotate(v, seed=1201)
    assert np.abs(haar_derotate(x, seed=1201) - v).max() < 1e-12
    M, N = 3, 4096
    batch = DeviceUpdateBatch(updates=np.stack(synthetic_sources(0.8, M, N, seed=1202)))
    res = mbtc_aggregate(batch, np.full(M, 1.0 / M), RateBudget(np.full(M, 2.0)), seed=1204)
    assert np.isfinite(res.estimate).all()


class TestInverseTransform:
    def test_recovers_weighted_sum(self):
        rng = np.random.default_rng(5)
        # Two full segments plus a tail.
        g = rng.standard_normal((4, 2500))
        c = np.array([0.1, 0.2, 0.3, 0.4])
        batch = DeviceUpdateBatch(updates=g)
        x = haar_rotate(g - batch.means[:, None], seed=11)
        est = haar_derotate(c @ x, seed=11) + float(c @ batch.means)
        assert np.abs(est - c @ g).max() < 1e-9


class TestDeviceUpdateBatch:
    def test_cached_views(self):
        rng = np.random.default_rng(6)
        batch = DeviceUpdateBatch(updates=rng.standard_normal((3, 400)))
        assert batch.M == 3 and batch.N == 400
        assert np.abs((batch.updates - batch.means[:, None]).mean(axis=1)).max() < 1e-12


class TestAssumption1:
    def test_limit_covariance_matches_empirical(self):
        spec = Assumption1Spec(
            coefficients=np.array([[1.0, 0.5], [0.3, 1.0], [0.7, 0.7]]),
            taus=np.array([1.0, 0.8]),
        )
        sources = assumption1_sources(spec, N=2**16, seed=3)
        emp = empirical_covariance(np.vstack(sources))
        assert np.abs(emp - spec.limit_covariance()).max() < 0.05

    def test_heavy_tailed_isotropic_gaussianized_by_rotation(self):
        # Laplace entries (excess kurtosis 3) become near-Gaussian after a
        # shared random rotation of each segment.
        rng = np.random.default_rng(4)
        n = 2**15
        sources = rng.laplace(size=(2, n))
        raw_kurt = gaussianization_check(sources, sources)["excess_kurtosis"]
        rotated = np.vstack([haar_rotate(r, seed=8) for r in sources])
        report = gaussianization_check(rotated, sources)
        assert report["covariance_error"] < 1e-10
        assert np.abs(raw_kurt).min() > 1.0
        assert np.abs(report["excess_kurtosis"]).max() < 0.15

    def test_anisotropic_spike_energy_and_covariance(self):
        spec = Assumption1Spec(
            coefficients=np.eye(2), taus=np.array([1.0, 1.0]), anisotropic_first=True
        )
        n = 2**15
        sources = np.vstack(assumption1_sources(spec, N=n, seed=4))
        # Spike carries beta^2 N energy, so the norm condition still holds.
        emp = empirical_covariance(sources)
        assert np.abs(emp - spec.limit_covariance()).max() < 0.05
        rotated = np.vstack([haar_rotate(r, seed=8) for r in sources])
        assert gaussianization_check(rotated, sources)["covariance_error"] < 1e-10

    def test_rejects_small_samples(self):
        with pytest.raises(ValueError):
            gaussianization_check(np.zeros((2, 100)), np.zeros((2, 100)))
