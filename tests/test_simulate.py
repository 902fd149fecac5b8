"""Tests for the aggregation simulator and quantizer baselines."""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedagg import mm_symmetric, region, simulate, transform
from fedagg.model import (
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    empirical_covariance,
    symmetric_covariance,
    validate_psd,
)
from fedagg.region import cond_mutual_info, distortion, mmse_combiner, sum_mutual_info
from fedagg.seeds import seed_stream
from fedagg.simulate import (
    GAUSSIAN_STEP,
    _fit_symmetric,
    _quantize_rotated,
    baseline_aggregate,
    error_free_aggregator,
    mbtc_aggregator,
    mbtc_aggregate,
    mbtc_noise_surrogate,
    measure_distortion,
    qsgd_levels_for_rate,
    qsgd_aggregator,
    qsgd_quantize,
    rotated_uniform_quantize,
    sweep_distortion,
    synthetic_sources,
    uniform_aggregator,
)
from fedagg.transform import DEFAULT_SEGMENT_LEN, DeviceUpdateBatch, haar_derotate, haar_rotate
from oracles import (
    allocating_qsgd,
    allocating_segments,
    rotate_everything_mbtc,
    rotation_reference,
    stacked_quantize_rotated,
    whole_stack_mbtc,
    whole_stack_uniform,
)


class TestSyntheticSources:
    def test_covariance_recovery(self):
        for rho in (0.0, 0.5, 0.9):
            y = np.stack(synthetic_sources(rho, 4, 2**16, seed=1))
            emp = empirical_covariance(y)
            assert np.abs(emp - symmetric_covariance(rho, 1.0, 4)).max() < 0.02

    def test_deterministic(self):
        a = synthetic_sources(0.5, 2, 100, seed=7)
        b = synthetic_sources(0.5, 2, 100, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            synthetic_sources(1.0, 2, 10, seed=0)


class TestMeasureDistortion:
    def test_value(self):
        assert measure_distortion([1.0, 2.0], [1.0, 4.0]) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            measure_distortion([1.0], [1.0, 2.0])


class TestNoiseSurrogate:
    def test_empirical_matches_predicted(self):
        rho, M, N = 0.5, 3, 2**16
        y = np.stack(synthetic_sources(rho, M, N, seed=2))
        model = GaussianSourceModel(
            sigma_x=empirical_covariance(y), c=np.full(M, 1.0 / M)
        )
        q = MbtcParams(np.full(M, 0.4))
        w = mmse_combiner(model, q)
        est = w @ y + mbtc_noise_surrogate(N, w, q, seed=3)
        target = model.c @ y
        emp = measure_distortion(target, est)
        assert emp == pytest.approx(distortion(model, q), rel=0.02)

    def test_silent_device_dropped(self):
        model = GaussianSourceModel(sigma_x=np.eye(2), c=np.array([1.0, 1.0]))
        q = MbtcParams(np.array([0.5, np.inf]))
        est = mbtc_noise_surrogate(10, mmse_combiner(model, q), q, seed=0)
        # Device 2 contributes nothing; deterministic check via seed reuse.
        alone = GaussianSourceModel(sigma_x=np.eye(1), c=np.array([1.0]))
        est2 = mbtc_noise_surrogate(10, mmse_combiner(alone, [0.5]), MbtcParams([0.5]), seed=0)
        assert est.shape == (10,)
        assert np.isfinite(est).all()
        assert np.array_equal(est, est2)

    def test_rejects_q_off_the_combiner(self):
        with pytest.raises(ValueError, match="2 test-channel variances for 3 devices"):
            mbtc_noise_surrogate(10, np.ones(3), MbtcParams([0.5, 0.5]), seed=0)

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 300),
        w=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        q=st.lists(st.one_of(st.floats(0.05, 5.0), st.just(np.inf)), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_is_one_white_row_of_the_combined_variance(self, n, w, q, seed):
        # R^-1 (w @ z) has the law of sqrt(sum_m w_m^2 q_m) xi, xi ~ N(0, I),
        # over the devices that speak: one standard-normal row of the call's
        # aux-noise stream, scaled. With every device silent nothing is drawn.
        w, q = np.array(w), np.array(q)
        w[np.isinf(q)] = 0.0  # the combiner gives a silent device no weight
        speak = np.isfinite(q)
        if not speak.any():
            with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drawn")):
                assert np.array_equal(mbtc_noise_surrogate(n, w, q, seed), np.zeros(n))
            return
        xi = np.random.default_rng(seed_stream(seed, "aux-noise")).standard_normal(n)
        scale = np.sqrt(np.sum(w[speak] ** 2 * q[speak]))
        np.testing.assert_allclose(mbtc_noise_surrogate(n, w, q, seed), scale * xi, rtol=1e-13, atol=0.0)


class TestQsgd:
    def test_unbiased(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(32)
        reps = np.stack([qsgd_quantize(v, 4, seed=k)[0] for k in range(4000)])
        assert np.abs(reps.mean(axis=0) - v).max() < 0.05

    def test_charged_bits(self):
        v = np.ones(64)
        _, bits = qsgd_quantize(v, 3, seed=0)
        assert bits == pytest.approx((64 * (1 + 2) + 64) / 64)

    def test_zero_vector(self):
        out, bits = qsgd_quantize(np.zeros(8), 2, seed=0)
        assert np.array_equal(out, np.zeros(8))
        assert bits == pytest.approx(8.0)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            qsgd_quantize(np.ones(4), 0, seed=0)

    @pytest.mark.parametrize("s", [2**1024 - 1, np.inf, np.nan], ids=["2^1024-1", "inf", "nan"])
    def test_rejects_a_level_count_past_the_floats(self, s):
        # 2^1024 - 1 levels (rate 1025) raised an OverflowError when scaled in.
        with pytest.raises(ValueError, match="level count must be in"):
            qsgd_quantize(np.ones(4), s, seed=0)
        with pytest.raises(ValueError, match="level count must be in"):
            qsgd_aggregator(s)

    def test_rate_1024_still_quantizes(self):
        s = qsgd_levels_for_rate(1024.0)
        assert s == 2**1023 - 1
        v = np.random.default_rng(7).standard_normal(64)
        out, bits = qsgd_aggregator(s)(v[None], [1.0], 3)
        assert np.abs(out - v).max() < 1e-12 and bits[0] == 1 + 1023 + 64 / 64

    def test_levels_for_a_huge_rate_are_capped(self):
        # The count past every float is formed at 2^1024 - 1, not digit by
        # digit for the rate, and QSGD rejects it.
        assert qsgd_levels_for_rate(1025.0) == qsgd_levels_for_rate(1e300) == 2**1024 - 1

    def test_levels_for_rate(self):
        assert qsgd_levels_for_rate(1.0) == 1
        assert qsgd_levels_for_rate(2.0) == 1
        assert qsgd_levels_for_rate(3.0) == 3
        assert qsgd_levels_for_rate(4.0) == 7


class TestRotatedUniform:
    def test_error_bounded_by_step(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2000)
        out, charged = rotated_uniform_quantize(v, 6, seed=1)
        # Rotation preserves the norm, so squared error equals the rotated
        # in-range quantization error, at most step/2 per coordinate.
        scale = np.std(v)
        step = 8.0 * scale / 2**6
        mse = measure_distortion(v, out)
        assert mse < (step / 2) ** 2 * 4  # slack for clipped tail mass
        assert charged == pytest.approx(6 + 64 / 2000)

    def test_gaussian_step_beats_clamped_range(self):
        # The Gaussian MSE-optimal step up to 6 bits; the [-4 sigma, 4 sigma]
        # range it replaced did worse than sending zero at 1 bit (1.81 sigma^2).
        v = np.random.default_rng(6).standard_normal(2**16)
        sigma2 = np.var(v)

        def clamped_range(bits):
            x = haar_rotate(v, 7)
            lo, step = -4.0 * np.std(x), 8.0 * np.std(x) / 2**bits
            idx = np.clip(np.floor((x - lo) / step), 0, 2**bits - 1)
            return haar_derotate(lo + (idx + 0.5) * step, 7)

        mse = {}
        for bits in range(1, 9):
            mse[bits] = measure_distortion(v, rotated_uniform_quantize(v, bits, 7)[0])
            assert mse[bits] <= measure_distortion(v, clamped_range(bits))
        assert mse[1] < 0.37 * sigma2
        assert mse[2] < 0.125 * sigma2
        assert mse[3] < 0.04 * sigma2

    def test_deterministic(self):
        v = np.arange(100, dtype=float)
        a, _ = rotated_uniform_quantize(v, 3, seed=2)
        b, _ = rotated_uniform_quantize(v, 3, seed=2)
        assert np.array_equal(a, b)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            rotated_uniform_quantize(np.ones(4), 0, seed=0)

    @pytest.mark.parametrize("bits", [0, 1024, 1100])
    def test_rejects_bits_whose_cell_count_is_past_the_floats(self, bits):
        # 2^1024 cells raised an OverflowError; the aggregator now checks
        # when it is built, before any round.
        with pytest.raises(ValueError, match=r"bits_per_element must be in \[1, 1024\)"):
            _quantize_rotated(np.ones((2, 4)), bits)
        with pytest.raises(ValueError, match=r"bits_per_element must be in \[1, 1024\)"):
            uniform_aggregator(bits)

    def test_1023_bits_still_quantize(self):
        v = np.random.default_rng(8).standard_normal((2, 64))
        out, charges = uniform_aggregator(1023)(v, [0.5, 0.5], 3)
        assert np.abs(out - v.mean(axis=0)).max() < 1e-12
        assert np.array_equal(charges, np.full(2, 1023 + 1.0))


class TestBaselineAggregate:
    def test_weighted_sum(self):
        out = baseline_aggregate([np.ones(3), 2 * np.ones(3)], [0.5, 0.25])
        assert np.allclose(out, np.ones(3))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            baseline_aggregate([np.ones(3), np.ones(4)], [0.5, 0.5])
        with pytest.raises(ValueError):
            baseline_aggregate([np.ones(3)], [0.5, 0.5])

    def test_shape_errors_through_a_streaming_aggregator(self):
        # Every aggregator and the baseline sum check the stack up front: ragged
        # rows, a weight count off the row count, an empty stack, a non-finite
        # weight and (mbtc) a budget length off the row count raise before
        # any quantizer, rotation, Gram pass or optimizer call.
        calls = {
            "baseline": lambda x, c: baseline_aggregate(x, c),
            "error_free": lambda x, c: error_free_aggregator()(x, c, 1),
            "qsgd": lambda x, c: qsgd_aggregator(3)(x, c, 1),
            "uniform": lambda x, c: uniform_aggregator(2)(x, c, 1),
            "mbtc": lambda x, c: mbtc_aggregator(RateBudget(np.full(len(x), 2.0)))(x, c, 1),
        }

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the input was checked")

        with mock.patch.object(simulate, "qsgd_quantize", no_work), mock.patch.object(
            simulate, "_diagonals", no_work
        ), mock.patch.object(simulate, "_rotate_rows", no_work), mock.patch.object(
            simulate, "row_blocks", no_work
        ), mock.patch.object(mm_symmetric, "optimize_symmetric", no_work):
            for call in calls.values():
                with pytest.raises(ValueError, match="share one length"):
                    call([np.ones(3), np.ones(4)], [0.5, 0.5])
                with pytest.raises(ValueError, match=r"\(M, N\) stack"):
                    call(np.ones(4), [1.0])
                for m, weights in ((3, [0.5, 0.5]), (2, [0.2, 0.3, 0.5])):
                    with pytest.raises(ValueError, match=f"{m} vectors but {len(weights)} weights"):
                        call(np.arange(4.0 * m).reshape(m, 4), weights)
                for shape in ((3, 0), (0, 4)):
                    with pytest.raises(ValueError, match="at least one device and one coordinate"):
                        call(np.zeros(shape), np.ones(shape[0]))
                for bad in (np.nan, np.inf):
                    with pytest.raises(ValueError, match="weights must be finite"):
                        call(np.arange(12.0).reshape(3, 4), [0.5, bad, 0.5])
            for rates in ([2.0, 2.0], [2.0] * 4):
                with pytest.raises(ValueError, match=f"a budget of {len(rates)} rates for 3 devices"):
                    mbtc_aggregator(RateBudget(rates))(np.arange(12.0).reshape(3, 4), np.ones(3), 1)


def uniform_rows(vectors, bits, rotation):
    """Each device rotated alone and quantized by the documented step rule:
    scale = std of the rotated row, Gaussian MSE-optimal step, 2^bits cells
    centred on 0, and a row of scale 0 quantized to zeros."""
    rows = []
    for v in vectors:
        x = haar_rotate(v, rotation)
        scale = float(np.std(x))
        if scale == 0.0:
            rows.append(np.zeros_like(x))
            continue
        levels = 2**bits
        step = scale * GAUSSIAN_STEP[bits - 1]
        lo = -0.5 * levels * step
        idx = np.clip(np.floor((x - lo) / step), 0, levels - 1)
        rows.append(lo + (idx + 0.5) * step)
    return np.vstack(rows)


class TestQuantizeRotatedBlocks:
    @pytest.mark.parametrize("shape", [(10, 2**17), (3, 2**17 + 77), (2100, 64), (777,)])
    @pytest.mark.parametrize("bits", [2, 7])
    def test_equals_one_stacked_pass(self, shape, bits):
        # The uniform aggregator hands the quantizer one row block at a time;
        # each row's std does not depend on the rows reduced with it, so any
        # block equals the stacked pass bit for bit. Row 0 of a stack is silent.
        x = haar_rotate(np.random.default_rng(shape[-1]).standard_normal(shape), 23)
        if x.ndim == 2:
            x[0] = 0.0
        unit_step = GAUSSIAN_STEP[bits - 1] if bits <= len(GAUSSIAN_STEP) else 8.0 / 2**bits
        expected = stacked_quantize_rotated(x.copy(), bits, unit_step)
        assert np.array_equal(_quantize_rotated(x, bits), expected)
        assert x.ndim == 1 or not x[0].any()


class TestAggregatorSeedRule:
    def test_public_rotation_and_per_device_dither(self):
        rng = np.random.default_rng(14)
        vectors = list(rng.standard_normal((3, 300)))
        c = np.array([0.2, 0.3, 0.5])
        rotation = seed_stream(21, "rotation")
        # The uniform aggregator de-rotates c @ (quantized rows) once; that
        # is the per-device sum up to rounding, since de-rotation is linear.
        uniform = [rotated_uniform_quantize(v, 2, rotation) for v in vectors]
        estimate, charges = uniform_aggregator(2)(vectors, c, 21)
        rows = uniform_rows(vectors, 2, rotation)
        assert np.array_equal(estimate, haar_derotate(c @ rows, rotation))
        per_device = baseline_aggregate([e[0] for e in uniform], c)
        assert np.abs(estimate - per_device).max() <= 1e-12 * max(1.0, np.abs(estimate).max())
        assert np.array_equal(charges, [e[1] for e in uniform])
        # QSGD: device m dithers by row m of the call's one stream, and the
        # quantized rows enter the estimate in device order.
        dither = np.random.default_rng(seed_stream(21, "qsgd")).random((3, 300))
        estimate, charges = qsgd_aggregator(3)(vectors, c, 21)
        expect = np.zeros(300)
        for c_m, v, u in zip(c, vectors, dither):
            expect += c_m * allocating_qsgd(v, 3, u)
        assert np.array_equal(estimate, expect)
        assert np.array_equal(charges, np.full(3, (300 * 3 + 64) / 300))

    def test_uniform_draws_its_diagonals_once(self):
        # The forward rotation and the de-rotation of the sum share one draw
        # of the +-1 diagonals; the de-rotation once drew them again.
        vectors = np.random.default_rng(16).standard_normal((3, 2500))
        with mock.patch.object(transform, "seed_stream", wraps=transform.seed_stream) as streams:
            estimate, _ = uniform_aggregator(2)(vectors, np.full(3, 1 / 3), 23)
        assert [call.args[1:] for call in streams.call_args_list] == [("hartley-signs",)]
        rotation = seed_stream(23, "rotation")
        rows = uniform_rows(vectors, 2, rotation)
        assert np.array_equal(estimate, haar_derotate(np.full(3, 1 / 3) @ rows, rotation))

    def test_uniform_zero_row_quantizes_to_zeros(self):
        rng = np.random.default_rng(15)
        vectors = rng.standard_normal((3, 300))
        vectors[1] = 0.0
        c = np.array([0.2, 0.3, 0.5])
        rotation = seed_stream(22, "rotation")
        quantized = _quantize_rotated(haar_rotate(vectors, rotation), 2)
        assert not quantized[1].any() and quantized[[0, 2]].all()
        alone, charge = rotated_uniform_quantize(vectors[1], 2, rotation)
        assert not alone.any()
        estimate, charges = uniform_aggregator(2)(list(vectors), c, 22)
        rows = uniform_rows(vectors, 2, rotation)
        assert np.array_equal(estimate, haar_derotate(c @ rows, rotation))
        assert np.array_equal(charges, np.full(3, charge))
        assert charge == rotated_uniform_quantize(vectors[0], 2, rotation)[1]


class TestOneGeneratorPerCall:
    """Each aggregation call builds one generator for its randomness, seeded
    by the call's stream for that purpose; mbtc runs no rotation."""

    def test_mbtc_and_qsgd_build_one_generator_each(self):
        x = synthetic_sources(0.7, 8, 64, seed=31)
        c = np.full(8, 1 / 8)

        def no_rotation(*args, **kwargs):
            raise AssertionError("mbtc rotated")

        for aggregate, purpose in (
            (mbtc_aggregator(RateBudget(np.full(8, 3.0))), "aux-noise"),
            (qsgd_aggregator(4), "qsgd"),
        ):
            with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rngs, \
                    mock.patch.object(transform, "_rotate_rows", no_rotation), \
                    mock.patch.object(simulate, "_rotate_rows", no_rotation):
                aggregate(x, c, 5)
            assert [call.args for call in rngs.call_args_list] == [(seed_stream(5, purpose),)]


class TestMbtcAggregate:
    def test_predicted_distortion_reads_the_one_combiner(self):
        # The combiner is solved once per call, and the predicted distortion
        # taken from it equals region.distortion's own solve bit for bit.
        x = synthetic_sources(0.8, 5, 1000, seed=33)
        with mock.patch.object(simulate, "mmse_combiner", wraps=mmse_combiner) as solves, \
                mock.patch.object(region, "mmse_combiner", solves):
            res = mbtc_aggregate(DeviceUpdateBatch(x), np.full(5, 0.2), RateBudget(np.full(5, 2.0)), 3)
        assert solves.call_count == 1
        model, q = solves.call_args.args
        assert res.predicted_distortion == distortion(model, q) > 0.0

    def test_empirical_tracks_predicted(self):
        rho, M, N = 0.8, 4, 2**15
        y = np.stack(synthetic_sources(rho, M, N, seed=6))
        batch = DeviceUpdateBatch(updates=y)
        budget = RateBudget(np.full(M, 1.5))
        c = np.full(M, 1.0 / M)
        res = mbtc_aggregate(batch, c, budget, seed=8)
        assert measure_distortion(c @ y, res.estimate) == pytest.approx(
            res.predicted_distortion, rel=0.05
        )
        assert np.all(res.rate_report <= budget.r + 1e-9)

    def test_defaults_match_the_aggregator(self):
        # The aggregator is the pipeline with its default optimizer: the
        # estimate and the charges agree bit for bit.
        M, s = 4, 21
        y = synthetic_sources(0.7, M, 3000, seed=17)
        c = np.array([0.1, 0.2, 0.3, 0.4])
        budget = RateBudget(np.full(M, 2.0))
        res = mbtc_aggregate(DeviceUpdateBatch(y), c, budget, seed=s)
        estimate, charges = mbtc_aggregator(budget)(y, c, s)
        assert np.array_equal(res.estimate, estimate)
        assert np.array_equal(res.rate_report, charges)

    def test_small_scale_updates(self):
        # FL-sized updates (sources times 1e-3) once made the grouped barrier
        # give up; the optimizer is scale-free, so the charges and the
        # estimate are those of the unscaled stack, scaled.
        x = synthetic_sources(0.8, 4, 4096, 3)
        aggregate = mbtc_aggregator(RateBudget([1.0, 2.0, 1.0, 3.0]))
        c = np.full(4, 0.25)
        estimate, charges = aggregate(x, c, 1)
        small_estimate, small_charges = aggregate(x * 1e-3, c, 1)
        np.testing.assert_allclose(small_charges, charges, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(small_estimate / 1e-3, estimate, rtol=0.0,
                                   atol=1e-9 * np.abs(estimate).max())

    def test_zero_mean_weights(self):
        # The optimizer's lambda only scales its distortion traces, so weights
        # that sum to 0 get the q of c = 1 and a finite estimate.
        x = synthetic_sources(0.6, 4, 2000, seed=19)
        c = np.array([0.5, -0.5, 0.25, -0.25])
        budget = RateBudget(np.full(4, 2.0))
        estimate, charges = mbtc_aggregator(budget)(x, c, 1)
        assert np.isfinite(estimate).all() and np.isfinite(charges).all()
        batch = DeviceUpdateBatch(x)
        q = mbtc_aggregate(batch, c, budget, 1).q.q
        assert np.array_equal(q, mbtc_aggregate(batch, np.ones(4), budget, 1).q.q)

    @pytest.mark.parametrize("M", [1, 3])
    def test_rate_report_is_the_singleton_rates(self, M):
        # Reference: I(x_m; u_m | u_{-m}) per device, I(x; u) for one device.
        y = np.stack(synthetic_sources(0.7, M, 2048, seed=9))
        batch = DeviceUpdateBatch(updates=y)
        c = np.full(M, 1.0 / M)
        res = mbtc_aggregate(batch, c, RateBudget(np.full(M, 2.0)), seed=4)
        model = GaussianSourceModel(
            sigma_x=validate_psd(empirical_covariance(y - batch.means[:, None])), c=c
        )
        expected = [
            sum_mutual_info(model, res.q) if M == 1 else cond_mutual_info(model, res.q, [m])
            for m in range(M)
        ]
        assert np.array_equal(res.rate_report, expected)

    def test_symmetric_groups_devices_by_budget(self):
        # Groups follow the budgets' first occurrence; each device takes its
        # group's q, and a larger budget buys less noise.
        y = np.stack(synthetic_sources(0.6, 5, 1024, seed=13))
        batch = DeviceUpdateBatch(updates=y)
        budget = RateBudget(np.array([2.0, 1.0, 2.0, 3.0, 1.0]))
        sym, group = _fit_symmetric(empirical_covariance(y - batch.means[:, None]), budget.r)
        assert sym.groups == ((2, 2.0), (2, 1.0), (1, 3.0))
        assert group.tolist() == [0, 1, 0, 2, 1]
        q = mbtc_aggregate(batch, np.full(5, 0.2), budget).q.q
        assert q[0] == q[2] and q[1] == q[4]
        assert q[3] < q[0] < q[1]

    @pytest.mark.parametrize(
        "r",
        [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]],
        ids=["general", "symmetric"],
    )
    def test_constant_updates_keep_every_device_silent(self, r, monkeypatch):
        # Zero empirical covariance: no optimizer runs, the means carry c @ updates,
        # whether every device has its own budget (one group each) or all share one.
        def no_optimizer(*args, **kwargs):
            raise AssertionError("no optimizer may run on a zero covariance")

        monkeypatch.setattr(mm_symmetric, "optimize_symmetric", no_optimizer)
        updates = np.array([[1.5] * 8, [-0.25] * 8, [3.0] * 8])
        c = np.array([0.2, 0.3, 0.5])
        batch = DeviceUpdateBatch(updates=updates)
        res = mbtc_aggregate(batch, c, RateBudget(np.array(r)))
        assert np.all(np.isposinf(res.q.q))
        assert np.array_equal(res.rate_report, np.zeros(3))
        assert res.predicted_distortion == 0.0
        assert np.abs(res.estimate - c @ updates).max() < 1e-15
        assert measure_distortion(c @ updates, res.estimate) < 1e-30

    def test_updates_whose_covariance_underflows_stay_silent(self):
        # The deviations of 1e-170 * N(0, 1) updates are nonzero, but their
        # Gram matrix underflows to 0; the grouped fit divides by its trace,
        # so a zero trace alone must send every device silent (it raised
        # "rho must be in [0, 1), got nan").
        x = 1e-170 * np.random.default_rng(0).standard_normal((4, 64))
        res = mbtc_aggregate(DeviceUpdateBatch(x), np.full(4, 0.25), RateBudget(np.full(4, 2.0)), 1)
        assert np.all(np.isposinf(res.q.q))
        assert np.array_equal(res.rate_report, np.zeros(4))
        assert np.isfinite(res.estimate).all()

    @pytest.mark.parametrize("x, constant", [
        (np.vstack([np.ones(8), np.ones(8), np.arange(8.0)]), [0, 1]),
        (1e-155 * np.random.default_rng(0).standard_normal((4, 64)), []),
    ], ids=["constant-devices", "tiny-updates"])
    def test_no_device_is_charged_below_zero_bits(self, x, constant):
        # Rounding charged -4.4e-16 bits to each constant device, and
        # -3.6e-15 bits to every device of the tiny updates.
        M = x.shape[0]
        _, charges = mbtc_aggregator(RateBudget(np.full(M, 2.0)))(x, np.full(M, 1 / M), 1)
        assert np.all(charges >= 0.0)
        assert np.array_equal(charges[constant], np.zeros(len(constant)))

    @settings(max_examples=60)
    @given(
        M=st.integers(1, 5),
        blocks=st.integers(1, 4),
        tail=st.floats(0.0, 1.0, exclude_max=True),
        q=st.lists(st.one_of(st.floats(0.05, 5.0), st.just(np.inf)), min_size=5, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rotate_everything_pipeline(self, M, blocks, tail, q, seed):
        # R^-1 (w @ (R x + z)) = w @ x + R^-1 (w @ z): with its noise row set to
        # the de-rotated w @ z of a noise stack z that the test draws, the
        # estimate equals rotating every device first, as the decoder sees
        # them, up to rounding. The optimizer is replaced by the drawn q,
        # silent devices included; each device has its own budget, so each is
        # one group.
        seg = DEFAULT_SEGMENT_LEN
        n = blocks * seg + 1 + int(tail * (seg - 1))
        rng = np.random.default_rng(seed)
        updates = rng.standard_normal((M, n)) * rng.uniform(0.1, 3.0, (M, 1)) + rng.normal(0, 2, (M, 1))
        c = rng.uniform(0.1, 1.0, M)
        q = MbtcParams(q[:M])
        noise = rng.standard_normal((M, n)) * np.sqrt(np.where(np.isinf(q.q), 1.0, q.q))[:, None]
        rotation = seed_stream(seed, "rotation")
        batch = DeviceUpdateBatch(updates=updates)
        drawn = SimpleNamespace(q_groups=q.q)
        with mock.patch.object(mm_symmetric, "optimize_symmetric", lambda model, lam: drawn), \
                mock.patch.object(simulate, "mbtc_noise_surrogate",
                                  lambda n, w, q, seed: rotation_reference(w @ noise, rotation, True)):
            res = mbtc_aggregate(batch, c, RateBudget(np.arange(1.0, M + 1)), seed=seed)
        assert np.array_equal(res.q.q, q.q)
        expect = rotate_everything_mbtc(updates, c, q.q, seed, noise)
        assert np.abs(res.estimate - expect).max() <= 1e-12 * max(1.0, np.abs(res.estimate).max())


class TestSmallBlocks:
    """With 64-element blocks, small stacks cross many row blocks (rotation,
    uniform quantizer) and column blocks (mbtc statistics and combiner); the
    streamed aggregators still match their whole-stack formulas."""

    @settings(max_examples=60)
    @given(
        M=st.integers(1, 6),
        n=st.integers(1, 300) | st.integers(1025, 1300),
        bits=st.integers(1, 7),
        q=st.lists(st.one_of(st.floats(0.05, 5.0), st.just(np.inf)), min_size=6, max_size=6),
        silent=st.lists(st.booleans(), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_aggregators_match_whole_stack(self, M, n, bits, q, silent, seed):
        rng = np.random.default_rng(seed)
        updates = rng.standard_normal((M, n)) * rng.uniform(0.1, 3.0, (M, 1)) + rng.normal(0, 2, (M, 1))
        c = rng.uniform(0.1, 1.0, M)
        with mock.patch.object(transform, "BLOCK_ELEMENTS", 64):
            assert np.array_equal(haar_rotate(updates, seed), allocating_segments(updates, seed))
            # Uniform: rows of scale 0 quantize to zeros, so they drop out of the sum.
            zeroed = np.where(np.array(silent[:M])[:, None], 0.0, updates)
            estimate, charges = uniform_aggregator(bits)(zeroed, c, seed)
            expect = whole_stack_uniform(zeroed, c, bits, seed)
            assert np.abs(estimate - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())
            live = ~np.array(silent[:M])
            if live.any():
                alone = whole_stack_uniform(updates[live], c[live], bits, seed)
                assert np.abs(estimate - alone).max() <= 1e-12 * max(1.0, np.abs(alone).max())
            assert np.array_equal(charges, np.full(M, bits + 64 / n))
            # mbtc at the drawn q, each device its own group.
            drawn = SimpleNamespace(q_groups=np.array(q[:M]))
            with mock.patch.object(mm_symmetric, "optimize_symmetric", lambda model, lam: drawn):
                res = mbtc_aggregate(DeviceUpdateBatch(updates), c, RateBudget(np.arange(1.0, M + 1)), seed)
            expect, sigma = whole_stack_mbtc(updates, c, drawn.q_groups, seed)
            assert np.abs(res.estimate - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())
            model = GaussianSourceModel(sigma_x=sigma, c=c)
            rates = [
                sum_mutual_info(model, res.q) if M == 1 else cond_mutual_info(model, res.q, [m])
                for m in range(M)
            ]
            assert np.abs(res.rate_report - rates).max() <= 1e-12 * max(1.0, np.abs(rates).max())
            # QSGD with the sweep's 2^bits - 1 levels: bit for bit the in-order
            # sum of the allocating formula's rows, row m dithered by row m of
            # the call's one stream however the stack is cut into row blocks;
            # one row alone is the formula with its own stream's first row.
            s = 2**bits - 1
            dither = np.random.default_rng(seed_stream(seed, "qsgd")).random((M, n))
            total = np.zeros(n)
            for m, v in enumerate(zeroed):
                total += c[m] * allocating_qsgd(v, s, dither[m])
                alone = np.random.default_rng(seed_stream(seed + m, "qsgd")).random(n)
                assert np.array_equal(qsgd_quantize(v, s, seed + m)[0], allocating_qsgd(v, s, alone))
            assert np.array_equal(qsgd_aggregator(s)(zeroed, c, seed)[0], total)

    @settings(max_examples=30)
    @given(
        M=st.integers(1, 6),
        n=st.integers(1, 300) | st.integers(1025, 1300),
        levels=st.lists(st.integers(-80, 80), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constant_rows_take_the_silent_path(self, M, n, levels, seed):
        # Multiples of 1/8 have exact means, so every mean-removed entry is
        # zero: no optimizer runs, every device is silent and the means carry
        # c @ updates.
        def no_optimizer(*args, **kwargs):
            raise AssertionError("no optimizer may run on constant rows")

        updates = np.repeat(np.array(levels[:M])[:, None] / 8.0, n, axis=1)
        c = np.random.default_rng(seed).uniform(0.1, 1.0, M)
        with mock.patch.object(transform, "BLOCK_ELEMENTS", 64), mock.patch.object(
            mm_symmetric, "optimize_symmetric", no_optimizer
        ):
            res = mbtc_aggregate(DeviceUpdateBatch(updates), c, RateBudget(np.full(M, 2.0)), seed)
        assert np.all(np.isposinf(res.q.q))
        expect = c @ updates
        assert np.abs(res.estimate - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())


class TestSweep:
    def test_rows_and_determinism(self):
        kwargs = dict(
            rhos=(0.0, 0.9), rates=(1.0, 2.0), M=3, N=2**12, seed=5,
            schemes=("mbtc", "qsgd", "uniform"),
        )
        rows = sweep_distortion(**kwargs)
        again = sweep_distortion(**kwargs)
        assert rows == again
        assert len(rows) == 2 * 2 * 3
        for scheme, rho, rate, charged, dist, seed in rows:
            assert dist >= 0.0 and charged > 0.0

    def test_rows_equal_direct_aggregator_calls(self):
        M, N, seed, rho, rate = 4, 2**11, 9, 0.7, 3.0
        rows = sweep_distortion((rho,), (rate,), M, N, seed, ("mbtc", "qsgd", "uniform"))
        sources = synthetic_sources(rho, M, N, seed_stream(seed, "sources", rho))
        c = np.full(M, 1.0 / M)
        direct = {
            "mbtc": mbtc_aggregator(RateBudget(np.full(M, rate))),
            "qsgd": qsgd_aggregator(qsgd_levels_for_rate(rate)),
            "uniform": uniform_aggregator(3),
        }
        for scheme, _, _, charged, dist, _ in rows:
            run_seed = seed_stream(seed, "run", scheme, rho, rate)
            estimate, charges = direct[scheme](sources, c, run_seed)
            assert charged == np.max(charges), scheme
            assert dist == measure_distortion(baseline_aggregate(sources, c), estimate), scheme

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            sweep_distortion((0.0,), (1.0,), 2, 256, 0, ("bogus",))

    @pytest.mark.parametrize("rate", [-5.0, 0.0, np.inf, np.nan])
    def test_rejects_a_rate_before_drawing_sources(self, rate):
        def no_work(*args, **kwargs):
            raise AssertionError("sources drawn before the rates were checked")

        with mock.patch.object(simulate, "synthetic_sources", no_work):
            with pytest.raises(ValueError, match="rates must be positive and finite"):
                sweep_distortion((0.5,), (1.0, rate), 3, 64, 1, ("mbtc", "qsgd", "uniform"))

    @pytest.mark.parametrize("scheme, message", [
        ("uniform", r"bits_per_element must be in \[1, 1024\)"),
        ("qsgd", "level count must be in"),
    ], ids=["uniform", "qsgd"])
    def test_rejects_a_level_count_past_the_floats_before_drawing_sources(self, scheme, message):
        # Rate 1100 needs 2^1100 uniform cells or 2^1099 - 1 QSGD levels; both
        # raised an OverflowError inside the aggregator, after sources were drawn.
        def no_work(*args, **kwargs):
            raise AssertionError("sources drawn before the level counts were checked")

        with mock.patch.object(simulate, "synthetic_sources", no_work):
            with pytest.raises(ValueError, match=message):
                sweep_distortion((0.5,), (1.0, 1100.0), 3, 64, 1, ("mbtc", scheme))

    @pytest.mark.parametrize("rho", [1.0, -0.1, np.nan])
    def test_rejects_a_late_rho_before_drawing_sources(self, rho):
        # A bad rho after a good one once failed only after the good rho's
        # rows were computed.
        def no_work(*args, **kwargs):
            raise AssertionError("sources drawn before the rhos were checked")

        with mock.patch.object(simulate, "synthetic_sources", no_work):
            with pytest.raises(ValueError, match=r"rho must be in \[0, 1\)"):
                sweep_distortion((0.5, rho), (1.0,), 3, 64, 1, ("mbtc", "qsgd", "uniform"))


class TestPeakMemory:
    """Peak bytes that one call allocates, in units of the (10, 2^17) float64
    device stack it is given; tracemalloc sees numpy's array buffers. No call
    copies the stack: each pass takes it in blocks (here one row, or 13,107
    columns for mbtc), so its temporaries cost a block, not a stack, and no
    buffer is held past its last use. The +-1 diagonals are int8 rows, a
    byte a sign. A rotation holds its output, one block's complex scratch
    while that block is transformed, the sign rows and numpy's cast buffers
    for the int8 factors (1.16); de-rotating one row holds the same at row
    size (2.4 rows, 0.24 stacks). The aggregators hold a fraction of one
    stack: mbtc its estimate row and one mean-removed column block (0.21); the
    uniform aggregator one rotated block and its (N,) sum, with no FFT
    scratch left beside the quantizer (0.35); the QSGD aggregator its sum and
    three reused one-row quantizer blocks (0.40). A sweep row, whose sources are
    counted, holds the sources plus the largest of these (1.40): it keeps no
    target row while an aggregator runs, but forms c @ sources for each
    measurement only. A two-rho row holds the same, since one rho's sources
    are dropped before the next rho's are drawn."""

    M, N = 10, 2**17

    @pytest.fixture(scope="class")
    def stack(self):
        return synthetic_sources(0.9, self.M, self.N, seed=1)

    @pytest.mark.parametrize(
        "call, bound",
        [
            (lambda x: haar_rotate(x, 7), 1.2),
            (lambda x: mbtc_aggregator(RateBudget(np.full(10, 2.0)))(x, np.full(10, 0.1), 7), 0.4),
            (lambda x: uniform_aggregator(2)(x, np.full(10, 0.1), 7), 0.4),
            (lambda x: qsgd_aggregator(3)(x, np.full(10, 0.1), 7), 0.5),
            (lambda x: sweep_distortion((0.9,), (2.0,), *x.shape, 1, ("mbtc", "qsgd", "uniform")), 1.45),
            (lambda x: haar_derotate(x[0], 7), 0.3),
            (lambda x: sweep_distortion((0.5, 0.9), (2.0,), *x.shape, 1, ("mbtc", "qsgd", "uniform")), 1.45),
        ],
        ids=[
            "haar_rotate", "mbtc_aggregator", "uniform_aggregator", "qsgd_aggregator", "sweep_row",
            "haar_derotate_row", "sweep_two_rho_row",
        ],
    )
    def test_peak_in_device_stacks(self, stack, call, bound):
        tracemalloc.start()
        try:
            call(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / stack.nbytes <= bound
