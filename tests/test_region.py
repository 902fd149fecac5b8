import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedagg
from fedagg.mm_general import optimize
from fedagg.model import (
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    symmetric_covariance,
)
from fedagg.region import (
    cond_mutual_info,
    constraint_report,
    distortion,
    is_feasible,
    mmse_combiner,
    single_source_rd,
    sum_mutual_info,
)

from oracles import (
    grid_mutual_informations,
    mc_conditional_mi,
    mc_mmse_distortion,
    single_source_decimal,
)


def make_model(rho, sigma2, m, c=None):
    c = np.full(m, 1.0 / m) if c is None else np.asarray(c, dtype=float)
    return GaussianSourceModel(sigma_x=symmetric_covariance(rho, sigma2, m), c=c)


def random_model(rng, m):
    a = rng.standard_normal((m, m))
    sigma = a @ a.T + 0.1 * np.eye(m)
    return GaussianSourceModel(sigma_x=sigma, c=rng.standard_normal(m))


class TestCondMutualInfo:
    def test_independent_sources_decouple(self):
        model = make_model(0.0, 1.0, 2)
        q = MbtcParams([1.0, 1.0])
        assert cond_mutual_info(model, q, [0]) == pytest.approx(0.5, abs=1e-12)
        assert cond_mutual_info(model, q, [1]) == pytest.approx(0.5, abs=1e-12)

    def test_against_monte_carlo_entropy(self):
        model = make_model(0.9, 1.0, 2)
        q = np.array([0.1, 0.2])
        exact = cond_mutual_info(model, MbtcParams(q), [0])
        mc = mc_conditional_mi(model.sigma_x, q, [0], n_samples=10**6, seed=42)
        assert abs(exact - mc) < 0.02

    def test_rejects_empty_and_full(self):
        model = make_model(0.0, 1.0, 2)
        q = MbtcParams([1.0, 1.0])
        with pytest.raises(ValueError):
            cond_mutual_info(model, q, [])
        with pytest.raises(ValueError):
            cond_mutual_info(model, q, [0, 1])

    def test_bitmask_and_index_agree(self):
        model = make_model(0.5, 2.0, 3)
        q = MbtcParams([0.3, 0.4, 0.5])
        assert cond_mutual_info(model, q, 0b011) == pytest.approx(
            cond_mutual_info(model, q, [0, 1]), abs=1e-14
        )


class TestSumMutualInfo:
    def test_scalar_case(self):
        model = make_model(0.0, 1.0, 1, c=[1.0])
        assert sum_mutual_info(model, MbtcParams([1.0])) == pytest.approx(0.5)

    def test_independent_additivity(self):
        model = make_model(0.0, 1.0, 2)
        assert sum_mutual_info(model, MbtcParams([1.0, 1.0])) == pytest.approx(1.0)

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            model = random_model(rng, m)
            q = rng.uniform(0.05, 2.0, size=m)
            total = sum_mutual_info(model, MbtcParams(q))
            for mask in range(1, (1 << m) - 1):
                inside = [i for i in range(m) if mask >> i & 1]
                outside = [i for i in range(m) if not mask >> i & 1]
                sigma_out = model.sigma_x[np.ix_(outside, outside)] + np.diag(q[outside])
                marginal = 0.5 * (
                    np.linalg.slogdet(sigma_out)[1] / np.log(2)
                    - np.sum(np.log2(q[outside]))
                )
                combined = cond_mutual_info(model, MbtcParams(q), inside) + marginal
                assert combined == pytest.approx(total, rel=1e-10)

    def test_monotone_decreasing_in_q(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            model = random_model(rng, m)
            q = rng.uniform(0.1, 1.0, size=m)
            k = int(rng.integers(0, m))
            q_up = q.copy()
            q_up[k] *= 1.5
            assert sum_mutual_info(model, MbtcParams(q_up)) < sum_mutual_info(
                model, MbtcParams(q)
            ) + 1e-12
            for mask in range(1, (1 << m) - 1):
                if not mask >> k & 1:
                    continue
                assert cond_mutual_info(model, MbtcParams(q_up), mask) < cond_mutual_info(
                    model, MbtcParams(q), mask
                ) + 1e-12


class TestDistortion:
    def test_scalar_mmse(self):
        model = make_model(0.0, 1.0, 1, c=[1.0])
        assert distortion(model, MbtcParams([1.0])) == pytest.approx(0.5)

    def test_perfect_observation_limit(self):
        model = make_model(0.7, 1.0, 3)
        assert distortion(model, MbtcParams([1e-12] * 3)) <= 1e-9

    def test_all_silent_gives_signal_energy(self):
        model = GaussianSourceModel(
            sigma_x=np.array([[1.0, 0.9], [0.9, 1.0]]), c=np.array([0.5, 0.5])
        )
        assert distortion(model, MbtcParams([np.inf, np.inf])) == pytest.approx(0.95)

    def test_weakly_increasing_in_q(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            model = random_model(rng, m)
            q = rng.uniform(0.1, 1.0, size=m)
            k = int(rng.integers(0, m))
            q_up = q.copy()
            q_up[k] *= 2.0
            assert distortion(model, MbtcParams(q_up)) >= distortion(
                model, MbtcParams(q)
            ) - 1e-12

    def test_monte_carlo_consistency(self):
        model = make_model(0.8, 1.0, 3)
        q = np.array([0.2, 0.5, 1.0])
        w = mmse_combiner(model, MbtcParams(q))
        exact = distortion(model, MbtcParams(q))
        mc = mc_mmse_distortion(model.sigma_x, model.c, q, w, seed=9)
        assert mc == pytest.approx(exact, rel=0.01)


class TestMmseCombiner:
    def test_scalar_case(self):
        model = make_model(0.0, 1.0, 1, c=[1.0])
        np.testing.assert_allclose(mmse_combiner(model, MbtcParams([1.0])), [0.5])

    def test_noiseless_limit_recovers_c(self):
        model = make_model(0.6, 2.0, 3, c=[0.2, 0.3, 0.5])
        w = mmse_combiner(model, MbtcParams([1e-12] * 3))
        np.testing.assert_allclose(w, model.c, atol=1e-6)

    def test_symmetry_gives_equal_weights(self):
        model = make_model(0.9, 1.0, 2, c=[0.5, 0.5])
        w = mmse_combiner(model, MbtcParams([0.3, 0.3]))
        assert w[0] == pytest.approx(w[1], rel=1e-12)

    def test_silent_device_weight_zero(self):
        model = make_model(0.5, 1.0, 2, c=[0.5, 0.5])
        w = mmse_combiner(model, MbtcParams([0.3, np.inf]))
        assert w[1] == 0.0

    def test_nan_q_is_not_silent(self):
        # Only q = +inf is silent; a NaN q propagates as the rate evaluator's does.
        model = make_model(0.5, 1.0, 2, c=[0.5, 0.5])
        q = np.array([np.nan, 1.0])
        assert np.isnan(mmse_combiner(model, q)[0])
        assert np.isnan(distortion(model, q))
        with np.errstate(invalid="ignore"):
            assert np.isnan(sum_mutual_info(model, q))
        assert mmse_combiner(model, np.array([np.inf, 1.0]))[0] == 0.0

    def test_distortion_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            model = random_model(rng, m)
            q = rng.uniform(0.05, 3.0, size=m)
            w = mmse_combiner(model, MbtcParams(q))
            lhs = distortion(model, MbtcParams(q))
            rhs = float(model.c @ model.sigma_x @ model.c - w @ model.sigma_x @ model.c)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestFeasibility:
    def test_scalar_tight(self):
        model = make_model(0.0, 1.0, 1, c=[1.0])
        feasible, slack = is_feasible(model, MbtcParams([1.0 / 3.0]), RateBudget([1.0]))
        assert feasible
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_scalar_infeasible(self):
        model = make_model(0.0, 1.0, 1, c=[1.0])
        feasible, slack = is_feasible(model, MbtcParams([0.1]), RateBudget([1.0]))
        assert not feasible
        assert slack < 0

    def test_matches_grid_oracle_verdicts(self):
        model = make_model(0.9, 1.0, 2)
        budget = RateBudget([1.0, 1.0])
        axis = np.geomspace(1e-3, 1e3, 100)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        q_grid = np.stack([g.ravel() for g in mesh], axis=1)
        required = grid_mutual_informations(model.sigma_x, q_grid)
        oracle_feasible = np.ones(q_grid.shape[0], dtype=bool)
        for mask, req in required.items():
            inside = [i for i in range(2) if mask >> i & 1]
            oracle_feasible &= req <= float(np.sum(budget.r[inside])) + 1e-9
        for i in range(0, q_grid.shape[0], 97):
            verdict, _ = is_feasible(model, MbtcParams(q_grid[i]), budget)
            assert verdict == oracle_feasible[i]

    def test_silent_device_does_not_hide_a_violation(self):
        # Device 2 alone needs 0.5 log2(1 + 1e6) bits against a 1-bit budget.
        model = GaussianSourceModel(
            sigma_x=np.array([[1.0, 0.5], [0.5, 1.0]]), c=np.array([0.5, 0.5])
        )
        q, budget = MbtcParams([np.inf, 1e-6]), RateBudget([1.0, 1.0])
        feasible, slack = is_feasible(model, q, budget)
        assert not feasible
        assert slack == pytest.approx(1.0 - 0.5 * np.log2(1.0 + 1e6), abs=1e-9)
        rows = constraint_report(model, q, budget)
        assert np.all(np.isfinite(np.array(rows)))

    def test_nan_noise_is_infeasible(self):
        model = make_model(0.5, 1.0, 2)
        with np.errstate(invalid="ignore"):
            feasible, _ = is_feasible(model, np.array([np.nan, 1.0]), RateBudget([1.0, 1.0]))
        assert not feasible

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        silent=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    def test_required_bits_match_grid_oracle_on_finite_submodel(self, seed, silent):
        m = len(silent)
        rng = np.random.default_rng(seed)
        model = random_model(rng, m)
        q = np.where(silent, np.inf, rng.uniform(0.05, 3.0, size=m))
        live = np.flatnonzero(np.isfinite(q))
        oracle = grid_mutual_informations(
            model.sigma_x[np.ix_(live, live)], q[live][None, :]
        )
        rows = constraint_report(model, MbtcParams(q), RateBudget(np.ones(m)))
        for mask, required, _, _ in rows:
            sub = sum(1 << j for j, i in enumerate(live) if mask >> i & 1)
            expected = oracle[sub][0] if sub else 0.0
            assert required == pytest.approx(expected, abs=1e-9)

    def test_constraint_report_columns(self):
        model = make_model(0.5, 1.0, 2)
        rows = constraint_report(model, MbtcParams([0.5, 0.5]), RateBudget([1.0, 1.0]))
        assert [r[0] for r in rows] == [1, 2, 3]
        for mask, req, have, slack in rows:
            assert slack == pytest.approx(have - req, abs=1e-15)


class TestSingleSourceRd:
    @pytest.mark.parametrize(
        "sigma2,rate,q_exp,d_exp",
        [(1.0, 1.0, 1.0 / 3.0, 0.25), (1.0, 0.5, 1.0, 0.5), (4.0, 2.0, 4.0 / 15.0, 0.25)],
    )
    def test_closed_form(self, sigma2, rate, q_exp, d_exp):
        q_star, d_star = single_source_rd(sigma2, rate)
        assert q_star == pytest.approx(q_exp, rel=1e-12)
        assert d_star == pytest.approx(d_exp, rel=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            single_source_rd(1.0, 0.0)

    @pytest.mark.parametrize("rate", [1e-300, 1e-15, 1e-10, 1e-4, 0.5, 3.0])
    def test_matches_50_digit_arithmetic(self, rate):
        # 2.0 ** (2R) - 1 lost the digits of rates far below a bit: q* read
        # 7.506e14 against 7.213e14 at R = 1e-15.
        q_ref, d_ref = single_source_decimal(1.0, rate)
        q_star, d_star = single_source_rd(1.0, rate)
        assert q_star == pytest.approx(q_ref, rel=1e-15, abs=0.0)
        assert d_star == pytest.approx(d_ref, rel=1e-15, abs=0.0)

    def test_past_the_float_range(self):
        # 2.0 ** (2R) raised OverflowError from R = 512.
        assert single_source_decimal(1.0, 600.0) == (0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert single_source_rd(1.0, 600.0) == (0.0, 0.0)

    def test_distortion_at_rd_point(self):
        for rate in (0.25, 1.0, 3.0):
            q_star, d_star = single_source_rd(2.0, rate)
            model = make_model(0.0, 2.0, 1, c=[1.0])
            assert distortion(model, MbtcParams([q_star])) == pytest.approx(
                d_star, rel=1e-12
            )


ONE_BIT = RateBudget([1.0, 1.0])
Q_READERS = {
    "mmse_combiner": mmse_combiner,
    "distortion": distortion,
    "sum_mutual_info": sum_mutual_info,
    "cond_mutual_info": lambda model, q: cond_mutual_info(model, q, [0]),
    "is_feasible": lambda model, q: is_feasible(model, q, ONE_BIT),
    "constraint_report": lambda model, q: constraint_report(model, q, ONE_BIT),
}
BUDGET_READERS = {
    "is_feasible": lambda model, budget: is_feasible(model, [1.0, 1.0], budget),
    "constraint_report": lambda model, budget: constraint_report(model, [1.0, 1.0], budget),
    "optimize": optimize,
}
# (reader, argument, message): every q that is too short, too long or a
# scalar, as an array and as MbtcParams, every array with an entry below the
# floor, and every budget of M +- 1 rates.
LENGTH_CASES = [
    pytest.param(Q_READERS[name], wrap(q),
                 f"got {np.size(q)} test-channel variances for 2 devices",
                 id=f"{name}-{wrap.__name__}-{kind}")
    for name in Q_READERS
    for wrap in (np.asarray, MbtcParams)
    for kind, q in (("short", [0.5]), ("long", [0.5, 0.5, 0.5]), ("scalar", 0.5))
] + [
    # Sub-floor arrays were read as given: distortion returned 0.0 at
    # q = (-0.5, 1), and sum_mutual_info inf at q = (0, 1).
    pytest.param(Q_READERS[name], np.array([low, 1.0]), "must be >= 1e-12",
                 id=f"{name}-below-floor-{low}")
    for name in Q_READERS
    for low in (-0.5, 0.0, 1e-13, -np.inf)
] + [
    pytest.param(BUDGET_READERS[name], RateBudget(np.ones(n)),
                 f"got a budget of {n} rates for 2 devices", id=f"{name}-budget{n}")
    for name in BUDGET_READERS
    for n in (1, 3)
]


@pytest.mark.parametrize("reader, argument, message", LENGTH_CASES)
def test_a_q_or_budget_off_M_is_rejected(reader, argument, message):
    # A short q once read its missing devices as silent, and a budget off M
    # raised numpy's matmul mismatch: each now names both counts.
    with pytest.raises(ValueError, match=message):
        reader(make_model(0.5, 1.0, 2), argument)


def test_optimizers_leave_numpy_ma_unloaded():
    # by_complement_size groups rows without np.unique, whose first call
    # imports numpy.ma (numpy 2.4): 12-16 ms and about 1 MiB inside a job.
    code = """
import sys
from fedagg.mm_general import optimize
from fedagg.mm_symmetric import optimize_symmetric
from fedagg.model import SymmetricSourceModel

model = SymmetricSourceModel(rho=0.5, sigma2=1.0, groups=((2, 1.0), (3, 1.5)))
optimize_symmetric(model, 0.2)
optimize(*model.expand(lam=0.2))
print("numpy.ma" in sys.modules)
"""
    src = str(Path(fedagg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
