"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Lines are written to the real stdout so they survive pytest's capture.
"""

import sys
import time

import numpy as np

from fedagg.cli import run
from fedagg.mm_general import build_surrogate, optimize
from fedagg.mm_symmetric import (
    _build_surrogate,
    enumerate_selections,
    optimize_symmetric,
    theta,
)
from fedagg.model import (
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    SymmetricSourceModel,
)
from fedagg.flharness import (
    error_free_aggregator,
    mbtc_aggregator,
    qsgd_aggregator,
    random_task,
    run_training,
    smoothness_constants,
)
from fedagg.region import cond_mutual_info, sum_mutual_info
from fedagg.seeds import seed_stream
from fedagg.simulate import (
    mbtc_aggregate,
    measure_distortion,
    sweep_distortion,
    synthetic_sources,
)
from fedagg.transform import (
    DeviceUpdateBatch,
    haar_derotate,
    haar_rotate,
)
from oracles import gaussianization_check, grid_search, unrolled_bound


def report(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__, flush=True)
    return ok


def random_general_instance(seed: int, m: int):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m + 3))
    sigma = g @ g.T / (m + 3)
    c = rng.uniform(0.2, 1.0, size=m)
    rates = rng.uniform(0.5, 2.0, size=m)
    return GaussianSourceModel(sigma_x=sigma, c=c), RateBudget(rates)


def test_criterion_1_gaussian_rd_recovery():
    t0 = time.monotonic()
    ok = True
    for rate in (0.5, 1.0, 2.0):
        closed = 2.0 ** (-2.0 * rate)
        model = GaussianSourceModel(sigma_x=np.array([[1.0]]), c=np.array([1.0]))
        d_gen = optimize(model, RateBudget(np.array([rate]))).distortion
        sym = SymmetricSourceModel(rho=0.0, sigma2=1.0, groups=((1, rate),))
        d_sym = optimize_symmetric(sym, lam=1.0).distortion
        ok &= abs(d_gen - closed) / closed < 1e-4
        ok &= abs(d_sym - closed) / closed < 1e-4
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert report(1, "gaussian rate-distortion recovery", ok)


def test_criterion_2_grid_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    cases = [(100 + k, 2) for k in range(10)] + [(200 + k, 3) for k in range(5)]
    for seed, m in cases:
        model, budget = random_general_instance(seed, m)
        d_mm = optimize(model, budget).distortion
        _, d_grid = grid_search(model.sigma_x, model.c, budget.r, n_per_axis=200)
        ok &= abs(d_mm - d_grid) / d_grid < 1e-3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert report(2, "grid-oracle equivalence", ok)


def test_criterion_3_cross_algorithm_agreement():
    ok = True
    instances = [
        SymmetricSourceModel(rho=0.2, sigma2=1.0, groups=((3, 1.0),)),
        SymmetricSourceModel(rho=0.9, sigma2=1.0, groups=((10, 1.5),)),
        SymmetricSourceModel(rho=0.5, sigma2=2.0, groups=((2, 1.0), (3, 2.0))),
        SymmetricSourceModel(rho=0.7, sigma2=1.0, groups=((5, 1.0), (5, 2.5))),
    ]
    for sym in instances:
        lam = 1.0 / sym.M
        res_sym = optimize_symmetric(sym, lam=lam)
        expect = 1
        for size, _ in sym.groups:
            expect *= size + 1
        ok &= res_sym.n_constraints == expect - 1
        gmodel, budget = sym.expand(lam=lam)
        res_gen = optimize(gmodel, budget)
        ok &= abs(res_sym.distortion - res_gen.distortion) / res_gen.distortion < 1e-4
    assert report(3, "cross-algorithm agreement", ok)


def test_criterion_4_surrogate_tightness_and_monotonicity():
    ok = True
    # 10 general instances: rebuild the surrogate at every iterate and compare
    # objective and all constraint rows with the exact quantities.
    for k in range(10):
        model, budget = random_general_instance(400 + k, 3)
        res = optimize(model, budget)
        sigma, c = model.sigma_x, model.c
        a = sigma @ c
        for qv in res.iterates:
            b = np.linalg.solve(sigma + np.diag(qv), a)
            surrogate_quad = 2.0 * a @ b - b @ (sigma + np.diag(qv)) @ b
            exact_quad = a @ np.linalg.solve(sigma + np.diag(qv), a)
            ok &= abs(surrogate_quad - exact_quad) < 1e-9
            prob = build_surrogate(model, budget, MbtcParams(qv))
            vals = prob.value(qv)
            for mask, val in zip(range(1, 1 << model.M), vals):
                S = [m for m in range(model.M) if mask >> m & 1]
                exact = (
                    sum_mutual_info(model, MbtcParams(qv))
                    if len(S) == model.M
                    else cond_mutual_info(model, MbtcParams(qv), S)
                )
                ok &= abs(val - (exact - np.sum(budget.r[S]))) < 1e-9
        ok &= bool(np.all(np.diff(np.array(res.trace)) >= -1e-10))
    # 10 symmetric instances: the solver's tangent rows tight at the
    # expansion point.
    rng = np.random.default_rng(401)
    for _ in range(10):
        rho = rng.uniform(0.1, 0.9)
        groups = ((int(rng.integers(1, 4)), 1.0), (int(rng.integers(1, 4)), 2.0))
        sym = SymmetricSourceModel(rho=rho, sigma2=1.0, groups=groups)
        res = optimize_symmetric(sym, lam=0.3)
        sizes = [s for s, _ in groups]
        sels = enumerate_selections(sizes)
        for q_hat in res.iterates:
            rows = _build_surrogate(sym, sels, q_hat).value(q_hat)
            for sel, row in zip(sels, rows):
                exact = theta(rho, 1.0, sizes, q_hat, sel) - sel @ sym.group_rates
                ok &= abs(row - exact) < 1e-9
        ok &= bool(np.all(np.diff(np.array(res.objective_trace)) >= -1e-10))
    assert report(4, "surrogate tightness and MM monotonicity", ok)


def test_criterion_5_theta_reduction_identity():
    ok = True
    rng = np.random.default_rng(500)
    for _ in range(10):
        rho = rng.uniform(0.0, 0.95)
        sigma2 = rng.uniform(0.5, 2.0)
        sizes = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
        sym = SymmetricSourceModel(
            rho=rho, sigma2=sigma2, groups=tuple((s, 1.0) for s in sizes)
        )
        gmodel, _ = sym.expand()
        qg = rng.uniform(0.05, 2.0, size=2)
        q = MbtcParams(np.repeat(qg, sizes))
        M = sum(sizes)
        for sel in enumerate_selections(sizes):
            # Any subset with these per-group counts; take the first devices
            # of each group.
            S = list(range(sel[0])) + list(range(sizes[0], sizes[0] + sel[1]))
            exact = (
                sum_mutual_info(gmodel, q)
                if len(S) == M
                else cond_mutual_info(gmodel, q, S)
            )
            ok &= abs(theta(rho, sigma2, sizes, qg, sel) - exact) < 1e-10
    assert report(5, "theta-reduction identity", ok)


def test_criterion_6_simulator_fidelity():
    t0 = time.monotonic()
    ok = True
    SEED, M, N = 3, 10, 2**17
    c = np.full(M, 1.0 / M)
    for rho in (0.0, 0.5, 0.9, 0.99):
        y = np.stack(synthetic_sources(rho, M, N, seed_stream(SEED, "sources", rho)))
        batch = DeviceUpdateBatch(updates=y)
        res = mbtc_aggregate(batch, c, RateBudget(np.full(M, 2.0)),
                             seed=seed_stream(SEED, "run", rho))
        rel = abs(measure_distortion(c @ y, res.estimate) - res.predicted_distortion)
        ok &= rel / res.predicted_distortion < 0.01
    rows = sweep_distortion((0.9,), (1.0, 2.0, 3.0), M, N, SEED,
                            ("mbtc", "qsgd", "uniform"))
    by_scheme = {}
    for scheme, rho, rate, charged, dist, _ in rows:
        by_scheme.setdefault(rate, {})[scheme] = dist
    for rate in (1.0, 2.0, 3.0):
        d = by_scheme[rate]
        ok &= d["mbtc"] < d["qsgd"] and d["mbtc"] < d["uniform"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    assert report(6, "simulator fidelity and baseline ordering", ok)


def test_criterion_7_transform_invariants():
    ok = True
    rng = np.random.default_rng(700)
    lengths = list(rng.integers(40, 2600, size=97)) + [512, 1000, 3000]
    for k, n in enumerate(lengths):
        v = np.random.default_rng(7000 + k).standard_normal(int(n))
        x = haar_rotate(v, seed=7100 + k)
        norm_v = np.linalg.norm(v)
        ok &= abs(np.linalg.norm(x) - norm_v) / norm_v < 1e-9
        back = haar_derotate(x, seed=7100 + k)
        ok &= np.abs(back - v).max() / max(np.abs(v).max(), 1e-300) < 1e-9
    # Gaussianization at N = 2^17: Gaussian inputs stay near-Gaussian, the
    # rho=0.9 synthetic sources keep their covariance, heavy tails shrink.
    N = 2**17
    rot = seed_stream(3, "rotation")  # the rotation of call seed 3
    gauss = np.stack(synthetic_sources(0.9, 2, N, seed=71))
    rot_g = haar_rotate(gauss, rot)
    rep = gaussianization_check(rot_g, gauss)
    ok &= np.abs(rep["excess_kurtosis"]).max() < 0.1
    ok &= rep["covariance_error"] < 0.02
    heavy = np.random.default_rng(72).laplace(size=(2, N))
    rep2 = gaussianization_check(haar_rotate(heavy, rot), heavy)
    ok &= np.abs(rep2["excess_kurtosis"]).max() < 0.15
    ok &= rep2["covariance_error"] < 0.02
    assert report(7, "transform invariants and gaussianization", ok)


def test_criterion_8_convergence_bound():
    t0 = time.monotonic()
    ok = True
    aggs = {
        "error-free": lambda: error_free_aggregator(),
        "qsgd": lambda: qsgd_aggregator(4),
        "mbtc": lambda: mbtc_aggregator(RateBudget(np.full(8, 3.0))),
    }
    for k in range(20):
        task = random_task(8, 64, samples_per_device=32, seed=800 + k)
        omega, big_omega = smoothness_constants(task)
        contraction = 1.0 - omega / big_omega
        for name, make in aggs.items():
            trace = run_training(task, make(), T=50, seed=900 + k)
            lhs = trace.loss_gap[1:]
            rhs = contraction * trace.loss_gap[:-1] + (
                trace.error_energy * task.N / (2.0 * big_omega)
            )
            ok &= bool(np.all(lhs <= rhs + 1e-9))
            closed = unrolled_bound(
                trace.loss_gap[0], trace.error_energy * task.N, omega, big_omega
            )
            ok &= abs(closed - trace.bound_value[-1]) < 1e-12
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert report(8, "per-round convergence bound", ok)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    ok = True

    def rows_of(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    model_path = tmp_path / "model.json"
    model_path.write_text(
        GaussianSourceModel(
            sigma_x=np.array([[1.0, 0.5], [0.5, 1.0]]), c=np.array([0.5, 0.5])
        ).to_json()
    )
    runs = {
        "optimize": ["optimize", "--model", str(model_path), "--budget", "1.0,1.5"],
        "sweep-distortion": ["sweep-distortion", "--rho", "0.5", "--rates", "1.0",
                             "--M", "2", "--N", "1024", "--seed", "4"],
        "fl-train": ["fl-train", "--devices", "2", "--dim", "16", "--rounds", "4",
                     "--aggregator", "qsgd:2", "--seed", "4"],
        "verify": ["verify"],
        "verify-model": ["verify", "--model", str(model_path),
                         "--budget", "1.0,1.0", "--q", "1.0,1.0"],
    }
    for name, argv in runs.items():
        results = []
        for rep in ("a", "b"):
            extra = []
            out = tmp_path / f"{name}_{rep}.csv"
            if name in ("optimize", "sweep-distortion", "fl-train"):
                suffix = ".json" if name == "optimize" else ".csv"
                out = tmp_path / f"{name}_{rep}{suffix}"
                extra = ["--out", str(out)]
            code = run(argv + extra)
            stdout = capsys.readouterr().out
            body = rows_of(out) if extra else []
            results.append((code, stdout, body))
            ok &= code == 0
        ok &= results[0] == results[1]
    assert report(9, "CLI determinism", ok)
