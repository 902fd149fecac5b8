"""Show that every checker in checks.py can fail.

Each checker first sees a correct output, which it must accept, then the
same output made wrong on purpose (q scaled by 0.9, noise added to an
estimate, a trace reversed, ...), which it must reject. Small inputs; runs
in a few seconds:

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 1 if a checker accepts a wrong output or rejects a correct one.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from fedagg import flharness, mm_general, mm_symmetric  # noqa: E402
from fedagg.model import GaussianSourceModel, RateBudget, SymmetricSourceModel  # noqa: E402

FAILURES = []


def expect(label: str, errors: list, want: str | None = None):
    """want=None: the output is correct and must pass. Otherwise it is wrong
    and some failure message must contain want, naming the intended check."""
    hit = [e for e in errors if want is not None and want in e]
    ok = not errors if want is None else bool(hit)
    verdict = f"rejected ({hit[0] if hit else errors[0]})" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    if not ok:
        FAILURES.append(label)


def sweep_cases():
    """A noise-addition MMSE estimate made with the benchmark's own numpy."""
    rng = np.random.default_rng(11)
    M, N, rho, rate = 4, 2**18, 0.9, 2.0
    shared = rng.standard_normal(N)
    y = np.sqrt(rho) * shared + np.sqrt(1 - rho) * rng.standard_normal((M, N))
    c = np.full(M, 1.0 / M)
    rates = np.full(M, rate)
    sigma = checks.empirical_covariance(y)
    sigma2 = float(np.mean(np.diag(sigma)))
    rho_hat = float(np.mean(sigma[~np.eye(M, dtype=bool)])) / sigma2
    sym = SymmetricSourceModel(rho=rho_hat, sigma2=sigma2, groups=((M, rate),))
    q = np.repeat(mm_symmetric.optimize_symmetric(sym, float(c.mean())).q_groups, M)
    x = y - y.mean(axis=1, keepdims=True)
    w = np.linalg.solve(sigma + np.diag(q), sigma @ c)
    u = x + np.sqrt(q)[:, None] * rng.standard_normal((M, N))
    target = c @ x
    estimate = w @ u
    mbtc = float(np.mean((target - estimate) ** 2))
    qsgd = 0.5 * checks.qsgd_variance_bound(y, c)[0]
    rows = [("mbtc", rho, rate, 0.0, mbtc, 0), ("qsgd", rho, rate, 0.0, qsgd, 0),
            ("uniform", rho, rate, 0.0, 4 * mbtc, 0)]

    def run(rows, q=q):
        found = checks.check_sweep(rows, y, c, q, rates)
        return [m for s in ("mbtc", "qsgd", "uniform") for m in found[s]]

    expect("sweep: correct rows", run(rows))
    noisy = estimate + np.sqrt(0.05 * mbtc) * rng.standard_normal(N)
    bad = list(rows)
    bad[0] = ("mbtc", rho, rate, 0.0, float(np.mean((target - noisy) ** 2)), 0)
    expect("sweep: mbtc estimate with noise added", run(bad), "empirical vs predicted")
    expect("sweep: q scaled by 0.9", run(rows, q * 0.9), "mbtc q: a rate constraint is violated")
    bad = list(rows)
    bad[1] = ("qsgd", rho, rate, 0.0, 0.9 * mbtc, 0)
    expect("sweep: qsgd below mbtc", run(bad), "is not below qsgd")
    bad = list(rows)
    bad[1] = ("qsgd", rho, rate, 0.0, 3 * qsgd, 0)
    expect("sweep: qsgd above its variance bound", run(bad), "exceeds its variance bound")
    bad = list(rows)
    bad[2] = ("uniform", rho, rate, 0.0, 1e-30, 0)
    expect("sweep: uniform below the centralized bound", run(bad), "below the centralized bound")


def optimize_cases():
    rng = np.random.default_rng(12)
    M = 4
    g = rng.standard_normal((M, M + 3))
    sigma = g @ g.T / (M + 3)
    c = rng.uniform(0.2, 1.0, size=M)
    rates = rng.uniform(0.5, 2.0, size=M)
    res = mm_general.optimize(GaussianSourceModel(sigma_x=sigma, c=c), RateBudget(rates))
    check = lambda r: checks.check_general(r, sigma, c, rates)  # noqa: E731
    expect("general: program result", check(res))
    scaled = dataclasses.replace(res, q=dataclasses.replace(res.q, q=res.q.q * 0.9))
    expect("general: q scaled by 0.9", check(scaled), "rate constraint is violated")
    loose = dataclasses.replace(res, q=dataclasses.replace(res.q, q=res.q.q * 1.1))
    loose = dataclasses.replace(loose, distortion=checks.predicted_distortion(sigma, c, loose.q.q))
    expect("general: q scaled by 1.1", check(loose), "no rate constraint is binding")
    expect("general: distortion off by 1e-3",
           check(dataclasses.replace(res, distortion=res.distortion + 1e-3)), "distortion at q")
    expect("general: trace reversed",
           check(dataclasses.replace(res, trace=res.trace[::-1])), "general objective")

    groups = ((3, 1.0), (2, 2.0))
    sym = SymmetricSourceModel(rho=0.8, sigma2=1.0, groups=groups)
    lam = 0.2
    res = mm_symmetric.optimize_symmetric(sym, lam)
    check = lambda r: checks.check_grouped(r, 0.8, 1.0, groups, lam)  # noqa: E731
    expect("grouped: program result", check(res))
    qg = res.q_groups * 0.9
    scaled = dataclasses.replace(
        res, q_groups=qg, q=dataclasses.replace(res.q, q=np.repeat(qg, [3, 2]))
    )
    expect("grouped: q scaled by 0.9", check(scaled), "rate constraint is violated")
    expect("grouped: distortion trace reversed",
           check(dataclasses.replace(res, trace=res.trace[::-1])), "grouped distortion")
    expect("grouped: distortion below the centralized bound",
           check(dataclasses.replace(res, distortion=0.0)), "below the centralized bound")


def training_cases():
    task = flharness.random_task(4, 8, 6, seed=13)
    trace = flharness.run_training(task, flharness.qsgd_aggregator(2), T=6, seed=13)
    check = lambda tr, theta=task.theta_star: checks.check_training(  # noqa: E731
        tr, task.designs, task.targets, task.mu, theta
    )
    expect("training: program trace", check(trace))
    noisy = task.theta_star + 1e-6 * np.random.default_rng(0).standard_normal(task.N)
    expect("training: theta* with noise added", check(trace, noisy), "theta*")
    gaps = trace.loss_gap.copy()
    gaps[3] = gaps[2] + 1.0
    expect("training: a round that breaks the contraction",
           check(dataclasses.replace(trace, loss_gap=gaps)), "contraction inequality")
    expect("training: bound recursion scaled by 1.01",
           check(dataclasses.replace(trace, bound_value=trace.bound_value * 1.01)), "bound recursion")


def main() -> int:
    sweep_cases()
    optimize_cases()
    training_cases()
    if FAILURES:
        print(f"{len(FAILURES)} checker case(s) went the wrong way", file=sys.stderr)
        return 1
    print("every checker accepted the correct output and rejected every wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
