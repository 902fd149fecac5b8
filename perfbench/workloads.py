"""The three workloads: inputs made from the seed, the job, and its checks.

Each workload is a class with ``make_inputs(seed)`` (set-up, not timed as
the job), ``run(inputs, tracer)`` (the timed job) and ``check(inputs,
outputs)``, which returns one entry per operation: a list of failure
messages, empty when the operation passed. ``digest(outputs)`` condenses the
outputs so that rounds of one run can be compared.
"""

from __future__ import annotations

import hashlib
import traceback

import numpy as np

import checks
from fedagg import flharness, mm_general, mm_symmetric, simulate
from fedagg.model import GaussianSourceModel, RateBudget, SymmetricSourceModel

SIGNIFICANT = 8  # digits kept when outputs of two rounds are compared


def _digest(values) -> str:
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values])
    text = ",".join(format(x, f".{SIGNIFICANT}g") for x in flat)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attempt(fn, label: str):
    """Run one operation; an exception is reported and makes it fail."""
    try:
        return fn(), None
    except Exception:  # an operation that raises counts as failed
        return None, f"{label} raised:\n{traceback.format_exc()}"


class Sweep:
    """One distortion-vs-rate row: rho 0.9, 2 bits/device, M 10, N 2^17."""

    RHO, RATE, M, N = 0.9, 2.0, 10, 2**17
    SCHEMES = ("mbtc", "qsgd", "uniform")

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def run(self, inputs, tracer):
        captured = []
        aggregate = simulate.mbtc_aggregate

        def capture(batch, c, budget, *args, **kwargs):
            res = aggregate(batch, c, budget, *args, **kwargs)
            captured.append((batch.updates, np.asarray(c), budget.r, res.q.q))
            return res

        # Keeps the mbtc row's sources and q for the checks.
        simulate.mbtc_aggregate = capture
        try:
            rows, err = _attempt(
                lambda: simulate.sweep_distortion(
                    (self.RHO,), (self.RATE,), self.M, self.N, inputs["seed"], self.SCHEMES
                ),
                "sweep_distortion",
            )
        finally:
            simulate.mbtc_aggregate = aggregate
        return {"rows": rows, "error": err, "captured": captured}

    def check(self, inputs, outputs) -> list:
        if outputs["error"] is not None:
            return [[outputs["error"]]] * len(self.SCHEMES)
        rows = outputs["rows"]
        if len(outputs["captured"]) != 1 or [r[0] for r in rows] != list(self.SCHEMES):
            return [["sweep rows do not match the requested schemes"]] * len(self.SCHEMES)
        updates, c, rates, q = outputs["captured"][0]
        found = checks.check_sweep(rows, updates, c, q, rates)
        return [found[s] for s in self.SCHEMES]

    def digest(self, outputs) -> str:
        rows = outputs["rows"] or []
        return _digest([[r[4] for r in rows]] + [x[3] for x in outputs["captured"]])


class FlTrain:
    """50 FL rounds on an 8-device, dim-64 ridge task: mbtc at 3 bits, qsgd:4.

    The task is fixed; the run's seed makes TRAINING_SEEDS training seeds
    (per-round rotation seeds, test-channel noise, quantizer dithers), and
    each is trained with both aggregators. The barrier's work moves by
    +-8 % between training seeds, and by +-10 % between fresh tasks, so one
    seed per run would put that swing into the job time; averaging three
    seeds per round cuts it by sqrt(3).
    """

    DEVICES, DIM, SAMPLES, ROUNDS, MBTC_BITS, QSGD_LEVELS = 8, 64, 32, 50, 3.0, 4
    TASK_SEED, TRAINING_SEEDS = 800, 3

    def make_inputs(self, seed: int) -> dict:
        task = flharness.random_task(self.DEVICES, self.DIM, self.SAMPLES, seed=self.TASK_SEED)
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=self.TRAINING_SEEDS)
        return {"task": task, "training_seeds": [int(s) for s in seeds]}

    def run(self, inputs, tracer):
        task = inputs["task"]
        budget = RateBudget(np.full(self.DEVICES, self.MBTC_BITS))
        results = []
        for train_seed in inputs["training_seeds"]:
            for name, agg in (
                ("mbtc", flharness.mbtc_aggregator(budget)),
                ("qsgd", flharness.qsgd_aggregator(self.QSGD_LEVELS)),
            ):
                if tracer is not None:
                    agg = tracer.wrap("flharness.aggregate", agg)
                results.append(_attempt(
                    lambda agg=agg: flharness.run_training(task, agg, T=self.ROUNDS, seed=train_seed),
                    f"run_training[{name}, seed {train_seed}]",
                ))
        return results

    def check(self, inputs, outputs) -> list:
        task = inputs["task"]
        return [
            [err] if err else checks.check_training(
                trace, task.designs, task.targets, task.mu, task.theta_star
            )
            for trace, err in outputs
        ]

    def digest(self, outputs) -> str:
        return _digest([np.r_[t.loss_gap, t.error_energy] for t, _ in outputs if t is not None])


class Optimize:
    """General MM at M 10 (1,023 subsets), then grouped MM on 3 x 20 devices.

    The general instance is one fixed seeded random covariance with
    per-device budgets; the grouped model has rho 0.9 and group rates 1, 2
    and 3 bits in an order the run's seed draws. Fresh random instances
    would let the MM iteration count, and so the job time, swing 3x between
    seeds, and on some of them the MM stops with no binding constraint or
    the barrier gives up (see CHANGES.md); relabeling or rescaling the fixed
    covariance already moves it onto such a path for some seeds.
    """

    M, BASE_SEED = 10, 3
    GROUP_SIZE, RHO, GROUP_RATES = 20, 0.9, (1.0, 2.0, 3.0)

    def make_inputs(self, seed: int) -> dict:
        base = np.random.default_rng([self.BASE_SEED, 1])
        g = base.standard_normal((self.M, self.M + 3))
        sigma = g @ g.T / (self.M + 3)
        c = base.uniform(0.2, 1.0, size=self.M)
        rates = base.uniform(0.5, 2.0, size=self.M)
        order = np.random.default_rng(seed).permutation(len(self.GROUP_RATES))
        groups = tuple((self.GROUP_SIZE, self.GROUP_RATES[j]) for j in order)
        return {
            "model": GaussianSourceModel(sigma_x=sigma, c=c),
            "budget": RateBudget(rates),
            "sigma": sigma,
            "c": c,
            "rates": rates,
            "sym": SymmetricSourceModel(rho=self.RHO, sigma2=1.0, groups=groups),
            "lam": 1.0 / (self.GROUP_SIZE * len(groups)),
        }

    def run(self, inputs, tracer):
        return {
            "general": _attempt(
                lambda: mm_general.optimize(inputs["model"], inputs["budget"]),
                "mm_general.optimize",
            ),
            "grouped": _attempt(
                lambda: mm_symmetric.optimize_symmetric(inputs["sym"], inputs["lam"]),
                "mm_symmetric.optimize_symmetric",
            ),
        }

    def check(self, inputs, outputs) -> list:
        (gen, gen_err), (grp, grp_err) = outputs["general"], outputs["grouped"]
        sym = inputs["sym"]
        return [
            [gen_err] if gen_err else checks.check_general(
                gen, inputs["sigma"], inputs["c"], inputs["rates"]
            ),
            [grp_err] if grp_err else checks.check_grouped(
                grp, sym.rho, sym.sigma2, sym.groups, inputs["lam"]
            ),
        ]

    def digest(self, outputs) -> str:
        return _digest([r.q.q for r, _ in outputs.values() if r is not None])


WORKLOADS = {"sweep": Sweep, "fl_train": FlTrain, "optimize": Optimize}
