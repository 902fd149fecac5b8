"""Federated training harness on strongly convex quadratic (ridge) tasks.

Quadratics give exact curvature constants and exact optima, so the per-round
contraction inequality can be checked deterministically against measured
gradient-error energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _readonly
from .seeds import seed_stream
from .simulate import (  # noqa: F401  - aggregators are imported from here too
    baseline_aggregate,
    error_free_aggregator,
    mbtc_aggregator,
    measure_distortion,
    qsgd_aggregator,
    uniform_aggregator,
)


@dataclass(frozen=True)
class QuadraticTask:
    """Per-device ridge regression: L_m = ||A_m t - y_m||^2 / (2 K_m) + mu ||t||^2 / 2,
    the designs held as views of one read-only, zero-padded (M, K_max, N) stack."""

    designs: tuple  # M matrices (K_m, N)
    targets: tuple  # M vectors (K_m,)
    mu: float = 0.0

    def __post_init__(self):
        designs = [np.atleast_2d(np.asarray(a, dtype=float)) for a in self.designs]
        targets = [np.atleast_1d(np.asarray(y, dtype=float)) for y in self.targets]
        counts = np.array([a.shape[0] for a in designs], dtype=int)
        if not designs or len(designs) != len(targets) or not counts.all():
            raise ValueError("need one or more devices, each with a target vector and a sample")
        n = designs[0].shape[1]
        stack, ys = np.zeros((counts.size, counts.max(), n)), np.zeros((counts.size, counts.max()))
        for m, (a, y) in enumerate(zip(designs, targets)):
            if a.shape[1] != n or a.shape[0] != y.shape[0]:
                raise ValueError("inconsistent design/target shapes")
            stack[m, : len(a)], ys[m, : len(a)] = a, y
        if not (0 <= self.mu < np.inf and np.isfinite(stack).all() and np.isfinite(ys).all()):
            raise ValueError(f"need finite designs, targets and mu >= 0, got mu = {self.mu}")
        stack.flags.writeable = ys.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "designs", tuple(stack[m, :k] for m, k in enumerate(counts)))
        object.__setattr__(self, "targets", tuple(ys[m, :k] for m, k in enumerate(counts)))
        object.__setattr__(self, "_stacks", (stack, ys))
        object.__setattr__(self, "sample_counts", counts)

    @property
    def M(self) -> int:
        return len(self.designs)

    @property
    def N(self) -> int:
        return self.designs[0].shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        return _readonly(self.sample_counts / self.sample_counts.sum())

    @cached_property
    def hessian(self) -> np.ndarray:
        h = self.mu * np.eye(self.N)
        for w, a in zip(self.weights, self.designs):
            h += w * (a.T @ a) / a.shape[0]
        return h

    @cached_property
    def hessian_eigenvalues(self) -> np.ndarray:
        return _readonly(np.linalg.eigvalsh(self.hessian))

    @cached_property
    def theta_star(self) -> np.ndarray:
        rhs = np.zeros(self.N)
        for w, a, y in zip(self.weights, self.designs, self.targets):
            rhs += w * (a.T @ y) / a.shape[0]
        return np.linalg.solve(self.hessian, rhs)

    def local_loss(self, theta, m: int) -> float:
        a, y = self.designs[m], self.targets[m]
        resid = a @ theta - y
        return float(resid @ resid / (2 * a.shape[0]) + self.mu * theta @ theta / 2)

    def loss(self, theta) -> float:
        return float(sum(w * self.local_loss(theta, m) for m, w in enumerate(self.weights)))

    @cached_property
    def loss_star(self) -> float:
        return self.loss(self.theta_star)

    def loss_gap(self, theta) -> float:
        """L(theta) - L* as (theta - theta*)^T H (theta - theta*) / 2, equal on a
        quadratic. The difference of the two losses cancels near the optimum
        and can round below 0; this form keeps its relative accuracy there."""
        d = np.asarray(theta, dtype=float) - self.theta_star
        return float(d @ self.hessian @ d / 2)


def smoothness_constants(task: QuadraticTask):
    """(omega, Omega): extreme eigenvalues of the global Hessian."""
    eigs = task.hessian_eigenvalues
    if eigs[0] <= 0:
        raise ValueError(f"task is not strongly convex (lambda_min = {eigs[0]:.3e})")
    return float(eigs[0]), float(eigs[-1])


def _gradients(theta, task: QuadraticTask, devices) -> np.ndarray:
    """Rows A_m^T (A_m theta - y_m) / K_m + mu theta of the indexed devices (padding adds 0)."""
    stack, ys = task._stacks
    a = stack[devices]
    g = ((a @ theta - ys[devices])[:, None, :] @ a)[:, 0]
    return g / task.sample_counts[devices, None] + task.mu * theta


def local_gradient(theta, task: QuadraticTask, m: int) -> np.ndarray:
    return _gradients(theta, task, [m])[0]


def fl_round(theta, task: QuadraticTask, aggregator, eta: float, round_seed: int = 0):
    """One synchronous round: local gradients (one stack), aggregation, global step."""
    gradients = _gradients(theta, task, slice(None))
    c = task.weights
    g_hat, rate_report = aggregator(gradients, c, round_seed)
    error_energy = measure_distortion(baseline_aggregate(gradients, c), g_hat)
    return theta - eta * g_hat, error_energy, rate_report


@dataclass(frozen=True)
class TrainTrace:
    """Per-round diagnostics of one training run."""

    loss_gap: np.ndarray  # L(theta^t) - L* (QuadraticTask.loss_gap), rounds 0..T
    error_energy: np.ndarray  # ||e^(t)||^2 / N, rounds 0..T-1
    bound_value: np.ndarray  # recursion bound, rounds 0..T
    rate_reports: tuple


def run_training(task: QuadraticTask, aggregator, T: int, seed: int = 0) -> TrainTrace:
    """T rounds with eta = 1/Omega, tracking the contraction-bound recursion
    driven by measured gradient-error energies."""
    if T < 1:
        raise ValueError("T must be >= 1")
    omega, big_omega = smoothness_constants(task)
    eta = 1.0 / big_omega
    contraction = 1.0 - omega / big_omega
    theta = np.zeros(task.N)
    gaps = [task.loss_gap(theta)]
    bounds = [gaps[0]]
    energies = []
    reports = []
    for t in range(T):
        theta, energy, report = fl_round(
            theta, task, aggregator, eta, round_seed=seed_stream(seed, "round", t)
        )
        energies.append(energy)
        reports.append(report)
        gaps.append(task.loss_gap(theta))
        bounds.append(contraction * bounds[-1] + energy * task.N / (2.0 * big_omega))
    return TrainTrace(
        loss_gap=np.array(gaps),
        error_energy=np.array(energies),
        bound_value=np.array(bounds),
        rate_reports=tuple(reports),
    )


def random_task(M: int, N: int, samples_per_device: int, seed: int, mu: float = 0.1):
    """Seeded random ridge task with mu > 0 guaranteeing strong convexity."""
    designs, targets = [], []
    for m in range(M):
        rng = np.random.default_rng(seed_stream(seed, "task", m))
        a = rng.standard_normal((samples_per_device, N))
        theta_true = rng.standard_normal(N)
        y = a @ theta_true + 0.1 * rng.standard_normal(samples_per_device)
        designs.append(a)
        targets.append(y)
    return QuadraticTask(designs=tuple(designs), targets=tuple(targets), mu=mu)
