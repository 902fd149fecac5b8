"""Source statistics, target coefficients, and rate budgets.

All rates are in bits per symbol (base-2 logarithms throughout the package).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveSemidefiniteError

Q_MIN = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def validate_psd(matrix: np.ndarray) -> np.ndarray:
    """Validate a finite symmetric matrix is PSD, adding jitter for tiny
    negative eigenvalues.

    Eigenvalues in [-1e-10 * trace/M, 0) are absorbed by adding
    1e-12 * trace/M on the diagonal; anything more negative raises.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(np.abs(matrix).max(), 1.0)
    if np.abs(matrix - matrix.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    m = matrix.shape[0]
    unit = matrix.trace() / max(m, 1)
    lo = np.linalg.eigvalsh(matrix)[0]
    if lo < -1e-10 * unit:
        raise NotPositiveSemidefiniteError(
            f"smallest eigenvalue {lo:.3e} below -1e-10*trace/M = {-1e-10 * unit:.3e}"
        )
    if lo < 0:
        matrix = matrix + (1e-12 * unit) * np.eye(m)
    return matrix


@dataclass(frozen=True)
class GaussianSourceModel:
    """Covariance of the rotated local updates plus aggregation-target coefficients."""

    sigma_x: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        sigma = validate_psd(self.sigma_x)
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.shape != (sigma.shape[0],):
            raise ValueError(f"c has shape {c.shape}, expected ({sigma.shape[0]},)")
        if not np.isfinite(c).all():
            raise ValueError("c has non-finite entries")
        object.__setattr__(self, "sigma_x", _readonly(sigma))
        object.__setattr__(self, "c", _readonly(c))

    @property
    def M(self) -> int:
        return self.sigma_x.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "M": self.M,
                "sigma_x": self.sigma_x.ravel().tolist(),
                "c": self.c.tolist(),
            }
        )


def symmetric_covariance(rho: float, sigma2: float, M: int) -> np.ndarray:
    """Equicorrelated covariance rho*s2*11^T + (1-rho)*s2*I."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return rho * sigma2 * np.ones((M, M)) + (1.0 - rho) * sigma2 * np.eye(M)


@dataclass(frozen=True)
class SymmetricSourceModel:
    """Equicorrelated sources with per-group rate budgets.

    groups: list of (size, rate_bits_per_symbol) pairs; devices in a group
    share a budget. Device order is group 0 first, then group 1, etc.
    """

    rho: float
    sigma2: float
    groups: tuple = field(default=())

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        groups = tuple((int(s), float(r)) for s, r in self.groups)
        if not groups:
            raise ValueError("at least one group is required")
        for size, rate in groups:
            if size < 1:
                raise ValueError(f"group size must be >= 1, got {size}")
            if not 0 < rate < np.inf:
                raise ValueError(f"group rate must be positive finite, got {rate}")
        object.__setattr__(self, "groups", groups)

    @property
    def M(self) -> int:
        return sum(s for s, _ in self.groups)

    @property
    def group_sizes(self) -> np.ndarray:
        return np.array([s for s, _ in self.groups], dtype=int)

    @property
    def group_rates(self) -> np.ndarray:
        return np.array([r for _, r in self.groups], dtype=float)

    def expand(self, lam: float = 1.0):
        """Expanded per-device model and budget, with c = lam * 1."""
        model = GaussianSourceModel(
            sigma_x=symmetric_covariance(self.rho, self.sigma2, self.M),
            c=lam * np.ones(self.M),
        )
        r = np.repeat(self.group_rates, self.group_sizes)
        return model, RateBudget(r)

    def to_json(self) -> str:
        return json.dumps(
            {
                "rho": self.rho,
                "sigma2": self.sigma2,
                "groups": [{"size": s, "rate": r} for s, r in self.groups],
            }
        )


@dataclass(frozen=True)
class RateBudget:
    """Per-device source-coding rate limits, bits per symbol."""

    r: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        if not np.all((r > 0) & np.isfinite(r)):
            raise ValueError("all rates must be strictly positive and finite")
        object.__setattr__(self, "r", _readonly(r))


@dataclass(frozen=True)
class MbtcParams:
    """Auxiliary test-channel noise variances, one per device.

    Entries may be +inf (silent device); finite entries must be >= Q_MIN.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if np.isnan(q).any() or (q < Q_MIN).any():
            raise ValueError(f"all q entries must be >= {Q_MIN} (or +inf)")
        object.__setattr__(self, "q", _readonly(q))


def load_model(text: str):
    """Parse a model JSON document, as ``to_json`` writes it, into the matching
    model type: a document with "rho" is a SymmetricSourceModel, any other a
    GaussianSourceModel. Raises ValueError on any document that is not a model."""
    doc = json.loads(text)
    try:
        if "rho" in doc:
            return SymmetricSourceModel(
                rho=float(doc["rho"]),
                sigma2=float(doc["sigma2"]),
                groups=tuple((g["size"], g["rate"]) for g in doc["groups"]),
            )
        m = int(doc["M"])
        sigma = np.asarray(doc["sigma_x"], dtype=float).reshape(m, m)
        return GaussianSourceModel(sigma_x=sigma, c=np.asarray(doc["c"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc!r}") from exc
