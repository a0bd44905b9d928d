"""Distribution specifications with samplers, CDFs, and analytic moments.

Each variant is an immutable dataclass exposing the same small surface:
``sample(n, rng)``, ``cdf(y)``, ``quantile(tau)``, ``mean()``, ``variance()``,
``partial_mean_above(z)`` (the upper partial moment E[(Y - z)^+], used to
solve expectile equations exactly), and ``support()``.

Moment requirements are documented per variant (``requires``), not checked
symbolically: every parametric family here has all moments finite except
where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ParameterError
from .intervals import Interval
from .numerics import Seed, make_rng

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {tau}")
    return tau


@dataclass(frozen=True)
class Normal:
    """Gaussian with mean mu and standard deviation sigma."""

    mu: float
    sigma: float

    requires = "all moments finite"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"Normal requires sigma > 0, got {self.sigma}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, int(n))

    def cdf(self, y: float) -> float:
        return float(ndtr((y - self.mu) / self.sigma))

    def quantile(self, tau: float) -> float:
        return float(self.mu + self.sigma * ndtri(_check_tau(tau)))

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma**2

    def partial_mean_above(self, z: float) -> float:
        d = (self.mu - z) / self.sigma
        return (self.mu - z) * float(ndtr(d)) + self.sigma * _phi(d)

    def support(self) -> Interval:
        return Interval.open(-math.inf, math.inf)


@dataclass(frozen=True)
class Lognormal:
    """exp of a Normal(mu, sigma); support (0, inf).

    Draws are generated as exp of Normal draws, so log-draws follow the
    underlying Gaussian exactly.
    """

    mu: float
    sigma: float

    requires = "all moments finite (E[Y^a] exists for every real a)"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"Lognormal requires sigma > 0, got {self.sigma}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(rng.normal(self.mu, self.sigma, int(n)))

    def cdf(self, y: float) -> float:
        if y <= 0:
            return 0.0
        return float(ndtr((math.log(y) - self.mu) / self.sigma))

    def quantile(self, tau: float) -> float:
        return math.exp(self.mu + self.sigma * float(ndtri(_check_tau(tau))))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def raw_moment(self, a: float) -> float:
        """E[Y^a] = exp(a mu + a^2 sigma^2 / 2)."""
        return math.exp(a * self.mu + 0.5 * (a * self.sigma) ** 2)

    def partial_mean_above(self, z: float) -> float:
        if z <= 0:
            return self.mean() - z
        d = (math.log(z) - self.mu) / self.sigma
        return self.mean() * float(ndtr(self.sigma - d)) - z * float(ndtr(-d))

    def support(self) -> Interval:
        return Interval.open(0.0, math.inf)


@dataclass(frozen=True)
class Exponential:
    """Exponential with rate lambda; mean 1/lambda, support [0, inf)."""

    rate: float

    requires = "all moments finite"

    def __post_init__(self):
        if not self.rate > 0:
            raise ParameterError(f"Exponential requires rate > 0, got {self.rate}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, int(n))

    def cdf(self, y: float) -> float:
        if y < 0:
            return 0.0
        return -math.expm1(-self.rate * y)

    def quantile(self, tau: float) -> float:
        return -math.log1p(-_check_tau(tau)) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def partial_mean_above(self, z: float) -> float:
        if z < 0:
            return self.mean() - z
        return math.exp(-self.rate * z) / self.rate

    def support(self) -> Interval:
        return Interval(0.0, math.inf, lo_closed=True)


@dataclass(frozen=True)
class Uniform:
    """Uniform on [lo, hi]."""

    lo: float
    hi: float

    requires = "all moments finite"

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ParameterError(f"Uniform requires hi > lo, got ({self.lo}, {self.hi})")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, int(n))

    def cdf(self, y: float) -> float:
        if y <= self.lo:
            return 0.0
        if y >= self.hi:
            return 1.0
        return (y - self.lo) / (self.hi - self.lo)

    def quantile(self, tau: float) -> float:
        return self.lo + _check_tau(tau) * (self.hi - self.lo)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def partial_mean_above(self, z: float) -> float:
        if z <= self.lo:
            return self.mean() - z
        if z >= self.hi:
            return 0.0
        return (self.hi - z) ** 2 / (2.0 * (self.hi - self.lo))

    def support(self) -> Interval:
        return Interval.closed(self.lo, self.hi)


@dataclass(frozen=True)
class Empirical:
    """Discrete uniform over a finite multiset of observed values.

    The CDF is the right-continuous step function (1/n) sum 1{v_i <= y}.
    Quantiles are set-valued: ``quantile`` returns the closed interval of
    optimal points ([v_(k), v_(k+1)] when tau*n is an integer k, a singleton
    otherwise).

    ``values`` is a tuple of floats, or a read-only copy of a 1-D float
    array when the law is built from an array of draws (no per-value Python
    objects). Two laws are equal when their values are, in order.
    """

    values: tuple

    requires = "all moments finite (finite support)"

    _sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.values, np.ndarray):
            vals = np.array(self.values, dtype=float)
            if vals.ndim != 1:
                raise ParameterError(f"Empirical draws must be 1-D, got shape {vals.shape}")
            vals.flags.writeable = False
            arr = vals
        else:
            vals = tuple(float(v) for v in self.values)
            arr = np.asarray(vals, dtype=float)
        if arr.size == 0:
            raise ParameterError("Empirical requires at least one value")
        if not np.isfinite(arr).all():
            raise ParameterError("Empirical values must all be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_sorted", np.sort(arr))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash(tuple(np.asarray(self.values).tolist()))

    @property
    def sorted_values(self) -> np.ndarray:
        """The values in ascending order (read-only)."""
        return self._sorted

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self._sorted, size=int(n), replace=True)

    def cdf(self, y: float) -> float:
        return float(np.searchsorted(self._sorted, y, side="right")) / self._sorted.size

    def quantile(self, tau: float) -> Interval:
        tau = _check_tau(tau)
        v = self._sorted
        n = len(v)
        k = tau * n
        k_int = round(k)
        if abs(k - k_int) < 1e-12 * n and 1 <= k_int <= n - 1:
            return Interval.closed(float(v[k_int - 1]), float(v[k_int]))
        idx = min(n - 1, max(0, math.ceil(k) - 1))
        return Interval.point(float(v[idx]))

    def mean(self) -> float:
        return float(np.mean(self._sorted))

    def variance(self) -> float:
        return float(np.var(self._sorted))

    def partial_mean_above(self, z: float) -> float:
        return float(np.mean(np.maximum(self._sorted - z, 0.0)))

    def support(self) -> Interval:
        return Interval.closed(float(self._sorted[0]), float(self._sorted[-1]))


DistributionSpec = Union[Normal, Lognormal, Exponential, Uniform, Empirical]


def sample_iid(dist: DistributionSpec, n: int, seed: Seed) -> np.ndarray:
    """n iid draws from ``dist``; bit-reproducible given seed."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"sample_iid needs n >= 1, got {n}")
    return dist.sample(n, make_rng(seed))


def cdf(dist: DistributionSpec, y: float) -> float:
    """P(Y <= y)."""
    return dist.cdf(float(y))


def quantile(dist: DistributionSpec, tau: float):
    """tau-quantile; a float for continuous variants, an Interval for Empirical."""
    return dist.quantile(tau)
