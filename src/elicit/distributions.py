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
import statistics
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ParameterError
from .intervals import Interval
from .numerics import CHUNK, Seed, make_rng

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# The standard normal quantile: Wichura's AS241 (Applied Statistics 37(3),
# 1988), as the standard library implements it.
ndtri = statistics.NormalDist().inv_cdf


def ndtr(x: float) -> float:
    """The standard normal CDF, through erfc so the lower tail keeps its
    relative accuracy. erfc's argument is x times the rounded sqrt(1/2), as in
    Cephes' ndtr: dividing by the rounded sqrt(2) instead moves the result
    by up to 1.8e-13 relative near x = -30."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _check_moments(law) -> None:
    """Reject parameters whose mean or variance is not a finite float: the
    sampler, the moments and every check read them."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = math.isfinite(law.mean()) and math.isfinite(law.variance())
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ParameterError(f"{type(law).__name__} parameters give a mean or variance "
                             f"beyond the float range")


def _check_spread(law, mu: float, sigma: float) -> None:
    """Reject a sigma that vanishes against mu (mu + sigma == mu): the
    draws mu + sigma Z would round to a few floats around mu, where every
    check needs their spread."""
    if mu + sigma == mu:
        raise ParameterError(f"{type(law).__name__} sigma {sigma!r} vanishes against "
                             f"mu {mu!r}: the draws would have no spread")


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
        _check_moments(self)
        _check_spread(self, self.mu, self.sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, int(n))

    def cdf(self, y: float) -> float:
        return ndtr((y - self.mu) / self.sigma)

    def quantile(self, tau: float) -> float:
        return self.mu + self.sigma * ndtri(_check_tau(tau))

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma**2

    def partial_mean_above(self, z: float) -> float:
        d = (self.mu - z) / self.sigma
        return (self.mu - z) * ndtr(d) + self.sigma * _phi(d)

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
        _check_moments(self)
        _check_spread(self, self.mu, self.sigma)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.normal(self.mu, self.sigma, int(n))
        return np.exp(x, out=x)

    def cdf(self, y: float) -> float:
        if y <= 0:
            return 0.0
        return ndtr((math.log(y) - self.mu) / self.sigma)

    def quantile(self, tau: float) -> float:
        return math.exp(self.mu + self.sigma * ndtri(_check_tau(tau)))

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
        return self.mean() * ndtr(self.sigma - d) - z * ndtr(-d)

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
        _check_moments(self)

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
        _check_moments(self)

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


def sorted_quantile(v: np.ndarray, tau: float) -> Interval:
    """The tau-quantile set of the values ``v``, sorted ascending: the closed
    interval [v_(k), v_(k+1)] of minimisers of the empirical pinball loss
    when tau*n is an integer k in [1, n - 1], else the singleton v_(ceil(tau*n))."""
    tau = _check_tau(tau)
    n = len(v)
    k = tau * n
    k_int = round(k)
    if abs(k - k_int) < 1e-12 * n and 1 <= k_int <= n - 1:
        return Interval.closed(float(v[k_int - 1]), float(v[k_int]))
    return Interval.point(float(v[min(n - 1, max(0, math.ceil(k) - 1))]))


@dataclass(frozen=True)
class Empirical:
    """Discrete uniform over a finite multiset of observed values.

    The CDF is the right-continuous step function (1/n) sum 1{v_i <= y}.
    Quantiles are set-valued (see :func:`sorted_quantile`). ``values`` is
    the tuple of floats, in the order given; two laws are equal when their
    values are.
    """

    values: tuple

    requires = "all moments finite (finite support)"

    _sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ParameterError(f"Empirical values must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ParameterError("Empirical requires at least one value")
        if not np.isfinite(arr).all():
            raise ParameterError("Empirical values must all be finite")
        object.__setattr__(self, "values", tuple(arr.tolist()))
        object.__setattr__(self, "_sorted", np.sort(arr))
        _check_moments(self)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # The draws of rng.choice, without its n-long int64 index array: the
        # indices come CHUNK at a time from one generator, so the same bits.
        out = np.empty(int(n))
        for start in range(0, out.size, CHUNK):
            part = out[start:start + CHUNK]
            np.take(self._sorted, rng.integers(0, self._sorted.size, part.size), out=part)
        return out

    def cdf(self, y: float) -> float:
        return float(np.searchsorted(self._sorted, y, side="right")) / self._sorted.size

    def quantile(self, tau: float) -> Interval:
        return sorted_quantile(self._sorted, tau)

    def mean(self) -> float:
        return float(np.mean(self._sorted))

    def variance(self) -> float:
        return float(np.var(self._sorted))

    def partial_mean_above(self, z: float) -> float:
        return float(np.mean(np.maximum(self._sorted - z, 0.0)))

    def support(self) -> Interval:
        return Interval.closed(float(self._sorted[0]), float(self._sorted[-1]))


DistributionSpec = Union[Normal, Lognormal, Exponential, Uniform, Empirical]


def _draw_count(n: int, what: str) -> int:
    n = int(n)
    if n < 1:
        raise ParameterError(f"{what} needs n >= 1, got {n}")
    return n


def sample_iid(dist: DistributionSpec, n: int, seed: Seed) -> np.ndarray:
    """n iid draws from ``dist``; bit-reproducible given seed."""
    return dist.sample(_draw_count(n, "sample_iid"), make_rng(seed))


def sample_chunks(dist: DistributionSpec, n: int, seed: Seed):
    """The draws of :func:`sample_iid`, bit for bit once concatenated, as
    arrays of :data:`CHUNK` draws (the last one shorter) from one generator:
    a pass over them holds one chunk, not n draws. Each array is new, so
    its consumer may change it in place."""
    n = _draw_count(n, "sample_chunks")
    rng = make_rng(seed)
    return (dist.sample(min(CHUNK, n - start), rng) for start in range(0, n, CHUNK))
