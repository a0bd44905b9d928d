"""Target functionals: mean, quantiles, expectiles, and their transformed kin.

Supported kinds:

* ``mean``        E[Y]
* ``quantile``    the tau-quantile set (an interval for discrete laws)
* ``expectile``   the solution of tau E[(Y - z)^+] = (1 - tau) E[(z - Y)^+]
* ``gmean``       g^-1(E[g(Y)]), the transformed expectation
* ``gexpectile``  g^-1 of the expectile of g(Y)
* ``mvpair``      (E[g(Y)], Var[g(Y)]); g defaults to the identity

Values are computed analytically whenever a closed form (or an exact
root-finding reduction) exists, otherwise by seeded Monte Carlo. Functionals
of the transformed variable are always computed by transforming draws of the
original law, never by constructing the transformed law explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (DistributionSpec, Empirical, Lognormal, Normal,
                            Uniform, sample_iid)
from .errors import DomainError, EvaluationError, ParameterError
from .intervals import Interval
from .numerics import Bracket, Seed, root1d
from .transforms import Bijection

KINDS = ("mean", "quantile", "expectile", "gmean", "gexpectile", "mvpair")


@dataclass(frozen=True)
class FunctionalSpec:
    kind: str
    tau: float | None = None
    g: Bijection | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("quantile", "expectile", "gexpectile"):
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ParameterError(f"{self.kind} requires tau in (0, 1), got {self.tau}")
        if self.kind in ("gmean", "gexpectile") and self.g is None:
            raise ParameterError(f"{self.kind} requires a transformation g")
        if self.g is not None and self.g.inverse is None:
            raise ParameterError(f"{self.kind} requires an invertible transformation")


@dataclass(frozen=True)
class FunctionalValue:
    """A functional's value: scalar, pair, or quantile interval.

    ``stderr`` is 0 (or a pair of zeros) on the analytic path. When the value
    is an interval, scalar consumers take the lower endpoint; reports record
    that convention.
    """

    value: object
    stderr: object
    method: str  # "analytic" | "mc"
    notes: str = ""


def capping(a: float, b: float, t):
    """Clamp t into [-a, b]; a and b may be infinite, both nonnegative."""
    a, b = float(a), float(b)
    if a < 0 or b < 0 or math.isnan(a) or math.isnan(b):
        raise ParameterError(f"capping bounds must lie in [0, inf], got a={a}, b={b}")
    out = np.maximum(np.minimum(t, b), -a)
    return float(out) if np.ndim(t) == 0 else out


def scalar_value(value) -> float:
    """Canonical scalar for a functional value (lower endpoint of intervals)."""
    if isinstance(value, Interval):
        return value.lo
    if isinstance(value, (tuple, list, np.ndarray)):
        raise ParameterError("pair-valued functional has no scalar representative")
    return float(value)


def _check_support(dist: DistributionSpec, g: Bijection, what: str):
    sup = dist.support()
    ok_lo = g.domain.contains(sup.lo) or (sup.lo == g.domain.lo and not sup.lo_closed)
    ok_hi = g.domain.contains(sup.hi) or (sup.hi == g.domain.hi and not sup.hi_closed)
    if not (ok_lo and ok_hi):
        raise DomainError(sup.lo if not ok_lo else sup.hi, g.domain,
                          f"{what}: support {sup} not inside domain of {g.label}")


def expectile_exact(dist: DistributionSpec, tau: float, tol: float = 1e-12) -> float:
    """Expectile from the exact asymmetric-deviation balance.

    Solves tau E[(Y - z)^+] = (1 - tau) E[(z - Y)^+] by bisection on the
    distribution's analytic upper partial moment; deterministic to ~tol.
    """
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"tau must lie in (0, 1), got {tau}")
    mean = dist.mean()

    def psi(z: float) -> float:
        above = dist.partial_mean_above(z)
        below = above + z - mean
        return tau * above - (1.0 - tau) * below

    sup = dist.support()
    lo = sup.lo if math.isfinite(sup.lo) else dist.quantile(1e-12)
    hi = sup.hi if math.isfinite(sup.hi) else dist.quantile(1.0 - 1e-12)
    if isinstance(lo, Interval):
        lo = lo.lo
    if isinstance(hi, Interval):
        hi = hi.hi
    span = max(hi - lo, 1e-9)
    lo, hi = lo - 0.01 * span, hi + 0.01 * span
    return root1d(psi, Bracket(lo, hi), tol * max(1.0, abs(mean)))


def pushforward_law(dist: DistributionSpec, g: Bijection) -> DistributionSpec | None:
    """The law of g(Y) when it is again a catalog distribution, else None."""
    name = g.name
    if name == "identity":
        return dist
    if name == "negate":
        if isinstance(dist, Normal):
            return Normal(-dist.mu, dist.sigma)
        if isinstance(dist, Uniform):
            return Uniform(-dist.hi, -dist.lo)
        if isinstance(dist, Empirical):
            return Empirical(tuple(-v for v in dist.values))
        return None
    if isinstance(dist, Empirical):
        try:
            return Empirical(tuple(float(g.apply(v)) for v in dist.values))
        except DomainError:
            return None
    if name == "log" and isinstance(dist, Lognormal):
        return Normal(dist.mu, dist.sigma)
    if name == "exp" and isinstance(dist, Normal):
        return Lognormal(dist.mu, dist.sigma)
    if name == "affine-exp" and isinstance(dist, Normal):
        a, b = g.params
        if a > 0:
            return Lognormal(a * dist.mu + b, a * dist.sigma)
        return None
    if name == "power" and isinstance(dist, Lognormal):
        (a,) = g.params
        return Lognormal(a * dist.mu, abs(a) * dist.sigma)
    return None


def _analytic_gmean(dist: DistributionSpec, g: Bijection) -> float | None:
    if g.name in ("identity", "negate"):
        return dist.mean()  # affine g: g^-1(E[g(Y)]) = E[Y]
    law = pushforward_law(dist, g)
    if law is not None:
        return float(g.invert(law.mean()))
    if isinstance(dist, Lognormal) and g.name == "box-cox":
        (a,) = g.params
        if a == 0.0:
            return math.exp(dist.mu)
        return float(g.invert((dist.raw_moment(a) - 1.0) / a))
    return None


def analytic_functional(dist: DistributionSpec, spec: FunctionalSpec):
    """Closed-form (or exactly solvable) value of the functional, else None.

    Quantiles of Empirical laws come back as the full optimal interval.
    Expectiles are solved deterministically from analytic partial moments.
    """
    if spec.kind == "mean":
        return dist.mean()
    if spec.kind == "quantile":
        return dist.quantile(spec.tau)
    if spec.kind == "expectile":
        return expectile_exact(dist, spec.tau)
    if spec.kind == "gmean":
        _check_support(dist, spec.g, "gmean")
        return _analytic_gmean(dist, spec.g)
    if spec.kind == "gexpectile":
        _check_support(dist, spec.g, "gexpectile")
        law = pushforward_law(dist, spec.g)
        if law is None:
            return None
        return float(spec.g.invert(expectile_exact(law, spec.tau)))
    if spec.kind == "mvpair":
        g = spec.g
        if g is None or g.name == "identity":
            return (dist.mean(), dist.variance())
        _check_support(dist, g, "mvpair")
        law = pushforward_law(dist, g)
        if law is None:
            return None
        return (law.mean(), law.variance())
    raise ParameterError(f"unknown functional kind {spec.kind!r}")


def _empirical_psi_root(w: np.ndarray, tau: float) -> float:
    """Root of the empirical asymmetric-deviation balance on transformed draws."""
    lo, hi = float(np.min(w)), float(np.max(w))
    span = max(hi - lo, 1e-12)
    lo, hi = lo - 0.01 * span, hi + 0.01 * span

    def psi(z: float) -> float:
        return tau * float(np.mean(np.maximum(w - z, 0.0))) - \
            (1.0 - tau) * float(np.mean(np.maximum(z - w, 0.0)))

    try:
        root = root1d(psi, Bracket(lo, hi), 1e-10 * max(1.0, abs(lo), abs(hi)))
    except Exception as exc:
        raise EvaluationError(
            f"expectile root bracketing failed on [{lo:.6g}, {hi:.6g}]: {exc}") from exc
    eps = 1e-6 * max(1.0, abs(root))
    if psi(root - eps) <= 0.0 <= psi(root + eps) and psi(root - eps) == psi(root + eps):
        raise EvaluationError("flat identification region: expectile not unique")
    return root


def _mc_expectile_with_se(w: np.ndarray, tau: float):
    root = _empirical_psi_root(w, tau)
    term = tau * np.maximum(w - root, 0.0) - (1.0 - tau) * np.maximum(root - w, 0.0)
    se_psi = float(np.std(term, ddof=1) / math.sqrt(w.size))
    # slope of the population balance at the root: -(tau (1 - F) + (1 - tau) F)
    f_hat = float(np.mean(w <= root))
    slope = tau * (1.0 - f_hat) + (1.0 - tau) * f_hat
    return root, se_psi / max(slope, 1e-12)


def _quantile_stderr(w_sorted: np.ndarray, tau: float) -> float:
    n = w_sorted.size
    delta = math.sqrt(tau * (1.0 - tau) / n)
    lo_t = max(1.0 / n, tau - delta)
    hi_t = min(1.0 - 1.0 / n, tau + delta)
    lo_q = float(w_sorted[max(0, math.ceil(lo_t * n) - 1)])
    hi_q = float(w_sorted[max(0, math.ceil(hi_t * n) - 1)])
    return 0.5 * (hi_q - lo_q)


def functional_value(spec: FunctionalSpec, dist: DistributionSpec,
                     n: int = 10**6, seed: Seed = 0) -> FunctionalValue:
    """Value of the functional: analytic path when available, else Monte Carlo."""
    analytic = analytic_functional(dist, spec)
    if analytic is not None:
        stderr = (0.0, 0.0) if isinstance(analytic, tuple) else 0.0
        return FunctionalValue(analytic, stderr, "analytic")

    draws = np.asarray(sample_iid(dist, n, seed), dtype=float)
    if spec.kind in ("gmean", "gexpectile") or (spec.kind == "mvpair" and spec.g is not None):
        _check_support(dist, spec.g, spec.kind)
        w = np.asarray(spec.g.apply(draws), dtype=float)
    else:
        w = draws

    if spec.kind == "mean":
        se = float(np.std(w, ddof=1) / math.sqrt(n))
        return FunctionalValue(float(np.mean(w)), se, "mc")

    if spec.kind == "gmean":
        m = float(np.mean(w))
        se_m = float(np.std(w, ddof=1) / math.sqrt(n))
        if not spec.g.codomain.contains(m):
            raise DomainError(m, spec.g.codomain, "gmean: mean of transformed draws")
        val = float(spec.g.invert(m))
        se = se_m / max(abs(float(spec.g.deriv(val))), 1e-300)
        return FunctionalValue(val, se, "mc")

    if spec.kind == "quantile":
        emp = Empirical(w)
        iv = emp.quantile(spec.tau)
        se = _quantile_stderr(emp.sorted_values, spec.tau)
        return FunctionalValue(iv, se, "mc", notes="empirical quantile interval")

    if spec.kind in ("expectile", "gexpectile"):
        root, se_root = _mc_expectile_with_se(w, spec.tau)
        if spec.kind == "expectile":
            return FunctionalValue(root, se_root, "mc")
        val = float(spec.g.invert(root))
        se = se_root / max(abs(float(spec.g.deriv(val))), 1e-300)
        return FunctionalValue(val, se, "mc")

    if spec.kind == "mvpair":
        m = float(np.mean(w))
        v = float(np.var(w, ddof=1))
        se_m = float(np.std(w, ddof=1) / math.sqrt(n))
        m4 = float(np.mean((w - m) ** 4))
        se_v = math.sqrt(max(m4 - v * v, 0.0) / n)
        return FunctionalValue((m, v), (se_m, se_v), "mc")

    raise ParameterError(f"unknown functional kind {spec.kind!r}")


def g_quantile(dist: DistributionSpec, g: Bijection, tau: float):
    """g^-1 of the tau-quantile of the law of g(Y), via exact monotone mapping.

    For strictly increasing g this equals the tau-quantile of Y itself; for
    strictly decreasing g the level flips to 1 - tau.
    """
    level = tau if g.increasing else 1.0 - tau
    return dist.quantile(level)
