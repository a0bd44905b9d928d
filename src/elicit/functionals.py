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
                            Uniform, sample_chunks, sample_iid, sorted_quantile)
from .errors import DomainError, EvaluationError, ParameterError
from .identification import IdentSpec, expected_ident_curve, prepare_ident_realizations
from .intervals import Interval
from .numerics import Bracket, Seed, mean_stderr, root1d
from .scoring import TransformMode, check_options, held_moments, streamed_moments
from .transforms import Bijection

# The options each kind takes, written as in scoring.FAMILIES; g is the transformation.
KINDS = {"mean": "", "quantile": "tau", "expectile": "tau", "gmean": "g",
         "gexpectile": "tau g", "mvpair": "g?"}
# A g-kind is its base kind on g(Y), mapped back by g^-1 (mvpair is not).
_BASE_KIND = {"gmean": "mean", "gexpectile": "expectile", "mvpair": "mvpair"}


@dataclass(frozen=True)
class FunctionalSpec:
    kind: str
    tau: float | None = None
    g: Bijection | None = None

    def __post_init__(self):
        check_options("functional kind", KINDS, self.kind, tau=self.tau, g=self.g)
        if self.g is not None and not isinstance(self.g, Bijection):
            raise ParameterError(f"{self.kind} requires an invertible Bijection g, "
                                 f"got {self.g!r}")


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
    if isinstance(dist, Empirical):
        try:
            return Empirical(tuple(float(g.apply(v)) for v in dist.values))
        except DomainError:
            return None
    if name == "negate":
        if isinstance(dist, Normal):
            return Normal(-dist.mu, dist.sigma)
        if isinstance(dist, Uniform):
            return Uniform(-dist.hi, -dist.lo)
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


def _base_value(dist: DistributionSpec, kind: str, tau: float | None):
    if kind == "mean":
        return dist.mean()
    if kind == "quantile":
        return dist.quantile(tau)
    if kind == "expectile":
        return expectile_exact(dist, tau)
    return (dist.mean(), dist.variance())  # mvpair


def analytic_functional(dist: DistributionSpec, spec: FunctionalSpec):
    """Closed-form (or exactly solvable) value of the functional, else None.

    Quantiles of Empirical laws come back as the full optimal interval.
    Expectiles are solved deterministically from analytic partial moments.
    A g-kind is its base kind on the law of g(Y), mapped back by g^-1
    (mvpair is not mapped back).
    """
    g = spec.g
    if g is None:
        return _base_value(dist, spec.kind, spec.tau)
    _check_support(dist, g, spec.kind)
    if spec.kind == "gmean" and g.name == "negate":
        return dist.mean()  # affine g: g^-1(E[g(Y)]) = E[Y]
    law = pushforward_law(dist, g)
    if law is not None:
        value = _base_value(law, _BASE_KIND[spec.kind], spec.tau)
    elif spec.kind == "gmean" and isinstance(dist, Lognormal) and g.name == "box-cox":
        (a,) = g.params  # E[g(Y)] from the raw moment; exp(mu) at a = 0
        if a == 0.0:
            return math.exp(dist.mu)
        value = (dist.raw_moment(a) - 1.0) / a
    else:
        return None
    return value if spec.kind == "mvpair" else float(g.invert(value))


def _mc_expectile(w: np.ndarray, tau: float, owned: bool = False):
    """Root of the empirical asymmetric-deviation balance
    psi(z) = tau E[(w - z)^+] - (1 - tau) E[(z - w)^+] on the draws w, and its
    standard error. psi is -1/2 times the mean expectile identification
    function, which the sorted sweep evaluates without a pass over w; the
    sweep sorts ``owned`` draws in place."""
    ident = IdentSpec("expectile", tau=tau)
    prepared = prepare_ident_realizations(ident, w, owned)

    def psi(z: float) -> float:
        return -0.5 * float(expected_ident_curve(ident, [z], prepared)[0][0])

    lo, hi = float(np.min(w)), float(np.max(w))
    span = max(hi - lo, 1e-12)
    lo, hi = lo - 0.01 * span, hi + 0.01 * span
    try:
        root = root1d(psi, Bracket(lo, hi), 1e-10 * max(1.0, abs(lo), abs(hi)))
    except Exception as exc:
        raise EvaluationError(
            f"expectile root bracketing failed on [{lo:.6g}, {hi:.6g}]: {exc}") from exc
    eps = 1e-6 * max(1.0, abs(root))
    if psi(root - eps) == 0.0 == psi(root + eps):
        raise EvaluationError("flat identification region: expectile not unique")
    se_psi = 0.5 * float(expected_ident_curve(ident, [root], prepared)[1][0])
    # slope of the population balance at the root: -(tau (1 - F) + (1 - tau) F)
    f_hat = prepared.sweep.cut(root) / w.size  # the sweep's sorted draws: #{w <= root}
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


def sample_mv_pair(st) -> FunctionalValue:
    """Sample (mean, variance) of the draws with their standard errors, from
    their moments ``st`` (:func:`~elicit.scoring.held_moments` or
    :func:`~elicit.scoring.streamed_moments`): the sums of
    t^k, k <= 4, t = w - c about the centre c. The fourth central moment
    expands about the mean's offset d = mean(t), which the centre keeps small."""
    n = st.n
    s1, s2, s3, s4 = st.tot2[0, 1], st.tot2[1, 1], st.tot2[1, 2], st.tot2[2, 2]
    d = s1 / n
    v = (s2 - d * s1) / (n - 1)
    m4 = (s4 - 4.0 * d * s3 + 6.0 * d * d * s2 - 3.0 * n * d ** 4) / n
    se_v = math.sqrt(max(m4 - v * v, 0.0) / n)
    return FunctionalValue((float(st.centre[0] + d), float(v)),
                           (math.sqrt(v / n), se_v), "mc")


def functional_value(spec: FunctionalSpec, dist: DistributionSpec,
                     n: int = 10**6, seed: Seed = 0) -> FunctionalValue:
    """Value of the functional: analytic path when available, else Monte Carlo."""
    analytic = analytic_functional(dist, spec)
    if analytic is not None:
        stderr = (0.0, 0.0) if isinstance(analytic, tuple) else 0.0
        return FunctionalValue(analytic, stderr, "analytic")
    if spec.kind == "mvpair":  # moments only: the draws stream, one chunk at a time
        _check_mc_size(spec, n)
        transform = TransformMode.realization_only(spec.g) if spec.g else TransformMode.none()
        return sample_mv_pair(streamed_moments(transform, sample_chunks(dist, n, seed)))
    return functional_from_draws(spec, sample_iid(dist, n, seed), owned=True)


def _check_mc_size(spec: FunctionalSpec, n: int) -> None:
    if n < 2:
        raise ParameterError(f"a Monte Carlo {spec.kind} needs n >= 2 draws for its stderr, "
                             f"got {n}")


def functional_from_draws(spec: FunctionalSpec, draws, owned: bool = False) -> FunctionalValue:
    """Monte Carlo value of the functional, and its stderr, from draws of the
    law. ``owned`` draws, which no caller holds, are sorted in place and
    dropped once transformed."""
    w = np.asarray(draws, dtype=float)
    owned = owned and w is draws
    del draws
    _check_mc_size(spec, w.size)
    g = spec.g
    if g is not None:
        raw, w = w, np.asarray(g.apply(w), dtype=float)
        owned = owned if w is raw else not np.may_share_memory(w, raw)
        del raw  # owned draws go once transformed
    kind = _BASE_KIND.get(spec.kind, spec.kind)
    if kind == "quantile":
        w = w if owned else w.copy()
        w.sort()
        return FunctionalValue(sorted_quantile(w, spec.tau), _quantile_stderr(w, spec.tau),
                               "mc", notes="empirical quantile interval")
    if kind == "mvpair":
        return sample_mv_pair(held_moments(w))
    value, se = (_mc_expectile(w, spec.tau, owned) if kind == "expectile"
                 else (float(np.mean(w)), mean_stderr(w)))
    if g is None:
        return FunctionalValue(value, se, "mc")
    if not g.codomain.contains(value):
        raise DomainError(value, g.codomain, f"{spec.kind}: {kind} of transformed draws")
    back = float(g.invert(value))
    # delta method: the stderr of g^-1(m) is se(m) / |g'(g^-1(m))|
    return FunctionalValue(back, se / max(abs(float(g.deriv(back))), 1e-300), "mc")
