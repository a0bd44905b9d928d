"""Target functionals: mean, quantiles, expectiles, and their transformed kin.

Supported kinds:

* ``mean``        E[Y]
* ``quantile``    the tau-quantile set (an interval for discrete laws)
* ``expectile``   the solution of tau E[(Y - z)^+] = (1 - tau) E[(z - Y)^+]
* ``gmean``       g^-1(E[g(Y)]), the transformed expectation
* ``gexpectile``  g^-1 of the expectile of g(Y)
* ``mvpair``      (E[g(Y)], Var[g(Y)]); g defaults to the identity

Values are computed analytically whenever a closed form (or an exact
root-finding reduction) exists, otherwise by seeded Monte Carlo over draws
that stream a chunk at a time. Functionals of the transformed variable are
always computed by transforming draws of the original law, never by
constructing the transformed law explicitly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (DistributionSpec, Empirical, Lognormal, Normal,
                            Uniform, sample_chunks, sorted_quantile)
from .errors import DomainError, ParameterError
from .identification import IdentSpec, ident_stats
from .intervals import Interval
from .numerics import Bracket, Seed, root1d
from .scoring import (TransformMode, check_options, effective_chunks, held_window, span,
                      streamed_moments, streamed_stats)
from .sweep import Held, StreamedStats, WindowStats
from .transforms import Bijection

# The options each kind takes, written as in scoring.FAMILIES; g is the transformation.
KINDS = {"mean": "", "quantile": "tau", "expectile": "tau", "gmean": "g",
         "gexpectile": "tau g", "mvpair": "g?"}
# A g-kind is its base kind on g(Y), mapped back by g^-1 (mvpair is not).
_BASE_KIND = {"gmean": "mean", "gexpectile": "expectile", "mvpair": "mvpair"}
# A streamed quantile or expectile takes its sums at the first chunk's
# quantiles at k / CELLS, and holds the draws of the cells within MARGIN
# of the cell of the first chunk's root.
CELLS = 256
MARGIN = 2


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


def _quantile_stderr(w_sorted, tau: float) -> float:
    n = len(w_sorted)
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
    return streamed_functional(spec, functools.partial(sample_chunks, dist, n, seed), n)


def streamed_functional(spec: FunctionalSpec, draws: Callable, n: int,
                        transform: TransformMode = TransformMode.none()) -> FunctionalValue:
    """Monte Carlo value of the functional, and its stderr, from the n draws
    that ``draws()`` yields in chunks no caller holds
    (:func:`~elicit.distributions.sample_chunks`), each made effective by
    ``transform`` and then by g: one chunk at a time, no n-long array. A
    mean or mvpair reads the moments of one pass; a quantile or expectile
    the held draws of the cell of its root (:func:`_cell_pass`)."""
    if n < 2:
        raise ParameterError(f"a Monte Carlo {spec.kind} needs n >= 2 draws for its stderr, "
                             f"got {n}")
    g = spec.g
    kind = _BASE_KIND.get(spec.kind, spec.kind)
    mode = TransformMode.realization_only(g) if g is not None else TransformMode.none()

    def chunks():
        return effective_chunks(mode, effective_chunks(transform, draws()))

    if kind in ("mean", "mvpair"):
        pair = sample_mv_pair(streamed_moments(TransformMode.none(), chunks()))
        if kind == "mvpair":
            return pair
        value, se = pair.value[0], pair.stderr[0]
    else:
        ident = IdentSpec(kind, tau=spec.tau)
        st = _cell_pass(ident, chunks())
        if kind == "quantile":  # a quantile takes no g
            return FunctionalValue(*_quantile_from(st, spec.tau, chunks), "mc",
                                   notes="empirical quantile interval")
        value, se = _expectile_from(st, ident, chunks)
    if g is None:
        return FunctionalValue(value, se, "mc")
    if not g.codomain.contains(value):
        raise DomainError(value, g.codomain, f"{spec.kind}: {kind} of transformed draws")
    back = float(g.invert(value))
    # delta method: the stderr of g^-1(m) is se(m) / |g'(g^-1(m))|
    return FunctionalValue(back, se / max(abs(float(g.deriv(back))), 1e-300), "mc")


def _cell_pass(ident: IdentSpec, chunks) -> StreamedStats:
    """One pass over the effective draws ``chunks`` for the root of the
    mean of ``ident``, which rises in z: its sums at the first chunk's
    quantiles at k / :data:`CELLS`, and the draws of the cells within
    :data:`MARGIN` of the cell of the first chunk's root."""
    first = next(chunks)
    first.sort()
    points = first[np.arange(1, CELLS) * first.size // CELLS]

    def hold(st):  # st's sums are the first chunk's
        i = _root_cell(ident, st)
        return Held(*span(st.points, i - 1 - MARGIN, i + MARGIN))

    chunks = itertools.chain([first], chunks)
    del first  # the first chunk goes as the others do
    return streamed_stats(TransformMode.none(), chunks,
                          "one" if ident.family == "quantile" else "lin", points, hold)


def _root_cell(ident: IdentSpec, st: StreamedStats) -> int:
    """The cell i, (points[i - 1], points[i]] of the pass ``st``, where the
    mean of ``ident`` goes from <= 0 to > 0; an end beyond the points is
    unbounded."""
    return int(np.searchsorted(ident_stats(ident, st, st.points)[0], 0.0, side="right"))


class _Ranks:
    """The sorted effective draws of a pass as :func:`sorted_quantile` and
    :func:`_quantile_stderr` read them: rank r is the held draw of ``ws``
    at r less the streamed count below them."""

    def __init__(self, ws: WindowStats):
        self.ws = ws

    def __len__(self) -> int:
        return self.ws.n

    def __getitem__(self, r: int) -> float:
        return self.ws.sorted.w[r - self.ws.below]


def _quantile_from(st: StreamedStats, tau: float, chunks: Callable):
    """The empirical tau-quantile set of the pass ``st``, and its stderr:
    the order statistics they read, all of rank within sqrt(tau (1 - tau) n)
    + 2 of tau n, from the held draws of the cells of those ranks."""
    n = st.n
    reach = math.sqrt(tau * (1.0 - tau) * n) + 2.0
    ends = np.clip((tau * n - reach, tau * n + reach), 0, n - 1)
    a, b = np.searchsorted(st.s1[:, 0], ends, side="right") - 1  # the cells of those ranks
    ranks = _Ranks(held_window(st, *span(st.points, a - 1, b), chunks))
    return sorted_quantile(ranks, tau), _quantile_stderr(ranks, tau)


def _expectile_from(st: StreamedStats, ident: IdentSpec, chunks: Callable):
    """The root of the empirical balance psi(z) = tau E(w - z)^+ -
    (1 - tau) E(z - w)^+ of the pass ``st``, and its stderr. psi, -1/2 the
    mean of ``ident``, is linear between consecutive draws, of slope
    -(tau (n - k) + (1 - tau) k) / n < 0 with k draws <= z: bisection over
    the held draws of its cell finds where it changes sign, and the root of
    that segment is closed form."""
    i = _root_cell(ident, st)
    ws = held_window(st, *span(st.points, i - 1, i), chunks)
    tau, n, w = ident.tau, ws.n, ws.sorted.w

    def mean_v(z: float) -> float:
        return float(ident_stats(ident, ws, np.array([z]))[0][0])

    j, k = -1, w.size  # mean_v <= 0 at w[j], > 0 at w[k]; w[-1], w[size] the window's ends
    while k - j > 1:
        mid = (j + k) // 2
        j, k = (mid, k) if mean_v(w[mid]) <= 0.0 else (j, mid)
    a = float(w[j]) if j >= 0 else ws.window[0]
    b = float(w[k]) if k < w.size else ws.window[1]
    below = int(ws.cut([a])[0])
    root = min(a - 0.5 * mean_v(a) * n / (tau * (n - below) + (1.0 - tau) * below), b)
    se_psi = 0.5 * float(ident_stats(ident, ws, np.array([root]))[1][0])
    # slope of the population balance at the root: -(tau (1 - F) + (1 - tau) F)
    f_hat = int(ws.cut([root])[0]) / n
    return root, se_psi / max(tau * (1.0 - f_hat) + (1.0 - tau) * f_hat, 1e-12)
