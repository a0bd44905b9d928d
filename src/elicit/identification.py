"""Strict identification functions and the score/identification link.

Families (V has expectation zero exactly at the target functional):

* ``mean``      V(z, y) = z - y
* ``quantile``  V(z, y) = 1{z >= y} - tau
* ``expectile`` V(z, y) = 2 |1{z >= y} - tau| (z - y)
* ``mv``        V(x1, x2, y) = (x1 - y, x2 + x1^2 - y^2)

Transform modes mirror the scoring module: realization gives V(z, g(y)),
prediction gives V(g^-1(z), y), both gives V(g(z), g(y)).

For smooth one-dimensional families, dS/dz = h(z) V(z, y) for a known
nonnegative h; :func:`osband_residual` checks that identity by finite
differences and :func:`builtin_osband_pairings` lists the supported
(score, identification, h) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .numerics import Seed, central_diff, default_diff_step
from .scoring import ScoreSpec, TransformMode, evaluate_score, _effective_y, _effective_z
from .sweep import Piecewise, SortedStats, attach, flat, split_stats
from .transforms import Bijection

IDENT_FAMILIES = ("mean", "quantile", "expectile", "mv")

# Prediction values closer to y than this (relative) sit in the subgradient
# ambiguity zone of indicator/absolute families and are rejected by
# osband_residual.
KINK_EXCLUSION_REL = 1e-6


@dataclass(frozen=True)
class IdentSpec:
    """An identification family plus its transform mode."""

    family: str
    tau: float | None = None
    transform: TransformMode = field(default_factory=TransformMode.none)

    def __post_init__(self):
        if self.family not in IDENT_FAMILIES:
            raise ParameterError(f"unknown identification family {self.family!r}")
        if self.family in ("quantile", "expectile"):
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ParameterError(f"{self.family} requires tau in (0, 1), got {self.tau}")
        if self.family == "mv" and self.transform.mode in ("prediction", "both"):
            raise ParameterError(
                "mean-variance identification admits only 'none' or 'realization' transforms")


class _PreparedIdentY:
    __slots__ = ("y", "sweep")

    def __init__(self, spec: IdentSpec, y):
        self.y = _effective_y(spec, y)  # same transform semantics as scoring
        self.sweep = None  # sorted statistics, built on the first sweep


def prepare_ident_realizations(spec: IdentSpec, y) -> _PreparedIdentY:
    return _PreparedIdentY(spec, y)


def ident_values(spec: IdentSpec, z, prepared: _PreparedIdentY):
    y = prepared.y
    if spec.family == "mv":
        x1, x2 = float(z[0]), float(z[1])
        return (x1 - np.asarray(y), x2 + x1 * x1 - np.square(y))
    z_eff = _effective_z(spec, z)
    if spec.family == "mean":
        return np.subtract(z_eff, y)
    ind = np.greater_equal(z_eff, y).astype(float)
    if spec.family == "quantile":
        return ind - spec.tau
    return 2.0 * np.abs(ind - spec.tau) * np.subtract(z_eff, y)


def evaluate_identification(spec: IdentSpec, z, y):
    """V(z, y); a pair for the mv family, a float otherwise."""
    out = ident_values(spec, z, prepare_ident_realizations(spec, y))
    if spec.family == "mv":
        a, b = out
        if np.ndim(a) == 0:
            return (float(a), float(b))
        return out
    return float(out) if np.ndim(out) == 0 else out


def _sorted_stats(spec: IdentSpec, p: _PreparedIdentY) -> SortedStats:
    """Sorted statistics in the family's centred basis: quantile {1},
    mean/expectile {1, t} with t = w - mean(w); the mean has no breakpoint
    and is not sorted."""
    if spec.family == "mv":
        raise ParameterError("identification sweeps take scalar predictions")
    ordered = spec.family != "mean"
    if spec.family == "quantile":
        key = ("one", ordered)
        return attach(p, key, lambda: SortedStats(p.y, lambda w: (), key, (), ordered))
    key = ("lin", ordered)

    def build() -> SortedStats:
        c = float(np.mean(p.y))
        return SortedStats(p.y, lambda w: (w - c,), key, (c,), ordered)

    return attach(p, key, build)


def _piece(spec: IdentSpec, z, st: SortedStats) -> Piecewise:
    """Coefficients of V(z, w) on the basis of :func:`_sorted_stats`."""
    u = float(_effective_z(spec, z))
    if spec.family == "quantile":
        return Piecewise(st.cut(u), np.array([1.0 - spec.tau]), np.array([-spec.tau]))
    lin = np.array([u - st.centre[0], -1.0])
    if spec.family == "mean":
        return flat(lin)
    return Piecewise(st.cut(u), 2.0 * (1.0 - spec.tau) * lin, 2.0 * spec.tau * lin)


def expected_ident_curve(spec: IdentSpec, zs, prepared: _PreparedIdentY):
    """Empirical mean and stderr of V(z, Y) at each z over common draws."""
    st = _sorted_stats(spec, prepared)
    return split_stats([st.stats(_piece(spec, z, st)) for z in np.asarray(zs, float)])


@dataclass(frozen=True)
class OrientationReport:
    """Per-offset sign diagnostics of the expected identification value."""

    passed: bool
    offsets: tuple
    estimates: tuple
    stderrs: tuple
    notes: str = ""


def orientation_probe(spec: IdentSpec, dist, functional_value: float,
                      offsets: Sequence[float], n: int, seed: Seed) -> OrientationReport:
    """Check that sign(E[V(t* + d, Y)]) = sign(d) with significance.

    Passes when every offset produces an estimate of the matching sign whose
    magnitude exceeds three standard errors. One-dimensional families only.
    """
    if spec.family == "mv":
        raise ParameterError("orientation is defined for scalar predictions only")
    offsets = tuple(float(d) for d in offsets)
    if any(d == 0.0 for d in offsets):
        raise ParameterError("offsets must exclude zero")
    from .distributions import sample_iid

    draws = sample_iid(dist, n, seed)
    prepared = prepare_ident_realizations(spec, draws)
    estimates, stderrs = (tuple(float(x) for x in a) for a in expected_ident_curve(
        spec, [functional_value + d for d in offsets], prepared))
    ok = all(math.copysign(1.0, est) == math.copysign(1.0, d) and abs(est) > 3.0 * se
             for d, est, se in zip(offsets, estimates, stderrs))
    return OrientationReport(passed=ok, offsets=offsets, estimates=estimates, stderrs=stderrs)


def osband_residual(score: ScoreSpec, ident: IdentSpec, h: Callable[[float], float],
                    points: Sequence[tuple], step: float | None = None) -> Optional[float]:
    """Max |dS/dz - h(z) V(z, y)| over points, by central differences.

    Points must be smooth for the score family: any (z, y) with
    |z - y| < 1e-6 max(1, |y|) is rejected (subgradient ambiguity at the
    kink). Returns None ("not applicable") when the score's convex generator
    has no second derivative. The difference step is capped below the
    distance to the kink so the stencil never straddles it.
    """
    if score.family in ("expectile", "bregman") and score.phi.d2phi is None:
        return None
    worst = 0.0
    for z, y in points:
        z, y = float(z), float(y)
        if abs(z - y) < KINK_EXCLUSION_REL * max(1.0, abs(y)):
            raise ParameterError(
                f"point (z={z}, y={y}) is inside the kink exclusion zone")
        s = default_diff_step(z) if step is None else float(step)
        s = min(s, 0.25 * abs(z - y))
        num = central_diff(lambda zz: evaluate_score(score, zz, y), z, s)
        resid = abs(num - float(h(z)) * evaluate_identification(ident, z, y))
        worst = max(worst, resid)
    return worst


def builtin_osband_pairings(g: Bijection, tau: float, phi=None):
    """The five supported (name, score, identification, h) triples.

    ``g`` parameterizes the jointly-transformed squared-error/mean pairing
    and the inner transformation of the generalized piecewise linear score;
    ``tau`` the quantile/expectile level; ``phi`` the convex generator
    (defaults to the square).
    """
    from .scoring import SQUARE

    phi = phi or SQUARE
    both = TransformMode.both(g)

    def half_d2(z):
        return 0.5 * float(phi.d2phi(z)) if phi.d2phi is not None else None

    return [
        ("se/mean",
         ScoreSpec("se"), IdentSpec("mean"), lambda z: 2.0),
        ("se-both/mean-both",
         ScoreSpec("se", transform=both), IdentSpec("mean", transform=both),
         lambda z: 2.0 * g.deriv(z)),
        ("bregman/mean",
         ScoreSpec("bregman", phi=phi), IdentSpec("mean"), half_d2),
        ("gpl/quantile",
         ScoreSpec("gpl", tau=tau, g_inner=g), IdentSpec("quantile", tau=tau),
         g.deriv),
        ("expectile/expectile",
         ScoreSpec("expectile", tau=tau, phi=phi), IdentSpec("expectile", tau=tau),
         half_d2),
    ]
