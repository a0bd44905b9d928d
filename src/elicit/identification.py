"""Strict identification functions and the score/identification link.

Families (V has expectation zero exactly at the target functional): ``mean``,
``quantile`` and ``expectile``, each an entry of a table like scoring's, and
``mv``, V(x1, x2, y) = (x1 - y, x2 + x1^2 - y^2), for the (mean, variance) pair.

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

from .distributions import sample_chunks
from .errors import ParameterError
from .numerics import Seed, central_diff, default_diff_step
from .scoring import (PreparedRealizations, ScoreSpec, TransformMode, check_options,
                      evaluate_score, sorted_stats, streamed_stats)
from .sweep import Piecewise, Stats, StreamedStats, per_row, piece
from .transforms import Bijection

# The options each family takes, written as in scoring.FAMILIES.
IDENT_FAMILIES = {"mean": "", "quantile": "tau", "expectile": "tau", "mv": ""}

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
        check_options("identification family", IDENT_FAMILIES, self.family, tau=self.tau)
        if self.family == "mv" and self.transform.mode in ("prediction", "both"):
            raise ParameterError(
                "mean-variance identification admits only 'none' or 'realization' transforms")


def prepare_ident_realizations(spec: IdentSpec, y) -> PreparedRealizations:
    """As :func:`~elicit.scoring.prepare_realizations`, for identification functions."""
    return PreparedRealizations(spec.transform, y)


def _coefficients(spec: IdentSpec, u, centre):
    """V(u, w) as scoring's table entry ``(a, lo, hi)``, on the basis {1}
    (quantile) or {1, t}, t = w - centre[0] (mean, expectile)."""
    if spec.family == "quantile":  # 1{u >= w} - tau
        return (1.0, lambda: ()), 1.0 - spec.tau, -spec.tau
    lin = (u - centre[0], lambda: (-1.0,))
    if spec.family == "mean":  # u - w
        return lin, 1.0, 1.0
    return lin, 2.0 * (1.0 - spec.tau), 2.0 * spec.tau  # 2 |1{u >= w} - tau| (u - w)


def mv_ident_stats(z, st: StreamedStats):
    """(means, standard errors) of V1 and V2 of the mv pair z = (x1, x2), from
    the moments ``st`` of the effective draws (scoring's mv basis {1, t, t^2},
    t = w - c): V1 = (x1 - c) - t, V2 = (x2 + (x1 - c)(x1 + c)) - 2c t - t^2."""
    x1, x2 = float(z[0]), float(z[1])
    c = st.centre[0]
    a = np.array([[x1 - c, -1.0, 0.0], [x2 + (x1 - c) * (x1 + c), -2.0 * c, -1.0]])
    return st.stats(Piecewise(np.zeros(2, dtype=np.intp), a, a))


def ident_values(spec: IdentSpec, z, prepared: PreparedRealizations):
    y = prepared.y
    if spec.family == "mv":  # V1 = x1 - w, V2 = x2 + x1^2 - w^2
        x1, x2 = float(z[0]), float(z[1])
        v = np.square(y)
        return x1 - np.asarray(y), np.subtract(x2 + x1 * x1, v, out=v if np.ndim(v) else None)
    u = spec.transform.prediction(z)
    return per_row(u, y, _coefficients(spec, u, (y,)), spec.family != "mean")


def evaluate_identification(spec: IdentSpec, z, y):
    """V(z, y); a pair for the mv family, a float otherwise."""
    out = ident_values(spec, z, prepare_ident_realizations(spec, y))
    if spec.family == "mv":
        a, b = out
        if np.ndim(a) == 0:
            return (float(a), float(b))
        return out
    return float(out) if np.ndim(out) == 0 else out


def _sweep_args(spec: IdentSpec, zs):
    """The basis of the family, whether it breaks, and the effective predictions of zs."""
    if spec.family == "mv":
        raise ParameterError("identification sweeps take scalar predictions")
    return ("one" if spec.family == "quantile" else "lin", spec.family != "mean",
            spec.transform.prediction(np.asarray(zs, dtype=float)))


def ident_stats(spec: IdentSpec, st: Stats, u, breaks: bool = True):
    """(means, standard errors) of V(u, W) at the effective predictions u,
    from the sums ``st`` of the effective draws."""
    return st.stats(piece(st, u, _coefficients(spec, u, st.centre), breaks))


def expected_ident_curve(spec: IdentSpec, zs, prepared: PreparedRealizations):
    """Empirical mean and stderr of V(z, Y) at each z over common draws."""
    basis, breaks, u = _sweep_args(spec, zs)
    return ident_stats(spec, sorted_stats(prepared, basis, breaks), u, breaks)


def streamed_ident_curve(spec: IdentSpec, zs, chunks):
    """:func:`expected_ident_curve` of draws that arrive in chunks no caller
    holds (:func:`~elicit.distributions.sample_chunks`): one pass takes the
    sums at the predictions zs, fixed before it, so no n-long array is held.
    The same table and evaluator, on sums centred at the first chunk's mean."""
    basis, breaks, u = _sweep_args(spec, zs)
    st = streamed_stats(spec.transform, chunks, basis, u if breaks else ())
    return ident_stats(spec, st, u, breaks)


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
    The n draws stream through :func:`streamed_ident_curve`, a chunk at a time.
    """
    if spec.family == "mv":
        raise ParameterError("orientation is defined for scalar predictions only")
    offsets = tuple(float(d) for d in offsets)
    if any(d == 0.0 for d in offsets):
        raise ParameterError("offsets must exclude zero")
    estimates, stderrs = (tuple(float(x) for x in a) for a in streamed_ident_curve(
        spec, [functional_value + d for d in offsets], sample_chunks(dist, n, seed)))
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
