"""Scoring-function families and transformed-variable modes.

Families (z is the prediction, y the realization, ties use 1{z >= y} = 1 at
z = y):

* ``se``        (z - y)^2
* ``ae``        |z - y|
* ``apl``       (1{z >= y} - tau)(z - y)                 asymmetric piecewise linear
* ``gpl``       (1{z >= y} - tau)(g_in(z) - g_in(y))     generalized piecewise linear
* ``expectile`` |1{z >= y} - tau| (phi(y) - phi(z) + phi'(z)(z - y))
* ``bregman``   (1/2)(phi(y) - phi(z) + phi'(z)(z - y))  the tau = 1/2 expectile case
* ``mv``        x2^-2 (x1^2 - 2 x2 - 2 x1 y + y^2)       for the (mean, variance) pair

A :class:`TransformMode` rewrites the arguments before the family formula is
applied: ``realization`` scores S(z, g(y)), ``prediction`` scores
S(g^-1(z), y), and ``both`` scores S(g(z), g(y)). The mean-variance family
admits only ``none`` and ``realization`` (predictions stay in pair space).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError
from .sweep import Piecewise, SortedStats, attach, flat, split_stats
from .transforms import Bijection

FAMILIES = ("se", "ae", "gpl", "apl", "expectile", "bregman", "mv")
MODES = ("none", "realization", "prediction", "both")


@dataclass(frozen=True)
class ConvexGenerator:
    """Convex function phi with subgradient; second derivative optional.

    ``d2phi`` is None when unavailable; consumers that need it (the
    score/identification link checks) report "not applicable" in that case.
    Equality compares the name, not the callables.
    """

    name: str
    phi: Callable = field(compare=False, repr=False)
    dphi: Callable = field(compare=False, repr=False)
    d2phi: Callable | None = field(compare=False, repr=False, default=None)
    strictly_convex: bool = True


def _square_d2(t):
    return 2.0 * np.ones_like(np.asarray(t, dtype=float))


SQUARE = ConvexGenerator("square", phi=lambda t: np.square(np.asarray(t, float)),
                         dphi=lambda t: 2.0 * np.asarray(t, float), d2phi=_square_d2)

_GENERATORS: dict[str, ConvexGenerator] = {"square": SQUARE}


def register_convex_generator(gen: ConvexGenerator) -> None:
    _GENERATORS[gen.name] = gen


def convex_generator(name: str) -> ConvexGenerator:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ParameterError(f"unknown convex generator {name!r}; "
                             f"known: {sorted(_GENERATORS)}") from None


@dataclass(frozen=True)
class TransformMode:
    """How a transformation g enters a score: none / realization / prediction / both."""

    mode: str = "none"
    g: Bijection | Callable | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown transform mode {self.mode!r}")
        if self.mode == "none":
            if self.g is not None:
                raise ParameterError("mode 'none' takes no transformation")
        else:
            if self.g is None:
                raise ParameterError(f"mode {self.mode!r} requires a transformation")
            if self.mode in ("prediction", "both"):
                if not isinstance(self.g, Bijection) or self.g.inverse is None:
                    raise ParameterError(
                        f"mode {self.mode!r} requires an invertible Bijection")

    @classmethod
    def none(cls) -> "TransformMode":
        return cls("none", None)

    @classmethod
    def realization_only(cls, g) -> "TransformMode":
        return cls("realization", g)

    @classmethod
    def prediction_only(cls, g: Bijection) -> "TransformMode":
        return cls("prediction", g)

    @classmethod
    def both(cls, g: Bijection) -> "TransformMode":
        return cls("both", g)

    def label(self) -> str:
        if self.mode == "none":
            return "none"
        g = self.g.label if isinstance(self.g, Bijection) else getattr(self.g, "__name__", "g")
        return f"{self.mode}:{g}"


@dataclass(frozen=True)
class ScoreSpec:
    """A scoring family plus its transform mode."""

    family: str
    tau: float | None = None
    phi: ConvexGenerator | None = None
    g_inner: Bijection | None = None
    transform: TransformMode = field(default_factory=TransformMode.none)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown score family {self.family!r}")
        if self.family in ("gpl", "apl", "expectile"):
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise ParameterError(f"{self.family} requires tau in (0, 1), got {self.tau}")
        if self.family == "gpl":
            if self.g_inner is None:
                raise ParameterError("gpl requires an inner transformation g_inner")
            if not self.g_inner.increasing:
                raise ParameterError("gpl requires a nondecreasing g_inner")
        if self.family in ("expectile", "bregman") and self.phi is None:
            object.__setattr__(self, "phi", SQUARE)
        if self.family == "mv" and self.transform.mode in ("prediction", "both"):
            raise ParameterError(
                "mean-variance scores admit only 'none' or 'realization' transforms")

    def with_transform(self, transform: TransformMode) -> "ScoreSpec":
        return replace(self, transform=transform)


def _apply_forward(g, t):
    if isinstance(g, Bijection):
        return g.apply(t)
    out = np.asarray(g(np.asarray(t, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("realization transform produced non-finite values")
    return float(out) if np.ndim(t) == 0 else out


def _effective_y(spec: ScoreSpec, y):
    if spec.transform.mode in ("realization", "both"):
        return _apply_forward(spec.transform.g, y)
    return np.asarray(y, dtype=float) if np.ndim(y) else float(y)


def _effective_z(spec: ScoreSpec, z):
    mode = spec.transform.mode
    if mode == "both":
        return spec.transform.g.apply(z)
    if mode == "prediction":
        return spec.transform.g.invert(z)
    return z


class _PreparedY:
    """Realizations with transform and family-level functions pre-applied.

    ``sweep`` holds the sorted sufficient statistics, built on the first
    sweep over these realizations; ``y`` keeps the draw order.
    """

    __slots__ = ("y", "phi_y", "gin_y", "sweep")

    def __init__(self, spec: ScoreSpec, y):
        self.y = _effective_y(spec, y)
        self.phi_y = spec.phi.phi(self.y) if spec.family in ("expectile", "bregman") else None
        self.gin_y = spec.g_inner.apply(self.y) if spec.family == "gpl" else None
        self.sweep = None


def prepare_realizations(spec: ScoreSpec, y) -> _PreparedY:
    """Pre-transform realizations once; reuse across many prediction values."""
    return _PreparedY(spec, y)


def _mv_pair(z):
    x1, x2 = float(z[0]), float(z[1])
    if x2 <= 0:
        raise DomainError(x2, context="mean-variance score (variance coordinate must be > 0)")
    return x1, x2


def _core_score(spec: ScoreSpec, z_eff, p: _PreparedY):
    fam = spec.family
    y = p.y
    if fam == "se":
        d = np.subtract(z_eff, y)
        return d * d
    if fam == "ae":
        return np.abs(np.subtract(z_eff, y))
    if fam == "apl":
        ind = np.greater_equal(z_eff, y).astype(float)
        return (ind - spec.tau) * np.subtract(z_eff, y)
    if fam == "gpl":
        ind = np.greater_equal(z_eff, y).astype(float)
        return (ind - spec.tau) * np.subtract(spec.g_inner.apply(z_eff), p.gin_y)
    if fam in ("expectile", "bregman"):
        gap = p.phi_y - spec.phi.phi(z_eff) + spec.phi.dphi(z_eff) * np.subtract(z_eff, y)
        if fam == "bregman":
            return 0.5 * gap
        ind = np.greater_equal(z_eff, y).astype(float)
        return np.abs(ind - spec.tau) * gap
    # mv: z_eff is the (x1, x2) pair, untransformed by design.
    x1, x2 = _mv_pair(z_eff)
    return (x1 * x1 - 2.0 * x2 - 2.0 * x1 * np.asarray(y) + np.square(y)) / (x2 * x2)


def score_values(spec: ScoreSpec, z, prepared: _PreparedY):
    """Scores of one prediction against pre-transformed realizations."""
    if spec.family == "mv":
        return _core_score(spec, z, prepared)
    return _core_score(spec, _effective_z(spec, z), prepared)


def evaluate_score(spec: ScoreSpec, z, y) -> float:
    """Penalty S(z, y). For the mv family z is the pair (x1, x2)."""
    out = score_values(spec, z, prepare_realizations(spec, y))
    return float(out) if np.ndim(out) == 0 else out


def _annotate_index(exc, i: int):
    if isinstance(exc, DomainError):
        ctx = f"index {i}" + (f", {exc.context}" if exc.context else "")
        return DomainError(exc.value, exc.domain, ctx)
    return EvaluationError(f"at index {i}: {exc}")


def average_score(spec: ScoreSpec, z: Sequence, y: Sequence) -> float:
    """Realized average score (1/n) sum S(z_i, y_i)."""
    if spec.family == "mv":
        z_arr = np.asarray(z, dtype=float)
        if z_arr.ndim != 2 or z_arr.shape[1] != 2:
            raise ParameterError("mv predictions must be an (n, 2) array of (x1, x2) pairs")
        y_arr = np.asarray(y, dtype=float)
        if len(z_arr) != len(y_arr):
            raise ParameterError(f"length mismatch: {len(z_arr)} predictions, {len(y_arr)} realizations")
        if len(y_arr) == 0:
            raise ParameterError("average_score requires at least one observation")
        total = 0.0
        for i, (zi, yi) in enumerate(zip(z_arr, y_arr)):
            try:
                total += float(score_values(spec, zi, prepare_realizations(spec, yi)))
            except (DomainError, EvaluationError) as exc:
                raise _annotate_index(exc, i) from exc
        return total / len(y_arr)

    z_arr = np.asarray(z, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if z_arr.shape != y_arr.shape:
        raise ParameterError(f"length mismatch: {z_arr.shape} predictions, {y_arr.shape} realizations")
    if z_arr.size == 0:
        raise ParameterError("average_score requires at least one observation")
    try:
        zy = _effective_z(spec, z_arr) if spec.transform.mode in ("both", "prediction") else z_arr
        p = prepare_realizations(spec, y_arr)
        return float(np.mean(_core_score(spec, zy, p)))
    except (DomainError, EvaluationError):
        # Re-scan pointwise so the error names the offending row.
        for i, (zi, yi) in enumerate(zip(z_arr, y_arr)):
            try:
                evaluate_score(spec, float(zi), float(yi))
            except (DomainError, EvaluationError) as exc:
                raise _annotate_index(exc, i) from exc
        raise


def _sorted_stats(spec: ScoreSpec, p: _PreparedY) -> SortedStats:
    """The prepared draws' sorted statistics in the family's centred basis:
    se/mv {1, t, t^2}, ae/apl {1, t}, gpl {1, g_in(w)}, expectile/bregman
    {1, t, phi(w)}, with t = w - mean(w). Families whose score has no
    breakpoint in w are not sorted."""
    fam = spec.family
    if fam == "gpl":
        basis_id = spec.g_inner
    elif fam in ("expectile", "bregman"):
        basis_id = spec.phi
    else:
        basis_id = "quad" if fam in ("se", "mv") else "lin"
    ordered = fam not in ("se", "bregman", "mv")
    key = (basis_id, ordered)

    def build() -> SortedStats:
        if fam == "gpl":
            cg = float(np.mean(p.gin_y))
            return SortedStats(p.y, lambda w: (spec.g_inner.apply(w) - cg,), key, (cg,), ordered)
        c = float(np.mean(p.y))
        if fam in ("expectile", "bregman"):
            cp = float(np.mean(p.phi_y))
            return SortedStats(p.y, lambda w: (w - c, np.asarray(spec.phi.phi(w), float) - cp),
                               key, (c, cp), ordered)
        if basis_id == "quad":
            return SortedStats(p.y, lambda w: (w - c, np.square(w - c)), key, (c,), ordered)
        return SortedStats(p.y, lambda w: (w - c,), key, (c,), ordered)

    return attach(p, key, build)


def _piece(spec: ScoreSpec, z, st: SortedStats) -> Piecewise:
    """Coefficients of S(z, w) on the basis of :func:`_sorted_stats`; the
    breakpoint is the effective prediction u, with 1{u >= w} = 1 at ties."""
    fam = spec.family
    if fam == "mv":
        x1, x2 = _mv_pair(z)
        v = x1 - st.centre[0]
        return flat(np.array([v * v - 2.0 * x2, -2.0 * v, 1.0]) / (x2 * x2))
    u = float(_effective_z(spec, z))
    if fam == "se":
        v = u - st.centre[0]
        return flat([v * v, -2.0 * v, 1.0])
    if fam in ("expectile", "bregman"):
        c, cp = st.centre
        slope = float(spec.phi.dphi(u))
        gap = np.array([cp - float(spec.phi.phi(u)) + slope * (u - c), -slope, 1.0])
        if fam == "bregman":
            return flat(0.5 * gap)
        return Piecewise(st.cut(u), (1.0 - spec.tau) * gap, spec.tau * gap)
    h = float(spec.g_inner.apply(u)) if fam == "gpl" else u
    lin = np.array([h - st.centre[0], -1.0])
    if fam == "ae":
        return Piecewise(st.cut(u), lin, -lin)
    return Piecewise(st.cut(u), (1.0 - spec.tau) * lin, -spec.tau * lin)


def expected_score(spec: ScoreSpec, z, prepared: _PreparedY) -> float:
    """Empirical expected score of one prediction over the prepared draws."""
    st = _sorted_stats(spec, prepared)
    return st.mean(_piece(spec, z, st))


def expected_score_curve(spec: ScoreSpec, zs, prepared: _PreparedY) -> np.ndarray:
    """Empirical expected score at each z, over a common draw set."""
    return np.array([expected_score(spec, z, prepared) for z in np.asarray(zs, float)])


def expected_score_stats(spec: ScoreSpec, zs, prepared: _PreparedY):
    """Empirical expected score and its standard error at each z.

    Returns (means, stderrs) arrays, one entry per z.
    """
    st = _sorted_stats(spec, prepared)
    return split_stats([st.stats(_piece(spec, z, st)) for z in np.asarray(zs, float)])


def score_diff_stats(spec: ScoreSpec, z_ref, zs, prepared: _PreparedY):
    """Paired statistics of S(z_ref, Y) - S(z, Y) over common draws.

    Returns (mean_diff, stderr_diff) arrays, one entry per z. The pairing
    (common random numbers) makes small expected-score differences resolvable
    far below the marginal noise level. At z == z_ref both are exactly 0.
    """
    st = _sorted_stats(spec, prepared)
    ref = _piece(spec, z_ref, st)
    return split_stats([st.diff_stats(ref, _piece(spec, z, st))
                         for z in np.asarray(zs, float)])


def homogeneity_probe(spec: ScoreSpec, order_candidates: Sequence[float],
                      c_grid: Sequence[float], sample: Sequence[tuple]) -> Optional[float]:
    """Degree b with S(c z, c y) = c^b S(z, y) across all probes, or None.

    Probes are restricted to scale factors c > 0: indicator-based families
    are positively homogeneous only (the indicator flips under c < 0 unless
    tau = 1/2).
    """
    pairs = [(float(z), float(y)) for z, y in sample]
    for z, y in pairs:
        if evaluate_score(spec, z, y) == 0.0:
            raise ParameterError(f"sample point (z={z}, y={y}) has zero score; "
                                 "homogeneity probes need nonzero scores")
    for c in c_grid:
        if not c > 0:
            raise ParameterError(f"scale factors must be positive, got {c}")
    for b in order_candidates:
        ok = True
        for c in c_grid:
            for z, y in pairs:
                base = float(c) ** b * evaluate_score(spec, z, y)
                scaled = evaluate_score(spec, c * z, c * y)
                if abs(scaled - base) > 1e-9 * abs(base):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return float(b)
    return None
