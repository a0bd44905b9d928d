"""Scoring-function families and transformed-variable modes.

Families: ``se`` (squared error), ``ae`` (absolute error), ``apl``
(asymmetric piecewise linear), ``gpl`` (generalized piecewise linear, with
an inner transformation g_in), ``expectile`` (the expectile Bregman score),
``bregman`` (its tau = 1/2 case) and ``mv`` (for the (mean, variance)
pair). Each is one entry of the family table, :func:`_coefficients`, which
the sweeps and the per-row evaluation both read; ties use 1{z >= y} = 1 at
z = y.

A :class:`TransformMode` rewrites the arguments before the family formula is
applied: ``realization`` scores S(z, g(y)), ``prediction`` scores
S(g^-1(z), y), and ``both`` scores S(g(z), g(y)). The mean-variance family
admits only ``none`` and ``realization`` (predictions stay in pair space).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ElicitError, EvaluationError, ParameterError
from .numerics import CHUNK
from .sweep import (Held, Piecewise, SortedStats, Stats, StreamedStats, WindowStats, per_row,
                    piece)
from .transforms import Bijection

# The options each family takes, "?" marking an optional one: tau a level in
# (0, 1), g the inner transformation g_in, phi the convex generator.
FAMILIES = {"se": "", "ae": "", "apl": "tau", "gpl": "tau g", "expectile": "tau phi?",
            "bregman": "phi?", "mv": ""}
MODES = ("none", "realization", "prediction", "both")
MV_VERTEX_POINTS = 8  # swept points :func:`mv_vertex` evaluates: two rounds of four
# Grid steps on each side of the first chunk's grid argmin whose draws a
# streamed argmin holds (:func:`grid_pass`); the polish reads two of them.
WINDOW = 8


def family_options(table: dict, family: str) -> dict:
    """The options ``family`` takes in ``table``, each mapped to whether it is required."""
    return {opt.rstrip("?"): not opt.endswith("?") for opt in table[family].split()}


def check_options(what: str, table: dict, family: str, **values) -> None:
    """Reject a ``family`` that ``table`` lacks, a required option that is
    None in ``values``, an option that is set but the family does not take,
    and tau outside (0, 1). ``values`` holds every option of the spec."""
    if family not in table:
        raise ParameterError(f"unknown {what} {family!r}")
    takes = family_options(table, family)
    for name, value in values.items():
        if value is not None and name not in takes:
            raise ParameterError(f"{family} takes no {name}")
        if value is None and takes.get(name) and name != "tau":
            raise ParameterError(f"{family} requires {name}")
    tau = values.get("tau")
    if tau is None and takes.get("tau") or tau is not None and not 0.0 < tau < 1.0:
        raise ParameterError(f"{family} requires tau in (0, 1), got {tau}")


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
            if self.mode in ("prediction", "both") and not isinstance(self.g, Bijection):
                raise ParameterError(f"mode {self.mode!r} requires an invertible Bijection")

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

    def realization(self, y):
        """Effective realizations: g(y) under ``realization`` and ``both``.

        A bare callable g (realization mode only) must return finite values.
        """
        if self.mode not in ("realization", "both"):
            return np.asarray(y, dtype=float) if np.ndim(y) else float(y)
        if isinstance(self.g, Bijection):
            return self.g.apply(y)
        out = np.asarray(self.g(np.asarray(y, dtype=float)), dtype=float)
        bad = ~np.isfinite(out)
        if bad.any():
            raise EvaluationError("realization transform produced non-finite values",
                                  index=None if np.ndim(y) == 0 else int(np.argmax(bad)))
        return float(out) if np.ndim(y) == 0 else out

    def prediction(self, z):
        """Effective prediction: g(z) under ``both``, g^-1(z) under ``prediction``."""
        if self.mode == "both":
            return self.g.apply(z)
        if self.mode == "prediction":
            return self.g.invert(z)
        return z


@dataclass(frozen=True)
class ScoreSpec:
    """A scoring family plus its transform mode."""

    family: str
    tau: float | None = None
    phi: ConvexGenerator | None = None
    g_inner: Bijection | None = None
    transform: TransformMode = field(default_factory=TransformMode.none)

    def __post_init__(self):
        check_options("score family", FAMILIES, self.family,
                      tau=self.tau, phi=self.phi, g=self.g_inner)
        if self.family == "gpl" and not self.g_inner.increasing:
            raise ParameterError("gpl requires a nondecreasing g_inner")
        if self.family in ("expectile", "bregman") and self.phi is None:
            object.__setattr__(self, "phi", SQUARE)
        if self.family == "mv" and self.transform.mode in ("prediction", "both"):
            raise ParameterError(
                "mean-variance scores admit only 'none' or 'realization' transforms")

    def with_transform(self, transform: TransformMode) -> "ScoreSpec":
        return replace(self, transform=transform)


class PreparedRealizations:
    """Realizations prepared once for many predictions; scores and
    identification functions share this object.

    ``y`` holds the effective realizations w, in the caller's order, which
    per-row evaluation pairs with row i; ``sweep`` the sorted statistics of
    :func:`sorted_stats`, which sorts a copy: a caller's array is never
    changed.
    """

    __slots__ = ("y", "sweep")

    def __init__(self, transform: TransformMode, y):
        self.y = transform.realization(y)
        self.sweep = None


def _basis(spec: ScoreSpec):
    """The family's basis for :func:`sorted_stats`; a square phi takes se's."""
    if spec.family == "gpl":
        return spec.g_inner
    if spec.phi is not None and spec.phi is not SQUARE:
        return spec.phi
    return "quad" if spec.family in ("se", "mv", "expectile", "bregman") else "lin"


def prepare_realizations(spec: ScoreSpec, y) -> PreparedRealizations:
    """Pre-transform realizations once; reuse across many prediction values."""
    return PreparedRealizations(spec.transform, y)


@contextlib.contextmanager
def _from(start: int):
    """An error raised inside names its position among all the draws, the
    slice it was found in starting at ``start``."""
    try:
        yield
    except ElicitError as exc:
        if exc.index is not None:
            exc.index += start
        raise


def _mean_of(f, y) -> float:
    """The mean of f over the draws y (of y itself when f is None), f taken
    CHUNK draws at a time, so no n-long f(y) is built."""
    if f is None:
        return float(np.mean(y))
    y, total = np.ravel(y), 0.0
    for start in range(0, y.size, CHUNK):
        with _from(start):
            total += float(np.sum(f(y[start:start + CHUNK])))
    return total / y.size


def _centre(basis, y, of=_mean_of) -> tuple:
    """Centring constants of ``basis`` on the draws y: ``of(f, y)`` of each
    column f of the draws (None for the draws themselves), by default its
    mean."""
    if isinstance(basis, Bijection):
        return (of(basis.apply, y),)
    if basis == "one":
        return ()
    if isinstance(basis, ConvexGenerator):
        return of(None, y), of(basis.phi, y)
    return (of(None, y),)


def _columns(basis, centre: tuple) -> Callable:
    """The non-constant columns of ``basis`` centred at ``centre``, as a
    function of the draws w: an array of the columns, one row each, written
    into ``out`` when it is given (see :func:`sorted_stats`)."""
    d = 0 if basis == "one" else 1 if isinstance(basis, Bijection) or basis == "lin" else 2

    def columns(w, out=None):
        out = np.empty((d,) + np.shape(w)) if out is None else out
        if isinstance(basis, Bijection):
            np.subtract(basis.apply(w), centre[0], out=out[0])
        elif d:
            t = np.subtract(w, centre[0], out=out[0])
            if basis == "quad":
                np.square(t, out=out[1])
            elif d == 2:
                np.subtract(basis.phi(w), centre[1], out=out[1])
        return out

    return columns


def sorted_stats(p: PreparedRealizations, basis, ordered: bool) -> SortedStats:
    """The prepared draws' sorted statistics on a centred basis, built on
    first use and kept on ``p`` until a sweep asks for another basis.

    ``basis`` is "one" {1}, "lin" {1, t}, "quad" {1, t, t^2}, a convex
    generator phi {1, t, phi(w)} or an inner transformation g_in
    {1, g_in(w)}, with t = w - mean(w) and phi/g_in centred at their mean.
    Families without a breakpoint pass ``ordered=False``: their draws are
    neither sorted nor copied.
    """
    key = (basis, ordered)
    if p.sweep is not None and p.sweep.key == key:
        return p.sweep
    centre = _centre(basis, p.y)
    w = np.sort(p.y, axis=None) if ordered else p.y
    p.sweep = SortedStats(w, _columns(basis, centre), key, centre)
    return p.sweep


def effective_chunks(transform: TransformMode, chunks):
    """Chunks of draws no caller holds, each made effective by ``transform``
    as it comes; an error of the transform carries its position among all
    the draws. A raw chunk goes once its transform exists."""
    start = 0
    for chunk in chunks:
        with _from(start):
            w = transform.realization(chunk)
        start += chunk.size
        # a bare callable's values may be an array it holds, which must not be sorted
        w = w if w is chunk or isinstance(transform.g, Bijection) else w.copy()
        del chunk  # the raw draws go once transformed
        yield w
        del w  # and the effective ones before the next chunk is drawn


def streamed_stats(transform: TransformMode, chunks, basis, u=(), hold=None) -> StreamedStats:
    """The sums of :func:`sorted_stats` over draws that arrive in chunks no
    caller holds (:func:`~elicit.distributions.sample_chunks`), each made
    effective by ``transform`` as it comes, taken at the effective
    predictions u, fixed before the pass, and in total. The basis is
    centred at the first chunk's means. ``hold`` goes to
    :class:`~elicit.sweep.StreamedStats`."""
    def centred(first):
        centre = _centre(basis, first)
        return _columns(basis, centre), centre

    return StreamedStats(effective_chunks(transform, chunks), centred, u, hold)


def streamed_moments(transform: TransformMode, chunks) -> StreamedStats:
    """The sums of the mean-variance basis {1, t, t^2} (t^3 and t^4 among
    their products) over chunks of draws made effective by ``transform``:
    the moments :func:`mv_vertex`, the pair's standard errors and its
    identification means read."""
    return streamed_stats(transform, chunks, _basis(ScoreSpec("mv")))


def held_moments(w: np.ndarray) -> StreamedStats:
    """:func:`streamed_moments` of the held effective draws w, fed in CHUNK
    slices, so that held and sampled draws share one implementation. No
    points are given, so no slice is sorted."""
    w = np.ravel(w)
    return streamed_moments(TransformMode.none(),
                            (w[i:i + CHUNK] for i in range(0, w.size, CHUNK)))


def _mv_pair(z):
    """The (x1, x2) coordinates of one pair or of an (n, 2) array of pairs."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or z.shape[-1] != 2:
        raise ParameterError(f"mean-variance predictions are (x1, x2) pairs, got shape {z.shape}")
    x1, x2 = z[..., 0], z[..., 1]
    bad = x2 <= 0
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(float(x2.flat[i]), None,
                          "mean-variance score (variance coordinate must be > 0)",
                          index=None if x2.ndim == 0 else i)
    return x1, x2


# Families without a breakpoint: their weight is always ``lo``.
_FLAT = ("se", "bregman", "mv")


def _coefficients(spec: ScoreSpec, u, centre):
    """The family table: S(u, w) = weight * (a . b(w)) as ``((a[0], rest), lo,
    hi)``, ``rest()`` giving a[1:], b the basis of :func:`_basis` centred at
    ``centre`` (t = w - c), u the effective predictions (the (x1, x2) pairs
    for mv), the weight ``lo`` where 1{u >= w} and ``hi`` elsewhere. A new
    family is one entry here (and a basis)."""
    fam = spec.family
    if fam == "mv":  # x2^-2 ((x1 - w)^2 - 2 x2)
        x1, x2 = _mv_pair(u)
        v, q = x1 - centre[0], x2 * x2
        return ((v * v - 2.0 * x2) / q, lambda: (-2.0 * v / q, 1.0 / q)), 1.0, 1.0
    if fam in ("se", "expectile", "bregman"):
        if spec.phi is None or spec.phi is SQUARE:  # (u - w)^2, also the gap of phi = t^2
            v = u - centre[0]
            gap = (v * v, lambda: (-2.0 * v, 1.0))
        else:  # Bregman gap phi(w) - phi(u) + phi'(u)(u - w)
            c, cp = centre
            slope = spec.phi.dphi(u)
            gap = (cp - spec.phi.phi(u) + slope * (u - c), lambda: (-slope, 1.0))
        if fam == "expectile":
            return gap, 1.0 - spec.tau, spec.tau
        return (gap, 1.0, 1.0) if fam == "se" else (gap, 0.5, 0.5)
    # (1{u >= w} - tau)(h(u) - h(w)), h = g_in for gpl, the identity otherwise
    h = spec.g_inner.apply(u) if fam == "gpl" else u
    lin = (h - centre[0], lambda: (-1.0,))
    return (lin, 1.0, -1.0) if fam == "ae" else (lin, 1.0 - spec.tau, -spec.tau)


def _rows(spec: ScoreSpec, u, p: PreparedRealizations):
    """S(u_i, w_i) per row: the table entry centred at each row's own w."""
    y = p.y
    own = _centre(_basis(spec), y, of=lambda f, v: v if f is None else f(v))
    entry = _coefficients(spec, u, own)
    return per_row(u, y, entry, spec.family not in _FLAT)


def score_values(spec: ScoreSpec, z, prepared: PreparedRealizations):
    """Scores of one prediction against pre-transformed realizations."""
    return _rows(spec, spec.transform.prediction(z), prepared)


def evaluate_score(spec: ScoreSpec, z, y) -> float:
    """Penalty S(z, y). For the mv family z is the pair (x1, x2)."""
    out = score_values(spec, z, prepare_realizations(spec, y))
    return float(out) if np.ndim(out) == 0 else out


def _annotate_index(exc):
    """``exc`` with its text naming the row it carries."""
    if isinstance(exc, DomainError):
        ctx = f"index {exc.index}" + (f", {exc.context}" if exc.context else "")
        return DomainError(exc.value, exc.domain, ctx, exc.index)
    return EvaluationError(f"at index {exc.index}: {exc}", index=exc.index)


def average_score(spec: ScoreSpec, z: Sequence, y: Sequence) -> float:
    """Realized average score (1/n) sum S(z_i, y_i); for the mv family z is
    an (n, 2) array of (x1, x2) pairs. An error names the first row i at
    which S(z_i, y_i) fails, a score that is not finite included."""
    z_arr = np.asarray(z, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if spec.family == "mv" and (z_arr.ndim != 2 or z_arr.shape[1] != 2):
        raise ParameterError("mv predictions must be an (n, 2) array of (x1, x2) pairs")
    if z_arr.shape != y_arr.shape + ((2,) if spec.family == "mv" else ()):
        raise ParameterError(f"length mismatch: {z_arr.shape} predictions, {y_arr.shape} realizations")
    if y_arr.size == 0:
        raise ParameterError("average_score requires at least one observation")
    # one axis of rows, so that an error's flat position is its row
    return _mean_score(spec, z_arr.reshape(y_arr.size, *z_arr.shape[y_arr.ndim:]),
                       y_arr.reshape(-1))


def _mean_score(spec: ScoreSpec, z, y) -> float:
    """The mean of S(z_i, y_i) over the rows. Each step of the evaluation
    checks all rows and raises at its first bad one, so an error at row i
    is the first row's once rows :i, alone, pass every step."""
    try:
        p = prepare_realizations(spec, y)  # before the predictions, as evaluate_score
        rows = _rows(spec, spec.transform.prediction(z), p)
        mean = float(np.mean(rows))
        if not np.isfinite(mean) and not np.isfinite(rows).all():
            i = int(np.argmin(np.isfinite(rows)))
            raise EvaluationError(f"non-finite score {float(rows[i])!r}", index=i)
        return mean
    except (DomainError, EvaluationError) as exc:
        if exc.index is None:
            raise
        if exc.index:
            _mean_score(spec, z[:exc.index], y[:exc.index])
        raise _annotate_index(exc) from exc


def _table(spec: ScoreSpec, st: Stats, zs) -> Piecewise:
    """The table of the predictions zs on the sums ``st``."""
    u = spec.transform.prediction(np.asarray(zs, dtype=float))
    return piece(st, u, _coefficients(spec, u, st.centre), spec.family not in _FLAT)


def _swept(spec: ScoreSpec, zs, p):
    """The sums of the draws ``p``, and the table of the predictions zs on
    them. ``p`` is prepared realizations, whose sorted statistics are built
    on first use, or the sums of a streamed pass (a Stats), which serve the
    points they were taken at."""
    st = p if isinstance(p, Stats) else sorted_stats(p, _basis(spec), spec.family not in _FLAT)
    return st, _table(spec, st, zs)


def expected_score(spec: ScoreSpec, z, prepared: PreparedRealizations) -> float:
    """Empirical expected score of one prediction: a one-point curve."""
    st, f = _swept(spec, [z], prepared)
    return float(st.mean(f)[0])


def expected_score_curve(spec: ScoreSpec, zs, prepared: PreparedRealizations) -> np.ndarray:
    """Empirical expected score at each z, over a common draw set."""
    st, f = _swept(spec, zs, prepared)
    return st.mean(f)


def expected_score_stats(spec: ScoreSpec, zs, prepared: PreparedRealizations):
    """Empirical expected score and its standard error at each z.

    Returns (means, stderrs) arrays, one entry per z.
    """
    st, f = _swept(spec, zs, prepared)
    return st.stats(f)


def score_diff_stats(spec: ScoreSpec, z_ref, zs, prepared: PreparedRealizations):
    """Paired statistics of S(z_ref, Y) - S(z, Y) over common draws.

    Returns (mean_diff, stderr_diff) arrays, one entry per z. The pairing
    (common random numbers) makes small expected-score differences resolvable
    far below the marginal noise level. z_ref is row 0 of the same table, so
    at z == z_ref both are exactly 0.
    """
    st, f = _swept(spec, np.concatenate(([z_ref], np.asarray(zs, dtype=float))), prepared)
    return st.diff_stats(Piecewise(*(c[:1] for c in f)), Piecewise(*(c[1:] for c in f)))


def streamed_score_stats(spec: ScoreSpec, zs, chunks):
    """:func:`expected_score_stats` of draws that arrive in chunks no caller
    holds (:func:`~elicit.distributions.sample_chunks`): one pass takes the
    sums at the predictions zs, fixed before it, so no n-long array is held."""
    u = spec.transform.prediction(np.asarray(zs, dtype=float))
    st = streamed_stats(spec.transform, chunks, _basis(spec), u if spec.family not in _FLAT else ())
    return expected_score_stats(spec, zs, st)


def span(u: np.ndarray, a: int, b: int) -> tuple[float, float]:
    """The effective interval [lo, hi] of points a..b of the effective grid
    u (decreasing under a decreasing g) or of sorted points; an end beyond
    them is unbounded."""
    up = u[-1] >= u[0]
    ends = [u[j] if 0 <= j < u.size else (-np.inf if (j < 0) == up else np.inf) for j in (a, b)]
    return float(min(ends)), float(max(ends))


def grid_pass(spec: ScoreSpec, draws: Callable, n: int, zs, fixed=()) -> Stats:
    """One pass over the chunks of ``draws()``, n draws
    (:func:`streamed_stats`), for a streamed argmin: the sums at the grid zs
    and at the points ``fixed``, both before the pass. A family with a
    breakpoint also holds the draws within :data:`WINDOW` grid steps of the
    grid argmin of its first chunk (all n when they are one chunk), for
    :func:`argmin_window`; a family without one needs only the totals, at
    any prediction."""
    basis = _basis(spec)
    if spec.family in _FLAT:
        return streamed_stats(spec.transform, draws(), basis)
    u = spec.transform.prediction(np.asarray(zs, dtype=float))

    def hold(st):  # st's sums are the first chunk's
        i = int(np.argmin(expected_score_curve(spec, zs, st)))
        return Held(*span(u, i - WINDOW, i + WINDOW))

    points = np.concatenate((u, spec.transform.prediction(np.asarray(fixed, dtype=float))))
    return streamed_stats(spec.transform, draws(), basis, points, hold)


def held_window(st: StreamedStats, lo: float, hi: float, chunks: Callable) -> WindowStats:
    """The sums of the pass ``st`` at its points and at every point of the
    window (lo, hi], each end a point of the pass or unbounded: the draws
    its ``hold`` kept when they cover the window, else those of one more
    pass over ``chunks()``, the same effective draws, which holds exactly
    them."""
    held, st.held = st.held, None
    if not (held.lo <= lo and hi <= held.hi):
        held = Held(lo, hi)
        for w in chunks():
            w.sort()
            held.add(w)
    return WindowStats(st, held.draws(), held.lo, held.hi)


def argmin_window(spec: ScoreSpec, st: Stats, zs, i: int, draws: Callable) -> Stats:
    """The sums of :func:`grid_pass` ``st`` for the polish of the grid
    argmin zs[i]: they serve its points and every point within two grid
    steps of zs[i] (:func:`held_window` over ``draws()``)."""
    if spec.family in _FLAT:
        return st
    lo, hi = span(spec.transform.prediction(np.asarray(zs, dtype=float)), i - 2, i + 2)
    return held_window(st, lo, hi, lambda: effective_chunks(spec.transform, draws()))


def mv_vertex(spec: ScoreSpec, st: StreamedStats) -> tuple[float, float]:
    """The minimiser (x1, x2) of the mv score's empirical expected score
    M = x2^-2 (E(x1 - W)^2 - 2 x2), from M's values on the moments ``st``
    of the effective draws (:func:`streamed_moments`, :func:`held_moments`): a parabola
    in x1 at x2 = s (vertex x1* from a, a +- sqrt(s)), while x2^2 M = A - 2B x2
    (B from (a, 2s), A at x1* from the parabola), least at x2 = A / B. Two
    rounds: from the draws' midrange and squared half range, then from that
    vertex, where nothing cancels. Zero spread has no minimiser: M -> -inf."""
    lo, hi = st.lo, st.hi
    if not lo < hi:
        raise ParameterError(f"mean-variance score: no minimum on data of zero spread (all {lo:g})")
    x1, x2 = 0.5 * (lo + hi), (0.5 * (hi - lo)) ** 2
    for _ in range(MV_VERTEX_POINTS // 4):
        h = x2 ** 0.5
        f_lo, f_mid, f_hi, f_wide = st.mean(_table(
            spec, st, [(x1 - h, x2), (x1, x2), (x1 + h, x2), (x1, 2.0 * x2)])).tolist()
        curv, b = f_hi - 2.0 * f_mid + f_lo, 0.5 * x2 * (f_mid - 4.0 * f_wide)
        least = f_mid - (f_hi - f_lo) ** 2 / (8.0 * curv) if curv > 0.0 else -np.inf
        a = x2 * (x2 * least + 2.0 * b)
        if not (b > 0.0 and a > 0.0):
            raise EvaluationError(f"mean-variance score: no vertex near ({x1:.6g}, {x2:.6g})")
        x1, x2 = x1 - h * (f_hi - f_lo) / (2.0 * curv), a / b
    return x1, x2
