"""M-estimation: fit models by minimizing the realized average score.

Three model classes: a constant (the prediction is a single parameter), a
line theta0 + theta1 x, and a constant (mean, variance) pair. The constant
models score one prediction against all data with the sweep of
:func:`~elicit.scoring.expected_score`; the line scores paired rows with
:func:`~elicit.scoring.score_values`, :data:`BLOCK` rows at a time, and adds
up the block sums. The data are checked once, before the search, and a bad
row raises there, naming its observation index. The constant fit uses the
bracketed one-dimensional minimizer, which tolerates the kinks of
pinball-type objectives. The pair fit takes the exact vertex of the
mean-variance expected score (:func:`~elicit.scoring.mv_vertex`), which data
of zero spread do not have. The line uses the Nelder–Mead simplex search of
:func:`~elicit.numerics.nelder_mead` from a least-squares start, or from the
constant at the data's median where that line leaves g's domain, restarted
once from its end on non-convergence; its x values must not all be equal.
For ``ae`` and ``apl`` under modes ``none`` and ``realization``, whose score
is linear in the line on each side of its kink, and data of at least
:data:`_BAND_MIN_ROWS` rows, the search runs on a band of rows about a first
fit to a subsample, with the rows outside the band folded into two weighted
rows (:func:`_band_search`); its ``iterations`` counts the evaluations of
every search it ran, and its objective is a pass over all rows. Other
families, modes and sizes search all rows, and count the evaluations of the
search they keep. Nothing here needs scipy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError, naming_observations
from .intervals import Interval
from .numerics import Bracket, minimize1d, nelder_mead
from .scoring import (MV_VERTEX_POINTS, PreparedRealizations, ScoreSpec, TransformMode,
                      expected_score, held_moments, mv_vertex, prepare_realizations, score_values)

_FINITE = Interval.open(-math.inf, math.inf)

MODEL_KINDS = ("constant", "linear", "constant_pair")

# Rows per block of the line's objective: a block of x, w and the kernel's
# temporaries stays in a core's cache, where whole 1e6-row arrays stream
# from memory on every evaluation.
BLOCK = 2**14
# The line's simplex search stops at these, or at x within the fit's tol.
SIMPLEX_OPTIONS = {"fatol": 1e-14, "maxiter": 2000, "maxfev": 4000}
# Families whose score is linear in the prediction on each side of its kink:
# the line searches a band of rows for them (_band_search), under the modes
# in which the prediction is the line itself.
_BANDED = ("ae", "apl")
# Rounds of the band search before it falls back to all rows.
_BAND_ROUNDS = 3
# Rows from which the line takes the band search. Its evaluations are
# cheaper but about three times as many, and below this the fixed cost of
# each dominates: against the all-rows search it took 3.4x the time at 300
# rows, 1.7x at 1e4, 1.05x at 3e4, 0.87x at 4e4 and 0.49x at 1e5 (medians
# over 12 fits each of ae, apl and apl@realization:log, on a 2-core Xeon VM).
_BAND_MIN_ROWS = 40_000


@dataclass(frozen=True)
class ModelSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")


@dataclass(frozen=True)
class FitResult:
    theta: tuple
    objective: float
    iterations: int
    converged: bool


def _as_model(model) -> ModelSpec:
    return ModelSpec(model) if isinstance(model, str) else model


def _in_prediction_units(score: ScoreSpec, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The data where optimal constants lie: g(y) when g acts on one
    argument only (under ``prediction`` the parameter lives in transformed
    space), the raw data for plain and jointly-transformed scores. ``w`` are
    the effective realizations of y, g(y) already under ``realization``."""
    t = score.transform
    if t.mode == "prediction":
        return t.g.apply(y)
    return y if t.mode == "both" else w


def _prediction_bracket(score: ScoreSpec, y: np.ndarray, w: np.ndarray) -> Bracket:
    """Data-driven bracket for a constant prediction, in prediction units:
    optimal constants lie in the convex hull of :func:`_in_prediction_units`."""
    mode = score.transform.mode
    vals = _in_prediction_units(score, y, w)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    pad = 0.01 * max(hi - lo, 1e-9 * max(1.0, abs(lo), abs(hi)), 1e-12)
    # A padded end must stay where the score evaluates predictions: g's
    # domain (both) or codomain (prediction); otherwise keep the data end.
    g = score.transform.g
    where = g.domain if mode == "both" else g.codomain if mode == "prediction" else None
    lo_p, hi_p = lo - pad, hi + pad
    if where is not None:
        lo_p = lo_p if where.contains(lo_p) else lo
        hi_p = hi_p if where.contains(hi_p) else hi
    return Bracket(lo_p, hi_p)


def fit(model, score: ScoreSpec, x=None, y=None, init="auto", tol: float = 1e-9) -> FitResult:
    """Minimize (1/n) sum S(m(x_i, theta), y_i) over theta.

    ``x`` must be given for the linear model and omitted otherwise.
    ``init`` is the line's starting (theta0, theta1), or "auto" for least
    squares; the other models need no start and take only "auto".
    Non-convergence of the line's simplex search is flagged on the result,
    not raised; a non-finite objective raises an EvaluationError.
    """
    model = _as_model(model)
    if y is None or len(y) == 0:
        raise ParameterError("fit requires nonempty realizations y")
    y = np.asarray(y, dtype=float)
    if model.kind == "linear":
        if x is None:
            raise ParameterError("linear model requires predictor values x")
        x = np.asarray(x, dtype=float)
        if x.shape != y.shape:
            raise ParameterError(f"x and y lengths differ: {x.shape} vs {y.shape}")
    elif x is not None:
        raise ParameterError(f"{model.kind} model takes no predictor values")
    auto = isinstance(init, str) and init == "auto"
    if not (auto or model.kind == "linear"):
        raise ParameterError(f"init applies to the linear model only, not {model.kind}")
    if (score.family == "mv") != (model.kind == "constant_pair"):
        raise ParameterError(f"the {model.kind} model does not take the {score.family} score: "
                             "the mean-variance score fits the constant_pair model, and only it")

    for name, values in (("y", y), ("x", x)):
        if values is not None and not _FINITE.contains_all(values):
            i = _FINITE.first_outside(values)
            raise DomainError(float(values[i]), _FINITE, f"{name} at observation index {i}",
                              index=i)
    with naming_observations():  # the data, checked once before the search
        prepared = prepare_realizations(score, y)
        if score.family == "gpl":  # g_in(w), which every evaluation of gpl takes
            score.g_inner.apply(prepared.y)
        bracket = _prediction_bracket(score, y, prepared.y) if model.kind == "constant" else None
    try:
        if model.kind == "constant":
            result = _fit_constant(score, prepared, bracket, tol)
        elif model.kind == "linear":
            result = _fit_linear(score, x, y, prepared, None if auto else init, tol)
        else:  # constant_pair: the exact vertex of the data's moments
            theta = mv_vertex(score, held_moments(prepared.y))
            result = FitResult(theta=theta, objective=expected_score(score, theta, prepared),
                               iterations=MV_VERTEX_POINTS + 1, converged=True)
    except (DomainError, EvaluationError) as exc:
        exc.index = None  # a position among the search's predictions, not a data row
        raise
    if not math.isfinite(result.objective):
        raise EvaluationError(f"the {model.kind} fit found no finite objective: "
                              f"{result.objective!r} at theta {result.theta}")
    return result


def _fit_constant(score: ScoreSpec, prepared, bracket: Bracket, tol: float) -> FitResult:
    evals = [0]

    def obj(z: float) -> float:
        evals[0] += 1
        return expected_score(score, z, prepared)

    theta = minimize1d(obj, bracket, tol)
    return FitResult(theta=(float(theta),), objective=obj(theta),
                     iterations=evals[0], converged=True)


def _least_squares_line(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The least-squares line of t on x as (intercept, slope), from centred
    sums."""
    x_mean, t_mean = float(np.mean(x)), float(np.mean(t))
    dx = x - x_mean
    spread = float(np.dot(dx, dx))
    if not spread > 0.0:  # distinct x values only a subnormal apart
        raise ParameterError("the linear model needs two distinct x values: "
                             "the spread of x underflows to 0")
    slope = float(np.dot(dx, t - t_mean)) / spread
    return np.array([t_mean - slope * x_mean, slope])


def _line_sum(score: ScoreSpec, x: np.ndarray, w: np.ndarray):
    """theta -> the sum of S(theta0 + theta1 x_i, w_i) over the rows, taken
    over views of BLOCK rows each: w is not mapped again."""
    blocks = [(x[i:i + BLOCK], PreparedRealizations(TransformMode.none(), w[i:i + BLOCK]))
              for i in range(0, len(x), BLOCK)]

    def total(theta) -> float:
        out = 0.0
        for xb, wb in blocks:
            out += float(np.sum(score_values(score, theta[0] + theta[1] * xb, wb)))
        return out

    return total


def _per_row(total, n: int):
    """The search's objective: ``total`` over n rows, inf where the line
    leaves the score's domain."""
    def obj(theta) -> float:
        try:
            return total(theta) / n
        except DomainError:
            return math.inf

    return obj


def _subsample_size(n: int) -> int:
    """Rows of the band search's first fit, 2 n^(2/3); its band is twice that."""
    return int(2.0 * n ** (2.0 / 3.0))


def _fit_linear(score: ScoreSpec, x: np.ndarray, y: np.ndarray, prepared, init,
                tol: float) -> FitResult:
    if np.all(x == x[0]):
        raise ParameterError(f"the linear model needs two distinct x values, not only {x[0]:g}")
    n, w = len(x), prepared.y
    full = _per_row(_line_sum(score, x, w), n)
    banded = (score.family in _BANDED and score.transform.mode in ("none", "realization")
              and n >= _BAND_MIN_ROWS)
    if banded:  # every step-th row: a fixed stride, no draws
        step = n // _subsample_size(n)
        sub_x, sub_w = (np.ascontiguousarray(v[::step]) for v in (x, w))
        first = _per_row(_line_sum(score, sub_x, sub_w), len(sub_x))
    else:
        first = full
    if init is None:
        try:
            target = _in_prediction_units(score, y, w)
        except DomainError:
            target = y
        x0 = _least_squares_line(x, target)
        if not math.isfinite(first(x0)):  # the line leaves g's domain: a constant stays inside
            x0 = np.array([float(np.median(target)), 0.0])
    else:
        x0 = np.asarray(init, dtype=float)
        if x0.shape != (2,):
            raise ParameterError("linear init must have two components")

    searches = []

    def search(obj, start):
        searches.append(nelder_mead(obj, start, xatol=tol, **SIMPLEX_OPTIONS))
        return searches[-1]

    def run(obj, start):
        res = search(obj, start)
        if not res.success:  # restart once from the end: a fresh simplex
            res2 = search(obj, res.x)
            if res2.fun <= res.fun:
                res = res2
        return res

    res = run(first, x0)
    if not banded:
        return FitResult(theta=tuple(float(t) for t in res.x), objective=res.fun,
                         iterations=res.nfev, converged=res.success)
    res, folds = _band_search(score, x, w, res.x, search)
    if folds is None:  # folded rows kept crossing: search all rows
        res = run(full, res.x)
    return FitResult(theta=tuple(float(t) for t in res.x), objective=full(res.x),
                     iterations=sum(r.nfev for r in searches), converged=res.success)


def _band_search(score: ScoreSpec, x: np.ndarray, w: np.ndarray, theta, search) -> tuple:
    """The line's search on a band of rows about a first fit theta (Portnoy
    & Koenker, Statistical Science 12(4), 1997, section 4), by
    ``search(obj, start)``.

    The band is the 4 n^(2/3) rows of smallest |w - u| at theta. The rows
    above it fold into one row of their mean x and mean w, weighted by
    their count, and so do the rows below it. For a score convex and
    positively homogeneous in (u, w), a folded row scores at most the sum
    of its rows, and exactly that sum wherever every one of them stays on
    its closed side (w >= u above, w <= u below): so the band's objective
    bounds the full one from below, and equals it at a minimum where no
    folded row has crossed. Both sides score 0 at w = u, so no tie rule is
    needed. Rows that crossed join the band, and the search runs again from
    where it ended, for at most _BAND_ROUNDS rounds.

    Returns the last search's result and the masks of the rows folded above
    and below, or None in their place when folded rows still crossed after
    the last round."""
    n = len(x)
    r = np.empty(n)

    def residuals(theta):  # w - u into r: the one n-long float array held
        np.multiply(x, theta[1], out=r)
        np.add(r, theta[0], out=r)
        np.subtract(w, r, out=r)

    residuals(theta)
    above = r >= 0.0
    size = 2 * _subsample_size(n)
    band = np.zeros(n, dtype=bool)
    band[np.argpartition(np.abs(r, out=r), size - 1)[:size]] = True
    for _ in range(_BAND_ROUNDS):
        band_sum = _line_sum(score, x[band], w[band])
        folds = (~band & above, ~band & ~above)
        kept = [f for f in folds if f.any()]
        count = np.array([np.count_nonzero(f) for f in kept], dtype=float)
        x_fold = np.array([np.sum(x, where=f) for f in kept]) / count
        w_fold = PreparedRealizations(TransformMode.none(),
                                      np.array([np.sum(w, where=f) for f in kept]) / count)

        def total(theta):
            fold = score_values(score, theta[0] + theta[1] * x_fold, w_fold)
            return band_sum(theta) + float(np.dot(count, fold))

        obj = _per_row(total, n)
        # once more from where it ended, with a fresh simplex: a search can
        # stall on a ridge of kinks, and its restart never ends higher
        res = search(obj, search(obj, theta).x)
        theta = res.x
        residuals(theta)
        crossed = np.where(above, r < 0.0, r > 0.0)
        crossed &= ~band
        if not crossed.any():
            return res, folds
        band |= crossed
    return res, None
