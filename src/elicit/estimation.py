"""M-estimation: fit models by minimizing the realized average score.

Three model classes: a constant (the prediction is a single parameter), a
line theta0 + theta1 x, and a constant (mean, variance) pair. The constant
models score one prediction against all data with the sweep of
:func:`~elicit.scoring.expected_score`; the line scores paired rows with
:func:`~elicit.scoring.score_values`. The data are checked once, before the
search, and a bad row raises there, naming its observation index. The
constant fit uses the bracketed one-dimensional minimizer, which tolerates
the kinks of pinball-type objectives. The pair fit takes the exact vertex of the mean-variance
expected score (:func:`~elicit.scoring.mv_vertex`), which data of zero
spread do not have. The line uses a derivative-free simplex search from a
least-squares start, or from the constant at the data's median where that
line leaves g's domain, restarted once from its end on non-convergence; its
x values must not all be equal."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError, naming_observations
from .intervals import Interval
from .numerics import Bracket, minimize1d
from .scoring import (MV_VERTEX_POINTS, ScoreSpec, expected_score, mv_vertex,
                      prepare_realizations, score_values)

_FINITE = Interval.open(-math.inf, math.inf)

MODEL_KINDS = ("constant", "linear", "constant_pair")


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


def _in_prediction_units(score: ScoreSpec, y: np.ndarray) -> np.ndarray:
    """The data where optimal constants lie: g(y) when g acts on one
    argument only (under ``prediction`` the parameter lives in transformed
    space), the raw data for plain and jointly-transformed scores."""
    t = score.transform
    if t.mode == "prediction":
        return t.g.apply(y)
    return y if t.mode == "both" else t.realization(y)


def _prediction_bracket(score: ScoreSpec, y: np.ndarray) -> Bracket:
    """Data-driven bracket for a constant prediction, in prediction units:
    optimal constants lie in the convex hull of :func:`_in_prediction_units`."""
    mode = score.transform.mode
    vals = _in_prediction_units(score, y)
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
        bracket = _prediction_bracket(score, y) if model.kind == "constant" else None
    try:
        if model.kind == "constant":
            result = _fit_constant(score, prepared, bracket, tol)
        elif model.kind == "linear":
            result = _fit_linear(score, x, y, prepared, None if auto else init, tol)
        else:  # constant_pair: the exact vertex
            theta = mv_vertex(score, prepared)
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


def _fit_linear(score: ScoreSpec, x: np.ndarray, y: np.ndarray, prepared, init,
                tol: float) -> FitResult:
    if np.all(x == x[0]):
        raise ParameterError(f"the linear model needs two distinct x values, not only {x[0]:g}")

    def obj(theta):
        try:
            return float(np.mean(score_values(score, theta[0] + theta[1] * x, prepared)))
        except DomainError:
            return math.inf

    if init is None:
        try:
            target = _in_prediction_units(score, y)
        except DomainError:
            target = y
        slope, intercept = np.polyfit(x, target, 1)
        x0 = np.array([intercept, slope], dtype=float)
        if not math.isfinite(obj(x0)):  # the line leaves g's domain: a constant stays inside
            x0 = np.array([float(np.median(target)), 0.0])
    else:
        x0 = np.asarray(init, dtype=float)
        if x0.shape != (2,):
            raise ParameterError("linear init must have two components")

    # Imported here, not at module level: no other code path needs scipy,
    # and importing it costs every CLI process about half a second.
    from scipy.optimize import minimize

    def run(start):
        return minimize(obj, start, method="Nelder-Mead",
                        options={"xatol": tol, "fatol": 1e-14, "maxiter": 2000, "maxfev": 4000})

    res = run(x0)
    if not res.success:  # restart once from the end: a fresh simplex
        res2 = run(res.x)
        if res2.fun <= res.fun:
            res = res2
    return FitResult(theta=tuple(float(t) for t in res.x), objective=float(res.fun),
                     iterations=int(res.nfev), converged=bool(res.success))

