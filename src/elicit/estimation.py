"""M-estimation: fit models by minimizing the realized average score.

Three model classes: a constant (the prediction is a single parameter), a
line theta0 + theta1 x, and a constant (mean, variance) pair. Constant fits
use the bracketed one-dimensional minimizer, which tolerates the kinks of
pinball-type objectives; the other two use a derivative-free simplex search
with a least-squares / moment start and one restart on non-convergence. The
pair fit optimizes over log-variance so positivity is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .errors import DomainError, ParameterError
from .numerics import Bracket, minimize1d
from .scoring import ScoreSpec, average_score, prepare_realizations, score_values
from .transforms import Bijection

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


def _prediction_bracket(score: ScoreSpec, y: np.ndarray) -> Bracket:
    """Data-driven bracket for a constant prediction, in prediction units.

    Optimal constants lie in the convex hull of the data: of the raw data for
    plain and jointly-transformed scores, of the transformed data otherwise.
    """
    mode = score.transform.mode
    if mode in ("none", "both"):
        vals = y
    elif mode == "realization":
        g = score.transform.g
        vals = g.apply(y) if isinstance(g, Bijection) else np.asarray(g(y), float)
    else:  # prediction: the parameter lives in transformed space
        vals = score.transform.g.apply(y)
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


def _annotated_objective(score: ScoreSpec, y: np.ndarray):
    prepared = prepare_realizations(score, y)
    evals = [0]

    def obj(z: float) -> float:
        evals[0] += 1
        return float(np.mean(score_values(score, z, prepared)))

    return obj, evals


def fit(model, score: ScoreSpec, x=None, y=None, init="auto", tol: float = 1e-9) -> FitResult:
    """Minimize (1/n) sum S(m(x_i, theta), y_i) over theta.

    ``x`` must be given for the linear model and omitted otherwise. ``init``
    is a starting parameter vector or "auto" (least squares for the line,
    sample moments for the pair; the constant fit is bracketed and needs no
    start). Non-convergence of the simplex search is flagged on the result,
    not raised.
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

    if model.kind == "constant":
        return _fit_constant(score, y, tol)
    if model.kind == "linear":
        return _fit_linear(score, x, y, init, tol)
    return _fit_constant_pair(score, y, init, tol)


def _fit_constant(score: ScoreSpec, y: np.ndarray, tol: float) -> FitResult:
    if score.family == "mv":
        raise ParameterError("use the constant_pair model for mean-variance scores")
    try:
        bracket = _prediction_bracket(score, y)
    except DomainError as exc:
        raise DomainError(exc.value, exc.domain, "fit data") from exc
    obj, evals = _annotated_objective(score, y)
    theta = minimize1d(obj, bracket, tol)
    return FitResult(theta=(float(theta),), objective=obj(theta),
                     iterations=evals[0], converged=True)


def _simplex(obj, x0: np.ndarray, tol: float):
    res = _scipy_minimize(obj, x0, method="Nelder-Mead",
                          options={"xatol": tol, "fatol": 1e-14,
                                   "maxiter": 2000, "maxfev": 4000})
    return res


def _fit_linear(score: ScoreSpec, x: np.ndarray, y: np.ndarray, init, tol: float) -> FitResult:
    if init == "auto":
        target = y
        g = score.transform.g
        if score.transform.mode in ("realization", "prediction") and g is not None:
            try:
                target = g.apply(y) if isinstance(g, Bijection) else np.asarray(g(y), float)
            except DomainError:
                target = y
        slope, intercept = np.polyfit(x, target, 1)
        x0 = np.array([intercept, slope], dtype=float)
    else:
        x0 = np.asarray(init, dtype=float)
        if x0.shape != (2,):
            raise ParameterError("linear init must have two components")

    def obj(theta):
        try:
            return average_score(score, theta[0] + theta[1] * x, y)
        except DomainError:
            return math.inf

    res = _simplex(obj, x0, tol)
    if not res.success:
        res2 = _simplex(obj, res.x, tol)
        if res2.fun <= res.fun:
            res = res2
    return FitResult(theta=tuple(float(t) for t in res.x), objective=float(res.fun),
                     iterations=int(res.nfev), converged=bool(res.success))


def _fit_constant_pair(score: ScoreSpec, y: np.ndarray, init, tol: float) -> FitResult:
    if score.family != "mv":
        raise ParameterError("constant_pair model requires the mean-variance score")
    prepared = prepare_realizations(score, y)
    w = np.asarray(prepared.y, dtype=float)
    if init == "auto":
        v0 = max(float(np.var(w, ddof=1)) if w.size > 1 else 1.0, 1e-12)
        x0 = np.array([float(np.mean(w)), math.log(v0)])
    else:
        m0, v0 = init
        if not v0 > 0:
            raise ParameterError("variance component of init must be positive")
        x0 = np.array([float(m0), math.log(float(v0))])

    def obj(theta):
        pair = (theta[0], math.exp(theta[1]))
        return float(np.mean(score_values(score, pair, prepared)))

    res = _simplex(obj, x0, tol)
    if not res.success:
        res2 = _simplex(obj, res.x + np.array([0.0, 0.1]), tol)
        if res2.fun <= res.fun:
            res = res2
    theta = (float(res.x[0]), float(math.exp(res.x[1])))
    return FitResult(theta=theta, objective=float(res.fun),
                     iterations=int(res.nfev), converged=bool(res.success))
