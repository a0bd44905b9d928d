"""Empirical certification of consistency, strictness, and identification.

Each check pairs a scoring or identification family with a distribution and
a target functional, estimates the relevant population quantity by seeded
Monte Carlo, and reports pass/fail against explicit tolerances:

* consistency: the empirical expected-score curve over a grid (common random
  numbers across the grid) is minimized, the polished argmin must match the
  functional value, and the expected score at the truth must not exceed the
  curve anywhere beyond paired noise.
* strictness: the curve must rise significantly away from its minimum; a
  flat-within-noise region wider than the tolerance fails the check (which is
  the correct outcome for set-valued targets such as even-sample medians).
* identification: the expected identification value must vanish at the truth,
  and must be significantly nonzero with the correct sign away from it.
* revelation: reparameterizing predictions through a bijection must move the
  minimizer to the image of the base minimizer.
* realization transform: scoring transformed realizations must relocate the
  minimizer to the functional of the transformed variable (the transform may
  be non-bijective here).
* pair consistency: the mean-variance score/identification pair must recover
  (mean, variance) of the (optionally transformed) realization.

A report passes when |estimate - target| <= max(tol_abs, tol_rel |target|,
3 stderr). Checks are pure given their seed; suites derive per-check seeds
from a master seed so results are independent of execution order and
parallelism.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .distributions import DistributionSpec, Empirical, Exponential, Lognormal, Normal, Uniform, sample_iid
from .errors import BracketingError, ElicitError, ParameterError, SpecParseError
from .functionals import FunctionalSpec, FunctionalValue, functional_value, scalar_value
from .identification import IdentSpec, expected_ident_curve, ident_values, prepare_ident_realizations
from .intervals import Interval
from .numerics import Bracket, Seed, derive_seed, minimize1d
from .scoring import (ScoreSpec, TransformMode, expected_score, expected_score_curve,
                      prepare_realizations, score_diff_stats)
from .transforms import Bijection, catalog

CHECK_KINDS = ("consistency", "strictness", "identification", "pair",
               "revelation", "realization")

MIN_N = 10**4


@dataclass(frozen=True)
class CheckConfig:
    """One verification task; immutable and fully seeded."""

    name: str
    kind: str
    dist: DistributionSpec
    functional: FunctionalSpec
    bracket: Bracket
    n: int
    seed: Seed
    score: ScoreSpec | None = None
    ident: IdentSpec | None = None
    bracket2: Bracket | None = None
    points: int = 201
    tol_abs: float = 1e-3
    tol_rel: float = 0.02
    target: object = None
    target_stderr: object = None
    g: object = None  # bijection (revelation) or measurable map (realization)
    expect_pass: bool = True

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise ParameterError(f"unknown check kind {self.kind!r}")
        if self.n < MIN_N:
            raise ParameterError(f"checks need n >= {MIN_N}, got {self.n}")
        if self.points < 5:
            raise ParameterError("grid needs at least 5 points")
        if self.kind in ("consistency", "strictness", "pair", "revelation", "realization"):
            if self.score is None:
                raise ParameterError(f"{self.kind} check requires a score spec")
        if self.kind == "identification" and self.ident is None:
            raise ParameterError("identification check requires an ident spec")
        if self.kind in ("revelation", "realization") and self.g is None:
            raise ParameterError(f"{self.kind} check requires a transformation g")
        if self.kind == "pair" and self.bracket2 is None:
            raise ParameterError("pair check requires a variance bracket (bracket2)")


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    estimate: object
    target: object
    stderr: object
    tol_abs: float
    tol_rel: float
    seed: int
    wall_ms: float
    notes: str = ""
    error: dict | None = None  # {"type", "message"} of the exception that stopped the check

    def to_json_dict(self, include_ms: bool = False) -> dict:
        def plain(v):
            if isinstance(v, Interval):
                return [v.lo, v.hi]
            if isinstance(v, (tuple, list, np.ndarray)):
                return [float(x) for x in v]
            if v is None:
                return None
            return float(v)

        out = {
            "check": self.check,
            "pass": bool(self.passed),
            "estimate": plain(self.estimate),
            "target": plain(self.target),
            "stderr": plain(self.stderr),
            "tol_abs": float(self.tol_abs),
            "tol_rel": float(self.tol_rel),
            "seed": int(self.seed),
            "ms": float(self.wall_ms) if include_ms else 0.0,
            "notes": self.notes,
        }
        if self.error is not None:
            out["error"] = dict(self.error)
        return out


def _resolve_target(cfg: CheckConfig) -> FunctionalValue:
    if cfg.target is not None:
        se = cfg.target_stderr
        if se is None:
            se = (0.0, 0.0) if isinstance(cfg.target, (tuple, list)) else 0.0
        tgt = tuple(cfg.target) if isinstance(cfg.target, (tuple, list)) else cfg.target
        return FunctionalValue(tgt, se, "given")
    return functional_value(cfg.functional, cfg.dist, n=cfg.n, seed=derive_seed(cfg.seed, 7919))


def _target_distance(estimate: float, target) -> float:
    if isinstance(target, Interval):
        return target.distance(estimate)
    return abs(estimate - float(target))


def _tolerance(cfg: CheckConfig, target_scalar: float, target_se: float) -> float:
    return max(cfg.tol_abs, cfg.tol_rel * abs(target_scalar), 3.0 * target_se)


def _grid(cfg: CheckConfig) -> np.ndarray:
    return np.linspace(cfg.bracket.lo, cfg.bracket.hi, cfg.points)


def _polished_argmin(score: ScoreSpec, zs: np.ndarray, prepared, bracket: Bracket) -> float:
    """Grid argmin refined by bracketed search between its neighbors."""
    means = expected_score_curve(score, zs, prepared)
    i = int(np.argmin(means))
    if i == 0 or i == len(zs) - 1:
        raise BracketingError(
            f"expected-score minimum at grid endpoint z={zs[i]:.6g}; "
            f"bracket [{bracket.lo:.6g}, {bracket.hi:.6g}] likely excludes the minimizer")

    def esc(z: float) -> float:
        return expected_score(score, z, prepared)

    tol = max(1e-9, 1e-6 * max(1.0, abs(zs[i])))
    return minimize1d(esc, Bracket(zs[i - 1], zs[i + 1]), tol)


def _argmin_stderr(score: ScoreSpec, z_star: float, zs: np.ndarray, prepared) -> float:
    """Sampling error of the empirical expected-score argmin.

    Sandwich plug-in: the standard error of the empirical score slope at the
    minimizer (from the common draws) divided by the local curvature of the
    curve. Reproduces sigma/sqrt(n) for the squared error and the classical
    density-scaled rate for pinball losses. When no curvature is resolved
    (flat region), the argmin is unlocalizable and the full bracket width is
    returned.
    """
    delta = float(zs[1] - zs[0])
    m_lo, m_mid, m_hi = expected_score_curve(
        score, [z_star - delta, z_star, z_star + delta], prepared)
    curv = (float(m_hi) - 2.0 * float(m_mid) + float(m_lo)) / delta**2
    _, se_diff = score_diff_stats(score, z_star + delta, [z_star - delta], prepared)
    se_slope = float(se_diff[0]) / (2.0 * delta)
    width = float(zs[-1] - zs[0])
    if curv <= 0.0:
        return width
    return min(se_slope / curv, width)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(cfg: CheckConfig) -> VerificationReport:
        t0 = time.perf_counter()
        rpt = fn(cfg)
        ms = (time.perf_counter() - t0) * 1000.0
        return replace(rpt, wall_ms=ms)

    return wrapper


def _consistency_body(cfg: CheckConfig, score: ScoreSpec, target: FunctionalValue,
                      bracket: Bracket, check_name: str):
    """Shared argmin-vs-target machinery; returns (report, argmin stderr)."""
    draws = sample_iid(cfg.dist, cfg.n, cfg.seed)
    prepared = prepare_realizations(score, draws)
    zs = np.linspace(bracket.lo, bracket.hi, cfg.points)
    z_star = _polished_argmin(score, zs, prepared, bracket)

    t_scalar = scalar_value(target.value)
    t_se = float(target.stderr) if not isinstance(target.stderr, (tuple, list)) else 0.0
    # Total Monte Carlo uncertainty: target noise plus argmin localization.
    se_argmin = _argmin_stderr(score, z_star, zs, prepared)
    se = math.hypot(t_se, se_argmin)
    tol = _tolerance(cfg, t_scalar, se)
    dist_ok = _target_distance(z_star, target.value) <= tol

    # The truth must not beat the curve anywhere beyond paired-noise level.
    ineq_ok = True
    if bracket.lo <= t_scalar <= bracket.hi:
        dmean, dse = score_diff_stats(score, t_scalar, zs, prepared)
        ineq_ok = bool(np.all(dmean <= 3.0 * dse + 1e-12))

    notes = f"argmin={z_star:.6g}"
    if isinstance(target.value, Interval):
        notes += f" target-interval={target.value} (scalar=lower endpoint)"
    if not ineq_ok:
        notes += "; truth beats curve inequality violated"
    report = VerificationReport(
        check=check_name, passed=bool(dist_ok and ineq_ok), estimate=z_star,
        target=target.value, stderr=se, tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel,
        seed=cfg.seed, wall_ms=0.0, notes=notes)
    return report, se_argmin


@_timed
def check_consistency(cfg: CheckConfig) -> VerificationReport:
    """Does the expected score minimize at the functional's value?"""
    target = _resolve_target(cfg)
    return _consistency_body(cfg, cfg.score, target, cfg.bracket, cfg.name)[0]


@_timed
def check_strictness(cfg: CheckConfig) -> VerificationReport:
    """Is the expected-score minimum unique beyond noise?

    Fails when any grid point farther than the tolerance from the empirical
    minimizer is not significantly above the minimum.
    """
    draws = sample_iid(cfg.dist, cfg.n, cfg.seed)
    prepared = prepare_realizations(cfg.score, draws)
    zs = _grid(cfg)
    z_star = _polished_argmin(cfg.score, zs, prepared, cfg.bracket)

    flat_tol = max(cfg.tol_abs, cfg.tol_rel * max(1.0, abs(z_star)))
    dmean, dse = score_diff_stats(cfg.score, z_star, zs, prepared)
    rise = -dmean  # mean of S(z) - S(z*) >= 0
    far = np.abs(zs - z_star) > flat_tol
    strict_ok = bool(np.all(rise[far] > 3.0 * dse[far]))
    n_flat = int(np.sum(~(rise[far] > 3.0 * dse[far])))

    target = _resolve_target(cfg)
    t_se = float(target.stderr) if not isinstance(target.stderr, (tuple, list)) else 0.0
    notes = f"argmin={z_star:.6g}; flat-tol={flat_tol:.4g}; " \
            f"non-strict points beyond tol: {n_flat}/{int(np.sum(far))}"
    return VerificationReport(
        check=cfg.name, passed=strict_ok, estimate=z_star, target=target.value,
        stderr=t_se, tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel, seed=cfg.seed,
        wall_ms=0.0, notes=notes)


@_timed
def check_identification(cfg: CheckConfig) -> VerificationReport:
    """Is E[V] zero exactly at the truth, nonzero and oriented elsewhere?"""
    target = _resolve_target(cfg)
    t_scalar = scalar_value(target.value)

    draws = sample_iid(cfg.dist, cfg.n, cfg.seed)
    prepared = prepare_ident_realizations(cfg.ident, draws)
    (est0,), (se0,) = expected_ident_curve(cfg.ident, [t_scalar], prepared)
    est0, se0 = float(est0), float(se0)

    zs = _grid(cfg)
    vmeans, vses = expected_ident_curve(cfg.ident, zs, prepared)

    # A Monte Carlo target misses the true zero by se_t; the expected
    # identification value moves by (local slope) x that much.
    se_t = float(target.stderr) if not isinstance(target.stderr, (tuple, list)) else 0.0
    if se_t > 0.0:
        delta = float(zs[1] - zs[0])
        (v_lo, v_hi), _ = expected_ident_curve(
            cfg.ident, [t_scalar - delta, t_scalar + delta], prepared)
        slope = float(v_hi - v_lo) / (2.0 * delta)
        se0 = math.hypot(se0, abs(slope) * se_t)
    zero_ok = abs(est0) <= max(3.0 * se0, 1e-12)
    flat_tol = max(cfg.tol_abs, cfg.tol_rel * max(1.0, abs(t_scalar)))
    far = np.abs(zs - t_scalar) > flat_tol
    nonzero_ok = bool(np.all(np.abs(vmeans[far]) > 3.0 * vses[far]))

    # The expected value must keep one sign on each side of the truth and
    # flip across it (orientation, in either direction).
    above = far & (zs > t_scalar)
    below = far & (zs < t_scalar)
    sides_ok = True
    if above.any() and below.any():
        hi = np.sign(vmeans[above])
        lo = np.sign(vmeans[below])
        sides_ok = bool(np.all(hi == hi[0]) and np.all(lo == lo[0]) and hi[0] == -lo[0])

    notes = f"t*={t_scalar:.6g}; |E[V(t*)]|={abs(est0):.3g} vs 3se={3 * se0:.3g}; " \
            f"nonzero+sign-flip at {int(np.sum(far))} grid points"
    return VerificationReport(
        check=cfg.name, passed=bool(zero_ok and nonzero_ok and sides_ok),
        estimate=est0, target=0.0, stderr=se0, tol_abs=cfg.tol_abs,
        tol_rel=cfg.tol_rel, seed=cfg.seed, wall_ms=0.0, notes=notes)


@_timed
def check_revelation(cfg: CheckConfig) -> VerificationReport:
    """Prediction reparameterization: argmin moves to g(base argmin)."""
    if cfg.score.transform.mode != "none":
        raise ParameterError("revelation check starts from an untransformed score")
    if not isinstance(cfg.g, Bijection) or cfg.g.inverse is None:
        raise ParameterError("revelation check requires an invertible Bijection")

    base, se_base = _consistency_body(cfg, cfg.score, _resolve_target(cfg),
                                      cfg.bracket, cfg.name + "/base")
    if not base.passed:
        return replace(base, check=cfg.name, passed=False,
                       notes="base consistency failed: " + base.notes)
    z_base = float(base.estimate)

    g = cfg.g
    lo, hi = float(g.apply(cfg.bracket.lo)), float(g.apply(cfg.bracket.hi))
    trans_bracket = Bracket(min(lo, hi), max(lo, hi))
    trans_score = cfg.score.with_transform(TransformMode.prediction_only(g))

    draws = sample_iid(cfg.dist, cfg.n, derive_seed(cfg.seed, 1))
    prepared = prepare_realizations(trans_score, draws)
    zs = np.linspace(trans_bracket.lo, trans_bracket.hi, cfg.points)
    z_trans = _polished_argmin(trans_score, zs, prepared, trans_bracket)

    target = float(g.apply(z_base))
    # Both argmins carry Monte Carlo noise; the base error maps through g'.
    se = math.hypot(abs(float(g.deriv(z_base))) * se_base,
                    _argmin_stderr(trans_score, z_trans, zs, prepared))
    tol = _tolerance(cfg, target, se)
    passed = abs(z_trans - target) <= tol
    return VerificationReport(
        check=cfg.name, passed=bool(passed), estimate=z_trans, target=target,
        stderr=se, tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel, seed=cfg.seed,
        wall_ms=0.0, notes=f"base argmin={z_base:.6g}; transformed argmin={z_trans:.6g}")


@_timed
def check_realization_transform(cfg: CheckConfig) -> VerificationReport:
    """Scoring transformed realizations relocates the argmin to the
    functional of the transformed variable. The map need not be bijective."""
    if cfg.score.transform.mode != "none":
        raise ParameterError("realization check starts from an untransformed score")
    score = cfg.score.with_transform(TransformMode.realization_only(cfg.g))

    if cfg.target is not None:
        target = _resolve_target(cfg)
    else:
        target = _transformed_functional(cfg)
    return _consistency_body(cfg, score, target, cfg.bracket, cfg.name)[0]


def _transformed_functional(cfg: CheckConfig) -> FunctionalValue:
    """Functional of the law of g(Y), via pushforward or transformed draws."""
    from .functionals import pushforward_law

    if isinstance(cfg.g, Bijection):
        law = pushforward_law(cfg.dist, cfg.g)
        if law is not None:
            return functional_value(cfg.functional, law, n=cfg.n, seed=derive_seed(cfg.seed, 7919))
    draws = sample_iid(cfg.dist, cfg.n, derive_seed(cfg.seed, 7919))
    w = cfg.g.apply(draws) if isinstance(cfg.g, Bijection) else np.asarray(cfg.g(draws), float)
    fv = functional_value(cfg.functional, Empirical(w),
                          n=cfg.n, seed=derive_seed(cfg.seed, 7920))
    if isinstance(fv.stderr, float) and fv.stderr == 0.0:
        # exact on the empirical law, but the draws themselves carry noise
        se = float(np.std(w, ddof=1) / math.sqrt(w.size))
        fv = FunctionalValue(fv.value, se, "mc", notes="transformed-draw estimate")
    return fv


@_timed
def check_pair_consistency(cfg: CheckConfig) -> VerificationReport:
    """Mean-variance pair: score argmin and identification zero at
    (E[g(Y)], Var[g(Y)])."""
    if cfg.score.family != "mv":
        raise ParameterError("pair check requires the mean-variance score")
    if cfg.bracket2.lo <= 0:
        raise ParameterError("variance bracket must be positive")

    target = _resolve_target(cfg)
    t1, t2 = (float(v) for v in target.value)
    se_t1, se_t2 = (float(s) for s in (target.stderr if isinstance(target.stderr, (tuple, list))
                                       else (target.stderr, target.stderr)))

    draws = sample_iid(cfg.dist, cfg.n, cfg.seed)
    prepared = prepare_realizations(cfg.score, draws)

    # Coarse grid, then simplex polish over (x1, log x2).
    side = max(9, int(math.isqrt(cfg.points)))
    x1s = np.linspace(cfg.bracket.lo, cfg.bracket.hi, side)
    x2s = np.linspace(cfg.bracket2.lo, cfg.bracket2.hi, side)
    grid = np.array([(x1, x2) for x1 in x1s for x2 in x2s])
    best = grid[int(np.argmin(expected_score_curve(cfg.score, grid, prepared)))]

    def obj(theta):
        return expected_score(cfg.score, (theta[0], math.exp(theta[1])), prepared)

    res = _scipy_minimize(obj, np.array([best[0], math.log(best[1])]), method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    x1_star, x2_star = float(res.x[0]), float(math.exp(res.x[1]))

    # The empirical pair argmin is the sample (mean, variance) of the
    # transformed draws; combine its sampling error with the target's.
    w = np.asarray(prepared.y, dtype=float)
    v_hat = float(np.var(w, ddof=1))
    m4 = float(np.mean((w - np.mean(w)) ** 4))
    se1 = math.hypot(se_t1, float(np.std(w, ddof=1) / math.sqrt(cfg.n)))
    se2 = math.hypot(se_t2, math.sqrt(max(m4 - v_hat * v_hat, 0.0) / cfg.n))
    tol1 = _tolerance(cfg, t1, se1)
    tol2 = _tolerance(cfg, t2, se2)
    argmin_ok = abs(x1_star - t1) <= tol1 and abs(x2_star - t2) <= tol2

    ident = IdentSpec("mv", transform=cfg.score.transform)
    ident_prep = prepare_ident_realizations(ident, draws)
    v1, v2 = ident_values(ident, (t1, t2), ident_prep)
    e1, e2 = float(np.mean(v1)), float(np.mean(v2))
    s1 = float(np.std(v1, ddof=1) / math.sqrt(cfg.n))
    s2 = float(np.std(v2, ddof=1) / math.sqrt(cfg.n))
    # A Monte Carlo target misses the true zero: E[V1] moves by the error of
    # t1, E[V2] by that of t2 plus 2 t1 times that of t1 (their covariance
    # bounded by Cauchy-Schwarz).
    s1 = math.hypot(s1, se_t1)
    s2 = math.hypot(s2, se_t2 + 2.0 * abs(t1) * se_t1)
    ident_ok = abs(e1) <= max(3 * s1, 1e-12) and abs(e2) <= max(3 * s2, 1e-12)

    notes = (f"argmin=({x1_star:.6g}, {x2_star:.6g}); "
             f"E[V]=({e1:.3g}±{s1:.2g}, {e2:.3g}±{s2:.2g})")
    return VerificationReport(
        check=cfg.name, passed=bool(argmin_ok and ident_ok),
        estimate=(x1_star, x2_star), target=(t1, t2), stderr=(se1, se2),
        tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel, seed=cfg.seed, wall_ms=0.0, notes=notes)


_CHECKS = {
    "consistency": check_consistency,
    "strictness": check_strictness,
    "identification": check_identification,
    "pair": check_pair_consistency,
    "revelation": check_revelation,
    "realization": check_realization_transform,
}


def run_check(cfg: CheckConfig) -> VerificationReport:
    return _CHECKS[cfg.kind](cfg)


def _run_guarded(cfg: CheckConfig) -> VerificationReport:
    """Run one check; any exception becomes an error report, so one check
    that goes wrong (a package error, or a numpy/scipy/user-callable failure)
    never takes the suite down."""
    try:
        return run_check(cfg)
    except Exception as exc:
        return VerificationReport(
            check=cfg.name, passed=False, estimate=None, target=None,
            stderr=0.0, tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel, seed=cfg.seed,
            wall_ms=0.0, notes=f"error: {exc}",
            error={"type": type(exc).__name__, "message": str(exc)})


def run_suite(configs, parallelism: int = 1):
    """Run all checks; output order equals input order regardless of
    scheduling. Individual failures never abort the suite."""
    configs = list(configs)
    if parallelism <= 1 or len(configs) <= 1:
        return [_run_guarded(cfg) for cfg in configs]
    with ThreadPoolExecutor(max_workers=int(parallelism)) as pool:
        return list(pool.map(_run_guarded, configs))


def as_expected(cfg: CheckConfig, report: VerificationReport) -> bool:
    """The check gave its expected verdict; an errored check never did."""
    return report.error is None and report.passed == cfg.expect_pass


def suite_passed(configs, reports) -> bool:
    return all(as_expected(c, r) for c, r in zip(configs, reports))


# ---------------------------------------------------------------------------
# Built-in suites
# ---------------------------------------------------------------------------

def builtin_suite(name: str, seed: Seed = 42):
    if name == "paper-core":
        return _paper_core_suite(seed)
    if name == "smoke":
        return _smoke_suite(seed)
    raise SpecParseError(f"unknown builtin suite {name!r}; available: paper-core, smoke")


def _paper_core_suite(seed: Seed):
    """The core certification battery over the catalog families."""
    from .specs import parse_functional, parse_score, parse_ident

    items = []

    def add(name, kind, dist, bracket, n, *, score=None, ident=None,
            functional="mean", target=None, bracket2=None, points=201,
            tol_abs=1e-3, tol_rel=0.02, g=None, expect_pass=True):
        items.append(CheckConfig(
            name=name, kind=kind, dist=dist,
            functional=parse_functional(functional) if isinstance(functional, str) else functional,
            bracket=Bracket(*bracket), n=int(n), seed=derive_seed(seed, len(items)),
            score=parse_score(score) if isinstance(score, str) else score,
            ident=parse_ident(ident) if isinstance(ident, str) else ident,
            bracket2=Bracket(*bracket2) if bracket2 else None, points=points,
            tol_abs=tol_abs, tol_rel=tol_rel, target=target, g=g,
            expect_pass=expect_pass))

    logn01 = Lognormal(0.0, 1.0)
    exp1 = Exponential(1.0)
    unif01 = Uniform(0.0, 1.0)
    norm01 = Normal(0.0, 1.0)

    # Transformed squared error on a log-normal: argmin exp(a/2) for each a.
    for a in (-1.0, 0.2, 0.5, 1.0, 2.0):
        t = math.exp(a / 2.0)
        add(f"cons/power-a={a:g}", "consistency", logn01, (t / 3.0, t * 3.0), 10**6,
            score=f"se@both:power({a:g})", functional=f"gmean:g=power({a:g})")

    add("cons/se-normal", "consistency", norm01, (-2.0, 2.0), 10**6,
        score="se", functional="mean")
    add("cons/apl-negate", "consistency", exp1, (0.3, 4.0), 4 * 10**6,
        score="apl:tau=0.25@both:negate", functional="quantile:tau=0.75")
    add("cons/se-both-log", "consistency", logn01, (0.3, 3.0), 10**6,
        score="se@both:log", functional="gmean:g=log")
    add("cons/expectile-half-both-log", "consistency", logn01, (0.3, 3.0), 10**6,
        score="expectile:tau=0.5:phi=square@both:log", functional="gexpectile:tau=0.5:g=log")

    add("rev/se-exp", "revelation", norm01, (-2.0, 2.0), 10**6,
        score="se", functional="mean", g=catalog("exp"))
    add("real/se-log", "realization", Lognormal(0.3, 1.0), (-1.0, 1.5), 10**6,
        score="se", functional="mean", g=catalog("log"), tol_abs=0.01)

    add("strict/se-normal", "strictness", norm01, (-2.0, 2.0), 10**6,
        score="se", functional="mean")
    add("strict/median-even-empirical", "strictness", Empirical((1.0, 1.0, 2.0, 2.0)),
        (0.5, 2.5), 10**5, score="gpl:tau=0.5:g=identity", functional="quantile:tau=0.5",
        expect_pass=False)
    add("strict/expectile-uniform", "strictness", unif01, (0.05, 0.95), 10**6,
        score="expectile:tau=0.75:phi=square", functional="expectile:tau=0.75")

    # Ten identification pairings (zero at truth + oriented nonzero away).
    add("ident/mean-normal", "identification", norm01, (-1.0, 1.0), 10**6,
        ident="mean", functional="mean")
    add("ident/mean-uniform", "identification", unif01, (0.05, 0.95), 10**6,
        ident="mean", functional="mean")
    add("ident/mean-exponential", "identification", exp1, (0.2, 3.0), 10**6,
        ident="mean", functional="mean")
    add("ident/quantile-0.5-exponential", "identification", exp1, (0.1, 2.5), 4 * 10**6,
        ident="quantile:tau=0.5", functional="quantile:tau=0.5")
    add("ident/quantile-0.9-exponential", "identification", exp1, (1.0, 4.0), 4 * 10**6,
        ident="quantile:tau=0.9", functional="quantile:tau=0.9")
    add("ident/quantile-0.75-uniform", "identification", unif01, (0.1, 0.999), 4 * 10**6,
        ident="quantile:tau=0.75", functional="quantile:tau=0.75")
    add("ident/expectile-0.75-uniform", "identification", unif01, (0.05, 0.95), 10**6,
        ident="expectile:tau=0.75", functional="expectile:tau=0.75")
    add("ident/mean-both-log-lognormal", "identification", logn01, (0.3, 3.0), 10**6,
        ident="mean@both:log", functional="gmean:g=log")
    add("ident/median-both-exp-normal", "identification", norm01, (-1.5, 1.5), 4 * 10**6,
        ident="quantile:tau=0.5@both:exp", functional="quantile:tau=0.5")
    add("ident/expectile-0.75-both-log-lognormal", "identification", logn01, (0.5, 3.5), 10**6,
        ident="expectile:tau=0.75@both:log", functional="gexpectile:tau=0.75:g=log")

    add("pair/mv-log-lognormal", "pair", Lognormal(0.5, 2.0), (-0.5, 1.5), 10**6,
        score="mv@realization:log", functional="mvpair:g=log",
        bracket2=(1.0, 8.0), tol_rel=0.03)

    return items


def _smoke_suite(seed: Seed):
    """A fast sanity battery used by CLI tests."""
    from .specs import parse_functional, parse_score, parse_ident

    norm01 = Normal(0.0, 1.0)
    return [
        CheckConfig(name="smoke/se-normal", kind="consistency", dist=norm01,
                    functional=parse_functional("mean"), bracket=Bracket(-2.0, 2.0),
                    n=5 * 10**4, seed=derive_seed(seed, 0),
                    score=parse_score("se"), points=101, tol_abs=0.02),
        CheckConfig(name="smoke/ident-mean", kind="identification", dist=norm01,
                    functional=parse_functional("mean"), bracket=Bracket(-1.0, 1.0),
                    n=5 * 10**4, seed=derive_seed(seed, 1),
                    ident=parse_ident("mean"), points=41, tol_abs=0.05),
        CheckConfig(name="smoke/apl-uniform", kind="consistency", dist=Uniform(0.0, 1.0),
                    functional=parse_functional("quantile:tau=0.9"),
                    bracket=Bracket(0.4, 0.999), n=10**5, seed=derive_seed(seed, 2),
                    score=parse_score("apl:tau=0.9"), points=101, tol_abs=0.02),
    ]


def load_suite_file(path: str, seed: Seed):
    """Parse a suite file: one check per line of key=value tokens.

    Keys: kind, dist, functional, bracket=lo,hi, n, and optionally name,
    score, ident, g, bracket2, points, tol_abs, tol_rel, target, seed,
    expect=pass|fail. Lines starting with '#' are comments.
    """
    from .specs import parse_dist, parse_functional, parse_ident, parse_score, parse_suite_line
    from .specs import parse_bijection

    configs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                kv = parse_suite_line(line)
                kind = kv.pop("kind")
                dist = parse_dist(kv.pop("dist"))
                functional = parse_functional(kv.pop("functional"))
                lo, hi = (float(v) for v in kv.pop("bracket").split(","))
                cfg = CheckConfig(
                    name=kv.pop("name", f"line{lineno}"),
                    kind=kind, dist=dist, functional=functional,
                    bracket=Bracket(lo, hi),
                    n=int(float(kv.pop("n", "1000000"))),
                    seed=int(kv.pop("seed")) if "seed" in kv else derive_seed(seed, len(configs)),
                    score=parse_score(kv.pop("score")) if "score" in kv else None,
                    ident=parse_ident(kv.pop("ident")) if "ident" in kv else None,
                    bracket2=Bracket(*(float(v) for v in kv.pop("bracket2").split(",")))
                    if "bracket2" in kv else None,
                    points=int(kv.pop("points", "201")),
                    tol_abs=float(kv.pop("tol_abs", "1e-3")),
                    tol_rel=float(kv.pop("tol_rel", "0.02")),
                    target=float(kv.pop("target")) if "target" in kv else None,
                    g=parse_bijection(kv.pop("g")) if "g" in kv else None,
                    expect_pass=kv.pop("expect", "pass") == "pass",
                )
                if kv:
                    raise SpecParseError(f"unknown keys {sorted(kv)}")
                configs.append(cfg)
            except KeyError as exc:
                raise SpecParseError(f"{path}:{lineno}: missing required key {exc}") from exc
            except (ElicitError, ValueError) as exc:
                raise SpecParseError(f"{path}:{lineno}: {exc}") from exc
    return configs
