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

from .distributions import DistributionSpec, sample_iid
from .errors import BracketingError, ElicitError, ParameterError, SpecParseError
from .functionals import (FunctionalSpec, FunctionalValue, functional_from_draws,
                          functional_value, pushforward_law, sample_mv_pair, scalar_value)
from .identification import IdentSpec, expected_ident_curve, ident_values, prepare_ident_realizations
from .intervals import Interval
from .numerics import Bracket, Seed, check_seed, derive_seed, mean_stderr, minimize1d
from .scoring import (ScoreSpec, TransformMode, expected_score, expected_score_curve,
                      mv_vertex, prepare_realizations, score_diff_stats)
from .specs import (parse_bijection, parse_bracket, parse_dist, parse_functional, parse_ident,
                    parse_score, parse_suite_line)
from .transforms import Bijection

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
        for name in ("n", "points"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.n < MIN_N:
            raise ParameterError(f"checks need n >= {MIN_N}, got {self.n}")
        if self.points < 5:
            raise ParameterError("grid needs at least 5 points")
        for name, tol in (("tol_abs", self.tol_abs), ("tol_rel", self.tol_rel)):
            if not 0.0 <= tol < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {tol}")
        if self.kind == "identification":
            if self.ident is None:
                raise ParameterError("identification check requires an ident spec")
            if self.ident.family == "mv":
                raise ParameterError("identification check sweeps scalar predictions; "
                                     "the mean-variance pair is checked by kind=pair")
        elif self.score is None:
            raise ParameterError(f"{self.kind} check requires a score spec")
        elif self.kind == "pair":
            if self.score.family != "mv":
                raise ParameterError("pair check requires the mean-variance score")
            if self.bracket2 is None:
                raise ParameterError("pair check requires a variance bracket (bracket2)")
            if self.bracket2.lo <= 0:
                raise ParameterError("variance bracket must be positive")
        elif self.score.family == "mv":
            raise ParameterError(f"{self.kind} check sweeps scalar predictions; mean-variance "
                                 "predictions are (x1, x2) pairs, checked by kind=pair")
        if self.kind in ("revelation", "realization"):
            if self.g is None:
                raise ParameterError(f"{self.kind} check requires a transformation g")
            if self.score.transform.mode != "none":
                raise ParameterError(f"{self.kind} check starts from an untransformed score")
        if self.kind == "revelation" and (not isinstance(self.g, Bijection)
                                          or self.g.inverse is None):
            raise ParameterError("revelation check requires an invertible Bijection")


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


def _target_se(target: FunctionalValue) -> float:
    """The stderr of a scalar target (0 for a pair's)."""
    return float(target.stderr) if not isinstance(target.stderr, (tuple, list)) else 0.0


def _swept_argmin(cfg: CheckConfig, score: ScoreSpec, bracket: Bracket, seed: Seed):
    """Draws, prepared realizations, grid, and the grid argmin refined by
    bracketed search between its neighbors: returns (prepared, zs, argmin)."""
    prepared = prepare_realizations(score, sample_iid(cfg.dist, cfg.n, seed))
    zs = np.linspace(bracket.lo, bracket.hi, cfg.points)
    i = int(np.argmin(expected_score_curve(score, zs, prepared)))
    if i == 0 or i == len(zs) - 1:
        raise BracketingError(
            f"expected-score minimum at grid endpoint z={zs[i]:.6g}; "
            f"bracket [{bracket.lo:.6g}, {bracket.hi:.6g}] likely excludes the minimizer")

    def esc(z: float) -> float:
        return expected_score(score, z, prepared)

    tol = max(1e-9, 1e-6 * max(1.0, abs(zs[i])))
    return prepared, zs, minimize1d(esc, Bracket(zs[i - 1], zs[i + 1]), tol)


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


def _report(cfg: CheckConfig, passed, estimate, target, stderr, notes: str,
            error: dict | None = None) -> VerificationReport:
    """The report of ``cfg``'s check; name, tolerances and seed come from ``cfg``."""
    return VerificationReport(
        check=cfg.name, passed=bool(passed), estimate=estimate, target=target, stderr=stderr,
        tol_abs=cfg.tol_abs, tol_rel=cfg.tol_rel, seed=cfg.seed, wall_ms=0.0, notes=notes,
        error=error)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(cfg: CheckConfig) -> VerificationReport:
        t0 = time.perf_counter()
        rpt = fn(cfg)
        ms = (time.perf_counter() - t0) * 1000.0
        return replace(rpt, wall_ms=ms)

    return wrapper


def _consistency_body(cfg: CheckConfig, score: ScoreSpec, target: FunctionalValue,
                      bracket: Bracket):
    """Shared argmin-vs-target machinery; returns (report, argmin stderr)."""
    prepared, zs, z_star = _swept_argmin(cfg, score, bracket, cfg.seed)

    t_scalar = scalar_value(target.value)
    # Total Monte Carlo uncertainty: target noise plus argmin localization.
    se_argmin = _argmin_stderr(score, z_star, zs, prepared)
    se = math.hypot(_target_se(target), se_argmin)
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
    return _report(cfg, dist_ok and ineq_ok, z_star, target.value, se, notes), se_argmin


@_timed
def check_consistency(cfg: CheckConfig) -> VerificationReport:
    """Does the expected score minimize at the functional's value?"""
    target = _resolve_target(cfg)
    return _consistency_body(cfg, cfg.score, target, cfg.bracket)[0]


@_timed
def check_strictness(cfg: CheckConfig) -> VerificationReport:
    """Is the expected-score minimum unique beyond noise?

    Fails when any grid point farther than the tolerance from the empirical
    minimizer is not significantly above the minimum.
    """
    prepared, zs, z_star = _swept_argmin(cfg, cfg.score, cfg.bracket, cfg.seed)

    flat_tol = max(cfg.tol_abs, cfg.tol_rel * max(1.0, abs(z_star)))
    dmean, dse = score_diff_stats(cfg.score, z_star, zs, prepared)
    rise = -dmean  # mean of S(z) - S(z*) >= 0
    far = np.abs(zs - z_star) > flat_tol
    strict_ok = bool(np.all(rise[far] > 3.0 * dse[far]))
    n_flat = int(np.sum(~(rise[far] > 3.0 * dse[far])))

    target = _resolve_target(cfg)
    notes = f"argmin={z_star:.6g}; flat-tol={flat_tol:.4g}; " \
            f"non-strict points beyond tol: {n_flat}/{int(np.sum(far))}"
    return _report(cfg, strict_ok, z_star, target.value, _target_se(target), notes)


@_timed
def check_identification(cfg: CheckConfig) -> VerificationReport:
    """Is E[V] zero exactly at the truth, nonzero and oriented elsewhere?"""
    target = _resolve_target(cfg)
    t_scalar = scalar_value(target.value)

    prepared = prepare_ident_realizations(cfg.ident, sample_iid(cfg.dist, cfg.n, cfg.seed))
    (est0,), (se0,) = expected_ident_curve(cfg.ident, [t_scalar], prepared)
    est0, se0 = float(est0), float(se0)

    zs = np.linspace(cfg.bracket.lo, cfg.bracket.hi, cfg.points)
    vmeans, vses = expected_ident_curve(cfg.ident, zs, prepared)

    # A Monte Carlo target misses the true zero by se_t; the expected
    # identification value moves by (local slope) x that much.
    se_t = _target_se(target)
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
    return _report(cfg, zero_ok and nonzero_ok and sides_ok, est0, 0.0, se0, notes)


@_timed
def check_revelation(cfg: CheckConfig) -> VerificationReport:
    """Prediction reparameterization: argmin moves to g(base argmin)."""
    base, se_base = _consistency_body(cfg, cfg.score, _resolve_target(cfg), cfg.bracket)
    if not base.passed:
        return replace(base, notes="base consistency failed: " + base.notes)
    z_base = float(base.estimate)

    g = cfg.g
    lo, hi = float(g.apply(cfg.bracket.lo)), float(g.apply(cfg.bracket.hi))
    trans_bracket = Bracket(min(lo, hi), max(lo, hi))
    trans_score = cfg.score.with_transform(TransformMode.prediction_only(g))

    prepared, zs, z_trans = _swept_argmin(cfg, trans_score, trans_bracket,
                                          derive_seed(cfg.seed, 1))

    target = float(g.apply(z_base))
    # Both argmins carry Monte Carlo noise; the base error maps through g'.
    se = math.hypot(abs(float(g.deriv(z_base))) * se_base,
                    _argmin_stderr(trans_score, z_trans, zs, prepared))
    tol = _tolerance(cfg, target, se)
    return _report(cfg, abs(z_trans - target) <= tol, z_trans, target, se,
                   f"base argmin={z_base:.6g}; transformed argmin={z_trans:.6g}")


@_timed
def check_realization_transform(cfg: CheckConfig) -> VerificationReport:
    """Scoring transformed realizations relocates the argmin to the
    functional of the transformed variable. The map need not be bijective."""
    score = cfg.score.with_transform(TransformMode.realization_only(cfg.g))

    if cfg.target is not None:
        target = _resolve_target(cfg)
    else:
        target = _transformed_functional(cfg, score.transform)
    return _consistency_body(cfg, score, target, cfg.bracket)[0]


def _transformed_functional(cfg: CheckConfig, transform: TransformMode) -> FunctionalValue:
    """Functional of the law of g(Y), via pushforward or transformed draws."""
    if isinstance(cfg.g, Bijection):
        law = pushforward_law(cfg.dist, cfg.g)
        if law is not None:
            return functional_value(cfg.functional, law, n=cfg.n, seed=derive_seed(cfg.seed, 7919))
    w = transform.realization(sample_iid(cfg.dist, cfg.n, derive_seed(cfg.seed, 7919)))
    return functional_from_draws(cfg.functional, w)


@_timed
def check_pair_consistency(cfg: CheckConfig) -> VerificationReport:
    """Mean-variance pair: score argmin and identification zero at
    (E[g(Y)], Var[g(Y)])."""
    target = _resolve_target(cfg)
    t1, t2 = (float(v) for v in target.value)
    se_t1, se_t2 = (float(s) for s in (target.stderr if isinstance(target.stderr, (tuple, list))
                                       else (target.stderr, target.stderr)))

    prepared = prepare_realizations(cfg.score, sample_iid(cfg.dist, cfg.n, cfg.seed))
    x1_star, x2_star = mv_vertex(cfg.score, prepared)
    if not (cfg.bracket.lo <= x1_star <= cfg.bracket.hi
            and cfg.bracket2.lo <= x2_star <= cfg.bracket2.hi):
        raise BracketingError(f"mean-variance vertex ({x1_star:.6g}, {x2_star:.6g}) outside "
                              f"bracket [{cfg.bracket.lo:.6g}, {cfg.bracket.hi:.6g}] x bracket2 "
                              f"[{cfg.bracket2.lo:.6g}, {cfg.bracket2.hi:.6g}]")

    # The empirical pair argmin is the sample (mean, variance) of the
    # transformed draws; combine its sampling error with the target's.
    se_m, se_v = sample_mv_pair(prepared.y).stderr
    se1 = math.hypot(se_t1, se_m)
    se2 = math.hypot(se_t2, se_v)
    tol1 = _tolerance(cfg, t1, se1)
    tol2 = _tolerance(cfg, t2, se2)
    argmin_ok = abs(x1_star - t1) <= tol1 and abs(x2_star - t2) <= tol2

    # The score's prepared draws are the identification's effective draws.
    v1, v2 = ident_values(IdentSpec("mv", transform=cfg.score.transform), (t1, t2), prepared)
    e1, e2 = float(np.mean(v1)), float(np.mean(v2))
    s1, s2 = mean_stderr(v1), mean_stderr(v2)
    # A Monte Carlo target misses the true zero: E[V1] moves by the error of
    # t1, E[V2] by that of t2 plus 2 t1 times that of t1 (their covariance
    # bounded by Cauchy-Schwarz).
    s1 = math.hypot(s1, se_t1)
    s2 = math.hypot(s2, se_t2 + 2.0 * abs(t1) * se_t1)
    ident_ok = abs(e1) <= max(3 * s1, 1e-12) and abs(e2) <= max(3 * s2, 1e-12)

    notes = (f"argmin=({x1_star:.6g}, {x2_star:.6g}); "
             f"E[V]=({e1:.3g}±{s1:.2g}, {e2:.3g}±{s2:.2g})")
    return _report(cfg, argmin_ok and ident_ok, (x1_star, x2_star), (t1, t2), (se1, se2), notes)


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
    that goes wrong (a package error, or a failure in a library or a user callable)
    never takes the suite down."""
    try:
        return run_check(cfg)
    except Exception as exc:
        return _report(cfg, False, None, None, 0.0, f"error: {exc}",
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
# Suites: lines of key=value tokens, from a file or built in
# ---------------------------------------------------------------------------

# Transformed squared error on a log-normal: argmin exp(a/2) for each a.
_POWER_LINES = tuple(
    f"name=cons/power-a={a:g} kind=consistency dist=lognormal(0,1) "
    f"score=se@both:power({a:g}) functional=gmean:g=power({a:g}) "
    f"bracket={math.exp(a / 2.0) / 3.0!r},{math.exp(a / 2.0) * 3.0!r} n=1000000"
    for a in (-1.0, 0.2, 0.5, 1.0, 2.0))

# The core certification battery over the catalog families.
_PAPER_CORE = _POWER_LINES + (
    "name=cons/se-normal kind=consistency dist=normal(0,1) score=se functional=mean "
    "bracket=-2,2 n=1000000",
    "name=cons/apl-negate kind=consistency dist=exponential(1) score=apl:tau=0.25@both:negate "
    "functional=quantile:tau=0.75 bracket=0.3,4 n=4000000",
    "name=cons/se-both-log kind=consistency dist=lognormal(0,1) score=se@both:log "
    "functional=gmean:g=log bracket=0.3,3 n=1000000",
    "name=cons/expectile-half-both-log kind=consistency dist=lognormal(0,1) "
    "score=expectile:tau=0.5:phi=square@both:log functional=gexpectile:tau=0.5:g=log "
    "bracket=0.3,3 n=1000000",
    "name=rev/se-exp kind=revelation dist=normal(0,1) score=se functional=mean g=exp "
    "bracket=-2,2 n=1000000",
    "name=real/se-log kind=realization dist=lognormal(0.3,1) score=se functional=mean g=log "
    "bracket=-1,1.5 n=1000000 tol_abs=0.01",
    "name=strict/se-normal kind=strictness dist=normal(0,1) score=se functional=mean "
    "bracket=-2,2 n=1000000",
    "name=strict/median-even-empirical kind=strictness dist=empirical(1,1,2,2) "
    "score=gpl:tau=0.5:g=identity functional=quantile:tau=0.5 bracket=0.5,2.5 n=100000 "
    "expect=fail",
    "name=strict/expectile-uniform kind=strictness dist=uniform(0,1) "
    "score=expectile:tau=0.75:phi=square functional=expectile:tau=0.75 bracket=0.05,0.95 "
    "n=1000000",
    # Ten identification pairings (zero at truth + oriented nonzero away).
    "name=ident/mean-normal kind=identification dist=normal(0,1) ident=mean functional=mean "
    "bracket=-1,1 n=1000000",
    "name=ident/mean-uniform kind=identification dist=uniform(0,1) ident=mean functional=mean "
    "bracket=0.05,0.95 n=1000000",
    "name=ident/mean-exponential kind=identification dist=exponential(1) ident=mean "
    "functional=mean bracket=0.2,3 n=1000000",
    "name=ident/quantile-0.5-exponential kind=identification dist=exponential(1) "
    "ident=quantile:tau=0.5 functional=quantile:tau=0.5 bracket=0.1,2.5 n=4000000",
    "name=ident/quantile-0.9-exponential kind=identification dist=exponential(1) "
    "ident=quantile:tau=0.9 functional=quantile:tau=0.9 bracket=1,4 n=4000000",
    "name=ident/quantile-0.75-uniform kind=identification dist=uniform(0,1) "
    "ident=quantile:tau=0.75 functional=quantile:tau=0.75 bracket=0.1,0.999 n=4000000",
    "name=ident/expectile-0.75-uniform kind=identification dist=uniform(0,1) "
    "ident=expectile:tau=0.75 functional=expectile:tau=0.75 bracket=0.05,0.95 n=1000000",
    "name=ident/mean-both-log-lognormal kind=identification dist=lognormal(0,1) "
    "ident=mean@both:log functional=gmean:g=log bracket=0.3,3 n=1000000",
    "name=ident/median-both-exp-normal kind=identification dist=normal(0,1) "
    "ident=quantile:tau=0.5@both:exp functional=quantile:tau=0.5 bracket=-1.5,1.5 n=4000000",
    "name=ident/expectile-0.75-both-log-lognormal kind=identification dist=lognormal(0,1) "
    "ident=expectile:tau=0.75@both:log functional=gexpectile:tau=0.75:g=log "
    "bracket=0.5,3.5 n=1000000",
    "name=pair/mv-log-lognormal kind=pair dist=lognormal(0.5,2) score=mv@realization:log "
    "functional=mvpair:g=log bracket=-0.5,1.5 bracket2=1,8 n=1000000 tol_rel=0.03",
)

# A fast sanity battery used by CLI tests.
_SMOKE = (
    "name=smoke/se-normal kind=consistency dist=normal(0,1) score=se functional=mean "
    "bracket=-2,2 n=50000 points=101 tol_abs=0.02",
    "name=smoke/ident-mean kind=identification dist=normal(0,1) ident=mean functional=mean "
    "bracket=-1,1 n=50000 points=41 tol_abs=0.05",
    "name=smoke/apl-uniform kind=consistency dist=uniform(0,1) score=apl:tau=0.9 "
    "functional=quantile:tau=0.9 bracket=0.4,0.999 n=100000 points=101 tol_abs=0.02",
)

_BUILTIN_SUITES = {"paper-core": _PAPER_CORE, "smoke": _SMOKE}


def builtin_suite(name: str, seed: Seed = 42):
    """The checks of builtin suite ``name``, seeded from ``seed``."""
    if name not in _BUILTIN_SUITES:
        raise SpecParseError(f"unknown builtin suite {name!r}; available: paper-core, smoke")
    return _parse_suite(_BUILTIN_SUITES[name], seed, f"builtin:{name}")


def load_suite_file(path: str, seed: Seed):
    """Parse a suite file: one check per line of key=value tokens.

    Keys: kind, dist, functional, bracket=lo,hi, and optionally n (default
    1e6), name, score, ident, g, bracket2, points, tol_abs, tol_rel, target,
    seed, expect=pass|fail. Lines starting with '#' are comments. A file
    that cannot be read, or is not UTF-8 text, raises SpecParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_suite(fh, seed, path)
    except OSError as exc:
        raise SpecParseError(f"cannot read suite file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_suite(lines, seed: Seed, source: str):
    """CheckConfigs from suite lines; a check without ``seed=`` gets child
    seed i of ``seed``, i its position among the checks. A bad line raises
    SpecParseError naming ``source:lineno``."""
    configs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kv = parse_suite_line(line)
            expect = kv.pop("expect", "pass")
            if expect not in ("pass", "fail"):
                raise SpecParseError(f"expect must be pass or fail, got {expect!r}")
            cfg = CheckConfig(
                name=kv.pop("name", f"line{lineno}"),
                kind=kv.pop("kind"),
                dist=parse_dist(kv.pop("dist")),
                functional=parse_functional(kv.pop("functional")),
                bracket=parse_bracket(kv.pop("bracket")),
                n=float(kv.pop("n", "1000000")),
                seed=int(kv.pop("seed")) if "seed" in kv else derive_seed(seed, len(configs)),
                score=parse_score(kv.pop("score")) if "score" in kv else None,
                ident=parse_ident(kv.pop("ident")) if "ident" in kv else None,
                bracket2=parse_bracket(kv.pop("bracket2")) if "bracket2" in kv else None,
                points=float(kv.pop("points", "201")),
                tol_abs=float(kv.pop("tol_abs", "1e-3")),
                tol_rel=float(kv.pop("tol_rel", "0.02")),
                target=float(kv.pop("target")) if "target" in kv else None,
                g=parse_bijection(kv.pop("g")) if "g" in kv else None,
                expect_pass=expect == "pass",
            )
            if kv:
                raise SpecParseError(f"unknown keys {sorted(kv)}")
            configs.append(cfg)
        except KeyError as exc:
            raise SpecParseError(f"{source}:{lineno}: missing required key {exc}") from exc
        except (ElicitError, ValueError) as exc:
            raise SpecParseError(f"{source}:{lineno}: {exc}") from exc
    return configs
