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

from .distributions import DistributionSpec, sample_chunks
from .errors import BracketingError, ElicitError, ParameterError, SpecParseError
from .functionals import (FunctionalSpec, FunctionalValue, functional_value, pushforward_law,
                          sample_mv_pair, scalar_value, streamed_functional)
from .identification import IdentSpec, mv_ident_stats, streamed_ident_curve
from .intervals import Interval
from .numerics import Bracket, Seed, check_seed, derive_seed, minimize1d
from .scoring import (ScoreSpec, TransformMode, argmin_window, expected_score,
                      expected_score_curve, grid_pass, mv_vertex, score_diff_stats,
                      streamed_moments)
from .specs import (parse_bijection, parse_bracket, parse_dist, parse_functional, parse_ident,
                    parse_score, parse_suite_line)
from .transforms import Bijection

# Each kind: the arity of its score or identification function, functional
# and given target (2 for the mean-variance pair), and which of the
# CheckConfig fields in _FIELDS it requires; setting another is an error.
CHECK_KINDS = {"consistency": (1, "score"), "strictness": (1, "score"),
               "identification": (1, "ident"), "pair": (2, "score bracket2"),
               "revelation": (1, "score g"), "realization": (1, "score g")}
_FIELDS = {"score": "a score spec", "ident": "an ident spec",
           "bracket2": "a variance bracket (bracket2)", "g": "a transformation g"}

MIN_N = 10**4

# The n-long float arrays a check of each kind holds at once, at most. Every
# kind streams its draws, CHUNK at a time, its Monte Carlo target's too. An
# argmin check (consistency, strictness, revelation, realization) also
# holds the draws of its window, and a quantile or expectile target those
# of its cells, one after the other: at worst all n draws (an atom): 1. The
# pair holds none.
LIVE_ARRAYS = {"consistency": 1, "strictness": 1, "identification": 1, "pair": 0,
               "revelation": 1, "realization": 1}
# Bytes of draws a run may hold at once, estimated as n x 8 x LIVE_ARRAYS[kind]
# per check, summed over the checks that --jobs threads run together. The
# largest builtin check (n = 4e6) needs 64 MB; 2 GiB stops a mistyped n or
# --jobs long before it exhausts a small shared machine.
MEMORY_CAP = 2 * 2**30


def draw_bytes(n: int, kind: str) -> int:
    """Bytes of n-long arrays a check of ``kind`` on n draws holds at once, at most."""
    return n * 8 * LIVE_ARRAYS[kind]


def suite_bytes(configs, jobs: int) -> int:
    """Bytes of draws ``jobs`` threads hold at once over the suite, at most:
    its ``jobs`` largest checks together."""
    return sum(sorted((draw_bytes(c.n, c.kind) for c in configs), reverse=True)[:jobs])


def check_memory(what: str, nbytes: int, error=ParameterError) -> None:
    """Raise ``error`` naming ``what`` when ``nbytes`` exceed :data:`MEMORY_CAP`."""
    if nbytes > MEMORY_CAP:
        raise error(f"{what} would hold {nbytes / 2**30:.3g} GiB of draws at once "
                    f"(n x 8 bytes x live arrays x jobs), over the "
                    f"{MEMORY_CAP / 2**30:g} GiB cap")


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
        check_memory(f"n={self.n}", draw_bytes(self.n, self.kind))
        if self.points < 5:
            raise ParameterError("grid needs at least 5 points")
        for name, tol in (("tol_abs", self.tol_abs), ("tol_rel", self.tol_rel)):
            if not 0.0 <= tol < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {tol}")
        arity, requires = CHECK_KINDS[self.kind]
        for name, text in _FIELDS.items():
            if (getattr(self, name) is None) == (name in requires):
                raise ParameterError(f"{self.kind} check requires {text}" if name in requires
                                     else f"{self.kind} check takes no {name}")
        if self.kind == "pair" and self.bracket2.lo <= 0:
            raise ParameterError("variance bracket must be positive")
        pairs = {"score": self.score is not None and self.score.family == "mv",
                 "ident": self.ident is not None and self.ident.family == "mv",
                 "functional": self.functional.kind == "mvpair",
                 "target": isinstance(self.target, (tuple, list))}
        for name, pair in pairs.items():
            if getattr(self, name) is not None and pair != (arity == 2):
                raise ParameterError(
                    f"pair check needs a mean-variance {name}" if arity == 2 else
                    f"{self.kind} check sweeps scalar predictions, so its {name} cannot be "
                    f"mean-variance: (x1, x2) pairs are checked by kind=pair")
        if self.g is not None and self.score.transform.mode != "none":
            raise ParameterError(f"{self.kind} check starts from an untransformed score")
        if self.kind == "revelation" and not isinstance(self.g, Bijection):
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


def _shift_points(t: float, zs: np.ndarray, target: FunctionalValue) -> list:
    """t -+ one grid step, where a curve's values show how far it moves when
    a Monte Carlo target t misses the truth; none for an exact target."""
    if _target_se(target) == 0.0:
        return []
    delta = float(zs[1] - zs[0])
    return [t - delta, t + delta]


def _target_shift(values, zs: np.ndarray, target: FunctionalValue) -> float:
    """How far a curve moves when a Monte Carlo target misses the truth by
    its stderr se_t: |curve'(t)| se_t, the slope a central difference of its
    ``values`` at :func:`_shift_points`. 0 for an exact target (no values)."""
    if not len(values):
        return 0.0
    lo, hi = values
    return abs(float(hi - lo)) / (2.0 * float(zs[1] - zs[0])) * _target_se(target)


def _grid(cfg: CheckConfig, bracket: Bracket) -> np.ndarray:
    """The check's grid of predictions over ``bracket``."""
    return np.linspace(bracket.lo, bracket.hi, cfg.points)


def _swept_argmin(cfg: CheckConfig, score: ScoreSpec, zs: np.ndarray, seed: Seed, fixed=()):
    """The grid argmin of the expected score, refined by bracketed search
    between its neighbors, from one pass over the draws, chunk by chunk
    (:func:`~elicit.scoring.grid_pass`). Returns (sums, argmin): the sums
    serve the grid, the points ``fixed`` before the pass and every point
    within two grid steps of the grid argmin."""
    draws = functools.partial(sample_chunks, cfg.dist, cfg.n, seed)
    st = grid_pass(score, draws, cfg.n, zs, fixed)
    i = int(np.argmin(expected_score_curve(score, zs, st)))
    if i == 0 or i == len(zs) - 1:
        raise BracketingError(
            f"expected-score minimum at grid endpoint z={zs[i]:.6g}; "
            f"bracket [{zs[0]:.6g}, {zs[-1]:.6g}] likely excludes the minimizer")
    st = argmin_window(score, st, zs, i, draws)

    def esc(z: float) -> float:
        return expected_score(score, z, st)

    tol = max(1e-9, 1e-6 * max(1.0, abs(zs[i])))
    return st, minimize1d(esc, Bracket(zs[i - 1], zs[i + 1]), tol)


def _argmin_stderr(score: ScoreSpec, z_star: float, zs: np.ndarray, st) -> float:
    """Sampling error of the empirical expected-score argmin.

    Sandwich plug-in: the standard error of the empirical score slope at the
    minimizer (from the common draws) divided by the local curvature of the
    curve. Reproduces sigma/sqrt(n) for the squared error and the classical
    density-scaled rate for pinball losses. When no curvature is resolved
    (flat region), the argmin is unlocalizable and the full bracket width is
    returned.
    """
    delta = float(zs[1] - zs[0])
    m_lo, m_mid, m_hi = expected_score_curve(score, [z_star - delta, z_star, z_star + delta], st)
    curv = (float(m_hi) - 2.0 * float(m_mid) + float(m_lo)) / delta**2
    _, se_diff = score_diff_stats(score, z_star + delta, [z_star - delta], st)
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
    t_scalar = scalar_value(target.value)
    zs = _grid(cfg, bracket)
    inside = bracket.lo <= t_scalar <= bracket.hi
    at = _shift_points(t_scalar, zs, target) if inside else []
    st, z_star = _swept_argmin(cfg, score, zs, cfg.seed, [t_scalar, *at] if inside else [])

    # Total Monte Carlo uncertainty: target noise plus argmin localization.
    se_argmin = _argmin_stderr(score, z_star, zs, st)
    se = math.hypot(_target_se(target), se_argmin)
    tol = _tolerance(cfg, t_scalar, se)
    dist_ok = _target_distance(z_star, target.value) <= tol

    # The truth must not beat the curve anywhere beyond paired-noise level,
    # nor beyond what the error of a Monte Carlo target moves the curve by.
    ineq_ok = True
    if inside:
        dmean, dse = score_diff_stats(score, t_scalar, zs, st)
        shift = _target_shift(expected_score_curve(score, at, st) if at else [], zs, target)
        ineq_ok = bool(np.all(dmean <= 3.0 * np.hypot(dse, shift) + 1e-12))

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
    zs = _grid(cfg, cfg.bracket)
    st, z_star = _swept_argmin(cfg, cfg.score, zs, cfg.seed)

    flat_tol = max(cfg.tol_abs, cfg.tol_rel * max(1.0, abs(z_star)))
    dmean, dse = score_diff_stats(cfg.score, z_star, zs, st)
    rise = -dmean  # mean of S(z) - S(z*) >= 0
    far = np.abs(zs - z_star) > flat_tol
    strict_ok = bool(np.all(rise[far] > 3.0 * dse[far]))
    n_flat = int(np.sum(~(rise[far] > 3.0 * dse[far])))
    del st  # the held draws go before a Monte Carlo target samples its own

    target = _resolve_target(cfg)
    notes = f"argmin={z_star:.6g}; flat-tol={flat_tol:.4g}; " \
            f"non-strict points beyond tol: {n_flat}/{int(np.sum(far))}"
    return _report(cfg, strict_ok, z_star, target.value, _target_se(target), notes)


@_timed
def check_identification(cfg: CheckConfig) -> VerificationReport:
    """Is E[V] zero exactly at the truth, nonzero and oriented elsewhere?"""
    target = _resolve_target(cfg)
    t_scalar = scalar_value(target.value)

    # One pass over the draws, chunk by chunk, at every point the verdict reads.
    zs = _grid(cfg, cfg.bracket)
    points = [t_scalar, *zs, *_shift_points(t_scalar, zs, target)]
    means, ses = streamed_ident_curve(cfg.ident, points, sample_chunks(cfg.dist, cfg.n, cfg.seed))
    est0, se0 = float(means[0]), float(ses[0])
    vmeans, vses = means[1:cfg.points + 1], ses[1:cfg.points + 1]
    se0 = math.hypot(se0, _target_shift(means[cfg.points + 1:], zs, target))
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

    zs = _grid(cfg, trans_bracket)
    st, z_trans = _swept_argmin(cfg, trans_score, zs, derive_seed(cfg.seed, 1))

    target = float(g.apply(z_base))
    # Both argmins carry Monte Carlo noise; the base error maps through g'.
    se = math.hypot(abs(float(g.deriv(z_base))) * se_base,
                    _argmin_stderr(trans_score, z_trans, zs, st))
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
    draws = functools.partial(sample_chunks, cfg.dist, cfg.n, derive_seed(cfg.seed, 7919))
    return streamed_functional(cfg.functional, draws, cfg.n, transform)


@_timed
def check_pair_consistency(cfg: CheckConfig) -> VerificationReport:
    """Mean-variance pair: score argmin and identification zero at
    (E[g(Y)], Var[g(Y)])."""
    target = _resolve_target(cfg)
    t1, t2 = (float(v) for v in target.value)
    se_t1, se_t2 = (float(s) for s in (target.stderr if isinstance(target.stderr, (tuple, list))
                                       else (target.stderr, target.stderr)))

    # One pass over the draws, chunk by chunk: the moments every number below reads.
    st = streamed_moments(cfg.score.transform, sample_chunks(cfg.dist, cfg.n, cfg.seed))
    x1_star, x2_star = mv_vertex(cfg.score, st)
    if not (cfg.bracket.lo <= x1_star <= cfg.bracket.hi
            and cfg.bracket2.lo <= x2_star <= cfg.bracket2.hi):
        raise BracketingError(f"mean-variance vertex ({x1_star:.6g}, {x2_star:.6g}) outside "
                              f"bracket [{cfg.bracket.lo:.6g}, {cfg.bracket.hi:.6g}] x bracket2 "
                              f"[{cfg.bracket2.lo:.6g}, {cfg.bracket2.hi:.6g}]")

    # The empirical pair argmin is the sample (mean, variance) of the
    # transformed draws; combine its sampling error with the target's.
    se_m, se_v = sample_mv_pair(st).stderr
    se1 = math.hypot(se_t1, se_m)
    se2 = math.hypot(se_t2, se_v)
    tol1 = _tolerance(cfg, t1, se1)
    tol2 = _tolerance(cfg, t2, se2)
    argmin_ok = abs(x1_star - t1) <= tol1 and abs(x2_star - t2) <= tol2

    # The score's effective draws are the identification's.
    (e1, e2), (s1, s2) = (v.tolist() for v in mv_ident_stats((t1, t2), st))
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
    # The transformed expectile off tau = 1/2, where swapped weights move the
    # argmin. Appended last, so the lines above keep their derived seeds.
    "name=cons/expectile-0.75-both-log kind=consistency dist=lognormal(0,1) "
    "score=expectile:tau=0.75:phi=square@both:log functional=gexpectile:tau=0.75:g=log "
    "bracket=0.5,3.5 n=1000000",
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


# The suite-line keys besides name, kind and expect, each with its parser;
# dist, functional and bracket are required, n defaults to 1e6 and a key
# left out takes CheckConfig's default.
_SUITE_KEYS = {"dist": parse_dist, "functional": parse_functional, "bracket": parse_bracket,
               "n": float, "seed": int, "score": parse_score, "ident": parse_ident,
               "bracket2": parse_bracket, "points": float, "tol_abs": float, "tol_rel": float,
               "target": float, "g": parse_bijection}


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
            fields = {"name": kv.pop("name", f"line{lineno}"), "kind": kv.pop("kind"), "n": 1e6,
                      "expect_pass": expect == "pass"}
            for key, parse in _SUITE_KEYS.items():
                if key in kv or key in ("dist", "functional", "bracket"):
                    fields[key] = parse(kv.pop(key))
            if "seed" not in fields:
                fields["seed"] = derive_seed(seed, len(configs))
            cfg = CheckConfig(**fields)
            if kv:
                raise SpecParseError(f"unknown keys {sorted(kv)}")
            configs.append(cfg)
        except KeyError as exc:
            raise SpecParseError(f"{source}:{lineno}: missing required key {exc}") from exc
        except (ElicitError, ValueError) as exc:
            raise SpecParseError(f"{source}:{lineno}: {exc}") from exc
    return configs
