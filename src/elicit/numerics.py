"""Deterministic low-level numerics.

Derivative-free one-dimensional minimization and root finding, seeded random
streams, and central finite differences. Everything here is pure
given an explicit seed; concurrent callers derive independent streams with
:func:`derive_seed` so results never depend on scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketingError, EvaluationError, ParameterError

# Seeds are plain nonnegative integers fed to numpy's SeedSequence; equal
# seed + equal inputs gives a bit-identical draw stream.
Seed = int

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 400


@dataclass(frozen=True)
class Bracket:
    """A finite interval lo < hi used to bracket a root or minimizer."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ParameterError(f"bracket endpoints must be finite, got ({self.lo}, {self.hi})")
        if self.lo >= self.hi:
            raise ParameterError(f"bracket requires lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def check_seed(seed: Seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return seed


def derive_seed(seed: Seed, index: int) -> int:
    """Deterministic child seed for stream ``index`` of master ``seed``."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: Seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))


def _checked_eval(f: Callable[[float], float], z: float) -> float:
    v = float(f(z))
    if not math.isfinite(v):
        raise EvaluationError(f"function returned non-finite value {v!r} at z={z!r}")
    return v


def minimize1d(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Minimize a unimodal function on a bracket, derivative-free.

    Golden-section search down to ``tol``, followed by one safeguarded
    parabolic refinement. The refinement is exact (up to rounding) for
    quadratic objectives and is rejected whenever it tries to move farther
    than the trust leash, so kinked objectives (pinball losses) stay safe.

    Returns z with ``|z - argmin f| <= tol``. Once tol drops below what
    function-value comparisons can resolve (about sqrt(eps) relative), the
    effective accuracy floor is ~1e-7 * max(1, |z|) for general smooth
    objectives and full floating-point precision for quadratic ones.
    """
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    a, b = bracket.lo, bracket.hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _checked_eval(f, x1)
    f2 = _checked_eval(f, x2)
    for _ in range(_MAX_ITER):
        if (b - a) <= tol or (b - a) <= 4.0 * np.finfo(float).eps * (abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _checked_eval(f, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _checked_eval(f, x2)
    xm, fm = (x1, f1) if f1 <= f2 else (x2, f2)

    # Parabolic polish: uniform 3-point vertex, trusted only locally.
    h = min(max(tol, 0.01 * bracket.width), xm - bracket.lo, bracket.hi - xm)
    if h > 0:
        fa = _checked_eval(f, xm - h)
        fb = _checked_eval(f, xm + h)
        denom = fa - 2.0 * fm + fb
        if denom > 0.0:
            v = xm - 0.5 * h * (fb - fa) / denom
            leash = max(tol, 1e-7 * max(1.0, abs(xm)))
            if abs(v - xm) <= leash and bracket.lo <= v <= bracket.hi:
                fv = _checked_eval(f, v)
                slack = 8.0 * np.finfo(float).eps * max(abs(fm), abs(fv))
                if fv <= fm + slack:
                    xm = v
    return float(xm)


def root1d(f: Callable[[float], float], bracket: Bracket, tol: float) -> float:
    """Bisection root of f on a sign-changing bracket.

    Returns z with ``|z - root| <= tol``. Requires f(lo) and f(hi) of
    opposite signs (or one of them exactly zero).
    """
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    a, b = bracket.lo, bracket.hi
    fa = _checked_eval(f, a)
    fb = _checked_eval(f, b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if (fa > 0) == (fb > 0):
        raise BracketingError(
            f"no sign change on bracket: f({a})={fa:.6g}, f({b})={fb:.6g}"
        )
    for _ in range(_MAX_ITER):
        if (b - a) <= tol or (b - a) <= 4.0 * np.finfo(float).eps * (abs(a) + abs(b)):
            break
        m = 0.5 * (a + b)
        fmid = _checked_eval(f, m)
        if fmid == 0.0:
            return float(m)
        if (fmid > 0) == (fa > 0):
            a, fa = m, fmid
        else:
            b, fb = m, fmid
    return float(0.5 * (a + b))


def default_diff_step(z: float) -> float:
    """Default central-difference step: balances truncation and rounding."""
    return 1e-6 * max(1.0, abs(z))


def central_diff(f: Callable[[float], float], z: float, step: float | None = None) -> float:
    """Two-sided finite difference (f(z+s) - f(z-s)) / (2 s)."""
    s = default_diff_step(z) if step is None else float(step)
    if s <= 0:
        raise ParameterError(f"step must be positive, got {s}")
    hi = _checked_eval(f, z + s)
    lo = _checked_eval(f, z - s)
    return (hi - lo) / (2.0 * s)
