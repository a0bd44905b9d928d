"""Deterministic low-level numerics.

Derivative-free minimization (one-dimensional, and the Nelder–Mead simplex
search in several dimensions) and root finding, seeded random streams, and
central finite differences. Everything here is pure
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


# Nelder–Mead's reflection, expansion, contraction and shrink coefficients,
# and its initial simplex: each coordinate of the start moved by 5%, or to
# 0.00025 where it is zero.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class SimplexResult:
    """Where :func:`nelder_mead` stopped: the best vertex and its value, the
    function evaluations it took, and whether the simplex converged (not
    stopped by ``maxiter`` or ``maxfev``)."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _Spent(Exception):
    """The evaluation budget ``maxfev`` is spent."""


def nelder_mead(f: Callable[[np.ndarray], float], x0, xatol: float, fatol: float,
                maxiter: int, maxfev: int) -> SimplexResult:
    """Minimize f over R^N by the Nelder–Mead simplex search (Nelder & Mead,
    Computer Journal 7(4), 1965), derivative-free.

    The unbounded, non-adaptive search of ``scipy.optimize.minimize(method=
    "Nelder-Mead")``, step for step: the same initial simplex, coefficients,
    evaluation order and stopping rule, so the same x, value and evaluation
    count. It stops when every vertex lies within ``xatol`` of the best in
    every coordinate and every value within ``fatol`` of the best, or after
    ``maxiter`` iterations or ``maxfev`` evaluations. f may return inf where
    it is undefined; f gets a copy of each point.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + _NONZDELT) * x0[k] if x0[k] != 0 else _ZDELT
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return f(np.copy(x))

    def by_value():
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _Spent:
        pass
    sim, fsim = by_value()
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            with np.errstate(invalid="ignore"):  # inf - inf: not converged
                done = (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol)
            if done:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:  # expand
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract, outside or inside; shrink if that fails
                if fxr < fsim[-1]:
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _Spent:
            pass
        sim, fsim = by_value()
    return SimplexResult(x=sim[0], fun=float(np.min(fsim)), nfev=nfev,
                         success=nfev < maxfev and iterations < maxiter)


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
