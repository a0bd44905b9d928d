"""Monotone transformation catalog.

A :class:`Bijection` bundles a strictly monotone map with its inverse,
derivative, domain/codomain intervals, and orientation. The catalog covers
identity, negation, logarithmic, exponential, power, and Box-Cox families;
domains are open at singular endpoints, and evaluation there or an overflow
raises a DomainError instead of returning infinities.

Monotonicity (and for Box-Cox the codomain) is recorded per parameter value,
since one family can contain both increasing and decreasing members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .intervals import Interval

_INF = math.inf


@dataclass(frozen=True)
class Bijection:
    """A strictly monotone map with inverse and derivative.

    ``forward``/``inverse``/``derivative`` must accept floats or numpy
    arrays. ``inverse`` may be None for forward-only transforms, which are
    rejected wherever an actual inverse is required. Equality compares the
    name, parameters, and interval metadata, not the callables.
    """

    name: str
    forward: Callable = field(compare=False, repr=False)
    inverse: Callable | None = field(compare=False, repr=False)
    derivative: Callable = field(compare=False, repr=False)
    domain: Interval
    codomain: Interval
    increasing: bool
    params: tuple = field(default_factory=tuple)

    @property
    def monotonicity(self) -> str:
        return "increasing" if self.increasing else "decreasing"

    @property
    def label(self) -> str:
        if self.params:
            return f"{self.name}({', '.join(map(format_number, self.params))})"
        return self.name

    def _eval(self, fn, t, where: Interval, what: str):
        arr = np.asarray(t, dtype=float)
        if not where.contains_all(arr):
            raise DomainError(where.first_outside(arr), where, f"{what} of {self.label}")
        with np.errstate(over="ignore"):
            out = np.asarray(fn(arr), dtype=float)
        bad = ~np.isfinite(out)  # the input is finite: the map overflowed
        if bad.any():
            raise DomainError(float(arr[bad].flat[0]), None, f"{what} of {self.label} overflows")
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    def apply(self, t):
        return self._eval(self.forward, t, self.domain, "forward")

    def invert(self, t):
        if self.inverse is None:
            raise ParameterError(f"{self.label} has no inverse")
        return self._eval(self.inverse, t, self.codomain, "inverse")

    def deriv(self, t):
        return self._eval(self.derivative, t, self.domain, "derivative")


def format_number(x: float) -> str:
    """``x`` as text that parses back to the same float: the short ``:g``
    form when it does, else ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def roundtrip_check(bij: Bijection, grid) -> float:
    """Max relative error of invert(apply(t)) - t over the grid."""
    worst = 0.0
    for t in grid:
        t = float(t)
        err = abs(bij.invert(bij.apply(t)) - t) / max(1.0, abs(t))
        worst = max(worst, err)
    return worst


def _require(cond: bool, name: str, constraint: str):
    if not cond:
        raise ParameterError(f"{name}: parameter constraint violated ({constraint})")


def _nparams(name: str, params: tuple, k: int):
    if len(params) != k:
        raise ParameterError(f"{name} expects {k} parameter(s), got {len(params)}")


def _power_domain(a: float, shift: float = 0.0) -> Interval:
    # Left endpoint closed only when the map and derivative stay finite there.
    lo = -shift + 0.0  # normalizes -0.0
    if a >= 1:
        return Interval(lo, _INF, lo_closed=True)
    return Interval.open(lo, _INF)


def catalog(name: str, params=()) -> Bijection:
    """Construct a named transformation.

    Supported names: identity, negate, log, affine-log (a, b), shifted-log
    (b), exp, affine-exp (a, b), power (a), affine-power (a, b, c),
    shifted-power (a, c), box-cox (a).
    """
    params = tuple(float(p) for p in params)

    if name == "identity":
        _nparams(name, params, 0)
        full = Interval.open(-_INF, _INF)
        return Bijection(name, lambda t: +np.asarray(t, float), lambda t: +np.asarray(t, float),
                         lambda t: np.ones_like(np.asarray(t, float)), full, full, True)

    if name == "negate":
        _nparams(name, params, 0)
        full = Interval.open(-_INF, _INF)
        return Bijection(name, np.negative, np.negative,
                         lambda t: -np.ones_like(np.asarray(t, float)), full, full, False)

    if name == "log":
        _nparams(name, params, 0)
        return Bijection(name, np.log, np.exp, lambda t: 1.0 / np.asarray(t, float),
                         Interval.open(0.0, _INF), Interval.open(-_INF, _INF), True)

    if name == "affine-log":
        _nparams(name, params, 2)
        a, b = params
        _require(a > 0, name, "log(a t + b) requires a > 0")
        return Bijection(
            name,
            lambda t: np.log(a * np.asarray(t, float) + b),
            lambda t: (np.exp(t) - b) / a,
            lambda t: a / (a * np.asarray(t, float) + b),
            Interval.open(-b / a, _INF), Interval.open(-_INF, _INF), True, params)

    if name == "shifted-log":
        _nparams(name, params, 1)
        (b,) = params
        return Bijection(
            name,
            lambda t: np.log(np.asarray(t, float) + b),
            lambda t: np.exp(t) - b,
            lambda t: 1.0 / (np.asarray(t, float) + b),
            Interval.open(-b, _INF), Interval.open(-_INF, _INF), True, params)

    if name == "exp":
        _nparams(name, params, 0)
        return Bijection(name, np.exp, np.log, np.exp,
                         Interval.open(-_INF, _INF), Interval.open(0.0, _INF), True)

    if name == "affine-exp":
        _nparams(name, params, 2)
        a, b = params
        _require(a != 0, name, "exp(a t + b) requires a != 0")
        return Bijection(
            name,
            lambda t: np.exp(a * np.asarray(t, float) + b),
            lambda t: (np.log(t) - b) / a,
            lambda t: a * np.exp(a * np.asarray(t, float) + b),
            Interval.open(-_INF, _INF), Interval.open(0.0, _INF), a > 0, params)

    if name == "power":
        _nparams(name, params, 1)
        (a,) = params
        _require(a != 0, name, "t^a requires a != 0")
        if a > 0:
            dom = _power_domain(a)
            codom = Interval(0.0, _INF, lo_closed=dom.lo_closed)
        else:
            dom = Interval.open(0.0, _INF)
            codom = Interval.open(0.0, _INF)
        return Bijection(
            name,
            lambda t: np.power(np.asarray(t, float), a),
            lambda t: np.power(np.asarray(t, float), 1.0 / a),
            lambda t: a * np.power(np.asarray(t, float), a - 1.0),
            dom, codom, a > 0, params)

    if name == "affine-power":
        _nparams(name, params, 3)
        a, b, c = params
        _require(a != 0, name, "(b t + c)^a requires a != 0")
        _require(b > 0, name, "(b t + c)^a requires b > 0")
        dom = _power_domain(a, shift=c / b) if a > 0 else Interval.open(-c / b, _INF)
        codom = Interval(0.0, _INF, lo_closed=dom.lo_closed) if a > 0 else \
            Interval.open(0.0, _INF)
        return Bijection(
            name,
            lambda t: np.power(b * np.asarray(t, float) + c, a),
            lambda t: (np.power(np.asarray(t, float), 1.0 / a) - c) / b,
            lambda t: a * b * np.power(b * np.asarray(t, float) + c, a - 1.0),
            dom, codom, a > 0, params)

    if name == "shifted-power":
        _nparams(name, params, 2)
        a, c = params
        _require(a != 0, name, "(t + c)^a requires a != 0")
        dom = _power_domain(a, shift=c) if a > 0 else Interval.open(-c, _INF)
        codom = Interval(0.0, _INF, lo_closed=dom.lo_closed) if a > 0 else \
            Interval.open(0.0, _INF)
        return Bijection(
            name,
            lambda t: np.power(np.asarray(t, float) + c, a),
            lambda t: np.power(np.asarray(t, float), 1.0 / a) - c,
            lambda t: a * np.power(np.asarray(t, float) + c, a - 1.0),
            dom, codom, a > 0, params)

    if name == "box-cox":
        _nparams(name, params, 1)
        (a,) = params
        dom = Interval.open(0.0, _INF)
        if a == 0.0:
            # (t^a - 1)/a tends to log(t) as a -> 0; defined by continuity.
            return Bijection(name, np.log, np.exp, lambda t: 1.0 / np.asarray(t, float),
                             dom, Interval.open(-_INF, _INF), True, params)
        codom = Interval.open(-1.0 / a, _INF) if a > 0 else Interval.open(-_INF, -1.0 / a)
        return Bijection(
            name,
            lambda t: (np.power(np.asarray(t, float), a) - 1.0) / a,
            lambda t: np.power(a * np.asarray(t, float) + 1.0, 1.0 / a),
            lambda t: np.power(np.asarray(t, float), a - 1.0),
            dom, codom, True, params)

    raise ParameterError(f"unknown transformation name: {name!r}")


def identity() -> Bijection:
    return catalog("identity")


# Catalog rows for listings: (name, example params, constraint, elicited
# functional of the squared-error pair (g(z) - g(y))^2 / g(z) - g(y)).
CATALOG_ROWS = (
    ("identity", (), "none", "E[y]"),
    ("negate", (), "none", "E[y]"),
    ("log", (), "none", "exp(E[log y])"),
    ("affine-log", (2.0, 1.0), "a > 0", "(exp(E[log(a y + b)]) - b)/a"),
    ("shifted-log", (1.0,), "none", "exp(E[log(y + b)]) - b"),
    ("exp", (), "none", "log(E[exp y])"),
    ("affine-exp", (0.5, 0.0), "a != 0", "(log(E[exp(a y + b)]) - b)/a"),
    ("power", (2.0,), "a > 0 on [0, inf)", "E[y^a]^(1/a)"),
    ("power", (-1.0,), "a != 0 on (0, inf)", "E[y^a]^(1/a)"),
    ("affine-power", (2.0, 1.0, 0.5), "a, b > 0", "((E[(b y + c)^a])^(1/a) - c)/b"),
    ("affine-power", (-1.0, 1.0, 1.0), "a != 0, b > 0", "((E[(b y + c)^a])^(1/a) - c)/b"),
    ("shifted-power", (2.0, 1.0), "a != 0", "(E[(y + c)^a])^(1/a) - c"),
    ("box-cox", (0.5,), "log(t) at a = 0", "E[y^a]^(1/a) for a != 0; exp(E[log y]) at a = 0"),
)
