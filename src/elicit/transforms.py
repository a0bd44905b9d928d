"""Monotone transformation catalog.

A :class:`Bijection` bundles a strictly monotone map with its inverse,
derivative, domain/codomain intervals, and orientation. The catalog covers
identity, negation, logarithmic, exponential, power, and Box-Cox families,
each one of four base maps (identity, log, exp, t^a) of an affine map
p t + q of its argument, and Box-Cox also (s - 1)/a of the value s. The
domain is the preimage of the base domain, the codomain the image of the
base codomain, and the orientation the product of the signs. Domains are
open at singular endpoints. Evaluation there, and a value that overflows or
rounds onto an open end of the codomain (or, inverting, of the domain),
raises a DomainError instead of returning a value outside the map's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .intervals import Interval

_INF = math.inf
_FULL = Interval.open(-_INF, _INF)
_POSITIVE = Interval.open(0.0, _INF)


@dataclass(frozen=True)
class Bijection:
    """A strictly monotone map with inverse and derivative.

    ``forward``/``inverse``/``derivative`` must accept floats or numpy
    arrays. Equality compares the name, parameters, and interval metadata,
    not the callables.
    """

    name: str
    forward: Callable = field(compare=False, repr=False)
    inverse: Callable = field(compare=False, repr=False)
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

    def _eval(self, fn, t, where: Interval, what: str, image: Interval = _FULL):
        """fn(t) for t in ``where``. A value outside ``image`` (one that
        overflowed or rounded onto an open end) raises a DomainError naming
        its input t."""
        arr = np.asarray(t, dtype=float)
        if not where.contains_all(arr):
            i = where.first_outside(arr)
            raise DomainError(float(arr.flat[i]), where, f"{what} of {self.label}",
                              index=None if arr.ndim == 0 else i)
        with np.errstate(all="ignore"):  # a non-finite value is caught below
            out = np.asarray(fn(arr), dtype=float)
        if not image.contains_all(out):
            i = image.first_outside(out)
            raise DomainError(float(arr.flat[i]), None, f"{what} of {self.label} "
                              f"(value {float(out.flat[i])!r} not in {image})",
                              index=None if arr.ndim == 0 else i)
        return float(out) if arr.ndim == 0 else out

    def apply(self, t):
        return self._eval(self.forward, t, self.domain, "forward", self.codomain)

    def invert(self, t):
        return self._eval(self.inverse, t, self.codomain, "inverse", self.domain)

    def deriv(self, t):
        return self._eval(self.derivative, t, self.domain, "derivative")


def format_number(x: float) -> str:
    """``x`` as text that parses back to the same float: the short ``:g``
    form when it does, else ``repr``."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


# The four base maps. Every catalog map is base(p t + q), and Box-Cox then
# (s - 1)/a of the base value s.
def _copy(t, out=None):
    return np.positive(np.asarray(t, float), out=out)


_IDENTITY = Bijection("identity", _copy, _copy, lambda t: np.ones_like(np.asarray(t, float)),
                      _FULL, _FULL, True)
_LOG = Bijection("log", np.log, np.exp, lambda t: 1.0 / np.asarray(t, float),
                 _POSITIVE, _FULL, True)
_EXP = Bijection("exp", np.exp, np.log, np.exp, _FULL, _POSITIVE, True)


def _power(a: float, open_at_zero: bool = False) -> Bijection:
    """t^a, closed at 0 where t^a and its derivative stay finite there."""
    half = Interval(0.0, _INF, lo_closed=a >= 1 and not open_at_zero)
    return Bijection("power", lambda t, out=None: np.power(np.asarray(t, float), a, out=out),
                     lambda t, out=None: np.power(np.asarray(t, float), 1.0 / a, out=out),
                     lambda t: a * np.power(np.asarray(t, float), a - 1.0), half, half, a > 0)


def _into(x, own: bool):
    """``x`` as a ufunc's ``out`` when the chain made it (``own``), else None."""
    return x if own and isinstance(x, np.ndarray) else None


def _affine(p: float, q: float, floor: float | None = None):
    """x -> p x + q, raised to ``floor`` if given, and its inverse
    x -> (x - q)/p, each writing over x when ``own`` says the chain made it.
    A unit p and a zero q are left out, so they keep every bit of x, the
    sign of zero included."""
    def forward(x, own=False):
        x = np.asarray(x, float)
        if p != 1.0:
            x, own = np.multiply(p, x, out=_into(x, own)), True
        if q != 0.0:
            x, own = np.add(x, q, out=_into(x, own)), True
        return x if floor is None else np.maximum(x, floor, out=_into(x, own))

    def inverse(x, own=False):
        if q != 0.0:
            x, own = np.subtract(x, q, out=_into(x, own)), True
        return x if p == 1.0 else np.divide(x, p, out=_into(x, own))

    return forward, inverse


def _preimage(iv: Interval, p: float, q: float) -> Interval:
    """{t : p t + q in iv}, with a zero end unsigned."""
    lo, hi = (iv.lo - q) / p + 0.0, (iv.hi - q) / p + 0.0
    if p > 0:
        return Interval(lo, hi, iv.lo_closed, iv.hi_closed)
    return Interval(hi, lo, iv.hi_closed, iv.lo_closed)


def _composed(name: str, params: tuple, base: Bijection, p: float = 1.0, q: float = 0.0,
              d: float = 1.0, e: float = 0.0) -> Bijection:
    """base(p t + q), then (s - e)/d of its value s. With both affine parts
    the identity, the base's own callables are kept."""
    if (p, q, d, e) == (1.0, 0.0, 1.0, 0.0):
        return replace(base, name=name, params=params)
    # p t + q may round past the base domain's closed end at the domain's end
    inner, uninner = _affine(p, q, base.domain.lo if base.domain.lo_closed else None)
    unouter, outer = _affine(d, e)
    scale, unscale = _affine(p, 0.0)[0], _affine(d, 0.0)[1]

    def chain(head, base_map, tail):
        """tail(base_map(head(t))): the base map writes over head's array
        when head made one, and the tail over the base map's."""
        def f(t):
            x = head(t)
            return tail(base_map(x, out=_into(x, x is not t)), True)
        return f

    return Bijection(name, chain(inner, base.forward, outer), chain(unouter, base.inverse, uninner),
                     # p base'(p t + q)/d
                     lambda t: unscale(scale(base.derivative(inner(t)), True), True),
                     _preimage(base.domain, p, q), _preimage(base.codomain, d, e),
                     (base.increasing == (p > 0)) == (d > 0), params)


# name -> (parameter count, constraints as (holds(*params), text), form): the
# form maps the parameters to the arguments (base, p, q[, d, e]) of _composed.
_CATALOG = {
    "identity": (0, (), lambda: (_IDENTITY,)),
    "negate": (0, (), lambda: (_IDENTITY, -1.0)),
    "log": (0, (), lambda: (_LOG,)),
    "affine-log": (2, ((lambda a, b: a > 0, "log(a t + b) requires a > 0"),),
                   lambda a, b: (_LOG, a, b)),
    "shifted-log": (1, (), lambda b: (_LOG, 1.0, b)),
    "exp": (0, (), lambda: (_EXP,)),
    "affine-exp": (2, ((lambda a, b: a != 0, "exp(a t + b) requires a != 0"),),
                   lambda a, b: (_EXP, a, b)),
    "power": (1, ((lambda a: a != 0, "t^a requires a != 0"),), lambda a: (_power(a),)),
    "affine-power": (3, ((lambda a, b, c: a != 0, "(b t + c)^a requires a != 0"),
                         (lambda a, b, c: b > 0, "(b t + c)^a requires b > 0")),
                     lambda a, b, c: (_power(a), b, c)),
    "shifted-power": (2, ((lambda a, c: a != 0, "(t + c)^a requires a != 0"),),
                      lambda a, c: (_power(a), 1.0, c)),
    # (t^a - 1)/a tends to log(t) as a -> 0; defined by continuity.
    "box-cox": (1, (), lambda a: (_LOG,) if a == 0.0
                else (_power(a, open_at_zero=True), 1.0, 0.0, a, 1.0)),
}


def catalog(name: str, params=()) -> Bijection:
    """Construct a named transformation.

    Supported names: identity, negate, log, affine-log (a, b), shifted-log
    (b), exp, affine-exp (a, b), power (a), affine-power (a, b, c),
    shifted-power (a, c), box-cox (a).
    """
    params = tuple(float(p) for p in params)
    if name not in _CATALOG:
        raise ParameterError(f"unknown transformation name: {name!r}")
    k, constraints, form = _CATALOG[name]
    if len(params) != k:
        raise ParameterError(f"{name} expects {k} parameter(s), got {len(params)}")
    for holds, constraint in constraints:
        if not holds(*params):
            raise ParameterError(f"{name}: parameter constraint violated ({constraint})")
    return _composed(name, params, *form(*params))


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
