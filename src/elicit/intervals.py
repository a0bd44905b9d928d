"""Real intervals with open/closed endpoints.

Used for transformation domains/codomains, distribution supports, and
set-valued quantiles. Infinite endpoints are allowed and always open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if math.isinf(self.lo) and self.lo_closed:
            object.__setattr__(self, "lo_closed", False)
        if math.isinf(self.hi) and self.hi_closed:
            object.__setattr__(self, "hi_closed", False)

    @classmethod
    def open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x, True, True)

    def inside(self, values):
        """Elementwise membership of ``values``, as a boolean array."""
        arr = np.asarray(values, dtype=float)
        lo_ok = arr >= self.lo if self.lo_closed else arr > self.lo
        hi_ok = arr <= self.hi if self.hi_closed else arr < self.hi
        return lo_ok & hi_ok

    def contains(self, t: float) -> bool:
        lo_ok = t >= self.lo if self.lo_closed else t > self.lo
        hi_ok = t <= self.hi if self.hi_closed else t < self.hi
        return bool(lo_ok and hi_ok)

    def contains_all(self, values) -> bool:
        """Whether every element is contained: the least and the greatest
        are (a NaN is neither, so it is not)."""
        arr = np.asarray(values, dtype=float)
        return arr.size == 0 or (self.contains(arr.min()) and self.contains(arr.max()))

    def first_outside(self, values) -> int:
        """Flat position of the first element of ``values`` not contained in
        the interval."""
        return int(np.argmax(~self.inside(values)))

    def distance(self, t: float) -> float:
        """Distance from t to the interval (0 when inside)."""
        return max(0.0, self.lo - t, t - self.hi)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"

        def fmt(x):
            if x == math.inf:
                return "inf"
            if x == -math.inf:
                return "-inf"
            return f"{x:g}"

        return f"{left}{fmt(self.lo)}, {fmt(self.hi)}{right}"
