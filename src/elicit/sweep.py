"""Sorted sufficient statistics for sweeping predictions over common draws.

Every score and identification family here is, as a function of the
effective realization w, a linear combination of a small basis b(w) with
coefficients that change only where the indicator 1{u >= w} flips, u being
the effective prediction. With the draws sorted once, the mean of such a
piecewise function is a dot product of its coefficients with sums of b over
at most three runs of sorted positions, and the sum of its squares a
quadratic form in sums of b b^T. :class:`SortedStats` keeps those sums per
block of :data:`BLOCK` sorted draws, so each evaluation costs O(n/BLOCK +
BLOCK) instead of O(n) and no n-long column is kept.

The basis is centred (w - mean(w), phi(w) - mean(phi(w)), ...) so the
difference variances below do not cancel large raw moments.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

BLOCK = 2048
_CHUNK = 32 * BLOCK  # draws per basis evaluation while the block sums are built


class Piecewise(NamedTuple):
    """Coefficients ``lo`` on sorted positions < ``cut``, ``hi`` on the rest.

    Families without a breakpoint use ``cut = 0``, so only ``hi`` is read.
    """

    cut: int
    lo: np.ndarray
    hi: np.ndarray


def flat(a) -> Piecewise:
    """The same coefficients on every draw: no breakpoint."""
    a = np.asarray(a, dtype=float)
    return Piecewise(0, a, a)


class SortedStats:
    """Per-block sums of a basis, and of its pairwise products, over the draws.

    ``basis(w)`` returns the non-constant basis columns evaluated on a slice
    of draws; a constant column of ones is always prepended. With
    ``ordered=False`` the draws are neither sorted nor copied: families
    without a breakpoint only ever sum the whole range. ``key`` identifies the basis
    and ``centre`` holds its centring constants, for the caller's
    coefficient functions.
    """

    def __init__(self, w, basis: Callable, key, centre: tuple, ordered: bool):
        w = np.ravel(np.asarray(w, dtype=float))
        self.w = np.sort(w) if ordered else w
        self.n = self.w.size
        self.basis = basis
        self.key = key
        self.centre = centre
        nb = -(-self.n // BLOCK)
        m = len(self._columns(self.w[:1]))
        self.s1 = np.empty((m, nb))
        self.s2 = np.empty((m, m, nb))
        for start in range(0, self.n, _CHUNK):
            b = self._columns(self.w[start:start + _CHUNK])
            offsets = np.arange(0, b.shape[1], BLOCK)
            j = start // BLOCK
            self.s1[:, j:j + offsets.size] = np.add.reduceat(b, offsets, axis=1)
            self.s2[:, :, j:j + offsets.size] = np.add.reduceat(
                b[:, None, :] * b[None, :, :], offsets, axis=2)

    def _columns(self, w: np.ndarray) -> np.ndarray:
        return np.vstack([np.ones_like(w), *self.basis(w)])

    def cut(self, u: float) -> int:
        """Number of draws w <= u: the positions where 1{u >= w} = 1."""
        return int(np.searchsorted(self.w, u, side="right"))

    def _direct(self, lo: int, hi: int, second: bool):
        b = self._columns(self.w[lo:hi])
        return b.sum(axis=1), (b[:, None, :] * b[None, :, :]).sum(axis=2) if second else None

    def _sums(self, lo: int, hi: int, second: bool):
        """Sums of b (and of b b^T) over sorted positions [lo, hi)."""
        first = -(-lo // BLOCK)
        last = -(-hi // BLOCK) if hi == self.n else hi // BLOCK
        if first >= last:  # no whole block inside
            return self._direct(lo, hi, second)
        s1 = self.s1[:, first:last].sum(axis=1)
        s2 = self.s2[:, :, first:last].sum(axis=2) if second else None
        for a, b in ((lo, first * BLOCK), (last * BLOCK, hi)):
            if b > a:
                d1, d2 = self._direct(a, b, second)
                s1 = s1 + d1
                if second:
                    s2 = s2 + d2
        return s1, s2

    def _moments(self, pieces, second: bool):
        """Mean and standard error of the function that is a . b(w) on each
        (lo, hi, a) run of sorted positions."""
        total = quad = 0.0
        for lo, hi, a in pieces:
            if hi > lo and np.any(a):
                s1, s2 = self._sums(lo, hi, second)
                total += float(a @ s1)
                if second:
                    quad += float(a @ s2 @ a)
        n = self.n
        mean = total / n
        if not second:
            return mean, None
        if n < 2:
            return mean, math.nan
        var = max((quad - total * total / n) / (n - 1), 0.0)
        return mean, math.sqrt(var / n)

    def _runs(self, f: Piecewise):
        return ((0, f.cut, f.lo), (f.cut, self.n, f.hi))

    def mean(self, f: Piecewise) -> float:
        """Mean of f over the draws."""
        return self._moments(self._runs(f), second=False)[0]

    def stats(self, f: Piecewise):
        """(mean, standard error of the mean) of f over the draws."""
        return self._moments(self._runs(f), second=True)

    def diff_stats(self, f: Piecewise, g: Piecewise):
        """(mean, standard error) of the paired difference f - g.

        At most three runs: below both cuts, between them, above both. When
        f and g coincide every coefficient is exactly zero, so the result
        is exactly (0.0, 0.0).
        """
        lo, hi = sorted((f.cut, g.cut))
        middle = f.lo - g.hi if f.cut > g.cut else f.hi - g.lo
        return self._moments(((0, lo, f.lo - g.lo), (lo, hi, middle),
                              (hi, self.n, f.hi - g.hi)), second=True)


def split_stats(pairs):
    """(means, stderrs) arrays from a list of (mean, stderr) pairs."""
    out = np.array(pairs, dtype=float).reshape(-1, 2)
    return out[:, 0].copy(), out[:, 1].copy()


def attach(prepared, key, build: Callable[[], SortedStats]) -> SortedStats:
    """The prepared realizations' sorted statistics for ``key``, built on
    first use and rebuilt only when a sweep asks for another basis."""
    stats = prepared.sweep
    if stats is None or stats.key != key:
        stats = prepared.sweep = build()
    return stats
