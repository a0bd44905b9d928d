"""The family table's two evaluators, and sums of its basis over the draws
for sweeping predictions over common draws.

Each family is, in the effective realization w, weight * (a . b(w)): the
coefficients a on a small basis b(w), the weight ``lo`` where 1{u >= w} and
``hi`` elsewhere, u being the effective prediction. Only this module applies
1{u >= w}: :func:`piece` cuts the draws at P predictions, b centred at
constants of the draws; :func:`per_row` centres b at each row's own w, where
the value is weight * a[0]. :class:`Stats` reads P means (and sums of
squares) as dot products (quadratic forms) of a (P, m) coefficient table
with the sums of b (and b b^T) over the draws below each cut, which one of
two providers supplies. :class:`SortedStats` holds the sorted draws and
cumulates sums over blocks of :data:`BLOCK` of them, so any cut is a
whole-block prefix plus one partial block: O(P log n + P * BLOCK) per sweep
after an O(n) build, with no n-long column kept but the draws.
:class:`StreamedStats` holds no draws: it takes the sums at points fixed
before a pass over chunks of them. b is centred so that difference variances
do not cancel."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError

BLOCK = 128  # measured: each cut gathers a partial block, and more blocks cost the build
_CHUNK = 512 * BLOCK  # draws per basis evaluation while the block sums are built


class Piecewise(NamedTuple):
    """P functions of the draws: row p takes coefficients ``lo[p]`` on sorted
    positions below ``cut[p]`` and ``hi[p]`` on the rest. Families without a
    breakpoint use ``cut = 0``, so only ``hi`` is read."""

    cut: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class Stats:
    """The evaluator: means and standard errors of piecewise functions of the
    draws, from a provider's sums of the basis b and of b b^T. A provider
    sets ``n``, ``centre`` (the basis' centring constants, for the caller's
    coefficient functions) and ``tot1``, ``tot2`` (the sums over all draws),
    and gives ``cut(u)``, a key per prediction u, ordered as u, and
    ``_prefix(k, second)``, the sums over the draws below each key k."""

    def _evaluate(self, keys, at, coefs, second: bool):
        """Means and standard errors of P functions, row p of which is
        coefs[r][p] . b(w) on run r of sorted positions. Run r < R - 1 ends
        at ``keys[at[r]]`` (``...`` takes all keys), the last at n, in order."""
        p1, p2 = self._prefix(keys, second)
        ends = [(p1[i], p2[i] if second else None) for i in at] + [(self.tot1, self.tot2)]
        total = quad = below1 = below2 = 0.0
        for a, (end1, end2) in zip(coefs, ends):
            total = total + np.einsum("pi,pi->p", a, end1 - below1)
            if second:
                quad = quad + np.einsum("pi,pij,pj->p", a, end2 - below2, a)
            below1, below2 = end1, end2
        n = self.n
        if not second:
            return total / n, None
        if n < 2:
            return total / n, np.full_like(total, np.nan)
        var = np.maximum((quad - total * total / n) / (n - 1), 0.0)
        return total / n, np.sqrt(var / n)

    def mean(self, f: Piecewise) -> np.ndarray:
        """Mean of each of the functions f over the draws."""
        return self._evaluate(f.cut, [...], [f.lo, f.hi], second=False)[0]

    def stats(self, f: Piecewise):
        """(means, standard errors of the means) of the functions f."""
        return self._evaluate(f.cut, [...], [f.lo, f.hi], second=True)

    def diff_stats(self, f: Piecewise, g: Piecewise):
        """(means, standard errors) of the paired differences f - g, f one
        function. Three runs: below both cuts, between them, above both; the
        coefficients are differenced before any sum is read, so where f and g
        coincide the result is exactly (0.0, 0.0)."""
        keys = np.concatenate((f.cut, g.cut))  # f's cut is keys[0]
        rows = np.arange(1, len(keys))
        f_first = f.cut <= g.cut
        middle = np.where(f_first[:, None], f.hi - g.lo, f.lo - g.hi)
        return self._evaluate(keys, [np.where(f_first, 0, rows), np.where(f_first, rows, 0)],
                             [f.lo - g.lo, middle, f.hi - g.hi], second=True)


class SortedStats(Stats):
    """Cumulative per-block sums of a basis, and of its pairwise products,
    over the draws held in sorted order.

    ``basis(w)`` returns the non-constant basis columns evaluated on an
    array of draws; a constant column of ones is always prepended. With
    ``ordered=False`` the draws are neither sorted nor copied: families
    without a breakpoint only ever sum the whole range. ``in_place`` sorts
    draws that no caller holds where they are, instead of a sorted copy.
    ``key`` identifies the basis and ``centre`` holds its centring
    constants. A key of :meth:`cut` is the number of draws below.
    """

    def __init__(self, w, basis: Callable, key, centre: tuple, ordered: bool, in_place: bool):
        w = np.ravel(np.asarray(w, dtype=float))
        if ordered:
            w = w if in_place else w.copy()
            w.sort()
        self.w = w
        self.n = self.w.size
        self.basis = basis
        self.key = key
        self.centre = centre
        nb = -(-self.n // BLOCK)
        m = 1 + len(basis(self.w[:1]))
        # c1[j], c2[j]: sums of b and b b^T over the first j blocks. Tiles hold
        # the non-constant columns; the constant one sums to the draw counts.
        self.c1 = np.zeros((nb + 1, m))
        self.c2 = np.zeros((nb + 1, m, m))
        for start in range(0, self.n if m > 1 else 0, _CHUNK):
            w = self.w[start:start + _CHUNK]
            k = -(-w.size // BLOCK)
            x = np.zeros((m - 1, k * BLOCK))  # a ragged last block: zeros add nothing
            x[:, :w.size] = self.basis(w)
            tiles = x.reshape(m - 1, k, BLOCK)
            j = start // BLOCK + 1
            self.c1[j:j + k, 1:] = tiles.sum(axis=2).T
            self.c2[j:j + k, 1:, 1:] = np.einsum("ikb,jkb->kij", tiles, tiles)
        np.cumsum(self.c1, axis=0, out=self.c1)
        np.cumsum(self.c2, axis=0, out=self.c2)
        self.c1[:, 0] = np.minimum(np.arange(nb + 1) * BLOCK, self.n)
        self.c2[:, 0, :] = self.c2[:, :, 0] = self.c1
        self.tot1, self.tot2 = self.c1[-1], self.c2[-1]

    def cut(self, u):
        """Number of draws w <= u, at each u: the positions where 1{u >= w} = 1."""
        return np.searchsorted(self.w, u, side="right")

    def _prefix(self, k: np.ndarray, second: bool):
        """Sums of b, and of b b^T if ``second``, over sorted positions
        [0, k) for each k: a whole-block prefix plus one gathered tile."""
        j, r = k // BLOCK, k % BLOCK
        s1 = self.c1[j]
        s2 = self.c2[j] if second else None
        width = int(r.max(initial=0))
        if width:
            pos = np.minimum(j[:, None] * BLOCK + np.arange(width), self.n - 1)
            b = np.stack([np.ones(pos.shape), *self.basis(self.w[pos])])
            b *= np.arange(width) < r[:, None]  # keep the draws below each k
            s1 = s1 + b.sum(axis=2).T
            if second:
                s2 = s2 + np.einsum("ipk,jpk->pij", b, b)
        return s1, s2


def _sums_below(x: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Sums of x over the first c entries of its last axis, for each c of the
    non-decreasing ``cut``: the segments between consecutive cuts, summed
    in one ``reduceat`` and cumulated, which costs less than a cumulative
    sum of all of x."""
    ends = np.concatenate(([0], cut))
    pad = np.zeros(x.shape[:-1] + (1,))  # so that a cut at the end starts a segment
    seg = np.add.reduceat(np.concatenate((x, pad), axis=-1), ends, axis=-1)[..., :-1]
    seg[..., ends[:-1] == ends[1:]] = 0.0  # reduceat gives an empty segment its first entry
    return np.cumsum(seg, axis=-1)


class StreamedStats(Stats):
    """The sums of :class:`SortedStats` over draws that arrive in chunks,
    taken only at points u_1..u_P fixed before the pass, and in total: no
    n-long array is held. A chunk is sorted in place (its draws are the
    provider's own), cut at every point with one ``searchsorted`` (the
    1{u >= w} rule) and its basis sums below each cut are added; with
    no points it is only summed. ``centred(first chunk)`` gives the basis,
    as for SortedStats, and its centring constants, which stay fixed for
    the rest of the pass. ``lo`` and ``hi`` are the least and greatest
    draw. :meth:`cut` takes only the points."""

    def __init__(self, chunks, centred: Callable, points=()):
        self.points = np.unique(np.asarray(points, dtype=float))
        self.centred = centred
        self.n, self.lo, self.hi = 0, np.inf, -np.inf
        for w in chunks:
            self._add(w)
        if not self.n:
            raise ParameterError("streamed sums need at least one draw")
        self.tot1[0] = self.n
        self.s2[:, 0, :] = self.s2[:, :, 0] = self.s1
        self.tot2[0, :] = self.tot2[:, 0] = self.tot1

    def _add(self, w: np.ndarray) -> None:
        """Add one chunk's sums; its temporaries go when it returns."""
        if self.points.size:
            w.sort()
        if not self.n:  # s1[k], s2[k]: the sums below key k; key 0 is below every draw
            self.basis, self.centre = self.centred(w)
            m = 1 + len(self.basis(w[:1]))
            self.s1 = np.zeros((self.points.size + 1, m))
            self.s2 = np.zeros((self.points.size + 1, m, m))
            self.tot1, self.tot2 = np.zeros(m), np.zeros((m, m))
        x = np.array(self.basis(w), dtype=float).reshape(-1, w.size)
        self.n += w.size
        self.lo, self.hi = min(self.lo, float(w.min())), max(self.hi, float(w.max()))
        self.tot1[1:] += x.sum(axis=1)
        self.tot2[1:, 1:] += np.einsum("ik,jk->ij", x, x)
        if self.points.size:
            cut = np.searchsorted(w, self.points, side="right")
            self.s1[1:, 0] += cut
            self.s1[1:, 1:] += _sums_below(x, cut).T
            self.s2[1:, 1:, 1:] += np.moveaxis(_sums_below(x[:, None] * x[None], cut), -1, 0)

    def cut(self, u):
        """The key of each u, which must be one of the points: 1 + its rank
        among them."""
        if not np.isin(u, self.points).all():
            raise ParameterError("streamed sums are taken only at the points given before the pass")
        return np.searchsorted(self.points, u) + 1

    def _prefix(self, k: np.ndarray, second: bool):
        return self.s1[k], self.s2[k] if second else None


def piece(st: Stats, u, entry, breaks: bool) -> Piecewise:
    """The table entries ``(a, lo, hi)`` of the P effective predictions u
    (rows of ``u``), for b centred at ``st.centre``, cut at ``st``'s keys;
    without ``breaks`` (no breakpoint) every draw takes lo."""
    (a0, rest), lo, hi = entry
    columns = (a0, *rest())
    a = np.empty((len(u), len(columns)))
    for i, c in enumerate(columns):  # scalars broadcast down their column
        a[:, i] = c
    cut = st.cut(u) if breaks else np.zeros(len(u), dtype=np.intp)
    return Piecewise(cut, lo * a, (hi if breaks else lo) * a)


def per_row(u, w, entry, breaks: bool):
    """The table entry ``(a, lo, hi)`` evaluated row by row, its basis
    centred at each row's own w: the value is ``weight * a[0]``."""
    (a0, _), lo, hi = entry
    if not breaks:
        return a0 if lo == 1.0 else lo * a0
    # take() by the mask's bytes: faster than np.where or indexing, same bits.
    return np.array([hi, lo]).take(np.greater_equal(u, w).view(np.uint8)) * a0
