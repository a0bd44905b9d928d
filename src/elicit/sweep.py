"""The family table's two evaluators, and sums of its basis over the draws
for sweeping predictions over common draws.

Each family is, in the effective realization w, weight * (a . b(w)): the
coefficients a on a small basis b(w), the weight ``lo`` where 1{u >= w} and
``hi`` elsewhere, u being the effective prediction. The rule lives in one
place, the pair :func:`below` (the count of sorted draws w <= u) and
:func:`at_or_above` (1{u >= w} row by row), which every provider and
:func:`per_row` call: :func:`piece` cuts the draws at P predictions, b
centred at constants of the draws; :func:`per_row` centres b at each row's
own w, where the value is weight * a[0]. :class:`Stats` reads P means (and
sums of squares) as dot products (quadratic forms) of a (P, m) coefficient
table with the sums of b (and b b^T) over the draws below each cut, which a
provider supplies. :class:`SortedStats` holds the sorted draws and
cumulates sums over blocks of :data:`BLOCK` of them, so any cut is a
whole-block prefix plus one partial block: O(P log n + P * BLOCK) per sweep
after an O(n) build, with no n-long column kept but the draws.
:class:`StreamedStats` holds no draws: it takes the sums at points fixed
before a pass over chunks of them, and may keep the draws of one window.
:class:`WindowStats` serves both: the streamed sums at the fixed points,
and any point in the window from the held draws offset by the streamed sums
below them. b is centred so that difference variances do not cancel."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError

BLOCK = 128  # measured: each cut gathers a partial block, and more blocks cost the build
_CHUNK = 64 * BLOCK  # draws per basis evaluation, so its columns and products stay small
_SCRATCH = 5 * _CHUNK  # values of a streamed chunk's columns and products at once: quad's 5 rows


def below(w: np.ndarray, u) -> np.ndarray:
    """The number of the sorted draws w with w <= u, at each u: the draws
    where 1{u >= w} = 1."""
    return np.searchsorted(w, u, side="right")


def at_or_above(u, w) -> np.ndarray:
    """1{u >= w} row by row, as uint8."""
    return np.greater_equal(u, w).view(np.uint8)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted ``a``, in order: ``np.unique(a)``,
    whose first call imports ``numpy.ma``."""
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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

    ``basis(w, out=None)`` returns the non-constant basis columns of an
    array of draws, one row each (in ``out`` when given); a constant column
    of ones is always prepended. The draws w are kept as given, neither
    sorted nor copied: sorted, for a sweep that cuts them, or in any order
    for families without a breakpoint, which only ever sum the whole range.
    ``key`` identifies the basis and ``centre`` holds its centring
    constants. A key of :meth:`cut` is the number of draws below.
    """

    def __init__(self, w, basis: Callable, key, centre: tuple):
        self.w = np.ravel(np.asarray(w, dtype=float))
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
            self.basis(w, out=x[:, :w.size])
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
        return below(self.w, u)

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


def _sums_below(w: np.ndarray, cut: np.ndarray, basis: Callable, pairs: list) -> np.ndarray:
    """Sums of the basis columns b(w), and of the products b_i b_j for
    each (i, j) in ``pairs``, over w[:c] for each c of the non-decreasing
    ``cut``, one row per c. Columns and products fill one row each of a
    scratch array of :data:`_SCRATCH` values, a slice of the draws at a
    time; each slice's segments between consecutive cuts are summed by one
    ``reduceat``, and cumulated. No n-long column, no pad copy, and each
    product once."""
    d = len(basis(w[:1]))
    rows = d + len(pairs)
    y = np.empty((rows, min(w.size, _SCRATCH // max(rows, 1))))
    starts = _distinct(np.concatenate(([0], cut[cut < w.size])))  # of the segments
    seg = np.zeros((starts.size, rows))
    for s in range(0, w.size if d else 0, y.shape[1]):
        part = w[s:s + y.shape[1]]
        x = y[:, :part.size]
        basis(part, out=x[:d])
        for q, (i, j) in enumerate(pairs):
            np.multiply(x[i], x[j], out=x[d + q])
        first = np.searchsorted(starts, s, side="right") - 1  # the segments this part meets
        last = np.searchsorted(starts, s + part.size)
        seg[first:last] += np.add.reduceat(
            x, np.concatenate(([s], starts[first + 1:last])) - s, axis=1).T
    sums = np.zeros((starts.size + 1, rows))
    np.cumsum(seg, axis=0, out=sums[1:])
    return sums[np.searchsorted(starts, cut)]


class Held:
    """The draws w in (lo, hi] of a pass, gathered into one array, which
    grows in place (``ndarray.resize``) by an eighth or more as they come,
    so no list of pieces or second copy stands beside it."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        self.w, self.size = np.empty(0), 0

    def add(self, w: np.ndarray) -> None:
        """Keep the draws of the sorted w in (lo, hi]."""
        part = w[slice(*below(w, (self.lo, self.hi)))]
        end = self.size + part.size
        if end > self.w.size:
            self.w.resize(max(end, self.w.size + self.w.size // 8), refcheck=False)
        self.w[self.size:end] = part
        self.size = end

    def draws(self) -> np.ndarray:
        self.w.resize(self.size, refcheck=False)
        return self.w


class StreamedStats(Stats):
    """The sums of :class:`SortedStats` over draws that arrive in chunks,
    taken only at points u_1..u_P fixed before the pass, and in total: no
    n-long array is held. A chunk is sorted in place (its draws are the
    provider's own), cut at every point with one :func:`below` and its basis
    sums below each cut are added; with no points it is only summed.
    ``centred(first chunk)`` gives the basis, as for SortedStats, and its
    centring constants, which stay fixed for the rest of the pass. ``lo``
    and ``hi`` are the least and greatest draw. :meth:`cut` takes only the
    points.

    ``hold(self)``, given with points, is called once the first chunk is
    summed, so that the sums read so far are that chunk's. It returns the
    :class:`Held` in which the pass also keeps the draws of an interval
    (lo, hi], as ``held``; :class:`WindowStats` serves any point there."""

    def __init__(self, chunks, centred: Callable, points=(), hold: Callable | None = None):
        self.points = _distinct(np.sort(np.asarray(points, dtype=float), axis=None))
        self.centred, self.hold = centred, hold
        self.n, self.lo, self.hi, self.held = 0, np.inf, -np.inf, None
        for w in chunks:
            self._add(w)
            del w  # a chunk goes before the next is drawn
        if not self.n:
            raise ParameterError("streamed sums need at least one draw")
        self._finish()

    def _finish(self) -> None:
        """The sums added so far, as s1, s2 (below each key) and tot1, tot2."""
        # acc rows: key 0 (below every draw), the points, all draws; columns:
        # the count, the basis sums, the sums of the products in self.pairs
        m = self.acc.shape[1] - len(self.pairs)
        s2 = np.empty((len(self.acc), m, m))
        s2[:, 0, :] = s2[:, :, 0] = self.acc[:, :m]
        for q, (i, j) in enumerate(self.pairs):
            s2[:, 1 + i, 1 + j] = s2[:, 1 + j, 1 + i] = self.acc[:, m + q]
        self.s1, self.s2 = self.acc[:-1, :m], s2[:-1]
        self.tot1, self.tot2 = self.acc[-1, :m], s2[-1]

    def _add(self, w: np.ndarray) -> None:
        """Add one chunk's sums; its temporaries go when it returns."""
        first = not self.n
        if first:  # centred in draw order, as sorted_stats centres held draws
            self.basis, self.centre = self.centred(w)
            d = len(self.basis(w[:1]))
            self.upper = np.triu_indices(d)  # the products b_i b_j, i <= j, summed
            self.pairs = list(zip(*self.upper))
            self.acc = np.zeros((self.points.size + 2, 1 + d + len(self.pairs)))
        self.n += w.size
        self.lo, self.hi = min(self.lo, float(w.min())), max(self.hi, float(w.max()))
        if self.points.size:
            w.sort()
            cut = np.append(below(w, self.points), w.size)
            self.acc[1:, 0] += cut
            self.acc[1:, 1:] += _sums_below(w, cut, self.basis, self.pairs)
        else:  # the totals alone: one product matrix, the fastest
            x = self.basis(w)
            self.acc[1, 0] += w.size
            self.acc[1, 1:] += np.concatenate((x.sum(axis=1),
                                               np.einsum("ik,jk->ij", x, x)[self.upper]))
        if first and self.hold is not None:
            self._finish()
            self.held = self.hold(self)
        if self.held is not None:
            self.held.add(w)

    def cut(self, u):
        """The key of each u, which must be one of the points: 1 + its rank
        among them."""
        k = np.searchsorted(self.points, u)
        if not (k < self.points.size).all() or (self.points[k] != u).any():
            raise ParameterError("streamed sums are taken only at the points given before the pass")
        return k + 1

    def _prefix(self, k: np.ndarray, second: bool):
        return self.s1[k], self.s2[k] if second else None


class WindowStats(Stats):
    """The sums of a streamed pass ``st`` at its points, and at any u in a
    window (lo, hi] from the draws w held there: the streamed sums at lo
    (nothing at lo = -inf), a point of the pass, plus a :class:`SortedStats`
    of w on the pass' basis and centre. A key is the number of draws below
    u, as for SortedStats, so a window point and a point of the pass mix in
    one call."""

    def __init__(self, st: StreamedStats, w: np.ndarray, lo: float, hi: float):
        self.st, self.window = st, (lo, hi)
        self.n, self.centre, self.tot1, self.tot2 = st.n, st.centre, st.tot1, st.tot2
        self.counts = st.s1[:, 0].astype(np.intp)
        k = int(st.cut([lo])[0]) if lo > -np.inf else 0
        self.below, self.below1, self.below2 = self.counts[k], st.s1[k], st.s2[k]
        w.sort()  # the held draws are the window's own
        self.sorted = SortedStats(w, st.basis, None, st.centre)

    def cut(self, u):
        # u against the window's ends, not a draw: the ends are points of the
        # pass, where both branches give the same key under either tie rule.
        u = np.asarray(u, dtype=float)
        inside = (u >= self.window[0]) & (u <= self.window[1])
        keys = np.empty(u.shape, dtype=np.intp)
        keys[inside] = self.below + self.sorted.cut(u[inside])
        keys[~inside] = self.counts[self.st.cut(u[~inside])]
        return keys

    def _prefix(self, k: np.ndarray, second: bool):
        """A key within the window's counts reads the held draws; any other
        is a point's count, which that point's sums carry."""
        inside = (k >= self.below) & (k <= self.below + self.sorted.n)
        j = np.minimum(np.searchsorted(self.counts, k), self.counts.size - 1)
        s1, s2 = self.st.s1[j], self.st.s2[j] if second else None
        if inside.any():
            h1, h2 = self.sorted._prefix(k[inside] - self.below, second)
            s1[inside] = self.below1 + h1
            if second:
                s2[inside] = self.below2 + h2
        return s1, s2


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
    return np.array([hi, lo]).take(at_or_above(u, w)) * a0
