"""Both evaluators of the family table against the reference formulas of
``oracle.py``, which are written independently of the table.

Per row (``score_values``, ``ident_values``, ``average_score``) the table
must give the oracle's values bit for bit; only the mv score, whose table
entry expands the square differently, may differ, by 1e-12 relative to
the mean |S|. The sorted sweep kernel must agree with the oracle's means
to 1e-9 relative to the mean |S| (it sums centred block sums in another
order, so bit equality is out of reach). Standard errors are compared as
variances, to 1e-9 relative to the mean of S^2: a one-pass variance loses
that much, never more. A batch of predictions must give each one what a
one-prediction call gives it, to 1e-12 on the same scales.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from elicit.distributions import CHUNK
from elicit.errors import ParameterError
from elicit.functionals import sample_mv_pair
from elicit import sweep
from elicit.identification import (evaluate_identification, expected_ident_curve,
                                   ident_stats, ident_values, mv_ident_stats,
                                   prepare_ident_realizations, streamed_ident_curve)
from elicit.scoring import (TransformMode, argmin_window, average_score, evaluate_score,
                            expected_score, expected_score_curve, expected_score_stats,
                            grid_pass, held_moments, held_window, prepare_realizations,
                            score_diff_stats, score_values, streamed_score_stats,
                            streamed_stats)
from elicit.specs import parse_ident, parse_score
from elicit.sweep import _CHUNK, BLOCK, Held

REL = 1e-9

MODES = ("", "@realization:log", "@prediction:exp", "@both:log", "@both:negate")
# Every family but mv in every mode; at tau = 1/2 the expectile weights are
# equal, but the family still has its breakpoint.
SCORE_SPECS = [f"{fam}{mode}" for fam in (
    "se", "ae", "apl:tau=0.3", "gpl:tau=0.6:g=exp", "expectile:tau=0.75:phi=square",
    "expectile:tau=0.5:phi=square", "bregman:phi=square") for mode in MODES] + [
    "gpl:tau=0.2:g=log", "apl:tau=0.25@both:negate"]
IDENT_SPECS = [f"{fam}{mode}" for fam in (
    "mean", "quantile:tau=0.3", "expectile:tau=0.8", "expectile:tau=0.5") for mode in MODES]

# Sizes below one block, at it, around it, and not a multiple of it.
SIZES = st.one_of(st.sampled_from([2, 3, 17, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]),
                  st.integers(2, 4 * BLOCK))


@st.composite
def draws_and_predictions(draw):
    """Positive draws (ties when rounded, or an Empirical-like few values)
    and predictions: inside the data, equal to a draw, and outside it."""
    n = draw(SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "rounded", "few"]))
    if kind == "few":
        y = rng.choice(np.array([1.0, 1.0, 2.0, 2.0, 3.5]), size=n)
    else:
        y = rng.lognormal(0.0, 0.7, n)
        if kind == "rounded":
            y = np.round(y, 1) + 0.05
    zs = [float(y[draw(st.integers(0, n - 1))]),  # a tie with a draw
          float(np.min(y)) / 2.0, float(np.max(y)) + 1.0]  # outside the data
    zs += draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4))
    return y, np.array(zs)


def _paired(y, seed):
    """Predictions for paired rows: about a third equal to their draw."""
    rng = np.random.default_rng(seed)
    z = y * np.exp(rng.normal(0.0, 0.3, y.size))
    return np.where(rng.random(y.size) < 0.3, y, z)


def _assert_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("text", SCORE_SPECS)
@given(data=draws_and_predictions(), seed=st.integers(0, 2**32 - 1))
def test_score_rows_equal_the_oracle_bit_for_bit(text, data, seed):
    spec = parse_score(text)
    y, zs = data
    prepared = prepare_realizations(spec, y)
    for z in zs:
        _assert_identical(score_values(spec, z, prepared), oracle.score(spec, z, y))
        _assert_identical(evaluate_score(spec, z, y[0]), float(oracle.score(spec, z, y[0])))
    z = _paired(y, seed)
    want = oracle.score(spec, z, y)
    _assert_identical(evaluate_score(spec, z, y), want)
    assert average_score(spec, z, y) == float(np.mean(want))


@pytest.mark.parametrize("text", IDENT_SPECS)
@given(data=draws_and_predictions(), seed=st.integers(0, 2**32 - 1))
def test_ident_rows_equal_the_oracle_bit_for_bit(text, data, seed):
    spec = parse_ident(text)
    y, zs = data
    prepared = prepare_ident_realizations(spec, y)
    for z in zs:
        _assert_identical(ident_values(spec, z, prepared), oracle.ident(spec, z, y))
        assert evaluate_identification(spec, z, y[0]) == float(oracle.ident(spec, z, y[0]))
    z = _paired(y, seed)
    _assert_identical(evaluate_identification(spec, z, y), oracle.ident(spec, z, y))


@pytest.mark.parametrize("text", ["bregman", "expectile:tau=0.3"])
@pytest.mark.parametrize("m", [1e4, 1e6, 1e8])
def test_square_phi_scores_are_exact_at_any_location(text, m):
    """The square phi's Bregman gap is (z - y)^2 at every location: its terms
    phi(y) and phi(z) are of size m^2, and their difference would cancel."""
    spec = parse_score(text)
    tau = 0.5 if spec.tau is None else spec.tau
    y = np.random.default_rng(5).normal(m, 1.0, 20000)
    zs = m + np.linspace(-1.0, 1.0, 41)
    exact = np.where(zs[:, None] >= y, 1.0 - tau, tau) * np.square(zs[:, None] - y)
    prepared = prepare_realizations(spec, y)
    want = exact.mean(axis=1)
    assert np.all(np.abs(expected_score_curve(spec, zs, prepared) - want) <= REL * want)
    for z, rows in zip(zs[::10], exact[::10]):
        assert np.all(np.abs(score_values(spec, z, prepared) - rows) <= 1e-12 * rows)
    z = y + np.random.default_rng(6).normal(0.0, 0.1, y.size)
    rows = np.where(z >= y, 1.0 - tau, tau) * np.square(z - y)
    assert np.all(np.abs(evaluate_score(spec, z, y) - rows) <= 1e-12 * rows)
    assert abs(average_score(spec, z, y) - rows.mean()) <= 1e-12 * rows.mean()


@pytest.mark.parametrize("mode", ["", "@realization:log"])
@given(data=draws_and_predictions(), seed=st.integers(0, 2**32 - 1))
def test_mean_variance_rows_match_the_oracle(mode, data, seed):
    y, _ = data
    rng = np.random.default_rng(seed)
    pairs = np.column_stack([rng.normal(0.0, 2.0, y.size), rng.uniform(0.05, 5.0, y.size)])
    spec = parse_score("mv" + mode)
    prepared = prepare_realizations(spec, y)
    want = oracle.score(spec, pairs, y)
    got = evaluate_score(spec, pairs, y)
    assert np.all(np.abs(got - want) <= 1e-12 * float(np.mean(np.abs(want))))
    avg = average_score(spec, pairs, y)
    assert abs(avg - float(np.mean(want))) <= 1e-12 * float(np.mean(np.abs(want)))
    for pair in pairs[:3]:
        want = oracle.score(spec, pair, y)
        got = score_values(spec, pair, prepared)
        assert np.all(np.abs(got - want) <= 1e-12 * float(np.mean(np.abs(want))))
    ident = parse_ident("mv" + mode)
    got = ident_values(ident, pairs[0], prepare_ident_realizations(ident, y))
    for a, b in zip(got, oracle.ident(ident, pairs[0], y)):
        _assert_identical(a, b)


def _direct_stats(values):
    v = np.asarray(values, dtype=float)
    return float(np.mean(v)), float(np.var(v, ddof=1))


def _assert_stats(mean, se, values, n):
    """mean/stderr from the kernel against the direct values of one function."""
    v = np.asarray(values, dtype=float)
    m0, var0 = _direct_stats(v)
    assert abs(mean - m0) <= REL * max(float(np.mean(np.abs(v))), 1e-300)
    assert abs(se * se * n - var0) <= REL * max(float(np.mean(v * v)), 1e-300)


@pytest.mark.parametrize("text", SCORE_SPECS)
@given(data=draws_and_predictions())
def test_score_sweeps_match_direct(text, data):
    spec = parse_score(text)
    y, zs = data
    prepared = prepare_realizations(spec, y)
    n = y.size
    direct = [np.asarray(oracle.score(spec, z, y), dtype=float) for z in zs]

    curve = expected_score_curve(spec, zs, prepared)
    means, ses = expected_score_stats(spec, zs, prepared)
    for k, s in enumerate(direct):
        scale = max(float(np.mean(np.abs(s))), 1e-300)
        assert abs(curve[k] - np.mean(s)) <= REL * scale
        assert abs(expected_score(spec, zs[k], prepared) - np.mean(s)) <= REL * scale
        _assert_stats(means[k], ses[k], s, n)

    dmean, dse = score_diff_stats(spec, zs[0], zs, prepared)
    for k, s in enumerate(direct):
        d = direct[0] - s
        scale = max(float(np.mean(np.abs(direct[0]) + np.abs(s))), 1e-300)
        assert abs(dmean[k] - np.mean(d)) <= REL * scale
        assert abs(dse[k] ** 2 * n - np.var(d, ddof=1)) <= \
            REL * max(float(np.mean(direct[0] ** 2 + s ** 2)), 1e-300)
    # z == z_ref: the paired difference vanishes exactly, never NaN
    assert dmean[0] == 0.0 and dse[0] == 0.0


@pytest.mark.parametrize("text", IDENT_SPECS)
@given(data=draws_and_predictions())
def test_ident_sweep_matches_direct(text, data):
    spec = parse_ident(text)
    y, zs = data
    prepared = prepare_ident_realizations(spec, y)
    means, ses = expected_ident_curve(spec, zs, prepared)
    for k, z in enumerate(zs):
        _assert_stats(means[k], ses[k], oracle.ident(spec, z, y), y.size)


@pytest.mark.parametrize("text", ["mv", "mv@realization:log"])
@given(data=draws_and_predictions(),
       pairs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 5.0)),
                      min_size=1, max_size=5))
def test_mean_variance_sweep_matches_direct(text, data, pairs):
    spec = parse_score(text)
    y, _ = data
    prepared = prepare_realizations(spec, y)
    curve = expected_score_curve(spec, pairs, prepared)
    for k, pair in enumerate(pairs):
        s = np.asarray(oracle.score(spec, pair, y), dtype=float)
        assert abs(curve[k] - np.mean(s)) <= REL * float(np.mean(np.abs(s)))


def test_tie_convention_counts_draw_equal_to_prediction_as_below():
    # 1{z >= y} = 1 at z = y: the pinball score of z = 1 on {1, 2} is
    # ((1 - tau) * 0 + (-tau) * (1 - 2)) / 2
    spec = parse_score("apl:tau=0.3")
    prepared = prepare_realizations(spec, np.array([2.0, 1.0]))
    assert expected_score_curve(spec, [1.0], prepared)[0] == pytest.approx(0.15, abs=1e-15)
    ident = parse_ident("quantile:tau=0.3")
    (m,), _ = expected_ident_curve(ident, [1.0], prepare_ident_realizations(ident, [2.0, 1.0]))
    assert m == pytest.approx(0.5 - 0.3, abs=1e-15)


def test_several_build_chunks_match_direct():
    # more draws than one chunk of block sums, with a ragged last block
    spec = parse_score("expectile:tau=0.75:phi=square@both:log")
    y = np.random.default_rng(7).lognormal(0.0, 1.0, 70_001)
    prepared = prepare_realizations(spec, y)
    zs = np.array([0.4, 1.0, float(y[123]), 2.5])
    means, ses = expected_score_stats(spec, zs, prepared)
    for k, z in enumerate(zs):
        _assert_stats(means[k], ses[k], oracle.score(spec, z, y), y.size)


def test_sweep_keeps_draw_order_and_domain_errors():
    spec = parse_score("se@both:log")
    y = np.array([3.0, 1.0, 2.0])
    prepared = prepare_realizations(spec, y)
    before = prepared.y.copy()
    expected_score_curve(spec, [1.0, 2.0], prepared)
    assert np.array_equal(prepared.y, before)
    from elicit import DomainError
    with pytest.raises(DomainError):
        expected_score_curve(spec, [-1.0], prepared)
    with pytest.raises(DomainError):
        expected_score_curve(parse_score("mv"), [(0.0, 0.0)],
                             prepare_realizations(parse_score("mv"), y))


def test_single_draw_has_undefined_stderr():
    spec = parse_score("se")
    means, ses = expected_score_stats(spec, [0.5], prepare_realizations(spec, [1.0]))
    assert means[0] == 0.25 and math.isnan(ses[0])


def _close(got, want, scale, rel=1e-12):
    assert abs(got - want) <= rel * max(scale, 1e-300), (got, want, scale)


@pytest.mark.parametrize("text", SCORE_SPECS)
@given(data=draws_and_predictions(), ref=st.integers(0, 10))
def test_batched_sweeps_equal_one_prediction_at_a_time(text, data, ref):
    """A P-point sweep gives each point what a one-point sweep gives it, and
    a paired difference is exactly (0.0, 0.0) where z == z_ref, wherever
    z_ref sits in the batch."""
    spec = parse_score(text)
    y, zs = data
    prepared = prepare_realizations(spec, y)
    n = y.size
    z_ref = zs[ref % zs.size]
    curve = expected_score_curve(spec, zs, prepared)
    means, ses = expected_score_stats(spec, zs, prepared)
    dmean, dse = score_diff_stats(spec, z_ref, zs, prepared)
    s_ref = np.asarray(oracle.score(spec, z_ref, y), dtype=float)
    for k, z in enumerate(zs):
        s = np.asarray(oracle.score(spec, z, y), dtype=float)
        scale, square = float(np.mean(np.abs(s))), float(np.mean(s * s))
        _close(curve[k], expected_score(spec, z, prepared), scale)
        (m1,), (se1,) = expected_score_stats(spec, [z], prepared)
        _close(means[k], m1, scale)
        _close(ses[k] ** 2 * n, se1 ** 2 * n, square)
        (d1,), (de1,) = score_diff_stats(spec, z_ref, [z], prepared)
        _close(dmean[k], d1, scale + float(np.mean(np.abs(s_ref))))
        _close(dse[k] ** 2 * n, de1 ** 2 * n, square + float(np.mean(s_ref * s_ref)))
        if z == z_ref:
            assert dmean[k] == 0.0 and dse[k] == 0.0
            assert d1 == 0.0 and de1 == 0.0


@pytest.mark.parametrize("text", IDENT_SPECS)
@given(data=draws_and_predictions())
def test_batched_ident_sweep_equals_one_prediction_at_a_time(text, data):
    spec = parse_ident(text)
    y, zs = data
    prepared = prepare_ident_realizations(spec, y)
    means, ses = expected_ident_curve(spec, zs, prepared)
    for k, z in enumerate(zs):
        v = np.asarray(oracle.ident(spec, z, y), dtype=float)
        (m1,), (se1,) = expected_ident_curve(spec, [z], prepared)
        _close(means[k], m1, float(np.mean(np.abs(v))))
        _close(ses[k] ** 2 * y.size, se1 ** 2 * y.size, float(np.mean(v * v)))


# Draws across build chunks; predictions that cut at a block boundary, at a
# chunk boundary, below every draw (cut 0) and above every draw (cut n).
CHUNK_SIZES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 17]


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("text", ["se", "apl:tau=0.3", "gpl:tau=0.6:g=exp@realization:log",
                                  "expectile:tau=0.75:phi=square", "bregman:phi=square"])
def test_chunked_builds_and_block_boundary_cuts_match_direct(n, text):
    spec = parse_score(text)
    y = np.random.default_rng(n).lognormal(0.0, 0.7, n)
    prepared = prepare_realizations(spec, y)
    w = np.sort(prepared.y)
    cuts = [k for k in (BLOCK, 7 * BLOCK, _CHUNK, n - n % BLOCK, n // 2) if k <= n]
    zs = np.array([w[k - 1] for k in cuts] + [w[0] - 1.0, w[-1] + 1.0])
    means, ses = expected_score_stats(spec, zs, prepared)
    if prepared.sweep.key[1]:  # sorted draws: the family's breakpoint cuts where intended
        assert list(prepared.sweep.cut(zs)) == cuts + [0, n]
    curve = expected_score_curve(spec, zs, prepared)
    direct = [oracle.score(spec, z, y) for z in zs]
    for k, s in enumerate(direct):
        _assert_stats(means[k], ses[k], s, n)
        assert abs(curve[k] - np.mean(s)) <= REL * float(np.mean(np.abs(s)))
    dmean, dse = score_diff_stats(spec, zs[0], zs, prepared)
    for k, s in enumerate(direct):
        d = direct[0] - s
        assert abs(dmean[k] - np.mean(d)) <= REL * float(np.mean(np.abs(direct[0]) + np.abs(s)))
        assert abs(dse[k] ** 2 * n - np.var(d, ddof=1)) <= \
            REL * float(np.mean(direct[0] ** 2 + s ** 2))
    assert dmean[0] == 0.0 and dse[0] == 0.0


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_chunked_ident_sweeps_match_direct(n):
    y = np.random.default_rng(n).lognormal(0.0, 0.7, n)
    w = np.sort(y)
    zs = np.array([w[BLOCK - 1], w[n - n % BLOCK - 1], w[0] / 2.0, w[-1] + 1.0, w[n // 2]])
    for text in ("mean", "quantile:tau=0.3", "expectile:tau=0.8"):
        spec = parse_ident(text)
        means, ses = expected_ident_curve(spec, zs, prepare_ident_realizations(spec, y))
        for k, z in enumerate(zs):
            _assert_stats(means[k], ses[k], oracle.ident(spec, z, y), n)


@pytest.mark.parametrize("text", ["se", "apl:tau=0.3", "expectile:tau=0.75:phi=square",
                                  "gpl:tau=0.6:g=exp", "mv"])
def test_sorted_stats_keeps_no_n_long_column_but_the_draws(text):
    spec = parse_score(text)
    n = 2 * _CHUNK + 17
    y = np.random.default_rng(3).lognormal(0.0, 0.7, n)
    prepared = prepare_realizations(spec, y)
    expected_score_curve(spec, [(1.0, 0.5)] if text == "mv" else [1.0, 2.0], prepared)
    arrays = {k: v for k, v in vars(prepared.sweep).items() if isinstance(v, np.ndarray)}
    assert arrays.pop("w").size == n
    assert arrays and all(a.size < n for a in arrays.values())


def _split(y, cuts):
    """A copy of y in chunks, cut at ``cuts`` (positions in 1..n-1)."""
    return np.split(y.copy(), sorted(set(cuts)))


@pytest.mark.parametrize("text", IDENT_SPECS)
@given(data=draws_and_predictions(), cuts=st.lists(st.integers(1, 4 * BLOCK), max_size=3))
def test_streamed_ident_curve_equals_the_held_sweep(text, data, cuts):
    """Chunk by chunk, at points fixed before the pass, the same (mean,
    stderr) at every point as the sweep of the held draws: bit for bit where
    they are counts (quantile), else to 1e-12 on the mean |V| and mean V^2."""
    spec = parse_ident(text)
    y, zs = data
    cuts = [c for c in cuts if c < y.size]
    means, ses = streamed_ident_curve(spec, zs, _split(y, cuts))
    want_means, want_ses = expected_ident_curve(spec, zs, prepare_ident_realizations(spec, y))
    if spec.family == "quantile":
        _assert_identical(means, want_means)
        _assert_identical(ses, want_ses)
    for k, z in enumerate(zs):
        v = np.asarray(oracle.ident(spec, z, y), dtype=float)
        _close(means[k], want_means[k], float(np.mean(np.abs(v))))
        _close(ses[k] ** 2 * y.size, want_ses[k] ** 2 * y.size, float(np.mean(v * v)))


@given(data=draws_and_predictions(), cuts=st.lists(st.integers(1, 4 * BLOCK), max_size=3))
def test_streamed_sums_count_the_draws_at_or_below_each_point(data, cuts):
    """The 1{u >= w} rule on chunks: an atom on a point counts below it."""
    y, zs = data
    st_ = streamed_stats(TransformMode.none(), _split(y, [c for c in cuts if c < y.size]),
                         "lin", zs)
    keys = st_.cut(zs)
    t = y - st_.centre[0]
    for k, z in zip(keys, zs):
        below = y <= z
        assert st_.s1[k, 0] == np.sum(below)
        _close(st_.s1[k, 1], np.sum(t[below]), float(np.sum(np.abs(t))))
        _close(st_.s2[k, 1, 1], np.sum(t[below] ** 2), float(np.sum(t * t)))
    assert st_.n == y.size and (st_.lo, st_.hi) == (np.min(y), np.max(y))
    with pytest.raises(ParameterError, match="only at the points"):
        st_.cut([float(np.max(zs)) + 1.0])


@pytest.mark.parametrize("location", [0.0, 1e3, 1e6])
def test_streamed_moments_match_the_direct_formulas_far_from_zero(location):
    """Location much larger than scale: the moments about the first chunk's
    mean give the two-pass sample mean, variance, their standard errors and
    the mean-variance identification's means and standard errors."""
    n = 3 * CHUNK + 17
    w = location + np.random.default_rng(7).lognormal(0.0, 0.5, n)
    st_ = held_moments(w)
    pair = sample_mv_pair(st_)
    (m, v), (se_m, se_v) = pair.value, pair.stderr
    d = w - np.mean(w)
    v0 = float(np.sum(d * d) / (n - 1))
    assert abs(m - np.mean(w)) <= 1e-15 * abs(np.mean(w)) + REL * math.sqrt(v0)
    assert v == pytest.approx(v0, rel=REL)
    assert se_m == pytest.approx(math.sqrt(v0 / n), rel=REL)
    assert se_v == pytest.approx(math.sqrt((np.mean(d ** 4) - v0 * v0) / n), rel=REL)
    x1, x2 = float(np.mean(w)) + 0.01, v0 * 1.1
    # V2 = x2 + x1^2 - w^2, written so that nothing cancels far from zero
    direct = [x1 - w, x2 - (w - x1) * (w + x1)]
    means, ses = mv_ident_stats((x1, x2), st_)
    for k, vals in enumerate(direct):
        _assert_stats(means[k], ses[k], vals, n)


# test_memory's family x mode grid: the scalar scores a streamed argmin sweeps.
WINDOW_SPECS = [f"{fam}{mode}" for fam in (
    "se", "ae", "apl:tau=0.3", "gpl:tau=0.6:g=exp", "expectile:tau=0.75:phi=square",
    "bregman:phi=square") for mode in MODES]


@st.composite
def windowed(draw):
    """A grid, draws (smooth, tied, or atoms on grid points) in chunks, a
    grid index to polish at and a point near it."""
    zs = np.linspace(0.4, 3.0, draw(st.sampled_from([7, 21, 41, 61])))
    n = draw(st.integers(20, 3 * BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "rounded", "atoms"]))
    if kind == "atoms":
        y = rng.choice(zs[rng.integers(0, zs.size, 3)], size=n)
    else:
        y = rng.lognormal(0.2, 0.5, n)
        if kind == "rounded":
            y = np.round(y, 1) + 0.05
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    i = draw(st.integers(1, zs.size - 2))
    a, b = zs[max(i - 2, 0)], zs[min(i + 2, zs.size - 1)]
    return zs, y, cuts, i, a + draw(st.floats(0.0, 1.0)) * (b - a)


@pytest.mark.parametrize("text", WINDOW_SPECS)
@settings(max_examples=10)
@given(data=windowed())
def test_the_window_provider_equals_the_held_sweep(text, data):
    """The sums of a streamed argmin (the grid pass, then the window at grid
    index i, from the held draws or a second pass) give what the held sweep
    of the same draws gives, to 1e-12 of the mean |S| (and mean S^2): on the
    grid, at a point within two steps of zs[i], and paired between the two."""
    spec = parse_score(text)
    zs, y, cuts, i, z = data
    n = y.size

    def draws():
        return _split(y, cuts)

    window = argmin_window(spec, grid_pass(spec, draws, n, zs), zs, i, draws)
    held = prepare_realizations(spec, y)
    s_z = np.asarray(oracle.score(spec, z, y), dtype=float)
    scale_z = float(np.mean(np.abs(s_z)))
    _close(expected_score(spec, z, window), expected_score(spec, z, held), scale_z)
    got, want = expected_score_stats(spec, zs, window), expected_score_stats(spec, zs, held)
    diffs = score_diff_stats(spec, z, zs, window), score_diff_stats(spec, z, zs, held)
    for k, zk in enumerate(zs):
        s = np.asarray(oracle.score(spec, zk, y), dtype=float)
        scale, square = float(np.mean(np.abs(s))), float(np.mean(s * s))
        _close(got[0][k], want[0][k], scale)
        _close(got[1][k] ** 2 * n, want[1][k] ** 2 * n, square)
        _close(diffs[0][0][k], diffs[1][0][k], scale + scale_z)
        _close(diffs[0][1][k] ** 2 * n, diffs[1][1][k] ** 2 * n, square + float(np.mean(s_z * s_z)))


# The tie rule 1{u >= w} and its strict flip 1{u > w}, as the pair of
# sweep functions every provider and per_row call.
TIE_RULES = {
    "at_or_above": {},
    "strict": {"below": lambda w, u: np.searchsorted(w, u, side="left"),
               "at_or_above": lambda u, w: np.greater(u, w).view(np.uint8)},
}
TIE_SPECS = [("score", "ae"), ("score", "apl:tau=0.3"), ("score", "gpl:tau=0.6:g=exp"),
             ("score", "expectile:tau=0.75:phi=square"), ("ident", "quantile:tau=0.3"),
             ("ident", "expectile:tau=0.8")]


@st.composite
def atoms_on_the_grid(draw):
    """A grid, a grid index i whose window (zs[i - 2], zs[i + 2]] is bounded,
    a point inside that window, and draws in chunks with atoms at the
    window's ends, at the point inside and at grid points (every atom at
    least once), alone or among smooth draws."""
    zs = np.linspace(0.4, 3.0, draw(st.sampled_from([7, 21])))
    i = draw(st.integers(2, zs.size - 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = 0.5 * (zs[i] + zs[i + 1])
    atoms = np.concatenate((zs[[i - 2, i + 2]], [inside], rng.choice(zs, 2)))
    rest = rng.choice(atoms, draw(st.integers(20, 3 * BLOCK)))
    if draw(st.booleans()):
        smooth = rng.random(rest.size) < 0.5
        rest[smooth] = rng.lognormal(0.2, 0.5, np.count_nonzero(smooth))
    y = rng.permutation(np.concatenate((atoms, rest)))
    cuts = draw(st.lists(st.integers(1, y.size - 1), min_size=1, max_size=4))
    return zs, i, np.append(zs, inside), y, cuts


def _score_means(spec, zs, i, points, y, draws):
    prepared = prepare_realizations(spec, y)
    window = argmin_window(spec, grid_pass(spec, draws, y.size, zs), zs, i, draws)
    return ([score_values(spec, z, prepared) for z in points],
            {"held": expected_score_curve(spec, points, prepared),
             "streamed": streamed_score_stats(spec, points, draws())[0],
             "window": expected_score_curve(spec, points, window)})


def _ident_means(spec, zs, i, points, y, draws):
    prepared = prepare_ident_realizations(spec, y)
    lo, hi = zs[i - 2], zs[i + 2]
    basis = "one" if spec.family == "quantile" else "lin"
    window = held_window(streamed_stats(spec.transform, draws(), basis, zs,
                                        lambda _: Held(lo, hi)), lo, hi, draws)
    return ([ident_values(spec, z, prepared) for z in points],
            {"held": expected_ident_curve(spec, points, prepared)[0],
             "streamed": streamed_ident_curve(spec, points, draws())[0],
             "window": ident_stats(spec, window, points)[0]})


@pytest.mark.parametrize("rule", TIE_RULES)
@pytest.mark.parametrize("kind, text", TIE_SPECS)
@settings(max_examples=25, deadline=None)
@given(data=atoms_on_the_grid())
def test_every_provider_applies_the_one_tie_rule(rule, kind, text, data):
    """Under the tie rule and under its strict flip, per_row's mean and the
    held, streamed and window sweeps agree at the grid points and at a point
    inside the window, each an atom of the draws, to 1e-12 of the mean |S|:
    patching the pair in sweep switches every provider at once."""
    zs, i, points, y, cuts = data
    with pytest.MonkeyPatch.context() as mp:
        for name, flipped in TIE_RULES[rule].items():
            mp.setattr(sweep, name, flipped)
        spec = parse_score(text) if kind == "score" else parse_ident(text)
        means = _score_means if kind == "score" else _ident_means
        rows, swept = means(spec, zs, i, points, y, lambda: _split(y, cuts))
    if spec.family == "quantile":  # the rule in force, at the window's lower end
        lo = zs[i - 2]
        below = y <= lo if rule == "at_or_above" else y < lo
        assert np.mean(rows[i - 2]) == pytest.approx(np.mean(below) - spec.tau, abs=1e-15)
    for k, v in enumerate(rows):
        for got in swept.values():
            _close(got[k], np.mean(v), float(np.mean(np.abs(v))))
