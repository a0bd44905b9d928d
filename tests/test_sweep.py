"""The sorted sufficient-statistic sweep kernel against the direct formulas.

``score_values`` / ``ident_values`` evaluate every draw directly and are
the oracle. Means must agree to 1e-9 relative to the mean |S| (the kernel
sums centred block sums in another order, so bit equality is out of
reach). Standard errors are compared as variances, to 1e-9 relative to the
mean of S^2: a one-pass variance loses that much, never more.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elicit.identification import (expected_ident_curve, ident_values,
                                   prepare_ident_realizations)
from elicit.scoring import (expected_score, expected_score_curve, expected_score_stats,
                            prepare_realizations, score_diff_stats, score_values)
from elicit.specs import parse_ident, parse_score
from elicit.sweep import BLOCK

REL = 1e-9

MODES = ("", "@realization:log", "@prediction:exp", "@both:log", "@both:negate")
SCORE_SPECS = [f"{fam}{mode}" for fam in (
    "se", "ae", "apl:tau=0.3", "gpl:tau=0.6:g=exp", "expectile:tau=0.75:phi=square",
    "bregman:phi=square") for mode in MODES] + ["gpl:tau=0.2:g=log", "apl:tau=0.25@both:negate"]
IDENT_SPECS = [f"{fam}{mode}" for fam in ("mean", "quantile:tau=0.3", "expectile:tau=0.8")
               for mode in MODES]

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
    direct = [np.asarray(score_values(spec, z, prepared), dtype=float) for z in zs]

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
        _assert_stats(means[k], ses[k], ident_values(spec, z, prepared), y.size)


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
        s = np.asarray(score_values(spec, pair, prepared), dtype=float)
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
        _assert_stats(means[k], ses[k], score_values(spec, z, prepared), y.size)


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
