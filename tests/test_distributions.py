import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import expon, lognorm, norm, uniform

import oracle
from elicit import (Empirical, Exponential, Interval, Lognormal, Normal,
                    ParameterError, SpecParseError, Uniform, sample_iid)
from elicit.distributions import CHUNK, ndtr, ndtri, sample_chunks, sorted_quantile
from elicit.functionals import FunctionalSpec, expectile_exact, streamed_functional

CONTINUOUS = [
    Normal(0.0, 1.0),
    Normal(-1.5, 2.5),
    Lognormal(0.0, 1.0),
    Lognormal(0.3, 0.7),
    Exponential(1.0),
    Exponential(2.0),
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
]


def test_sampling_means_match_analytic():
    variants = [Uniform(0.0, 1.0), Exponential(2.0), Normal(0.5, 2.0),
                Lognormal(0.0, 1.0), Empirical((1.0, 2.0, 7.0))]
    for k, dist in enumerate(variants):
        est = oracle.mc_mean(lambda y: y, dist, 10**6, seed=3 + k)
        assert abs(est.value - dist.mean()) <= 3 * est.stderr


def test_lognormal_log_draws_are_normal():
    dist = Lognormal(0.0, 1.0)
    logs = np.log(sample_iid(dist, 10**6, seed=4))
    se_mean = logs.std(ddof=1) / 1000.0
    assert abs(logs.mean() - 0.0) <= 3 * se_mean
    assert abs(logs.var(ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / 10**6)


def test_sampling_reproducible():
    d = Exponential(1.0)
    assert np.array_equal(sample_iid(d, 100, seed=9), sample_iid(d, 100, seed=9))


class TestCdf:
    def test_normal_symmetry(self):
        assert Normal(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_half_life(self):
        # 1 - exp(-ln 2) = 1/2
        assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_empirical_step(self):
        assert Empirical((1.0, 2.0, 3.0)).cdf(2.0) == pytest.approx(2.0 / 3.0)
        assert Empirical((1.0, 2.0, 3.0)).cdf(0.5) == 0.0
        assert Empirical((1.0, 2.0, 3.0)).cdf(3.5) == 1.0

    def test_against_scipy(self):
        pairs = [
            (Normal(1.0, 2.0), norm(1.0, 2.0)),
            (Lognormal(0.2, 0.8), lognorm(0.8, scale=math.exp(0.2))),
            (Exponential(1.5), expon(scale=1.0 / 1.5)),
            (Uniform(-1.0, 3.0), uniform(-1.0, 4.0)),
        ]
        for dist, ref in pairs:
            for y in (-0.5, 0.3, 1.0, 2.7):
                assert dist.cdf(y) == pytest.approx(ref.cdf(y), abs=1e-12)


@settings(max_examples=200)
@given(x=st.floats(-30.0, 8.0))
def test_ndtr_matches_scipy(x):
    want = float(special.ndtr(x))
    assert abs(ndtr(x) - want) <= 1e-13 * want


@settings(max_examples=200)
@given(p=st.floats(1e-300, 1.0 - 1e-16, exclude_min=True, exclude_max=True))
def test_ndtri_matches_scipy(p):
    want = float(special.ndtri(p))
    assert abs(ndtri(p) - want) <= 1e-14 * abs(want)


def test_quantile_cdf_roundtrip():
    for dist in CONTINUOUS:
        for tau in np.arange(0.1, 0.95, 0.1):
            assert dist.cdf(dist.quantile(tau)) == pytest.approx(tau, abs=1e-9)


def test_quantile_level_validated():
    with pytest.raises(ParameterError):
        Normal(0, 1).quantile(0.0)
    with pytest.raises(ParameterError):
        Normal(0, 1).quantile(1.0)


class TestEmpiricalQuantiles:
    def test_even_sample_median_interval(self):
        iv = Empirical((1.0, 1.0, 2.0, 2.0)).quantile(0.5)
        assert isinstance(iv, Interval)
        assert (iv.lo, iv.hi) == (1.0, 2.0)

    def test_odd_sample_median_singleton(self):
        iv = Empirical((1.0, 2.0, 3.0)).quantile(0.5)
        assert iv.lo == iv.hi == 2.0

    def test_interior_level(self):
        iv = Empirical((10.0, 20.0, 30.0, 40.0)).quantile(0.1)
        assert iv.lo == iv.hi == 10.0
        iv = Empirical((10.0, 20.0, 30.0, 40.0)).quantile(0.75)
        assert (iv.lo, iv.hi) == (30.0, 40.0)


# Supports of 2-50 values, many of them repeated; a level k/m with m the
# sample size (tau n an integer), twice it (an integer half the time) or fixed.
SUPPORTS = st.lists(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.25]) | st.floats(-1e3, 1e3),
                    min_size=2, max_size=50)


@given(values=SUPPORTS, data=st.data())
def test_quantile_set_is_the_pinball_argmin(values, data):
    n = len(values)
    m = data.draw(st.sampled_from([n, 2 * n, 7, 10, 100]), label="m")
    level = Fraction(data.draw(st.integers(1, m - 1), label="k"), m)
    tau = float(level)
    iv = sorted_quantile(np.sort(values), tau)
    assert (iv.lo, iv.hi) == oracle.pinball_argmin(values, level)
    assert iv.lo_closed and iv.hi_closed
    assert Empirical(tuple(values)).quantile(tau) == iv
    from_draws = streamed_functional(FunctionalSpec("quantile", tau=tau),
                                     oracle.chunked(values), n)
    assert from_draws.value == iv


def test_partial_mean_above_matches_quadrature():
    # independent oracle: E[(Y - z)^+] by numerical integration of (y - z) dF
    cases = [
        (Normal(0.3, 1.2), norm(0.3, 1.2).pdf, (-15, 15)),
        (Lognormal(0.1, 0.6), lognorm(0.6, scale=math.exp(0.1)).pdf, (1e-9, 60)),
        (Exponential(0.7), expon(scale=1 / 0.7).pdf, (0, 80)),
        (Uniform(-1.0, 2.0), uniform(-1.0, 3.0).pdf, (-1, 2)),
    ]
    for dist, pdf, (lo, hi) in cases:
        for z in (-0.5, 0.2, 1.1):
            expected, _ = quad(lambda y: max(y - z, 0.0) * pdf(y), lo, hi, limit=200)
            assert dist.partial_mean_above(z) == pytest.approx(expected, abs=1e-7)


def test_empirical_partial_mean_exact():
    emp = Empirical((1.0, 2.0, 4.0))
    assert emp.partial_mean_above(1.5) == pytest.approx((0.5 + 2.5) / 3.0)


class TestExactExpectiles:
    def test_uniform_closed_form(self):
        # sqrt(t)/(sqrt(t) + sqrt(1-t)) for Uniform(0,1)
        for tau in (0.25, 0.5, 0.75, 0.9):
            expected = math.sqrt(tau) / (math.sqrt(tau) + math.sqrt(1 - tau))
            assert expectile_exact(Uniform(0.0, 1.0), tau) == pytest.approx(expected, abs=1e-9)

    def test_half_expectile_is_mean(self):
        for dist in CONTINUOUS:
            assert expectile_exact(dist, 0.5) == pytest.approx(dist.mean(), abs=1e-8)

    def test_symmetric_reflection(self):
        # for symmetric laws, e_tau + e_{1-tau} = 2 mu
        d = Normal(0.7, 1.3)
        for tau in (0.6, 0.8, 0.95):
            s = expectile_exact(d, tau) + expectile_exact(d, 1 - tau)
            assert s == pytest.approx(2 * 0.7, abs=1e-8)

    def test_monotone_in_tau(self):
        vals = [expectile_exact(Exponential(1.0), t) for t in (0.2, 0.4, 0.6, 0.8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        Normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        Lognormal(0.0, -1.0)
    with pytest.raises(ParameterError):
        Exponential(0.0)
    with pytest.raises(ParameterError):
        Uniform(1.0, 1.0)
    with pytest.raises(ParameterError):
        Empirical(())
    with pytest.raises(ParameterError):
        Empirical((1.0, math.nan))


# Laws whose mean or variance is not a finite float: their samplers or
# moments overflowed inside a check (OverflowError, ZeroDivisionError).
BEYOND_FLOATS = ["uniform(-1e308,1e308)", "uniform(0,1e308)", "uniform(-inf,0)",
                 "normal(0,1e308)", "normal(inf,1)", "normal(nan,1)", "normal(0,inf)",
                 "lognormal(700,1)", "lognormal(0,1000)", "lognormal(1e308,1)",
                 "lognormal(0,inf)", "exponential(1e-320)", "exponential(1e308)",
                 "empirical(1e308,-1e308)"]


@pytest.mark.parametrize("law", BEYOND_FLOATS)
def test_a_law_beyond_the_float_range_is_rejected_at_construction(law):
    from elicit.specs import parse_dist
    with pytest.raises(SpecParseError, match="mean or variance beyond the float range"):
        parse_dist(law)


def test_a_suite_line_on_a_law_beyond_the_float_range_exits_2(tmp_path, capsys):
    from elicit import cli
    path = tmp_path / "suite.txt"
    path.write_text("kind=consistency dist=uniform(-1e308,1e308) score=se functional=mean "
                    "bracket=-1,1 n=10000\n")
    assert cli.main(["verify", "--suite", str(path)]) == 2
    assert "suite.txt:1: " in capsys.readouterr().err


# Laws whose sigma vanishes against mu: every draw rounded to about mu, and
# normal(1e308,1) failed inside a check (exit 1, numpy's overflow warning
# on stderr).
NO_SPREAD = ["normal(1e308,1)", "normal(1e16,1)", "normal(-1e20,1000)", "lognormal(100,1e-15)"]


@pytest.mark.parametrize("law", NO_SPREAD)
def test_a_law_with_no_spread_is_rejected_at_construction(law):
    from elicit.specs import parse_dist
    with pytest.raises(SpecParseError, match="vanishes against mu"):
        parse_dist(law)


@pytest.mark.parametrize("kind", ["kind=pair score=mv functional=mvpair bracket2=1,2",
                                  "kind=consistency score=se functional=mean"])
def test_a_suite_line_on_a_law_with_no_spread_exits_2(tmp_path, capsys, kind):
    from elicit import cli
    path = tmp_path / "suite.txt"
    path.write_text(f"{kind} dist=normal(1e308,1) bracket=-1,1 n=10000\n")
    assert cli.main(["verify", "--suite", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}:1: bad distribution spec "
                                       "'normal(1e308,1)': Normal sigma 1.0 vanishes against "
                                       "mu 1e+308: the draws would have no spread\n")


class TestEmpiricalFromDraws:
    def test_array_law_matches_tuple_law(self):
        draws = np.random.default_rng(5).normal(size=1001)
        emp, ref = Empirical(draws), Empirical(tuple(draws))
        assert emp == ref and hash(emp) == hash(ref)
        assert emp.quantile(0.3) == ref.quantile(0.3)
        assert emp.cdf(0.1) == ref.cdf(0.1)
        assert emp.mean() == ref.mean() and emp.partial_mean_above(0.2) == ref.partial_mean_above(0.2)
        assert isinstance(ref.values, tuple) and repr(Empirical((1.0, 2.0))) == \
            "Empirical(values=(1.0, 2.0))"

    def test_values_are_a_read_only_copy(self):
        draws = np.array([3.0, 1.0, 2.0])
        emp = Empirical(draws)
        draws[0] = 100.0
        assert emp.support() == Interval.closed(1.0, 3.0)
        assert isinstance(emp.values, tuple)
        assert Empirical((2.0, 1.0)) != Empirical((1.0, 2.0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            Empirical(np.array([]))
        with pytest.raises(ParameterError):
            Empirical(np.array([1.0, math.inf]))
        with pytest.raises(ParameterError):
            Empirical(np.ones((2, 2)))


CATALOG_LAWS = [Normal(0.5, 2.0), Lognormal(0.0, 1.0), Lognormal(0.5, 2.0), Exponential(1.0),
                Uniform(0.0, 1.0), Empirical((1.0, 1.0, 2.0, 2.0)), Empirical((2.5, 0.3, 1.0))]
# Below, at and across multiples of the chunk.
CHUNKED_SIZES = st.one_of(st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK,
                                           3 * CHUNK + 17]), st.integers(1, 3 * CHUNK))


@pytest.mark.parametrize("law", CATALOG_LAWS, ids=repr)
@settings(max_examples=8)
@given(n=CHUNKED_SIZES, seed=st.integers(0, 2**32 - 1))
def test_chunks_concatenate_to_the_draws_of_sample_iid_bit_for_bit(law, n, seed):
    chunks = list(sample_chunks(law, n, seed))
    assert [c.size for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
    assert 1 <= chunks[-1].size <= CHUNK
    assert np.concatenate(chunks).tobytes() == sample_iid(law, n, seed).tobytes()


@pytest.mark.parametrize("n", [10, CHUNK, 300_001])
def test_empirical_draws_are_rng_choice_without_its_index_array(n):
    law = Empirical((2.5, 1.0, 1.0, 7.0, 2.0))
    want = np.random.default_rng(np.random.SeedSequence(5)).choice(
        np.sort(law.values), size=n, replace=True)
    assert sample_iid(law, n, 5).tobytes() == want.tobytes()


def test_sample_chunks_rejects_no_draws():
    with pytest.raises(ParameterError, match="sample_chunks needs n >= 1"):
        sample_chunks(Normal(0.0, 1.0), 0, 1)
