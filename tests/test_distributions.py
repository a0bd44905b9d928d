import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import expon, lognorm, norm, uniform

from elicit import (Empirical, Exponential, Interval, Lognormal, Normal,
                    ParameterError, Uniform, cdf, quantile, sample_iid)
from elicit.functionals import expectile_exact

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
    from elicit import mc_expectation

    variants = [Uniform(0.0, 1.0), Exponential(2.0), Normal(0.5, 2.0),
                Lognormal(0.0, 1.0), Empirical((1.0, 2.0, 7.0))]
    for k, dist in enumerate(variants):
        est = mc_expectation(lambda y: y, dist, 10**6, seed=3 + k)
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
        assert cdf(Normal(0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_half_life(self):
        # 1 - exp(-ln 2) = 1/2
        assert cdf(Exponential(1.0), math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_empirical_step(self):
        assert cdf(Empirical((1.0, 2.0, 3.0)), 2.0) == pytest.approx(2.0 / 3.0)
        assert cdf(Empirical((1.0, 2.0, 3.0)), 0.5) == 0.0
        assert cdf(Empirical((1.0, 2.0, 3.0)), 3.5) == 1.0

    def test_against_scipy(self):
        pairs = [
            (Normal(1.0, 2.0), norm(1.0, 2.0)),
            (Lognormal(0.2, 0.8), lognorm(0.8, scale=math.exp(0.2))),
            (Exponential(1.5), expon(scale=1.0 / 1.5)),
            (Uniform(-1.0, 3.0), uniform(-1.0, 4.0)),
        ]
        for dist, ref in pairs:
            for y in (-0.5, 0.3, 1.0, 2.7):
                assert cdf(dist, y) == pytest.approx(ref.cdf(y), abs=1e-12)


def test_quantile_cdf_roundtrip():
    for dist in CONTINUOUS:
        for tau in np.arange(0.1, 0.95, 0.1):
            assert cdf(dist, quantile(dist, tau)) == pytest.approx(tau, abs=1e-9)


def test_quantile_level_validated():
    with pytest.raises(ParameterError):
        quantile(Normal(0, 1), 0.0)
    with pytest.raises(ParameterError):
        quantile(Normal(0, 1), 1.0)


class TestEmpiricalQuantiles:
    def test_even_sample_median_interval(self):
        iv = quantile(Empirical((1.0, 1.0, 2.0, 2.0)), 0.5)
        assert isinstance(iv, Interval)
        assert (iv.lo, iv.hi) == (1.0, 2.0)

    def test_odd_sample_median_singleton(self):
        iv = quantile(Empirical((1.0, 2.0, 3.0)), 0.5)
        assert iv.is_singleton and iv.lo == 2.0

    def test_interior_level(self):
        iv = quantile(Empirical((10.0, 20.0, 30.0, 40.0)), 0.1)
        assert iv.is_singleton and iv.lo == 10.0
        iv = quantile(Empirical((10.0, 20.0, 30.0, 40.0)), 0.75)
        assert (iv.lo, iv.hi) == (30.0, 40.0)


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
        assert not emp.values.flags.writeable
        assert Empirical((2.0, 1.0)) != Empirical((1.0, 2.0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            Empirical(np.array([]))
        with pytest.raises(ParameterError):
            Empirical(np.array([1.0, math.inf]))
        with pytest.raises(ParameterError):
            Empirical(np.ones((2, 2)))
