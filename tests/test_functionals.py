import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from elicit import (DomainError, Empirical, Exponential, FunctionalSpec, Interval,
                    Lognormal, Normal, ParameterError, TransformMode, Uniform,
                    analytic_functional, catalog, expectile_exact, functional_value,
                    pushforward_law, sample_iid, scalar_value)
from elicit import functionals
from elicit.distributions import CHUNK, sample_chunks, sorted_quantile
from elicit.functionals import _quantile_stderr, streamed_functional
from elicit.sweep import Held


class TestAnalyticPaths:
    def test_lognormal_power_closed_form(self):
        # transformed expectation of t^a on Lognormal(mu, sigma) is
        # exp(mu + a sigma^2 / 2); cross-checked below by Monte Carlo
        d = Lognormal(0.0, 1.0)
        spec = FunctionalSpec("gmean", g=catalog("power", [2.0]))
        assert analytic_functional(d, spec) == pytest.approx(math.e, rel=1e-12)

        est = oracle.mc_mean(lambda y: y**2, d, 10**6, seed=31)
        mc_value = math.sqrt(est.value)
        assert mc_value == pytest.approx(math.e, rel=0.02)

    def test_lognormal_power_grid(self):
        d = Lognormal(0.3, 0.8)
        for a in (-1.0, 0.5, 2.0):
            spec = FunctionalSpec("gmean", g=catalog("power", [a]))
            assert analytic_functional(d, spec) == pytest.approx(
                math.exp(0.3 + a * 0.64 / 2.0), rel=1e-10)

    def test_entropic_value_on_normal(self):
        # log E[exp Y] = mu + sigma^2/2 = 0.5 for a standard normal
        spec = FunctionalSpec("gmean", g=catalog("exp"))
        assert analytic_functional(Normal(0.0, 1.0), spec) == pytest.approx(0.5, rel=1e-12)

    def test_exponential_quantile(self):
        spec = FunctionalSpec("quantile", tau=0.75)
        assert analytic_functional(Exponential(1.0), spec) == pytest.approx(math.log(4.0))

    def test_box_cox_on_lognormal_matches_power(self):
        d = Lognormal(0.2, 0.5)
        for a in (0.0, 0.25, -0.5):
            got = analytic_functional(d, FunctionalSpec("gmean", g=catalog("box-cox", [a])))
            assert got == pytest.approx(math.exp(0.2 + a * 0.25 / 2.0), rel=1e-10)

    def test_affine_transform_leaves_mean(self):
        for g in (catalog("identity"), catalog("negate")):
            got = analytic_functional(Normal(1.7, 2.0), FunctionalSpec("gmean", g=g))
            assert got == pytest.approx(1.7)

    def test_power_on_negative_support_rejected(self):
        spec = FunctionalSpec("gmean", g=catalog("power", [2.0]))
        with pytest.raises(DomainError):
            analytic_functional(Normal(0.0, 1.0), spec)

    def test_mvpair_log_on_lognormal(self):
        got = analytic_functional(Lognormal(0.5, 2.0), FunctionalSpec("mvpair", g=catalog("log")))
        assert got == (0.5, 4.0)

    def test_unavailable_returns_none(self):
        spec = FunctionalSpec("gmean", g=catalog("shifted-log", [1.0]))
        assert analytic_functional(Exponential(1.0), spec) is None


class TestPushforward:
    def test_log_of_lognormal(self):
        assert pushforward_law(Lognormal(0.3, 1.2), catalog("log")) == Normal(0.3, 1.2)

    def test_exp_of_normal(self):
        assert pushforward_law(Normal(0.1, 0.4), catalog("exp")) == Lognormal(0.1, 0.4)

    def test_power_of_lognormal(self):
        assert pushforward_law(Lognormal(0.5, 1.0), catalog("power", [-2.0])) == \
            Lognormal(-1.0, 2.0)

    def test_negate_uniform(self):
        assert pushforward_law(Uniform(1.0, 3.0), catalog("negate")) == Uniform(-3.0, -1.0)

    def test_unknown_combination(self):
        assert pushforward_law(Exponential(1.0), catalog("exp")) is None


class TestFunctionalValue:
    def test_gmean_log_lognormal(self):
        # exp(E[log Y]) = exp(mu)
        fv = functional_value(FunctionalSpec("gmean", g=catalog("log")), Lognormal(0.3, 1.0))
        assert fv.method == "analytic"
        assert fv.value == pytest.approx(math.exp(0.3), rel=1e-10)

    def test_gexpectile_half_equals_gmean(self):
        # the transformed expectile at tau = 1/2 collapses to the
        # transformed expectation, on the Monte Carlo path too
        g = catalog("shifted-log", [1.0])
        d = Exponential(1.0)
        half = functional_value(FunctionalSpec("gexpectile", tau=0.5, g=g), d,
                                n=2 * 10**5, seed=41)
        gmean = functional_value(FunctionalSpec("gmean", g=g), d, n=2 * 10**5, seed=42)
        assert half.method == "mc" and gmean.method == "mc"
        tol = 3.0 * (half.stderr + gmean.stderr)
        assert abs(half.value - gmean.value) <= tol

    def test_uniform_expectile_closed_form(self):
        fv = functional_value(FunctionalSpec("expectile", tau=0.75), Uniform(0.0, 1.0))
        expected = math.sqrt(0.75) / (math.sqrt(0.75) + 0.5)
        assert fv.value == pytest.approx(expected, abs=1e-9)

    def test_mvpair_log_lognormal(self):
        fv = functional_value(FunctionalSpec("mvpair", g=catalog("log")), Lognormal(0.0, 1.0))
        assert fv.value[0] == pytest.approx(0.0, abs=1e-12)
        assert fv.value[1] == pytest.approx(1.0, rel=1e-12)

    def test_mc_expectile_matches_exact(self):
        d = Exponential(1.0)
        exact = expectile_exact(d, 0.8)
        # the Monte Carlo root on draws (an Empirical law is solved exactly)
        draws = d.sample(2 * 10**5, np.random.default_rng(7))
        fv = streamed_functional(FunctionalSpec("expectile", tau=0.8), oracle.chunked(draws),
                                 draws.size)
        assert fv.method == "mc" and fv.stderr > 0.0
        assert fv.value == pytest.approx(exact, abs=0.01)

    def test_quantile_interval_for_empirical(self):
        fv = functional_value(FunctionalSpec("quantile", tau=0.5),
                              Empirical((1.0, 1.0, 2.0, 2.0)))
        assert isinstance(fv.value, Interval)
        assert scalar_value(fv.value) == 1.0

    def test_monotone_in_power_exponent(self):
        # transformed expectation strictly increases with the power exponent
        d = Lognormal(0.0, 1.0)
        values = []
        for a in (-1.0, 0.2, 0.5, 1.0, 2.0):
            fv = functional_value(FunctionalSpec("gmean", g=catalog("power", [a])), d)
            assert fv.value == pytest.approx(math.exp(a / 2.0), rel=1e-10)
            values.append(fv.value)
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_gmean_mc_path_with_stderr(self):
        g = catalog("shifted-log", [2.0])
        d = Uniform(0.0, 1.0)
        fv = functional_value(FunctionalSpec("gmean", g=g), d, n=10**5, seed=9)
        assert fv.method == "mc" and fv.stderr > 0
        # independent oracle: quadrature of E[log(y + 2)] over the unit interval
        from scipy.integrate import quad
        expected, _ = quad(lambda y: math.log(y + 2.0), 0.0, 1.0)
        assert fv.value == pytest.approx(math.exp(expected) - 2.0, abs=5 * fv.stderr + 1e-4)


    def test_mc_expectile_matches_direct_balance(self):
        """The streamed root and stderr equal those of the direct n-long
        asymmetric-deviation balance."""
        from elicit.numerics import Bracket, root1d

        tau = 0.75
        draws = Lognormal(0.0, 0.5).sample(10**5, np.random.default_rng(3))
        w = catalog("box-cox", [0.5]).apply(draws)
        fv = streamed_functional(FunctionalSpec("expectile", tau=tau), oracle.chunked(w), w.size)
        root, se = fv.value, fv.stderr

        def psi(z):
            return (tau * np.mean(np.maximum(w - z, 0.0))
                    - (1 - tau) * np.mean(np.maximum(z - w, 0.0)))

        lo, hi = w.min(), w.max()
        lo, hi = lo - 0.01 * (hi - lo), hi + 0.01 * (hi - lo)
        direct = root1d(psi, Bracket(lo, hi), 1e-10 * max(1.0, abs(lo), abs(hi)))
        assert root == pytest.approx(direct, abs=1e-9)
        term = tau * np.maximum(w - root, 0.0) - (1 - tau) * np.maximum(root - w, 0.0)
        f = np.mean(w <= root)
        se_term = np.std(term, ddof=1) / math.sqrt(term.size)
        assert se == pytest.approx(se_term / (tau * (1 - f) + (1 - tau) * f), rel=1e-9)


class TestExpectileBalance:
    def test_defining_identity_at_root(self):
        # the two sides of the asymmetric balance agree at the expectile
        d = Lognormal(0.0, 0.5)
        tau = 0.7
        z = expectile_exact(d, tau)
        lhs = oracle.mc_mean(lambda y: np.maximum(y - z, 0.0), d, 10**5, seed=13)
        rhs = oracle.mc_mean(lambda y: np.maximum(z - y, 0.0), d, 10**5, seed=14)
        assert abs(tau * lhs.value - (1 - tau) * rhs.value) <= \
            3.0 * (tau * lhs.stderr + (1 - tau) * rhs.stderr)


class TestQuantileMapping:
    """g^-1 of the tau-quantile of the law of g(Y) is the tau-quantile of Y
    for increasing g, and its (1 - tau)-quantile for decreasing g."""

    def back(self, d, g, tau):
        return g.invert(pushforward_law(d, g).quantile(tau))

    def test_increasing_transform_keeps_level(self):
        d = Lognormal(0.2, 0.7)
        for tau in (0.25, 0.5, 0.9):
            assert self.back(d, catalog("log"), tau) == pytest.approx(d.quantile(tau))

    def test_decreasing_transform_flips_level(self):
        for d, g in ((Normal(0.4, 1.5), catalog("negate")),
                     (Lognormal(0.2, 0.7), catalog("power", [-1.0]))):
            for tau in (0.25, 0.5, 0.9):
                assert self.back(d, g, tau) == pytest.approx(d.quantile(1 - tau))

    def test_median_is_invariant_both_ways(self):
        d = Lognormal(math.log(2.0), 1.0)
        for g in (catalog("log"), catalog("power", [-1.0])):
            assert self.back(d, g, 0.5) == pytest.approx(2.0)

    def test_mapping_matches_empirical_pushforward(self):
        # sanity: transform draws, take the empirical quantile, map back
        d = Exponential(1.0)
        draws = d.sample(2 * 10**5, np.random.default_rng(15))
        for g, tau in ((catalog("log"), 0.75), (catalog("negate"), 0.75)):
            w = np.asarray(g.apply(draws))
            emp_q = scalar_value(Empirical(tuple(w)).quantile(tau))
            back = g.invert(emp_q)
            level = tau if g.increasing else 1.0 - tau
            assert back == pytest.approx(d.quantile(level), abs=0.02)


def test_spec_validation():
    with pytest.raises(ParameterError):
        FunctionalSpec("quantile")
    with pytest.raises(ParameterError):
        FunctionalSpec("gmean")
    with pytest.raises(ParameterError):
        FunctionalSpec("risk")
    with pytest.raises(ParameterError, match="mean takes no g"):
        FunctionalSpec("mean", g=catalog("log"))
    with pytest.raises(ParameterError, match="gexpectile requires g"):
        FunctionalSpec("gexpectile", tau=0.3)


@pytest.mark.parametrize("g", [np.exp, math.log, "log"])
def test_spec_rejects_a_g_that_is_not_a_bijection(g):
    with pytest.raises(ParameterError, match="invertible Bijection"):
        FunctionalSpec("gmean", g=g)


@pytest.mark.parametrize("spec", [
    FunctionalSpec("gmean", g=catalog("shifted-log", [1.0])),
    FunctionalSpec("gexpectile", tau=0.3, g=catalog("shifted-log", [1.0])),
    FunctionalSpec("mvpair", g=catalog("shifted-log", [1.0]))])
def test_monte_carlo_path_needs_two_draws(spec):
    # no closed form on Exponential(1): the value and its stderr come from draws
    with pytest.raises(ParameterError, match="n >= 2"):
        functional_value(spec, Exponential(1.0), n=1, seed=3)
    assert functional_value(spec, Exponential(1.0), n=2, seed=3).method == "mc"


def test_scalar_value_rules():
    assert scalar_value(Interval.closed(1.0, 2.0)) == 1.0
    assert scalar_value(3.5) == 3.5
    with pytest.raises(ParameterError):
        scalar_value((1.0, 2.0))


# Streamed Monte Carlo targets: draws of a law (ties from an Empirical law
# or rounding), n on both sides of a CHUNK boundary, and an increasing, a
# decreasing or no map as the ``transform`` (g is the second-pass test's).
SIZES = [2, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]
LAWS = [Lognormal(0.0, 0.5), Empirical((0.5, 1.0, 1.0, 2.0, 3.5)), Exponential(1.0)]
MAPS = [None, catalog("box-cox", [0.5]), catalog("shifted-log", [1.0]), catalog("negate")]


@st.composite
def streamed_targets(draw):
    """(draws callable, n, transform, effective draws sorted, tau)."""
    n = draw(st.sampled_from(SIZES), label="n")
    law = draw(st.sampled_from(LAWS), label="law")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    g = draw(st.sampled_from(MAPS), label="map")
    transform = TransformMode.none() if g is None else TransformMode.realization_only(g)
    y = sample_iid(law, n, seed)
    if draw(st.booleans(), label="rounded"):
        y = np.round(y, 1) + 0.05
        draws = oracle.chunked(y)
    else:
        draws = functools.partial(sample_chunks, law, n, seed)
    w = np.sort(transform.realization(y))
    return draws, n, transform, w, draw(st.sampled_from([0.1, 0.5, 0.75, 0.9]), label="tau")


def _bytes(fv):
    value = fv.value
    return repr((value.lo, value.hi) if isinstance(value, Interval) else value), repr(fv.stderr)


@settings(max_examples=40, deadline=None)
@given(case=streamed_targets())
def test_a_streamed_quantile_is_the_sorted_draws_order_statistic(case):
    draws, n, transform, w, tau = case
    fv = streamed_functional(FunctionalSpec("quantile", tau=tau), draws, n, transform)
    assert fv.value == sorted_quantile(w, tau)
    assert fv.stderr == _quantile_stderr(w, tau)
    assert type(fv.stderr) is float


@settings(max_examples=40, deadline=None)
@given(case=streamed_targets())
def test_a_streamed_expectile_is_the_brute_force_root(case):
    """To 1e-12 of the draws' scale (the root, or the largest |w| when the
    root is near 0): the balance's sums round at that scale."""
    draws, n, transform, w, tau = case
    fv = streamed_functional(FunctionalSpec("expectile", tau=tau), draws, n, transform)
    want = oracle.expectile_root(w, tau)
    assert abs(fv.value - want) <= 1e-12 * max(abs(want), float(np.max(np.abs(w))))


@pytest.mark.parametrize("spec, g", [
    (FunctionalSpec("quantile", tau=0.9), catalog("box-cox", [0.5])),
    (FunctionalSpec("quantile", tau=0.3), catalog("negate")),
    (FunctionalSpec("expectile", tau=0.75), catalog("box-cox", [0.5])),
    (FunctionalSpec("gexpectile", tau=0.2, g=catalog("shifted-log", [1.0])), None)])
def test_a_second_pass_gives_the_same_bytes(spec, g, monkeypatch):
    """With the held window empty, the root's cells come from one more pass
    over the same draws, and the value and stderr are the same bytes."""
    calls = []

    def draws():
        calls.append(1)
        return sample_chunks(Lognormal(0.0, 0.5), 3 * CHUNK + 11, 5)

    transform = TransformMode.none() if g is None else TransformMode.realization_only(g)
    want = streamed_functional(spec, draws, 3 * CHUNK + 11, transform)
    assert len(calls) == 1
    monkeypatch.setattr(functionals, "Held", lambda lo, hi: Held(np.inf, np.inf))
    got = streamed_functional(spec, draws, 3 * CHUNK + 11, transform)
    assert len(calls) == 3
    assert _bytes(got) == _bytes(want)
