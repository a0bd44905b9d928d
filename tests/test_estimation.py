import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from elicit import (DomainError, Empirical, EvaluationError, Exponential, Lognormal, Normal,
                    ParameterError, ScoreSpec, TransformMode, Uniform, average_score, catalog,
                    estimation, expectile_exact, fit, functional_value, sample_iid, scalar_value)
from elicit.functionals import FunctionalSpec
from elicit.transforms import Bijection


class TestConstantFits:
    def test_se_recovers_sample_mean(self):
        res = fit("constant", ScoreSpec("se"), y=[1.0, 2.0, 3.0])
        assert res.theta[0] == pytest.approx(2.0, abs=1e-10)
        assert res.converged

    def test_ae_recovers_median(self):
        res = fit("constant", ScoreSpec("ae"), y=[1.0, 2.0, 100.0])
        assert res.theta[0] == pytest.approx(2.0, abs=1e-8)

    def test_apl_lands_in_quantile_interval(self):
        y = list(range(1, 101))
        res = fit("constant", ScoreSpec("apl", tau=0.9), y=y)
        iv = Empirical(tuple(float(v) for v in y)).quantile(0.9)
        assert iv.lo - 1e-8 <= res.theta[0] <= iv.hi + 1e-8
        # even n: the objective is flat on the sample-median interval
        y = np.random.default_rng(12).lognormal(0.0, 1.0, 1000)
        res = fit("constant", ScoreSpec("apl", tau=0.5), y=y)
        ys = np.sort(y)
        assert ys[499] <= res.theta[0] <= ys[500]

    def test_joint_log_transform_gives_geometric_mean(self):
        spec = ScoreSpec("se", transform=TransformMode.both(catalog("log")))
        res = fit("constant", spec, y=[1.0, 4.0])
        assert res.theta[0] == pytest.approx(2.0, abs=1e-6)

    def test_padding_stays_inside_the_transform_domain(self):
        # A wide spread puts the padded lower end below 0 and the parabolic
        # polish steps there; under log the end must stay at the data
        # minimum. Under prediction:exp the bracket lives in exp's
        # codomain (0, inf), with the same optimum.
        y = np.array([0.5, 1.0, 2.0, 1000.0])
        gmean = math.exp(float(np.mean(np.log(y))))
        res = fit("constant", ScoreSpec("se", transform=TransformMode.both(catalog("log"))), y=y)
        assert res.theta[0] == pytest.approx(gmean, rel=1e-6)
        spec = ScoreSpec("se", transform=TransformMode.prediction_only(catalog("exp")))
        res = fit("constant", spec, y=np.log(y))
        assert res.theta[0] == pytest.approx(gmean, rel=1e-6)

    def test_objective_reported_at_theta(self):
        res = fit("constant", ScoreSpec("se"), y=[0.0, 2.0])
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        # the swept objective is the paired average score at the constant
        y = np.random.default_rng(13).lognormal(0.0, 1.0, 5001)
        log = catalog("log")
        for spec in (ScoreSpec("apl", tau=0.5), ScoreSpec("ae"),
                     ScoreSpec("se", transform=TransformMode.both(log)),
                     ScoreSpec("expectile", tau=0.8, transform=TransformMode.realization_only(log)),
                     ScoreSpec("gpl", tau=0.3, g_inner=log)):
            res = fit("constant", spec, y=y)
            paired = average_score(spec, np.full_like(y, res.theta[0]), y)
            assert res.objective == pytest.approx(paired, rel=1e-12), spec

    def test_empty_data_rejected(self):
        with pytest.raises(ParameterError):
            fit("constant", ScoreSpec("se"), y=[])

    def test_domain_error_reported(self):
        spec = ScoreSpec("se", transform=TransformMode.both(catalog("log")))
        with pytest.raises(DomainError):
            fit("constant", spec, y=[1.0, -2.0])

    def test_unexpected_predictors_rejected(self):
        with pytest.raises(ParameterError):
            fit("constant", ScoreSpec("se"), x=[1.0], y=[1.0])


@pytest.mark.parametrize("model", ["constant", "linear"])
def test_a_realization_transform_maps_the_data_once(model, monkeypatch):
    y = np.random.default_rng(8).lognormal(0.0, 0.5, 1000)
    x = np.linspace(0.0, 1.0, y.size) if model == "linear" else None
    want = fit(model, ScoreSpec("apl", tau=0.3, transform=TransformMode.realization_only(
        catalog("log"))), x=x, y=y)
    sizes = []
    apply = Bijection.apply

    def counted(self, t):
        sizes.append(np.size(t))
        return apply(self, t)

    monkeypatch.setattr(Bijection, "apply", counted)
    got = fit(model, ScoreSpec("apl", tau=0.3, transform=TransformMode.realization_only(
        catalog("log"))), x=x, y=y)
    assert sizes.count(y.size) == 1
    assert got == want


class TestLinearFits:
    def test_noise_free_line_exact(self):
        x = np.linspace(0.0, 5.0, 40)
        res = fit("linear", ScoreSpec("se"), x=x, y=2.0 * x)
        assert res.theta[0] == pytest.approx(0.0, abs=1e-8)
        assert res.theta[1] == pytest.approx(2.0, abs=1e-8)

    def test_pinball_line(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 4000)
        y = 1.0 + 3.0 * x + rng.normal(0, 0.1, x.size)
        res = fit("linear", ScoreSpec("apl", tau=0.5), x=x, y=y)
        assert res.theta[0] == pytest.approx(1.0, abs=0.05)
        assert res.theta[1] == pytest.approx(3.0, abs=0.1)

    def test_missing_x_rejected(self):
        with pytest.raises(ParameterError):
            fit("linear", ScoreSpec("se"), y=[1.0, 2.0])

    def test_constant_x_rejected_before_least_squares(self):
        # Every line through (1, 2) is optimal: no unique fit exists.
        with pytest.raises(ParameterError, match="two distinct x values"):
            fit("linear", ScoreSpec("se"), x=[1.0, 1.0, 1.0], y=[1.0, 2.0, 3.0])
        with pytest.raises(ParameterError, match="two distinct x values"):
            fit("linear", ScoreSpec("se"), x=[1.0, 1.0], y=[1.0, 2.0], init=(0.0, 1.0))
        with pytest.raises(ParameterError, match="spread of x underflows to 0"):
            fit("linear", ScoreSpec("se"), x=[0.0, 5e-324, 1e-323], y=[1.0, 2.0, 3.0])

    def test_array_init_is_a_start(self):
        x = np.linspace(0.0, 5.0, 40)
        res = fit("linear", ScoreSpec("se"), x=x, y=2.0 * x, init=np.array([0.5, 1.0]))
        assert res.theta == pytest.approx((0.0, 2.0), abs=1e-7)

    @pytest.mark.parametrize("seed, loc, scale", [(0, 0.0, 1.0), (1, 5.0, 10.0), (2, -50.0, 100.0)])
    def test_the_least_squares_start_is_polyfits(self, seed, loc, scale):
        rng = np.random.default_rng(seed)
        x = loc + scale * rng.uniform(0.0, 1.0, 10_000)
        t = 3.0 - 2.0 * x + rng.standard_t(3, x.size)
        slope, intercept = np.polyfit(x, t, 1)
        got = estimation._least_squares_line(x, t)
        assert got[0] == pytest.approx(intercept, rel=1e-12)
        assert got[1] == pytest.approx(slope, rel=1e-12)


def _band_and_all_rows_fits(spec, x, y):
    """The line fit on a band of rows, whatever the data's size, where its
    band search ended (the last search and the masks of the rows folded
    above and below), and the fit that searches all rows."""
    ended = []
    band_search = estimation._band_search

    def spy(*args):
        ended.append(band_search(*args))
        return ended[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_band_search", spy)
        mp.setattr(estimation, "_BAND_MIN_ROWS", 0)
        got = fit("linear", spec, x=x, y=y)
        mp.setattr(estimation, "_BANDED", ())
        every_row = fit("linear", spec, x=x, y=y)
    assert len(ended) == 1
    return got, ended[0], every_row


def _assert_the_band_fit_is_exact(spec, x, y) -> int:
    """The band fit is as low as the all-rows search, and every folded row
    is on its closed side at the fit's theta; returns the rows folded."""
    got, (_, folds), every_row = _band_and_all_rows_fits(spec, x, y)
    # both searches stop once their values agree within fatol (absolute),
    # which sets their resolution where the objective is small
    resolution = 10 * estimation.SIMPLEX_OPTIONS["fatol"]
    assert got.objective <= every_row.objective + 1e-12 * abs(every_row.objective) + resolution
    assert folds is not None and got.converged
    above, below = folds
    w = estimation.prepare_realizations(spec, y).y
    u = got.theta[0] + got.theta[1] * x
    assert np.all(w[above] >= u[above])
    assert np.all(w[below] <= u[below])
    return np.count_nonzero(above) + np.count_nonzero(below)


class TestBandSearch:
    """The pinball line's search on a band of rows (estimation._band_search)
    finds the minimum the search over all rows finds. The fits here take
    the band whatever their size.

    Either simplex search can stall on a ridge of kinks where x repeats and
    y ties: over 1,500 random draws of the property's data, the band fit
    ended above the all-rows search once, by 3.0e-10 relative, and below it
    four times."""

    @given(st.integers(0, 2**32 - 1), st.integers(2000, 30000),
           st.sampled_from([("ae", None), ("apl", 0.1), ("apl", 0.5), ("apl", 0.9)]),
           st.booleans(), st.booleans(), st.booleans(), st.booleans())
    @example(0, 30000, ("apl", 0.5), False, False, False, False)
    @example(1, 2000, ("ae", None), True, True, True, True)
    def test_the_band_fit_is_the_all_rows_fit(self, seed, n, family, log, repeated_x, tied_y,
                                              outliers):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10.0, n)
        if repeated_x:
            x = np.round(x)
        y = 1.0 + 0.5 * x + (0.2 + 0.1 * x) * rng.normal(0.0, 1.0, n)
        if outliers:
            far = rng.uniform(size=n) < 0.02
            y[far] += rng.choice([-1e3, 1e3], size=np.count_nonzero(far))
        if tied_y:
            y = np.round(y, 1)
        transform = TransformMode.none()
        if log:
            y, transform = np.exp(y / 8.0), TransformMode.realization_only(catalog("log"))
        _assert_the_band_fit_is_exact(ScoreSpec(family[0], tau=family[1], transform=transform),
                                      x, y)

    def test_an_integer_lattice_goes_through_a_violators_round(self):
        # most rows lie on the line exactly: where the band ends among them,
        # folded rows on the line cross it
        rng = np.random.default_rng(0)
        x = np.round(rng.uniform(0.0, 5.0, 2000))
        y = np.round(1.0 + 0.5 * x + rng.normal(0.0, 0.3, x.size))
        folded = _assert_the_band_fit_is_exact(ScoreSpec("apl", tau=0.5), x, y)
        # the first band leaves the rest folded; rows that crossed joined it
        assert folded < x.size - 2 * estimation._subsample_size(x.size)

    @pytest.mark.parametrize("n, banded", [(2000, False), (estimation._BAND_MIN_ROWS, True)])
    def test_smaller_data_search_all_rows(self, monkeypatch, n, banded):
        # below the crossover the band's extra evaluations cost more than
        # its smaller ones save
        calls = []
        band_search = estimation._band_search

        def spy(*args):
            calls.append(n)
            return band_search(*args)

        monkeypatch.setattr(estimation, "_band_search", spy)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, n)
        fit("linear", ScoreSpec("apl", tau=0.5), x=x, y=1.0 + 0.5 * x + rng.normal(0.0, 1.0, n))
        assert calls == ([n] if banded else [])

    def test_the_search_scores_a_band_not_all_rows(self, monkeypatch):
        n = 200_000
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 10.0, n)
        y = 1.0 + 0.5 * x + rng.normal(0.0, 1.0, n)
        rows = []
        score_values = estimation.score_values

        def counted(spec, z, prepared):
            rows.append(np.size(z))
            return score_values(spec, z, prepared)

        monkeypatch.setattr(estimation, "score_values", counted)
        res = fit("linear", ScoreSpec("apl", tau=0.5), x=x, y=y)
        # an evaluation scores the first fit's subsample, or the band and its
        # two folded rows; one pass over all rows reports the objective
        assert sum(rows) <= n + res.iterations * (2 * estimation._subsample_size(n) + 2)
        assert sum(rows) <= 40 * n  # a search of all rows scores about 140 n


class TestPairFits:
    @staticmethod
    def assert_sample_moments(theta, w):
        """theta is w's (mean, var(ddof=0)) to 1e-12 of w's scale."""
        mean, var = float(np.mean(w)), float(np.var(w, ddof=0))
        assert abs(theta[0] - mean) <= 1e-12 * max(abs(mean), math.sqrt(var))
        assert abs(theta[1] - var) <= 1e-12 * var

    def test_recovers_sample_moments(self):
        rng = np.random.default_rng(6)
        y = rng.normal(2.0, 3.0, 2000)
        res = fit("constant_pair", ScoreSpec("mv"), y=y)
        self.assert_sample_moments(res.theta, y)
        assert res.converged and res.iterations == 9

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.normal(1e3, 1e-2, 5000),  # far from zero, small spread
        lambda rng: rng.normal(-5.0, 1e3, 5000),
        lambda rng: rng.lognormal(0.0, 1.0, 5000),
        lambda rng: np.array([1.0, 2.0, 4.0]),
        lambda rng: np.append(np.zeros(5000), 1e6),  # one far outlier
    ])
    @pytest.mark.parametrize("mode", ["none", "realization:log"])
    def test_vertex_is_the_sample_moments(self, draw, mode):
        y = draw(np.random.default_rng(61))
        if mode != "none":
            y = np.abs(y) + 1e-3
        spec = ScoreSpec("mv") if mode == "none" else \
            ScoreSpec("mv", transform=TransformMode.realization_only(catalog("log")))
        res = fit("constant_pair", spec, y=y)
        self.assert_sample_moments(res.theta, spec.transform.realization(y))

    @pytest.mark.parametrize("y", [[5.0], [2.0, 2.0, 2.0], [-0.5] * 1000])
    def test_zero_spread_has_no_minimum(self, y):
        with pytest.raises(ParameterError, match="zero spread"):
            fit("constant_pair", ScoreSpec("mv"), y=y)

    def test_takes_no_init(self):
        with pytest.raises(ParameterError, match="linear model only"):
            fit("constant_pair", ScoreSpec("mv"), y=[1.0, 2.0], init=(1.5, 0.25))

    def test_recovers_sample_moments_of_transformed_data(self):
        y = np.random.default_rng(14).lognormal(0.5, 0.8, 3000)
        spec = ScoreSpec("mv", transform=TransformMode.realization_only(catalog("log")))
        res = fit("constant_pair", spec, y=y)
        logy = np.log(y)
        assert res.theta[0] == pytest.approx(float(np.mean(logy)), rel=1e-6)
        assert res.theta[1] == pytest.approx(float(np.var(logy)), rel=1e-6)
        assert res.objective == pytest.approx(
            average_score(spec, np.tile(res.theta, (y.size, 1)), y), rel=1e-12)

    def test_variance_stays_positive(self):
        res = fit("constant_pair", ScoreSpec("mv"), y=[1.0, 1.0 + 1e-4, 1.0 - 1e-4])
        assert res.theta[1] > 0

    def test_wrong_family_rejected(self):
        with pytest.raises(ParameterError):
            fit("constant_pair", ScoreSpec("se"), y=[1.0, 2.0])
        with pytest.raises(ParameterError):
            fit("constant", ScoreSpec("mv"), y=[1.0, 2.0])
        with pytest.raises(ParameterError):
            fit("linear", ScoreSpec("mv"), x=[0.0, 1.0], y=[1.0, 2.0])


class TestConsistencyAtScale:
    """Fitting a constant with a matched score recovers the functional."""

    N = 10**5

    def assert_close(self, est, fv, rel=0.02, floor=5.0):
        target = scalar_value(fv.value)
        se = fv.stderr if isinstance(fv.stderr, float) else 0.0
        assert abs(est - target) <= max(rel * abs(target), floor * se, 1e-4)

    def test_se_mean(self):
        d = Normal(0.4, 1.3)
        y = sample_iid(d, self.N, seed=101)
        res = fit("constant", ScoreSpec("se"), y=y)
        self.assert_close(res.theta[0], functional_value(FunctionalSpec("mean"), d))

    def test_apl_quantile(self):
        d = Exponential(1.0)
        y = sample_iid(d, self.N, seed=102)
        res = fit("constant", ScoreSpec("apl", tau=0.9), y=y)
        self.assert_close(res.theta[0],
                          functional_value(FunctionalSpec("quantile", tau=0.9), d))

    def test_expectile_score_expectile(self):
        d = Uniform(0.0, 1.0)
        y = sample_iid(d, self.N, seed=103)
        res = fit("constant", ScoreSpec("expectile", tau=0.75), y=y)
        self.assert_close(res.theta[0],
                          functional_value(FunctionalSpec("expectile", tau=0.75), d))

    def test_transformed_se_transformed_expectation(self):
        d = Lognormal(0.0, 1.0)
        g = catalog("log")
        y = sample_iid(d, self.N, seed=104)
        res = fit("constant", ScoreSpec("se", transform=TransformMode.both(g)), y=y)
        self.assert_close(res.theta[0],
                          functional_value(FunctionalSpec("gmean", g=g), d))

    def test_transformed_expectile_score(self):
        d = Lognormal(0.0, 1.0)
        g = catalog("log")
        y = sample_iid(d, self.N, seed=105)
        spec = ScoreSpec("expectile", tau=0.75, transform=TransformMode.both(g))
        res = fit("constant", spec, y=y)
        self.assert_close(res.theta[0],
                          functional_value(FunctionalSpec("gexpectile", tau=0.75, g=g), d))

    def test_mv_pair(self):
        d = Normal(2.0, 3.0)
        y = sample_iid(d, self.N, seed=106)
        res = fit("constant_pair", ScoreSpec("mv"), y=y)
        fv = functional_value(FunctionalSpec("mvpair"), d)
        assert res.theta[0] == pytest.approx(fv.value[0], abs=0.02 * abs(fv.value[0]) + 0.02)
        assert res.theta[1] == pytest.approx(fv.value[1], rel=0.02)


class TestRevelationConsistency:
    def test_prediction_transform_moves_estimate_through_g(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0.3, 1.0, 500)
        plain = fit("constant", ScoreSpec("se"), y=y)
        g = catalog("exp")
        spec = ScoreSpec("se", transform=TransformMode.prediction_only(g))
        transformed = fit("constant", spec, y=y)
        assert transformed.theta[0] == pytest.approx(
            g.apply(plain.theta[0]), rel=1e-7)

    def test_log_reparameterization_of_pinball(self):
        rng = np.random.default_rng(8)
        y = rng.exponential(1.0, 801)
        plain = fit("constant", ScoreSpec("apl", tau=0.5), y=y)
        g = catalog("log")
        spec = ScoreSpec("apl", tau=0.5, transform=TransformMode.prediction_only(g))
        transformed = fit("constant", spec, y=y)
        assert transformed.theta[0] == pytest.approx(
            g.apply(plain.theta[0]), abs=1e-6)


def test_mean_matches_expectile_half_fit():
    rng = np.random.default_rng(9)
    y = rng.normal(1.0, 2.0, 1000)
    a = fit("constant", ScoreSpec("se"), y=y).theta[0]
    b = fit("constant", ScoreSpec("expectile", tau=0.5), y=y).theta[0]
    assert a == pytest.approx(b, abs=1e-7)


def test_exact_expectile_agrees_with_fit():
    d = Uniform(0.0, 1.0)
    y = sample_iid(d, 10**5, seed=110)
    res = fit("constant", ScoreSpec("expectile", tau=0.9), y=y)
    assert res.theta[0] == pytest.approx(expectile_exact(d, 0.9), abs=0.01)


class TestBadData:
    LOG_BOTH = ScoreSpec("se", transform=TransformMode.both(catalog("log")))

    @pytest.mark.parametrize("model, x", [("constant", None), ("linear", [0.0, 1.0, 2.0, 3.0])])
    def test_bad_y_names_its_row_before_the_search(self, monkeypatch, model, x):
        calls = []
        monkeypatch.setattr(estimation, "score_values", lambda *a: calls.append(a))
        monkeypatch.setattr(estimation, "expected_score", lambda *a: calls.append(a))
        with pytest.raises(DomainError, match=r"^value -1.0 outside domain \(0, inf\) "
                                              r"of observation index 2$") as info:
            fit(model, self.LOG_BOTH, x=x, y=[1.0, 2.0, -1.0, -2.0])
        assert info.value.index == 2 and not calls

    def test_gpl_inner_map_is_checked_once(self):
        spec = ScoreSpec("gpl", tau=0.5, g_inner=catalog("log"))
        with pytest.raises(DomainError, match="observation index 1$"):
            fit("linear", spec, x=[0.0, 1.0, 2.0], y=[1.0, -1.0, 2.0])

    def test_prediction_mode_bracket_names_its_row(self):
        spec = ScoreSpec("se", transform=TransformMode.prediction_only(catalog("log")))
        with pytest.raises(DomainError, match="observation index 0$"):
            fit("constant", spec, y=[-1.0, 2.0])

    @pytest.mark.parametrize("model, x, y, message", [
        ("constant", None, [math.nan, 1.0, 2.0], "value nan outside domain (-inf, inf) "
                                                 "of y at observation index 0"),
        ("linear", [0.0, math.inf, 1.0], [1.0, 2.0, 3.0], "value inf outside domain "
                                                          "(-inf, inf) of x at observation index 1"),
    ])
    def test_non_finite_data_names_its_row(self, model, x, y, message):
        with pytest.raises(DomainError) as info:
            fit(model, ScoreSpec("se"), x=x, y=y)
        assert str(info.value) == message

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    def test_search_error_carries_no_row(self):
        # every line from this start leaves log's domain: no finite objective
        x = np.linspace(0.0, 1.0, 20)
        with pytest.raises(EvaluationError, match="no finite objective") as info:
            fit("linear", self.LOG_BOTH, x=x, y=np.exp(x), init=(-5.0, 0.0))
        assert info.value.index is None

    def test_least_squares_start_outside_the_domain_falls_back(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, 20000)
        y = np.exp(0.2 + 0.5 * x + 0.3 * rng.normal(size=x.size))
        slope, intercept = np.polyfit(x, y, 1)
        assert intercept + slope * x.min() < 0.0  # the least-squares line leaves (0, inf)
        constant = fit("constant", self.LOG_BOTH, y=y).objective
        for family, tau in (("se", None), ("expectile", 0.8), ("apl", 0.9)):
            spec = ScoreSpec(family, tau=tau, transform=TransformMode.both(catalog("log")))
            res = fit("linear", spec, x=x, y=y)
            assert res.converged and math.isfinite(res.objective), family
            if family == "se":
                assert res.objective < 0.5 * constant
