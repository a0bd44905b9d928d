import math

import numpy as np
import pytest

from elicit import (SQUARE, Bijection, ConvexGenerator, DomainError, EvaluationError, Interval,
                    ParameterError, ScoreSpec, TransformMode, average_score,
                    catalog, convex_generator, evaluate_score, register_convex_generator)
from elicit.scoring import expected_score_curve, prepare_realizations, score_values


def se(mode=None):
    return ScoreSpec("se", transform=mode or TransformMode.none())


class TestEvaluateScore:
    def test_squared_error(self):
        assert evaluate_score(ScoreSpec("se"), 3.0, 1.0) == 4.0

    def test_absolute_error(self):
        assert evaluate_score(ScoreSpec("ae"), 1.0, 4.0) == 3.0

    def test_pinball(self):
        assert evaluate_score(ScoreSpec("apl", tau=0.9), 1.0, 2.0) == pytest.approx(0.9)

    def test_gpl_log(self):
        spec = ScoreSpec("gpl", tau=0.5, g_inner=catalog("log"))
        assert evaluate_score(spec, math.exp(2.0), 1.0) == pytest.approx(1.0)

    def test_expectile_square(self):
        spec = ScoreSpec("expectile", tau=0.75)
        assert evaluate_score(spec, 2.0, 0.0) == pytest.approx(1.0)

    def test_se_both_log(self):
        spec = se(TransformMode.both(catalog("log")))
        assert evaluate_score(spec, math.e, 1.0) == pytest.approx(1.0)

    def test_mean_variance(self):
        assert evaluate_score(ScoreSpec("mv"), (0.0, 1.0), 0.0) == pytest.approx(-2.0)

    def test_se_realization_log(self):
        spec = se(TransformMode.realization_only(catalog("log")))
        assert evaluate_score(spec, 0.0, 1.0) == 0.0

    def test_se_prediction_exp(self):
        # S(g^-1(z), y) with g = exp scores (log z - y)^2
        spec = se(TransformMode.prediction_only(catalog("exp")))
        assert evaluate_score(spec, math.e, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert evaluate_score(spec, 1.0, 1.0) == pytest.approx(1.0)

    def test_tie_indicator_counts_as_geq(self):
        for spec in (ScoreSpec("apl", tau=0.3),
                     ScoreSpec("gpl", tau=0.3, g_inner=catalog("identity")),
                     ScoreSpec("expectile", tau=0.3)):
            assert evaluate_score(spec, 2.0, 2.0) == 0.0

    def test_mv_requires_positive_variance(self):
        with pytest.raises(DomainError):
            evaluate_score(ScoreSpec("mv"), (0.0, 0.0), 1.0)

    def test_domain_violation_raises(self):
        spec = se(TransformMode.both(catalog("log")))
        with pytest.raises(DomainError):
            evaluate_score(spec, -1.0, 1.0)


class TestSpecValidation:
    def test_tau_bounds(self):
        with pytest.raises(ParameterError):
            ScoreSpec("apl", tau=1.0)
        with pytest.raises(ParameterError):
            ScoreSpec("expectile", tau=0.0)

    def test_gpl_needs_increasing_inner(self):
        with pytest.raises(ParameterError):
            ScoreSpec("gpl", tau=0.5, g_inner=catalog("negate"))
        with pytest.raises(ParameterError):
            ScoreSpec("gpl", tau=0.5)

    def test_mv_rejects_prediction_transforms(self):
        with pytest.raises(ParameterError):
            ScoreSpec("mv", transform=TransformMode.both(catalog("log")))
        with pytest.raises(ParameterError):
            ScoreSpec("mv", transform=TransformMode.prediction_only(catalog("log")))
        ScoreSpec("mv", transform=TransformMode.realization_only(catalog("log")))

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            ScoreSpec("crps")

    def test_options_the_family_does_not_take(self):
        with pytest.raises(ParameterError, match="se takes no tau"):
            ScoreSpec("se", tau=0.3)
        with pytest.raises(ParameterError, match="apl takes no phi"):
            ScoreSpec("apl", tau=0.3, phi=SQUARE)
        with pytest.raises(ParameterError, match="expectile takes no g"):
            ScoreSpec("expectile", tau=0.3, g_inner=catalog("log"))

    def test_prediction_mode_needs_bijection(self):
        with pytest.raises(ParameterError):
            TransformMode.prediction_only(np.square)


class TestAverageScore:
    def test_se_pairs(self):
        assert average_score(ScoreSpec("se"), [1.0, 2.0], [1.0, 4.0]) == 2.0

    def test_perfect_prediction(self):
        y = [0.3, 1.7, -2.0]
        assert average_score(ScoreSpec("ae"), y, y) == 0.0

    def test_two_pinball_terms(self):
        got = average_score(ScoreSpec("apl", tau=0.5), [0.0, 0.0], [-1.0, 1.0])
        assert got == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            average_score(ScoreSpec("se"), [1.0], [1.0, 2.0])

    def test_domain_error_carries_index(self):
        spec = se(TransformMode.both(catalog("log")))
        with pytest.raises(DomainError, match="index 1"):
            average_score(spec, [1.0, 1.0, 1.0], [2.0, -3.0, 1.0])

    def test_mv_pairs(self):
        z = [(0.0, 1.0), (1.0, 2.0)]
        y = [0.0, 1.0]
        expected = (evaluate_score(ScoreSpec("mv"), z[0], y[0])
                    + evaluate_score(ScoreSpec("mv"), z[1], y[1])) / 2
        assert average_score(ScoreSpec("mv"), z, y) == pytest.approx(expected)

    @pytest.mark.parametrize("mode", [TransformMode.none(),
                                      TransformMode.realization_only(catalog("log"))])
    def test_mv_matches_per_row_oracle(self, mode):
        rng = np.random.default_rng(11)
        y = rng.lognormal(0.0, 1.0, 500)
        z = np.column_stack([rng.normal(0.0, 1.0, 500), rng.uniform(0.5, 2.0, 500)])
        spec = ScoreSpec("mv", transform=mode)
        oracle = np.mean([evaluate_score(spec, zi, yi) for zi, yi in zip(z, y)])
        assert average_score(spec, z, y) == pytest.approx(oracle, rel=1e-12)

    def test_mv_prediction_must_be_a_pair(self):
        spec = ScoreSpec("mv")
        prepared = prepare_realizations(spec, [1.0, 2.0])
        for z in ([0.5], [0.5, 1.0, 2.0], [[0.5, 1.0, 2.0]]):
            with pytest.raises(ParameterError, match="pairs"):
                expected_score_curve(spec, z, prepared)
        with pytest.raises(ParameterError, match="pairs"):
            evaluate_score(spec, 0.5, 1.0)

    def test_mv_names_first_bad_row(self):
        spec = ScoreSpec("mv", transform=TransformMode.realization_only(catalog("log")))
        with pytest.raises(DomainError, match="index 1, mean-variance"):
            average_score(spec, [(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="index 2"):
            average_score(spec, [(0.0, 1.0)] * 3, [1.0, 2.0, -3.0])
        with pytest.raises(ParameterError, match="length mismatch"):
            average_score(spec, [(0.0, 1.0)] * 3, [1.0, 2.0])


class TestTransformMode:
    def test_arguments_per_mode(self):
        log = catalog("log")
        cases = [(TransformMode.none(), 4.0, 4.0),
                 (TransformMode.realization_only(log), math.log(4.0), 4.0),
                 (TransformMode.prediction_only(log), 4.0, math.exp(4.0)),
                 (TransformMode.both(log), math.log(4.0), math.log(4.0))]
        for mode, w, u in cases:
            assert mode.realization(4.0) == w
            assert mode.prediction(4.0) == u
            assert np.array_equal(mode.realization(np.array([4.0, 4.0])), [w, w])

    def test_bare_callable_is_checked_for_finite_values(self):
        mode = TransformMode.realization_only(np.sqrt)
        assert np.array_equal(mode.realization(np.array([4.0, 9.0])), [2.0, 3.0])
        assert mode.realization(4.0) == 2.0
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError):
            mode.realization(np.array([4.0, -1.0]))

    def test_bare_callable_error_names_row(self):
        spec = se(TransformMode.realization_only(np.sqrt))
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match="at index 1"):
            average_score(spec, [1.0, 1.0, 1.0], [4.0, -1.0, 9.0])


class TestNonnegativityAndZeros:
    def test_nonnegative_families(self):
        rng = np.random.default_rng(17)
        specs = [
            ScoreSpec("se"), ScoreSpec("ae"), ScoreSpec("apl", tau=0.2),
            ScoreSpec("gpl", tau=0.8, g_inner=catalog("log")),
            ScoreSpec("expectile", tau=0.6),
            ScoreSpec("bregman"),
        ]
        for spec in specs:
            for _ in range(200):
                z, y = rng.uniform(0.1, 10.0, size=2)
                assert evaluate_score(spec, z, y) >= 0.0

    def test_zero_exactly_at_tie(self):
        rng = np.random.default_rng(23)
        specs = [ScoreSpec("se"), ScoreSpec("ae"), ScoreSpec("apl", tau=0.2),
                 ScoreSpec("gpl", tau=0.8, g_inner=catalog("log")),
                 ScoreSpec("expectile", tau=0.6)]
        for spec in specs:
            for v in rng.uniform(0.1, 10.0, size=50):
                assert evaluate_score(spec, v, v) == 0.0

    def test_se_strict_zero_iff_equal(self):
        assert evaluate_score(ScoreSpec("se"), 1.0, 1.0 + 1e-8) > 0.0


class TestSpecialCaseIdentities:
    def test_ae_is_gpl_half_with_doubling(self):
        # |z - y| = (1{z >= y} - 1/2)(2z - 2y)
        double = Bijection("double", lambda t: 2.0 * np.asarray(t, float),
                           lambda t: 0.5 * np.asarray(t, float),
                           lambda t: 2.0 * np.ones_like(np.asarray(t, float)),
                           Interval.open(-math.inf, math.inf),
                           Interval.open(-math.inf, math.inf), True)
        gpl = ScoreSpec("gpl", tau=0.5, g_inner=double)
        rng = np.random.default_rng(2)
        for _ in range(100):
            z, y = rng.normal(size=2)
            assert evaluate_score(gpl, z, y) == pytest.approx(
                evaluate_score(ScoreSpec("ae"), z, y), abs=1e-12)

    def test_se_is_twice_half_expectile(self):
        exp_half = ScoreSpec("expectile", tau=0.5)
        rng = np.random.default_rng(3)
        for _ in range(100):
            z, y = rng.normal(size=2)
            assert 2.0 * evaluate_score(exp_half, z, y) == pytest.approx(
                evaluate_score(ScoreSpec("se"), z, y), abs=1e-12)

    def test_bregman_square_is_half_se(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z, y = rng.normal(size=2)
            assert evaluate_score(ScoreSpec("bregman"), z, y) == pytest.approx(
                0.5 * (z - y) ** 2, abs=1e-12)

    def test_joint_transform_pinball_equals_gpl(self):
        # for increasing g, the transformed pinball IS the generalized
        # piecewise linear score with inner transform g
        for g in (catalog("log"), catalog("exp")):
            apl_t = ScoreSpec("apl", tau=0.3, transform=TransformMode.both(g))
            gpl = ScoreSpec("gpl", tau=0.3, g_inner=g)
            rng = np.random.default_rng(5)
            for _ in range(100):
                z, y = rng.uniform(0.2, 3.0, size=2)
                assert evaluate_score(apl_t, z, y) == pytest.approx(
                    evaluate_score(gpl, z, y), abs=1e-12)

    def test_decreasing_transform_flips_level(self):
        # off ties: pinball at level tau on (g(z), g(y)) equals the level
        # (1 - tau) form with -g, for strictly decreasing g
        g = catalog("power", [-1.0])
        tau = 0.3
        spec = ScoreSpec("apl", tau=tau, transform=TransformMode.both(g))
        rng = np.random.default_rng(6)
        for _ in range(200):
            z, y = rng.uniform(0.2, 3.0, size=2)
            if z == y:
                continue
            ind = 1.0 if z >= y else 0.0
            expected = (ind - (1.0 - tau)) * (-g.apply(z) + g.apply(y))
            assert evaluate_score(spec, z, y) == pytest.approx(expected, abs=1e-12)


class TestHomogeneity:
    C_GRID = (0.5, 1.5, 2.0, 7.3)
    SAMPLE = ((1.0, 2.0), (3.0, 0.5), (0.7, 0.9))

    def orders(self, spec):
        """The degrees b in {0, 1, 2} with S(c z, c y) = c^b S(z, y), to 1e-9
        relative, at every scale c > 0 and sample point (z, y)."""
        return [b for b in (0.0, 1.0, 2.0) if all(
            abs(evaluate_score(spec, c * z, c * y) - c**b * evaluate_score(spec, z, y))
            <= 1e-9 * abs(c**b * evaluate_score(spec, z, y))
            for c in self.C_GRID for z, y in self.SAMPLE)]

    def test_se_order_two(self):
        assert self.orders(ScoreSpec("se")) == [2.0]

    def test_apl_order_one(self):
        assert self.orders(ScoreSpec("apl", tau=0.9)) == [1.0]

    def test_gpl_log_order_zero(self):
        assert self.orders(ScoreSpec("gpl", tau=0.9, g_inner=catalog("log"))) == [0.0]

    def test_not_homogeneous(self):
        spec = ScoreSpec("se", transform=TransformMode.both(catalog("shifted-log", [1.0])))
        assert self.orders(spec) == []


class TestConvexGenerators:
    def test_square_is_registered(self):
        gen = convex_generator("square")
        assert gen.phi(3.0) == 9.0 and gen.dphi(3.0) == 6.0

    def test_unknown_generator(self):
        with pytest.raises(ParameterError):
            convex_generator("nope")

    def test_register_custom_without_second_derivative(self):
        quart = ConvexGenerator("quartic", phi=lambda t: np.asarray(t, float) ** 4,
                                dphi=lambda t: 4.0 * np.asarray(t, float) ** 3,
                                d2phi=None)
        register_convex_generator(quart)
        assert convex_generator("quartic") is quart
        spec = ScoreSpec("expectile", tau=0.5, phi=quart)
        # Bregman-type gap with phi = t^4 at (z, y) = (1, 2)
        expected = 0.5 * (16.0 - 1.0 + 4.0 * (1.0 - 2.0))
        assert evaluate_score(spec, 1.0, 2.0) == pytest.approx(expected)

    def test_convexity_gap_nonnegative(self):
        gen = convex_generator("square")
        rng = np.random.default_rng(8)
        for _ in range(100):
            z, y = rng.normal(size=2)
            gap = gen.phi(y) - gen.phi(z) - gen.dphi(z) * (y - z)
            assert gap >= 0.0


def test_expected_score_curve_matches_pointwise():
    spec = ScoreSpec("apl", tau=0.4)
    y = np.random.default_rng(9).normal(size=500)
    prepared = prepare_realizations(spec, y)
    zs = np.linspace(-1, 1, 7)
    curve = expected_score_curve(spec, zs, prepared)
    for z, m in zip(zs, curve):
        assert m == pytest.approx(np.mean([evaluate_score(spec, z, yi) for yi in y]))


def test_score_values_vectorizes_over_realizations():
    spec = ScoreSpec("se", transform=TransformMode.both(catalog("log")))
    y = np.array([1.0, 2.0, 4.0])
    vals = score_values(spec, 2.0, prepare_realizations(spec, y))
    expected = (np.log(2.0) - np.log(y)) ** 2
    assert np.allclose(vals, expected)
