import math

import numpy as np
import pytest
from scipy.stats import norm

import oracle
from elicit import (Empirical, Exponential, IdentSpec, Lognormal, Normal, ParameterError,
                    ScoreSpec, TransformMode, catalog, evaluate_identification,
                    orientation_probe, osband_residual)
from elicit.identification import (builtin_osband_pairings, expected_ident_curve,
                                   ident_values, prepare_ident_realizations,
                                   streamed_ident_curve)
from elicit.scoring import convex_generator, ConvexGenerator, register_convex_generator


class TestEvaluate:
    def test_mean(self):
        assert evaluate_identification(IdentSpec("mean"), 2.0, 5.0) == -3.0

    def test_median_joint_exp_matches_plain(self):
        spec = IdentSpec("quantile", tau=0.5, transform=TransformMode.both(catalog("exp")))
        plain = IdentSpec("quantile", tau=0.5)
        assert evaluate_identification(spec, 1.0, 3.0) == -0.5
        assert evaluate_identification(spec, 1.0, 3.0) == \
            evaluate_identification(plain, 1.0, 3.0)

    def test_expectile(self):
        got = evaluate_identification(IdentSpec("expectile", tau=0.75), 2.0, 0.0)
        assert got == pytest.approx(2 * 0.25 * 2.0)

    def test_mv_realization_identity(self):
        spec = IdentSpec("mv", transform=TransformMode.realization_only(catalog("identity")))
        assert evaluate_identification(spec, (0.0, 1.0), 1.0) == (-1.0, 0.0)

    def test_mv_transform_restriction(self):
        with pytest.raises(ParameterError):
            IdentSpec("mv", transform=TransformMode.both(catalog("log")))

    def test_tau_validation(self):
        with pytest.raises(ParameterError):
            IdentSpec("quantile", tau=1.5)
        with pytest.raises(ParameterError, match="mean takes no tau"):
            IdentSpec("mean", tau=0.3)


class TestInvariances:
    def test_median_invariance_any_monotone_direction(self):
        # increasing maps leave the median indicator untouched; decreasing
        # maps flip its sign off ties, which still identifies the median
        # (only orientation reverses)
        plain = IdentSpec("quantile", tau=0.5)
        rng = np.random.default_rng(3)
        for g in (catalog("exp"), catalog("log"), catalog("negate"), catalog("power", [-1.0])):
            spec = IdentSpec("quantile", tau=0.5, transform=TransformMode.both(g))
            sign = 1.0 if g.increasing else -1.0
            for _ in range(200):
                z, y = rng.uniform(0.2, 4.0, size=2)
                if z == y:
                    continue
                assert evaluate_identification(spec, z, y) == \
                    sign * evaluate_identification(plain, z, y)

    def test_median_zero_at_truth_both_orientations(self):
        # the substantive invariance: E[V(median, Y)] = 0 under increasing
        # and decreasing transformations alike
        d = Exponential(1.0)
        median = math.log(2.0)
        for g in (catalog("exp"), catalog("negate")):
            spec = IdentSpec("quantile", tau=0.5, transform=TransformMode.both(g))
            est = oracle.mc_mean(lambda y: np.asarray(
                evaluate_identification(spec, median, y)), d, 10**5, seed=21)
            assert abs(est.value) <= 3 * est.stderr

    def test_quantile_invariance_increasing(self):
        plain = IdentSpec("quantile", tau=0.8)
        rng = np.random.default_rng(4)
        for g in (catalog("exp"), catalog("log")):
            spec = IdentSpec("quantile", tau=0.8, transform=TransformMode.both(g))
            for _ in range(200):
                z, y = rng.uniform(0.2, 4.0, size=2)
                assert evaluate_identification(spec, z, y) == \
                    evaluate_identification(plain, z, y)

    def test_zero_at_truth_monte_carlo(self):
        cases = [
            (IdentSpec("mean"), Normal(0.7, 2.0), 0.7),
            (IdentSpec("quantile", tau=0.25), Exponential(1.0), -math.log(0.75)),
            (IdentSpec("mean", transform=TransformMode.both(catalog("log"))),
             Lognormal(0.0, 1.0), 1.0),
        ]
        for spec, dist, truth in cases:
            est = oracle.mc_mean(lambda y: np.asarray(
                evaluate_identification(spec, truth, y)), dist, 10**5, seed=5)
            assert abs(est.value) <= 3 * est.stderr


class TestOrientation:
    def test_mean_normal_positive_offset(self):
        rep = orientation_probe(IdentSpec("mean"), Normal(0.0, 1.0), 0.0,
                                offsets=(1.0,), n=10**5, seed=6)
        assert rep.passed
        assert rep.estimates[0] == pytest.approx(1.0, abs=0.02)

    def test_median_exponential_both_signs(self):
        # E[1{z >= Y}] - 1/2 = F(z) - 1/2 changes sign at log 2
        rep = orientation_probe(IdentSpec("quantile", tau=0.5), Exponential(1.0),
                                math.log(2.0), offsets=(-0.5, 0.5), n=10**5, seed=7)
        assert rep.passed
        d = Exponential(1.0)
        for off, est in zip(rep.offsets, rep.estimates):
            assert est == pytest.approx(d.cdf(math.log(2.0) + off) - 0.5, abs=0.01)

    def test_transformed_mean_on_lognormal(self):
        spec = IdentSpec("mean", transform=TransformMode.both(catalog("log")))
        rep = orientation_probe(spec, Lognormal(0.0, 1.0), 1.0,
                                offsets=(-0.5, 0.5), n=10**5, seed=8)
        assert rep.passed
        # E[log z - log Y] = log z at z = 1 +- 0.5
        for off, est in zip(rep.offsets, rep.estimates):
            assert est == pytest.approx(math.log(1.0 + off), abs=0.01)

    def test_rejects_zero_offset(self):
        with pytest.raises(ParameterError):
            orientation_probe(IdentSpec("mean"), Normal(0, 1), 0.0, offsets=(0.0,),
                              n=10**4, seed=0)

    def test_rejects_pair_family(self):
        with pytest.raises(ParameterError):
            orientation_probe(IdentSpec("mv"), Normal(0, 1), 0.0, offsets=(1.0,),
                              n=10**4, seed=0)


class TestOsbandResidual:
    def test_se_mean_pairing(self):
        got = osband_residual(ScoreSpec("se"), IdentSpec("mean"), lambda z: 2.0,
                              [(3.0, 1.0)])
        assert got <= 1e-6

    def test_se_both_log_pairing(self):
        g = catalog("log")
        both = TransformMode.both(g)
        got = osband_residual(ScoreSpec("se", transform=both),
                              IdentSpec("mean", transform=both),
                              lambda z: 2.0 / z, [(2.0, 1.0)])
        assert got <= 1e-6

    def test_gpl_quantile_pairing(self):
        got = osband_residual(ScoreSpec("gpl", tau=0.9, g_inner=catalog("log")),
                              IdentSpec("quantile", tau=0.9),
                              lambda z: 1.0 / z, [(2.0, 5.0)])
        assert got <= 1e-6

    def test_kink_point_rejected(self):
        with pytest.raises(ParameterError, match="kink"):
            osband_residual(ScoreSpec("se"), IdentSpec("mean"), lambda z: 2.0,
                            [(1.0, 1.0 + 1e-9)])

    def test_missing_second_derivative_not_applicable(self):
        try:
            gen = convex_generator("no-curvature")
        except ParameterError:
            gen = ConvexGenerator("no-curvature", phi=lambda t: np.square(t),
                                  dphi=lambda t: 2.0 * np.asarray(t, float), d2phi=None)
            register_convex_generator(gen)
        spec = ScoreSpec("expectile", tau=0.7, phi=gen)
        got = osband_residual(spec, IdentSpec("expectile", tau=0.7), lambda z: 1.0,
                              [(2.0, 1.0)])
        assert got is None

    def test_builtin_pairings_all_small_residual(self):
        rng = np.random.default_rng(12)
        pairings = builtin_osband_pairings(catalog("log"), tau=0.9)
        assert len(pairings) == 5
        for name, score, ident, h in pairings:
            points = []
            while len(points) < 30:
                z, y = rng.uniform(0.3, 4.0, size=2)
                if abs(z - y) > 0.05:
                    points.append((z, y))
            assert osband_residual(score, ident, h, points) <= 1e-6, name

    def test_wrong_h_yields_large_residual(self):
        got = osband_residual(ScoreSpec("se"), IdentSpec("mean"), lambda z: 1.0,
                              [(3.0, 1.0)])
        assert got > 1.0


def test_mean_expectile_half_equivalence():
    # 2 |1{z>=y} - 1/2| (z - y) = z - y pointwise
    spec = IdentSpec("expectile", tau=0.5)
    rng = np.random.default_rng(13)
    for _ in range(100):
        z, y = rng.normal(size=2)
        assert evaluate_identification(spec, z, y) == pytest.approx(z - y, abs=1e-12)


def test_normal_expectile_values_match_reference():
    # cross-check the exact expectile solver against the analytic normal
    # balance solved with scipy's distribution objects
    from elicit.functionals import expectile_exact

    tau = 0.75
    d = Normal(0.0, 1.0)
    z = expectile_exact(d, tau)
    # at the expectile: tau E[(Y-z)^+] = (1-tau) E[(z-Y)^+]
    pm_above = norm.expect(lambda y: max(y - z, 0.0), lb=-10, ub=10)
    pm_below = norm.expect(lambda y: max(z - y, 0.0), lb=-10, ub=10)
    assert tau * pm_above == pytest.approx((1 - tau) * pm_below, abs=1e-9)


@pytest.mark.parametrize("values", [(1, 1, 1.5, 2, 2, 2, 3), (0.5, 0.5, 0.5, 4)])
@pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
def test_quantile_identification_at_an_atom_is_the_cdf_less_tau(values, tau):
    """E[V(t, Y)] = F(t) - tau at every atom t of an empirical law, F
    right-continuous (Gneiting 2011): the tie rule 1{t >= y} shows here, and
    only here, since an expected score is continuous in t. The streamed
    pass, the held sweep and the rows' mean each give the law's own cdf,
    which shares no code with the sweeps."""
    dist = Empirical(values)
    spec = IdentSpec("quantile", tau=tau)
    y = np.array(dist.values)
    atoms = np.unique(y)
    prepared = prepare_ident_realizations(spec, y)
    means = {"streamed": streamed_ident_curve(spec, atoms, [y.copy()])[0],
             "held": expected_ident_curve(spec, atoms, prepared)[0],
             "rows": [np.mean(ident_values(spec, t, prepared)) for t in atoms]}
    for name, got in means.items():
        for t, m in zip(atoms, got):
            assert abs(m - (dist.cdf(t) - tau)) <= 1e-15, (name, t)
