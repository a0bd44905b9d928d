import math

import numpy as np
import pytest

from elicit import (Bracket, CheckConfig, Empirical, Exponential, Lognormal,
                    Normal, ParameterError, Uniform, builtin_suite, catalog,
                    check_consistency, check_identification, check_pair_consistency,
                    check_realization_transform, check_revelation, check_strictness,
                    derive_seed, mc_expectation, run_check, run_suite, sample_iid,
                    suite_passed)
from elicit.specs import parse_functional, parse_ident, parse_score
from elicit.verify import load_suite_file

N = 5 * 10**4  # enough for the loose tolerances below, fast in CI


def cfg(name="check", kind="consistency", dist=None, functional="mean",
        bracket=(-2.0, 2.0), n=N, seed=5150, score=None, ident=None,
        points=101, tol_abs=0.02, tol_rel=0.02, target=None, bracket2=None,
        g=None, expect_pass=True):
    return CheckConfig(
        name=name, kind=kind, dist=dist or Normal(0.0, 1.0),
        functional=parse_functional(functional), bracket=Bracket(*bracket),
        n=n, seed=seed, score=parse_score(score) if score else None,
        ident=parse_ident(ident) if ident else None, points=points,
        tol_abs=tol_abs, tol_rel=tol_rel, target=target,
        bracket2=Bracket(*bracket2) if bracket2 else None, g=g,
        expect_pass=expect_pass)


class TestConsistency:
    def test_se_on_normal(self):
        rpt = check_consistency(cfg(score="se"))
        assert rpt.passed
        assert abs(rpt.estimate) <= 0.02

    def test_transformed_power_on_lognormal(self):
        a = 0.5
        rpt = check_consistency(cfg(
            score=f"se@both:power({a})", dist=Lognormal(0.0, 1.0),
            functional=f"gmean:g=power({a})", bracket=(0.5, 3.0)))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(math.exp(a / 2), rel=0.05)

    def test_wrong_target_fails(self):
        rpt = check_consistency(cfg(score="se", target=0.5))
        assert not rpt.passed

    def test_bracket_excluding_minimizer_raises(self):
        from elicit import BracketingError
        with pytest.raises(BracketingError, match="bracket"):
            run_check(cfg(score="se", bracket=(1.0, 3.0), target=2.0))

    def test_bracket_error_captured_by_suite(self):
        bad = cfg(score="se", bracket=(1.0, 3.0), target=2.0)
        reports = run_suite([bad])
        assert not reports[0].passed and "bracket" in reports[0].notes

    def test_interval_target_accepts_any_point_inside(self):
        # median of an even empirical sample is an interval; landing anywhere
        # inside it passes
        rpt = check_consistency(cfg(
            score="gpl:tau=0.5:g=identity", dist=Empirical((1.0, 1.0, 2.0, 2.0)),
            functional="quantile:tau=0.5", bracket=(0.5, 2.5), n=10**4))
        assert rpt.passed

    def test_quantile_score_on_uniform(self):
        rpt = check_consistency(cfg(
            score="apl:tau=0.9", dist=Uniform(0.0, 1.0),
            functional="quantile:tau=0.9", bracket=(0.5, 0.999), n=2 * 10**5))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(0.9, abs=0.02)


class TestStrictness:
    def test_se_strict(self):
        rpt = check_strictness(cfg(score="se", tol_abs=0.05))
        assert rpt.passed

    def test_flat_median_interval_fails(self):
        rpt = check_strictness(cfg(
            score="gpl:tau=0.5:g=identity", dist=Empirical((1.0, 1.0, 2.0, 2.0)),
            functional="quantile:tau=0.5", bracket=(0.5, 2.5), n=10**4))
        assert not rpt.passed
        assert "non-strict" in rpt.notes

    def test_expectile_strict_on_uniform(self):
        rpt = check_strictness(cfg(
            score="expectile:tau=0.75:phi=square", dist=Uniform(0.0, 1.0),
            functional="expectile:tau=0.75", bracket=(0.05, 0.95), tol_abs=0.05))
        assert rpt.passed


class TestIdentification:
    def test_mean_on_normal(self):
        rpt = check_identification(cfg(kind="identification", ident="mean",
                                       bracket=(-1.0, 1.0), tol_abs=0.05))
        assert rpt.passed
        assert abs(rpt.estimate) <= 3 * rpt.stderr

    def test_quantile_on_exponential(self):
        rpt = check_identification(cfg(
            kind="identification", ident="quantile:tau=0.9", dist=Exponential(1.0),
            functional="quantile:tau=0.9", bracket=(1.0, 4.0), n=2 * 10**5,
            tol_abs=0.05))
        assert rpt.passed

    def test_transformed_expectile_on_lognormal(self):
        rpt = check_identification(cfg(
            kind="identification", ident="expectile:tau=0.75@both:log",
            dist=Lognormal(0.0, 1.0), functional="gexpectile:tau=0.75:g=log",
            bracket=(0.5, 3.5), tol_abs=0.05))
        assert rpt.passed

    def test_wrong_truth_fails(self):
        rpt = check_identification(cfg(kind="identification", ident="mean",
                                       bracket=(-1.0, 1.0), target=0.5))
        assert not rpt.passed


class TestRevelation:
    def test_exp_reparameterization(self):
        rpt = check_revelation(cfg(kind="revelation", score="se", g=catalog("exp")))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(1.0, rel=0.05)

    def test_identity_changes_nothing(self):
        rpt = check_revelation(cfg(kind="revelation", score="se",
                                   g=catalog("identity"), dist=Uniform(0.0, 1.0),
                                   bracket=(0.1, 0.9)))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(0.5, abs=0.03)

    def test_log_median_reparameterization(self):
        rpt = check_revelation(cfg(
            kind="revelation", score="apl:tau=0.5", dist=Exponential(1.0),
            functional="quantile:tau=0.5", bracket=(0.2, 2.5),
            g=catalog("log"), n=2 * 10**5))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(math.log(math.log(2.0)), abs=0.05)


class TestRealizationTransform:
    def test_log_realizations(self):
        rpt = check_realization_transform(cfg(
            kind="realization", score="se", dist=Lognormal(0.3, 1.0),
            bracket=(-1.0, 1.5), g=catalog("log")))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(0.3, abs=0.03)

    def test_non_bijective_square(self):
        # measurable maps are allowed: scoring against Y^2 targets E[Y^2] = 1
        rpt = check_realization_transform(cfg(
            kind="realization", score="se", dist=Normal(0.0, 1.0),
            bracket=(0.2, 2.5), g=np.square))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(1.0, abs=0.05)

    def test_median_of_log(self):
        rpt = check_realization_transform(cfg(
            kind="realization", score="ae", dist=Lognormal(0.0, 1.0),
            functional="quantile:tau=0.5", bracket=(-1.5, 1.5),
            g=catalog("log"), n=2 * 10**5, tol_abs=0.03))
        assert rpt.passed
        assert rpt.estimate == pytest.approx(0.0, abs=0.03)


class TestPairConsistency:
    def test_identity_on_normal(self):
        rpt = check_pair_consistency(cfg(
            kind="pair", score="mv", dist=Normal(2.0, 3.0),
            functional="mvpair", bracket=(0.5, 3.5), bracket2=(4.0, 16.0),
            tol_rel=0.05))
        assert rpt.passed
        assert rpt.estimate[0] == pytest.approx(2.0, abs=0.1)
        assert rpt.estimate[1] == pytest.approx(9.0, rel=0.05)

    def test_uniform_moments(self):
        rpt = check_pair_consistency(cfg(
            kind="pair", score="mv", dist=Uniform(0.0, 1.0),
            functional="mvpair", bracket=(0.2, 0.8), bracket2=(0.02, 0.3),
            tol_rel=0.05, tol_abs=0.01))
        assert rpt.passed
        assert rpt.estimate[0] == pytest.approx(0.5, abs=0.02)
        assert rpt.estimate[1] == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_log_transform_on_lognormal(self):
        c = cfg(kind="pair", score="mv@realization:log", dist=Lognormal(0.5, 2.0),
                functional="mvpair:g=log", bracket=(-0.5, 1.5), bracket2=(1.0, 8.0),
                tol_rel=0.05)
        rpt = check_pair_consistency(c)
        assert rpt.passed
        # The argmin is the vertex: the prepared draws' mean and var(ddof=0).
        w = np.log(sample_iid(c.dist, c.n, c.seed))
        mean, var = float(np.mean(w)), float(np.var(w, ddof=0))
        assert abs(rpt.estimate[0] - mean) <= 1e-12 * max(abs(mean), math.sqrt(var))
        assert abs(rpt.estimate[1] - var) <= 1e-12 * var

    @pytest.mark.parametrize("bracket, bracket2", [((2.5, 3.5), (4.0, 16.0)),
                                                    ((0.5, 3.5), (10.0, 16.0))])
    def test_box_excluding_vertex_is_a_bracketing_error(self, bracket, bracket2):
        c = cfg(kind="pair", score="mv", dist=Normal(2.0, 3.0), functional="mvpair",
                bracket=bracket, bracket2=bracket2)
        (rpt,) = run_suite([c])
        assert rpt.error["type"] == "BracketingError" and "bracket" in rpt.notes


class TestRunSuite:
    def test_empty(self):
        assert run_suite([]) == []

    def test_pass_and_fail_flags(self):
        configs = [cfg(name="good", score="se"),
                   cfg(name="bad", score="se", target=1.0)]
        reports = run_suite(configs)
        assert [r.passed for r in reports] == [True, False]
        assert not suite_passed(configs, reports)

    def test_parallelism_does_not_change_reports(self):
        configs = builtin_suite("smoke", seed=7)
        seq = run_suite(configs, parallelism=1)
        par = run_suite(configs, parallelism=8)
        assert [r.to_json_dict() for r in seq] == [r.to_json_dict() for r in par]

    def test_expected_fail_counts_as_suite_pass(self):
        configs = [cfg(name="xfail", score="se", target=1.0, expect_pass=False)]
        reports = run_suite(configs)
        assert suite_passed(configs, reports)

    def test_errors_are_captured_not_raised(self):
        bad = cfg(score="se@both:log", dist=Normal(0.0, 1.0),
                  functional="mean", bracket=(0.5, 2.0))
        reports = run_suite([bad])
        assert len(reports) == 1
        assert not reports[0].passed
        assert "error" in reports[0].notes

    def test_non_package_exceptions_become_error_reports(self):
        import json

        from elicit import ConvexGenerator, register_convex_generator

        def broken(t):
            raise TypeError("phi is broken")

        register_convex_generator(ConvexGenerator("broken-test", phi=broken, dphi=broken))
        configs = [cfg(name="boom", score="expectile:tau=0.5:phi=broken-test"),
                   cfg(name="boom-xfail", score="expectile:tau=0.5:phi=broken-test",
                       expect_pass=False),
                   cfg(name="good", score="se")]
        for jobs in (1, 2):
            reports = run_suite(configs, parallelism=jobs)
            assert [r.check for r in reports] == ["boom", "boom-xfail", "good"]
            assert reports[2].passed and reports[2].error is None
            for rpt in reports[:2]:
                doc = rpt.to_json_dict()
                assert doc["error"] == {"type": "TypeError", "message": "phi is broken"}
                assert doc["estimate"] is None and doc["target"] is None
                assert doc["notes"].startswith("error:")
                json.dumps(doc, allow_nan=False)
            # an errored check never counts as its expected verdict
            assert not suite_passed(configs[1:2], reports[1:2])
            assert not suite_passed(configs, reports)

    def test_order_is_input_order(self):
        configs = [cfg(name=f"c{i}", score="se", n=10**4, points=21) for i in range(6)]
        reports = run_suite(configs, parallelism=4)
        assert [r.check for r in reports] == [f"c{i}" for i in range(6)]


class TestConfigValidation:
    def test_minimum_n(self):
        with pytest.raises(ParameterError):
            cfg(score="se", n=100)

    def test_kind_requirements(self):
        # Each kind's preconditions fail when the config is built, not when it runs.
        for kw, message in [
            (dict(kind="identification"), "ident spec"),
            (dict(kind="pair", score="mv"), "bracket2"),
            (dict(kind="revelation", score="se"), "transformation g"),
            (dict(kind="pair", score="se", bracket2=(1.0, 2.0)), "mean-variance score"),
            (dict(kind="pair", score="mv", bracket2=(0.0, 2.0)), "must be positive"),
            (dict(kind="consistency", score="mv"), "pairs"),
            (dict(kind="strictness", score="mv"), "pairs"),
            (dict(kind="realization", score="mv", g=catalog("log")), "pairs"),
            (dict(kind="identification", ident="mv"), "kind=pair"),
            (dict(kind="revelation", score="se@both:log", g=catalog("exp")), "untransformed"),
            (dict(kind="realization", score="se@realization:log", g=catalog("exp")),
             "untransformed"),
            (dict(kind="revelation", score="se", g=np.exp), "invertible Bijection"),
        ]:
            with pytest.raises(ParameterError, match=message):
                cfg(**kw)


class TestBuiltinSuites:
    def test_paper_core_shape(self):
        suite = builtin_suite("paper-core", seed=1)
        kinds = [c.kind for c in suite]
        assert kinds.count("identification") == 10
        assert kinds.count("pair") == 1
        assert any(c.kind == "revelation" for c in suite)
        assert any(c.kind == "realization" for c in suite)
        assert sum(1 for c in suite if not c.expect_pass) == 1

    def test_seeds_derived_from_master(self):
        a = builtin_suite("paper-core", seed=1)
        b = builtin_suite("paper-core", seed=2)
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_unknown_name(self):
        from elicit.errors import SpecParseError
        with pytest.raises(SpecParseError):
            builtin_suite("nope")


def test_suite_file_roundtrip(tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text(
        "# demo suite\n"
        "name=demo kind=consistency dist=uniform(0,1) score=apl:tau=0.5 "
        "functional=quantile:tau=0.5 bracket=0.1,0.9 n=20000 points=51 "
        "tol_abs=0.05 expect=pass\n"
        "name=flat kind=strictness dist=empirical(1,1,2,2) "
        "score=gpl:tau=0.5:g=identity functional=quantile:tau=0.5 "
        "bracket=0.5,2.5 n=10000 points=51 expect=fail\n")
    configs = load_suite_file(str(path), seed=3)
    assert [c.name for c in configs] == ["demo", "flat"]
    reports = run_suite(configs)
    assert suite_passed(configs, reports)


@pytest.mark.parametrize("tol", [{"tol_abs": math.nan}, {"tol_abs": math.inf},
                                 {"tol_rel": -0.01}, {"tol_rel": math.nan}])
def test_check_config_rejects_bad_tolerances(tol):
    with pytest.raises(ParameterError, match="finite and >= 0"):
        cfg(score="se", **tol)


@pytest.mark.parametrize("bad", [{"n": 20000.7}, {"n": math.inf}, {"points": 41.5},
                                 {"seed": -3}])
def test_check_config_rejects_fractional_counts_and_negative_seeds(bad):
    with pytest.raises(ParameterError):
        cfg(score="se", **bad)


def test_check_config_stores_integral_counts_as_int():
    c = cfg(score="se", n=20000.0, points=41.0)
    assert (c.n, c.points) == (20000, 41)
    assert type(c.n) is int and type(c.points) is int


def test_transformed_draw_quantile_target_has_quantile_stderr():
    """Without a pushforward law the target comes from transformed draws,
    and a quantile target carries the quantile's stderr, not the mean's."""
    from elicit import TransformMode, sample_iid
    from elicit.functionals import _quantile_stderr
    from elicit.numerics import mean_stderr
    from elicit.verify import _transformed_functional

    g = catalog("box-cox", [0.5])
    c = cfg(kind="realization", score="apl:tau=0.9", dist=Lognormal(0.0, 0.5),
            functional="quantile:tau=0.9", bracket=(0.2, 1.5), g=g)
    fv = _transformed_functional(c, TransformMode.realization_only(g))
    w = g.apply(sample_iid(c.dist, c.n, derive_seed(c.seed, 7919)))
    assert fv.stderr == _quantile_stderr(np.sort(w), 0.9)
    assert fv.stderr != mean_stderr(w)


def test_suite_file_error_carries_line(tmp_path):
    from elicit.errors import SpecParseError
    path = tmp_path / "suite.txt"
    path.write_text("kind=consistency dist=normal(0,1)\n")
    with pytest.raises(SpecParseError, match="suite.txt:1"):
        load_suite_file(str(path), seed=0)


def test_table_rows_elicit_inverted_transformed_means():
    """Every transformation row, on a compatible law, elicits the value
    obtained independently by Monte Carlo of E[g(Y)] followed by g^-1."""
    rows = [
        (catalog("log"), Lognormal(0.0, 0.5)),
        (catalog("affine-log", [2.0, 1.0]), Uniform(0.0, 1.0)),
        (catalog("shifted-log", [1.0]), Uniform(0.0, 1.0)),
        (catalog("exp"), Normal(0.0, 1.0)),
        (catalog("affine-exp", [0.5, 0.2]), Normal(0.0, 1.0)),
        (catalog("power", [2.0]), Uniform(0.1, 2.0)),
        (catalog("power", [-1.0]), Uniform(0.5, 2.0)),
        (catalog("affine-power", [2.0, 1.0, 0.5]), Uniform(0.0, 1.0)),
        (catalog("affine-power", [-1.0, 1.0, 1.0]), Uniform(0.0, 1.0)),
        (catalog("shifted-power", [2.0, 1.0]), Uniform(0.0, 1.0)),
        (catalog("box-cox", [0.5]), Lognormal(0.0, 0.5)),
    ]
    n = 2 * 10**5
    for k, (g, dist) in enumerate(rows):
        est = mc_expectation(lambda y: np.asarray(g.apply(y)), dist, n,
                             seed=derive_seed(99, k))
        target = float(g.invert(est.value))
        target_se = est.stderr / abs(float(g.deriv(target)))
        lo, hi = sorted((target * 0.25, target * 2.5)) if target > 0 else (
            target - 1.0, target + 1.0)
        spec = CheckConfig(
            name=f"row/{g.label}", kind="consistency", dist=dist,
            functional=parse_functional("mean"),  # target supplied explicitly
            bracket=Bracket(lo, hi), n=n, seed=derive_seed(100, k),
            score=parse_score(f"se@both:{g.label.replace(' ', '')}"),
            points=101, tol_abs=1e-3, tol_rel=0.02,
            target=target, target_stderr=target_se)
        rpt = check_consistency(spec)
        assert rpt.passed, f"{g.label}: {rpt.notes}"


def test_transformed_expectation_and_half_expectile_agree():
    g = catalog("log")
    d = Lognormal(0.0, 1.0)
    base = dict(dist=d, functional="gmean:g=log", bracket=(0.3, 3.0),
                n=2 * 10**5, tol_abs=0.02)
    r_se = check_consistency(cfg(name="se", score="se@both:log", **base))
    r_ex = check_consistency(cfg(name="ex", score="expectile:tau=0.5:phi=square@both:log",
                                 **base))
    assert r_se.passed and r_ex.passed
    assert abs(r_se.estimate - r_ex.estimate) <= 0.02 * max(abs(r_se.estimate),
                                                            abs(r_ex.estimate))


def test_pair_check_counts_monte_carlo_target_error():
    # A target whose mean is off by 0.04 but carries a Monte Carlo stderr of
    # 0.03. E[V1] = 0.04 is 4 of the check's own stderrs (0.01), and at a
    # mean near 3 E[V2] moves by 2 * 3 * 0.04; both are within 3 combined
    # stderrs once the target's error is counted.
    from dataclasses import replace

    base = cfg(kind="pair", score="mv", functional="mvpair", dist=Normal(3.0, 1.0),
               n=10**4, seed=11, bracket=(2.0, 4.0), bracket2=(0.5, 2.0),
               tol_abs=1e-3, tol_rel=1e-3)
    mean, var = check_pair_consistency(base).estimate  # the sample moments
    off = replace(base, target=(mean + 0.04, var))
    assert not check_pair_consistency(replace(off, target_stderr=(0.0, 0.0))).passed
    assert check_pair_consistency(replace(off, target_stderr=(0.03, 0.0))).passed
