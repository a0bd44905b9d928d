import math

import numpy as np
import pytest

import oracle
from elicit import (Bracket, CheckConfig, Empirical, Exponential, Lognormal,
                    Normal, ParameterError, Uniform, builtin_suite, catalog,
                    check_consistency, check_identification, check_pair_consistency,
                    check_realization_transform, check_revelation, check_strictness,
                    derive_seed, run_check, run_suite, sample_iid, suite_passed)
from elicit.distributions import CHUNK, sample_chunks
from elicit.errors import DomainError
from elicit.identification import streamed_ident_curve
from elicit.scoring import TransformMode, streamed_moments
from elicit.specs import parse_bijection, parse_functional, parse_ident, parse_score
from elicit import scoring, verify
from elicit.verify import _parse_suite, load_suite_file

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
            # a key the kind does not take
            (dict(kind="consistency", score="se", g=catalog("exp")), "consistency check takes no g"),
            (dict(kind="pair", score="mv", bracket2=(1.0, 2.0), g=catalog("log")),
             "pair check takes no g"),
            (dict(kind="strictness", score="se", bracket2=(1.0, 2.0)),
             "strictness check takes no bracket2"),
            (dict(kind="revelation", score="se", g=catalog("exp"), ident="mean"),
             "revelation check takes no ident"),
            (dict(kind="identification", ident="mean", score="ae"),
             "identification check takes no score"),
            (dict(kind="identification", ident="mean", bracket2=(1.0, 2.0)),
             "identification check takes no bracket2"),
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
    from elicit.verify import _transformed_functional

    g = catalog("box-cox", [0.5])
    c = cfg(kind="realization", score="apl:tau=0.9", dist=Lognormal(0.0, 0.5),
            functional="quantile:tau=0.9", bracket=(0.2, 1.5), g=g)
    fv = _transformed_functional(c, TransformMode.realization_only(g))
    w = g.apply(sample_iid(c.dist, c.n, derive_seed(c.seed, 7919)))
    assert fv.stderr == _quantile_stderr(np.sort(w), 0.9)
    assert fv.stderr != np.std(w, ddof=1) / math.sqrt(w.size)


# Lines whose functional or target has the wrong arity for the kind: each
# exits 2 at parse, naming its line and the field.
ARITY_LINES = [
    ("kind=pair dist=normal(0,1) score=mv functional=quantile:tau=0.5 bracket=-1,1 "
     "bracket2=0.5,2", "pair check needs a mean-variance functional"),
    ("kind=pair dist=normal(0,1) score=mv functional=mvpair target=1 bracket=-1,1 "
     "bracket2=0.5,2", "pair check needs a mean-variance target"),
    ("kind=consistency dist=normal(0,1) score=se functional=mvpair bracket=-1,1",
     "consistency check sweeps scalar predictions, so its functional cannot be "
     "mean-variance"),
]


@pytest.mark.parametrize("line, message", ARITY_LINES)
def test_a_line_of_the_wrong_arity_exits_2_at_parse(line, message, tmp_path, capsys):
    from elicit import cli
    path = tmp_path / "suite.txt"
    path.write_text(f"# arity\n{line} n=10000\n")
    assert cli.main(["verify", "--suite", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"suite.txt:2: {message}" in err


def test_a_given_target_of_the_wrong_arity_is_rejected():
    with pytest.raises(ParameterError, match="its target cannot be mean-variance"):
        cfg(score="se", target=(0.0, 1.0))
    with pytest.raises(ParameterError, match="needs a mean-variance target"):
        cfg(kind="pair", score="mv", functional="mvpair", bracket2=(0.5, 2.0), target=0.0)


def test_verify_mc_targets_take_one_pass_at_seed_42(monkeypatch):
    """Every Monte Carlo target of the benchmark's verify-mc lines finds its
    root in the cells the first pass held: its draws are sampled once."""
    from elicit import functionals, verify
    from test_golden import _mc_lines

    passes = {}

    def counted(dist, n, seed):
        passes[seed] = passes.get(seed, 0) + 1
        return sample_chunks(dist, n, seed)

    monkeypatch.setattr(functionals, "sample_chunks", counted)
    monkeypatch.setattr(verify, "sample_chunks", counted)
    configs = verify._parse_suite(_mc_lines(), 42, "verify-mc")
    for c in configs:
        if c.kind == "realization":
            verify._transformed_functional(c, TransformMode.realization_only(c.g))
        else:
            assert verify._resolve_target(c).method == "mc"
    assert len(passes) == len(configs) == 6
    assert set(passes.values()) == {1}, passes


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
        est = oracle.mc_mean(lambda y: np.asarray(g.apply(y)), dist, n, seed=derive_seed(99, k))
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


def test_truth_beats_curve_counts_monte_carlo_target_error(tmp_path):
    # verify-mc's realization check at workload seed 57. Its target, the
    # mean of 1e6 transformed draws, carries a stderr of 4.2e-4; with that
    # error left out, the curve at the target sat 3.7 paired stderrs above
    # a grid point and the check reported a false violation.
    from dataclasses import replace

    from elicit import TransformMode
    from elicit.verify import _transformed_functional

    path = tmp_path / "mc.suite"
    path.write_text("name=mc/real-se-shiftedlog kind=realization dist=exponential(1) score=se "
                    "functional=mean g=shifted-log(1) bracket=0.1,1.5 n=1000000 "
                    "seed=13147460408924249144\n")
    (c,) = load_suite_file(str(path), seed=57)
    rpt = run_check(c)
    assert rpt.passed, rpt.notes
    target = _transformed_functional(c, TransformMode.realization_only(c.g))
    assert target.stderr > 0.0
    exact = run_check(replace(c, target=target.value, target_stderr=0.0))
    assert "truth beats curve inequality violated" in exact.notes


# Normal draws under shifted-log(4): at seed 17 the first of 1e6 draws
# outside (-4, inf) is draw 106,294, in the second chunk.
SHIFTED = "shifted-log(4)"


def _held_transform_error():
    y = sample_iid(Normal(0.0, 1.0), 10**6, 17)
    with pytest.raises(DomainError) as held:
        TransformMode.realization_only(parse_bijection(SHIFTED)).realization(y)
    assert held.value.index > CHUNK
    return held.value


@pytest.mark.parametrize("kind", ["identification", "pair", "consistency"])
def test_a_transform_error_on_a_later_chunk_reports_as_on_the_held_draws(kind):
    want = _held_transform_error()
    fields = {"identification": {"ident": f"mean@realization:{SHIFTED}"},
              "pair": {"score": f"mv@realization:{SHIFTED}", "functional": "mvpair",
                       "bracket2": (0.5, 2.0)},
              "consistency": {"score": f"ae@realization:{SHIFTED}",
                              "functional": "quantile:tau=0.5"}}[kind]
    (rpt,) = run_suite([cfg(kind=kind, n=10**6, seed=17, bracket=(-1.0, 1.0), **fields)])
    assert rpt.error == {"type": "DomainError", "message": str(want)}
    assert rpt.notes == f"error: {want}"


def test_a_streamed_transform_error_carries_its_index_among_all_the_draws():
    want = _held_transform_error()
    g = parse_bijection(SHIFTED)
    with pytest.raises(DomainError) as ident:
        streamed_ident_curve(parse_ident(f"quantile:tau=0.5@realization:{SHIFTED}"), [0.0],
                             sample_chunks(Normal(0.0, 1.0), 10**6, 17))
    with pytest.raises(DomainError) as moments:
        streamed_moments(TransformMode.realization_only(g),
                         sample_chunks(Normal(0.0, 1.0), 10**6, 17))
    for got in (ident.value, moments.value):
        assert (str(got), got.index) == (str(want), want.index)


@pytest.mark.parametrize("line", [
    "kind=consistency dist=uniform(0,1) score=expectile:tau=0.75:phi=square "
    "functional=expectile:tau=0.75 bracket=0.05,0.95",
    "kind=strictness dist=exponential(1) score=expectile:tau=0.25:phi=square@both:negate "
    "functional=expectile:tau=0.75 bracket=0.3,4"])
def test_a_window_miss_takes_a_second_pass_to_the_same_report(line, monkeypatch):
    """With no grid step of room (WINDOW = 0) the first chunk's window never
    holds the polish's points, so a second pass over the same draws holds
    them: the report is the one the default window gives in one pass, up to
    summation order."""
    (config,) = _parse_suite([f"{line} n=200000"], 42, "miss")
    passes = []

    def counted(*args):
        passes.append(args)
        return sample_chunks(*args)

    monkeypatch.setattr(verify, "sample_chunks", counted)
    one = run_check(config)
    assert len(passes) == 1
    monkeypatch.setattr(scoring, "WINDOW", 0)
    two = run_check(config)
    assert len(passes) == 3 and passes[1] == passes[2]
    assert (one.passed, one.notes, one.target) == (two.passed, two.notes, two.target)
    for a, b in ((one.estimate, two.estimate), (one.stderr, two.stderr)):
        assert abs(a - b) <= 1e-9 * abs(a)
