import itertools
import json
import re

import pytest
from hypothesis import given, strategies as st

from elicit import (Bracket, Empirical, Exponential, FunctionalSpec, IdentSpec, Lognormal,
                    Normal, ScoreSpec, SpecParseError, TransformMode, Uniform, catalog)
from elicit.cli import main
from elicit.functionals import KINDS
from elicit.identification import IDENT_FAMILIES
from elicit.scoring import FAMILIES
from elicit.specs import (format_dist, format_functional, format_ident,
                          format_score, parse_bijection, parse_bracket, parse_dist,
                          parse_functional, parse_ident, parse_score,
                          parse_suite_line)
from elicit.transforms import format_number


class TestScoreSpecs:
    @pytest.mark.parametrize("text", [
        "se", "ae", "se@both:log", "se@prediction:exp", "se@realization:log",
        "gpl:tau=0.9:g=log", "apl:tau=0.25@both:negate",
        "expectile:tau=0.75:phi=square@both:power(0.5)",
        "bregman:phi=square", "mv@realization:log", "mv",
        "apl:tau=0.123456789", "se@both:power(0.333333333)",
        "gpl:tau=0.9:g=box-cox(0.1234567)",
    ])
    def test_roundtrip(self, text):
        spec = parse_score(text)
        assert parse_score(format_score(spec)) == spec
        assert format_score(spec) == text

    def test_fields(self):
        spec = parse_score("expectile:tau=0.75:phi=square@both:power(0.5)")
        assert spec.family == "expectile"
        assert spec.tau == 0.75
        assert spec.phi.name == "square"
        assert spec.transform.mode == "both"
        assert spec.transform.g.name == "power"
        assert spec.transform.g.params == (0.5,)

    @pytest.mark.parametrize("bad", [
        "nope", "se@sideways:log", "se@both", "gpl:tau=0.5",
        "apl:tau=2", "apl:tau=x", "se:bogus=1", "gpl:tau=0.5:g=wat", "apl:tau=0.3:tau=0.9",
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpecParseError):
            parse_score(bad)


class TestIdentSpecs:
    @pytest.mark.parametrize("text", [
        "mean", "mean@both:log", "quantile:tau=0.9", "expectile:tau=0.75@both:log",
        "mv@realization:log",
    ])
    def test_roundtrip(self, text):
        spec = parse_ident(text)
        assert parse_ident(format_ident(spec)) == spec

    def test_rejects_mv_both(self):
        with pytest.raises(SpecParseError):
            parse_ident("mv@both:log")


class TestFunctionalSpecs:
    @pytest.mark.parametrize("text", [
        "mean", "quantile:tau=0.9", "expectile:tau=0.75", "gmean:g=power(2)",
        "gexpectile:tau=0.75:g=log", "mvpair:g=log", "mvpair",
    ])
    def test_roundtrip(self, text):
        spec = parse_functional(text)
        assert parse_functional(format_functional(spec)) == spec

    def test_rejects_transform_suffix(self):
        with pytest.raises(SpecParseError):
            parse_functional("mean@both:log")


class TestBijections:
    def test_plain_name(self):
        assert parse_bijection("log").name == "log"

    def test_with_params(self):
        bij = parse_bijection("affine-exp(2,1)")
        assert bij.params == (2.0, 1.0)

    def test_rejects_malformed(self):
        with pytest.raises(SpecParseError):
            parse_bijection("power(2")
        with pytest.raises(SpecParseError):
            parse_bijection("power(two)")


class TestDistSpecs:
    def test_parse_variants(self):
        assert parse_dist("normal(0,1)") == Normal(0.0, 1.0)
        assert parse_dist("lognormal(0.3,1)") == Lognormal(0.3, 1.0)
        assert parse_dist("uniform(0,1)") == Uniform(0.0, 1.0)
        emp = parse_dist("empirical(1,1,2,2)")
        assert emp.values == (1.0, 1.0, 2.0, 2.0)

    def test_roundtrip(self):
        for text in ["normal(0,1)", "lognormal(0.3,1)", "exponential(2)",
                     "uniform(-1,4)", "empirical(1,2,3)"]:
            assert format_dist(parse_dist(text)).replace(" ", "") == text

    def test_rejects(self):
        with pytest.raises(SpecParseError):
            parse_dist("normal")
        with pytest.raises(SpecParseError):
            parse_dist("cauchy(0,1)")
        with pytest.raises(SpecParseError):
            parse_dist("normal(0,1,2)")
        with pytest.raises(SpecParseError):
            parse_dist("normal(0,-1)")


def test_suite_line_parsing():
    kv = parse_suite_line("kind=consistency dist=normal(0,1) score=se n=10000")
    assert kv == {"kind": "consistency", "dist": "normal(0,1)", "score": "se", "n": "10000"}
    with pytest.raises(SpecParseError):
        parse_suite_line("kind=a kind=b")
    with pytest.raises(SpecParseError):
        parse_suite_line("loose-token")


# Round-trip properties: every spec the package can build prints to text
# that parses back to an equal spec.

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)
nonzero = finite.filter(lambda x: x != 0.0)
levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

BIJECTION_PARAMS = {
    "identity": st.tuples(), "negate": st.tuples(), "log": st.tuples(), "exp": st.tuples(),
    "affine-log": st.tuples(positive, finite), "shifted-log": st.tuples(finite),
    "affine-exp": st.tuples(nonzero, finite), "power": st.tuples(nonzero),
    "affine-power": st.tuples(nonzero, positive, finite),
    "shifted-power": st.tuples(nonzero, finite), "box-cox": st.tuples(finite),
}
bijections = st.sampled_from(sorted(BIJECTION_PARAMS)).flatmap(
    lambda name: BIJECTION_PARAMS[name].map(lambda params: catalog(name, params)))


MODES = ("none", "realization", "prediction", "both")  # mv takes the first two only


@st.composite
def modes(draw, allowed=MODES):
    mode = draw(st.sampled_from(allowed))
    return TransformMode.none() if mode == "none" else TransformMode(mode, draw(bijections))


@st.composite
def scores(draw):
    family = draw(st.sampled_from(("se", "ae", "apl", "gpl", "expectile", "bregman", "mv")))
    tau = draw(levels) if family in ("apl", "gpl", "expectile") else None
    g_inner = draw(bijections.filter(lambda g: g.increasing)) if family == "gpl" else None
    mode = draw(modes(MODES[:2] if family == "mv" else MODES))
    return ScoreSpec(family, tau=tau, g_inner=g_inner, transform=mode)


@st.composite
def idents(draw):
    family = draw(st.sampled_from(("mean", "quantile", "expectile", "mv")))
    tau = draw(levels) if family in ("quantile", "expectile") else None
    mode = draw(modes(MODES[:2] if family == "mv" else MODES))
    return IdentSpec(family, tau=tau, transform=mode)


@st.composite
def functionals(draw):
    kind = draw(st.sampled_from(("mean", "quantile", "expectile", "gmean", "gexpectile",
                                 "mvpair")))
    tau = draw(levels) if kind in ("quantile", "expectile", "gexpectile") else None
    needs_g = kind in ("gmean", "gexpectile") or (kind == "mvpair" and draw(st.booleans()))
    return FunctionalSpec(kind, tau=tau, g=draw(bijections) if needs_g else None)


# A lognormal's variance exp(2 mu + 2 sigma^2) stays a float: laws beyond it are rejected.
distributions = st.one_of(
    st.builds(Normal, finite, positive),
    st.builds(Lognormal, st.floats(-100.0, 100.0), st.floats(1e-6, 10.0)),
    st.builds(Exponential, positive),
    st.tuples(finite, finite).filter(lambda p: p[0] < p[1]).map(lambda p: Uniform(*p)),
    st.lists(finite, min_size=1, max_size=6).map(lambda v: Empirical(tuple(v))))


@given(scores())
def test_score_text_roundtrips(spec):
    assert parse_score(format_score(spec)) == spec


@given(idents())
def test_ident_text_roundtrips(spec):
    assert parse_ident(format_ident(spec)) == spec


@given(functionals())
def test_functional_text_roundtrips(spec):
    assert parse_functional(format_functional(spec)) == spec


@given(distributions)
def test_dist_text_roundtrips(dist):
    assert parse_dist(format_dist(dist)) == dist


@given(st.tuples(finite, finite).filter(lambda p: p[0] < p[1]))
def test_bracket_text_roundtrips(ends):
    assert parse_bracket(",".join(map(format_number, ends))) == Bracket(*ends)


# The options of each family, written out from the paper's definitions
# independently of the package's tables: (required, optional).
TAKES = {
    "score": {"se": ("", ""), "ae": ("", ""), "apl": ("tau", ""), "gpl": ("tau g", ""),
              "expectile": ("tau", "phi"), "bregman": ("", "phi"), "mv": ("", "")},
    "identification": {"mean": ("", ""), "quantile": ("tau", ""), "expectile": ("tau", ""),
                       "mv": ("", "")},
    "functional": {"mean": ("", ""), "quantile": ("tau", ""), "expectile": ("tau", ""),
                   "gmean": ("g", ""), "gexpectile": ("tau g", ""), "mvpair": ("", "g")},
}
TEXT = {"score": (parse_score, format_score), "identification": (parse_ident, format_ident),
        "functional": (parse_functional, format_functional)}
VALUES = {"g": st.sampled_from(["log", "exp", "power(0.5)", "box-cox(0.25)"]),
          "phi": st.just("square"), "tau": levels.map(format_number)}


def test_tables_list_the_families():
    assert [list(t) for t in (FAMILIES, IDENT_FAMILIES, KINDS)] == \
        [list(TAKES[k]) for k in ("score", "identification", "functional")]


@pytest.mark.parametrize("kind, family", [(k, f) for k in TAKES for f in TAKES[k]])
@given(options=st.permutations(["tau", "g", "phi"]).flatmap(  # a subset, in any order
           lambda names: st.integers(0, 3).map(lambda k: names[:k])), data=st.data())
def test_a_spec_parses_iff_its_family_takes_its_options(kind, family, options, data):
    """Any subset of {tau, g, phi}, in any order, parses exactly when it holds
    every option the family requires and no other it does not take; the text
    printed back parses to the same spec."""
    parse, fmt = TEXT[kind]
    required, optional = (set(s.split()) for s in TAKES[kind][family])
    text = ":".join([family] + [f"{o}={data.draw(VALUES[o])}" for o in options])
    if required <= set(options) <= required | optional:
        spec = parse(text)
        assert parse(fmt(spec)) == spec
    else:
        with pytest.raises(SpecParseError):
            parse(text)


def _expansions(encoding: str):
    """Each text the encoding stands for: every optional [part] kept and
    dropped, T -> 0.5, G -> log, P -> square and a mode placeholder -> both."""
    parts = re.split(r"(\[[^]]*\])", encoding)
    optional = [i for i, p in enumerate(parts) if p.startswith("[")]
    for keep in itertools.product((True, False), repeat=len(optional)):
        kept = dict(zip(optional, keep))
        text = "".join(p.strip("[]") for i, p in enumerate(parts) if kept.get(i, True))
        text = re.sub(r"=T\b", "=0.5", re.sub(r"=G\b", "=log", re.sub(r"=P\b", "=square", text)))
        yield re.sub(r"@(\w+):g$", r"@\1:log", text).replace("@mode:", "@both:")


def test_every_catalog_encoding_parses(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    catalog_json = json.loads(capsys.readouterr().out)
    parsers = {"scores": parse_score, "idents": parse_ident, "functionals": parse_functional}
    for section, parse in parsers.items():
        for row in catalog_json[section]:
            texts = list(_expansions(row["encoding"]))
            assert len(texts) == 2 ** row["encoding"].count("[")
            for text in texts:
                assert text.split(":")[0].split("@")[0] == row["name"]
                parse(text)
