import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from elicit import Bijection, DomainError, Interval, ParameterError, catalog
from elicit.numerics import central_diff
from elicit.transforms import CATALOG_ROWS


def roundtrip_error(bij, grid):
    """Max of |invert(apply(t)) - t| / max(1, |t|) over the grid."""
    return max(abs(bij.invert(bij.apply(t)) - t) / max(1.0, abs(t)) for t in map(float, grid))


def domain_grid(bij, k=100):
    """Quasi-uniform points strictly inside the domain."""
    return interval_grid(bij.domain, k)


def interval_grid(iv, k=100):
    """Quasi-uniform points strictly inside the interval."""
    lo, hi = iv.lo, iv.hi
    lo = lo if math.isfinite(lo) else -8.0
    hi = hi if math.isfinite(hi) else max(lo + 1.0, 8.0)
    span = hi - lo
    return np.linspace(lo + 0.01 * span, hi - 0.01 * span, k)


ALL_ROWS = [(name, params) for name, params, _, _ in CATALOG_ROWS]


@pytest.mark.parametrize("name,params", ALL_ROWS)
def test_roundtrip_everywhere(name, params):
    bij = catalog(name, params)
    assert roundtrip_error(bij, domain_grid(bij)) <= 1e-10


@pytest.mark.parametrize("name,params", ALL_ROWS)
def test_derivative_matches_finite_difference(name, params):
    bij = catalog(name, params)
    for t in domain_grid(bij, 20):
        t = float(t)
        step = 1e-6 * max(1.0, abs(t))
        if not (bij.domain.contains(t - step) and bij.domain.contains(t + step)):
            continue
        numeric = central_diff(bij.apply, t, step)
        exact = bij.deriv(t)
        assert abs(numeric - exact) <= 1e-5 * max(1.0, abs(exact))


@pytest.mark.parametrize("name,params", ALL_ROWS)
def test_monotonicity_direction(name, params):
    bij = catalog(name, params)
    grid = domain_grid(bij, 50)
    vals = [bij.apply(float(t)) for t in grid]
    diffs = np.diff(vals)
    if bij.increasing:
        assert np.all(diffs > 0)
    else:
        assert np.all(diffs < 0)
    # derivative sign agrees with the recorded orientation
    signs = np.sign([bij.deriv(float(t)) for t in grid])
    assert np.all(signs == (1 if bij.increasing else -1))


# The listed maps, and maps whose affine parts take values the listing's do not.
ORACLE_MAPS = ALL_ROWS + [("affine-log", (3.0, 0.7)), ("affine-exp", (-1.3, 0.2)),
                          ("affine-power", (0.3, 2.5, 0.0)), ("box-cox", (0.3,)),
                          ("box-cox", (-0.7,))]


def _points(iv, k):
    """Grid inside the interval, with both signed zeros where it holds them."""
    grid = np.concatenate([interval_grid(iv, k), [0.0, -0.0]])
    return grid[[iv.contains(float(t)) for t in grid]]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name,params", ORACLE_MAPS)
def test_catalog_matches_the_oracle(name, params):
    """Forward and inverse bit for bit, the sign of zero included; the
    derivative within 4 ulp."""
    bij = catalog(name, params)
    forward, inverse, derivative = oracle.transform(name, params)
    t = _points(bij.domain, 101)
    v = np.concatenate([forward(t), _points(bij.codomain, 101)])
    np.testing.assert_array_equal(_bits(bij.apply(t)), _bits(forward(t)))
    np.testing.assert_array_equal(_bits(bij.invert(v)), _bits(inverse(v)))
    want = derivative(t)
    assert np.all(np.abs(bij.deriv(t) - want) <= 4 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("name,params", [("shifted-power", (-2.0, 0.0)),
                                         ("affine-power", (-0.7, 3.0, 0.0))])
def test_domain_end_at_zero_is_unsigned(name, params):
    bij = catalog(name, params)
    assert str(bij.domain) == "(0, inf)"
    assert not math.copysign(1.0, bij.domain.lo) < 0
    with pytest.raises(DomainError, match=r" \(0, inf\)"):
        bij.apply(-1.0)


def _nonzero(m):
    return st.floats(0.1, m) | st.floats(-m, -0.1)


# Parameters drawn inside each name's constraints, at magnitudes where no
# interior value below saturates a double.
PARAMS = {
    "identity": st.tuples(),
    "negate": st.tuples(),
    "log": st.tuples(),
    "affine-log": st.tuples(st.floats(0.1, 10.0), st.floats(-5.0, 5.0)),
    "shifted-log": st.tuples(st.floats(-5.0, 5.0)),
    "exp": st.tuples(),
    "affine-exp": st.tuples(_nonzero(5.0), st.floats(-5.0, 5.0)),
    "power": st.tuples(_nonzero(5.0)),
    "affine-power": st.tuples(_nonzero(5.0), st.floats(0.1, 10.0), st.floats(-5.0, 5.0)),
    "shifted-power": st.tuples(_nonzero(5.0), st.floats(-5.0, 5.0)),
    "box-cox": st.tuples(st.just(0.0) | _nonzero(5.0)),
}


def test_properties_cover_every_name():
    assert set(PARAMS) == {name for name, _ in ALL_ROWS}


def check_edges(bij, t):
    """A closed domain end maps to the codomain's closed end (up to the
    rounding of an affine argument there), an open one raises; the interior
    point t maps into the codomain and back, with the derivative's sign the
    recorded orientation."""
    dom, cod = bij.domain, bij.codomain
    images = {dom.lo: (cod.lo, cod.lo_closed) if bij.increasing else (cod.hi, cod.hi_closed),
              dom.hi: (cod.hi, cod.hi_closed) if bij.increasing else (cod.lo, cod.lo_closed)}
    for end, closed in ((dom.lo, dom.lo_closed), (dom.hi, dom.hi_closed)):
        if closed:
            image, image_closed = images[end]
            value = bij.apply(end)
            assert image_closed and cod.contains(value)
            assert value == pytest.approx(image, abs=1e-12)
        elif math.isfinite(end):
            with pytest.raises(DomainError):
                bij.apply(end)
    assert cod.contains(bij.apply(t))
    assert roundtrip_error(bij, [t]) <= 1e-10
    assert np.sign(bij.deriv(t)) == (1 if bij.increasing else -1)


@pytest.mark.parametrize("name", list(PARAMS))
@given(data=st.data())
def test_domain_edges(name, data):
    bij = catalog(name, data.draw(PARAMS[name], label="params"))
    if math.isfinite(bij.domain.lo):
        t = bij.domain.lo + data.draw(st.floats(1e-3, 20.0), label="offset")
    else:
        t = data.draw(st.floats(-20.0, 20.0), label="t")
    check_edges(bij, t)


# Next to a finite domain end, or far out where there is none: there the
# value (or the inverse's) underflows, overflows or rounds onto an end.
SATURATING = st.floats(5e-324, 1e-6) | st.floats(1.0, 1e308)


@pytest.mark.parametrize("name", list(PARAMS))
@given(data=st.data())
def test_values_stay_in_range_where_doubles_saturate(name, data):
    """A map returns a value inside its codomain and its inverse one inside
    its domain, or raises a DomainError naming the input."""
    bij = catalog(name, data.draw(PARAMS[name], label="params"))
    dom, offset = bij.domain, data.draw(SATURATING, label="offset")
    inward = data.draw(st.sampled_from([1.0, -1.0]), label="inward")  # from lo, from hi
    end = dom.lo if inward > 0 else dom.hi
    t = end + inward * offset if math.isfinite(end) else -inward * offset
    if not dom.contains(t):
        return
    try:
        value = bij.apply(t)
        assert bij.codomain.contains(value), value
    except DomainError as exc:
        assert exc.value == t
        return
    try:
        assert dom.contains(bij.invert(value)), value
    except DomainError as exc:
        assert exc.value == value


@pytest.mark.parametrize("name,params,t", [("box-cox", [2.0], 1e-10), ("exp", [], -800.0),
                                           ("power", [-2.0], 1e200)])
def test_value_rounding_onto_an_open_codomain_end_raises(name, params, t):
    bij = catalog(name, params)
    with pytest.raises(DomainError, match=f"forward of {name}") as exc_info:
        bij.apply(np.array([1.0, t]))
    assert exc_info.value.value == t


# b t + c at the closed end t = -c/b rounds below 0 for the first two (b, c)
# and above 0 for the third.
@pytest.mark.parametrize("a", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("b,c", [(8.645471331263877, 0.41461220249091735),
                                 (3.427558899402038, -3.4972053310516094), (49.0, 1.0)])
def test_affine_power_closed_end_under_rounding(a, b, c):
    bij = catalog("affine-power", [a, b, c])
    check_edges(bij, bij.domain.lo + 1.0)


@given(a=st.floats(-5.0, 5.0))
def test_box_cox_codomain_bound(a):
    cod = catalog("box-cox", [a]).codomain
    if a > 0:
        assert (cod.lo, cod.hi) == (-1.0 / a, math.inf)
    elif a < 0:
        assert (cod.lo, cod.hi) == (-math.inf, -1.0 / a)
    else:
        assert (cod.lo, cod.hi) == (-math.inf, math.inf)
    assert not (cod.lo_closed or cod.hi_closed)


class TestCatalogExamples:
    def test_box_cox_zero_is_log(self):
        bij = catalog("box-cox", [0.0])
        assert bij.apply(math.e) == pytest.approx(1.0, abs=1e-12)
        assert bij.invert(1.0) == pytest.approx(math.e, rel=1e-12)

    def test_power_inverse(self):
        assert catalog("power", [2.0]).invert(9.0) == pytest.approx(3.0)

    def test_shifted_log_domain(self):
        bij = catalog("shifted-log", [5.0])
        assert bij.domain.lo == -5.0 and not bij.domain.lo_closed
        assert bij.apply(-4.0) == pytest.approx(0.0)

    def test_log_pointwise(self):
        bij = catalog("log")
        assert bij.apply(1.0) == 0.0
        assert bij.invert(0.0) == 1.0
        assert bij.deriv(2.0) == 0.5

    def test_negate(self):
        bij = catalog("negate")
        assert bij.apply(3.0) == -3.0
        assert bij.monotonicity == "decreasing"

    def test_affine_exp_inverse(self):
        bij = catalog("affine-exp", [2.0, 1.0])
        assert bij.invert(math.e) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_examples(self):
        assert roundtrip_error(catalog("log"), [0.1, 1.0, 10.0]) <= 1e-12
        assert roundtrip_error(catalog("box-cox", [0.25]), [0.5, 1.0, 2.0]) <= 1e-12
        assert roundtrip_error(catalog("power", [-1.0]), [0.5, 2.0]) <= 1e-12

    def test_negative_power_is_decreasing(self):
        bij = catalog("power", [-1.0])
        assert not bij.increasing
        assert bij.apply(2.0) == pytest.approx(0.5)

    def test_box_cox_negative_codomain(self):
        # (t^a - 1)/a with a < 0 maps onto (-inf, -1/a) and stays increasing
        bij = catalog("box-cox", [-1.0])
        assert bij.increasing
        assert bij.codomain.hi == pytest.approx(1.0)
        assert bij.apply(2.0) == pytest.approx(0.5)
        assert bij.apply(0.5) == pytest.approx(-1.0)


class TestDomainErrors:
    def test_log_at_zero(self):
        with pytest.raises(DomainError) as exc_info:
            catalog("log").apply(0.0)
        assert "(0, inf)" in str(exc_info.value)

    def test_invert_outside_codomain(self):
        with pytest.raises(DomainError):
            catalog("exp").invert(-1.0)

    def test_array_input_reports_offender(self):
        with pytest.raises(DomainError) as exc_info:
            catalog("log").apply(np.array([1.0, -3.0, 2.0]))
        assert exc_info.value.value == -3.0

    def test_overflow_reports_offender_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="forward of exp") as exc_info:
                catalog("exp").apply(np.array([1.0, 800.0, 900.0]))
            assert exc_info.value.value == 800.0
            with pytest.raises(DomainError, match="inverse of log"):
                catalog("log").invert(710.0)
            with pytest.raises(DomainError, match="derivative of power"):
                catalog("power", [3.0]).deriv(1e200)


class TestParameterConstraints:
    def test_affine_log_needs_positive_slope(self):
        with pytest.raises(ParameterError, match="a > 0"):
            catalog("affine-log", [0.0, 1.0])

    def test_power_nonzero(self):
        with pytest.raises(ParameterError, match="a != 0"):
            catalog("power", [0.0])

    def test_affine_power_positive_b(self):
        with pytest.raises(ParameterError, match="b > 0"):
            catalog("affine-power", [1.0, -1.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown"):
            catalog("frobnicate", [])

    def test_wrong_arity(self):
        with pytest.raises(ParameterError):
            catalog("log", [1.0])


def test_custom_bijection_construction():
    # ad-hoc transforms (here 2t) plug into the same machinery
    double = Bijection("double", lambda t: 2.0 * np.asarray(t, float),
                       lambda t: 0.5 * np.asarray(t, float),
                       lambda t: 2.0 * np.ones_like(np.asarray(t, float)),
                       Interval.open(-math.inf, math.inf),
                       Interval.open(-math.inf, math.inf), True)
    assert double.apply(3.0) == 6.0
    assert roundtrip_error(double, [-5.0, 0.1, 7.0]) == 0.0


def test_order_preservation_on_random_pairs():
    rng = np.random.default_rng(11)
    inc = catalog("log")
    dec = catalog("power", [-1.0])
    pairs = rng.uniform(0.1, 5.0, size=(50, 2))
    for s, t in pairs:
        if s == t:
            continue
        assert (inc.apply(s) < inc.apply(t)) == (s < t)
        assert (dec.apply(s) < dec.apply(t)) == (s > t)
