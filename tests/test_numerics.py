import math

import numpy as np
import pytest

import oracle
from elicit import (Bracket, EvaluationError, BracketingError, Normal, ParameterError,
                    central_diff, derive_seed, minimize1d, root1d)
from elicit.estimation import SIMPLEX_OPTIONS
from elicit.numerics import nelder_mead
from elicit.scoring import prepare_realizations, score_values
from elicit.specs import parse_score


class TestMinimize1d:
    def test_quadratic_vertex(self):
        z = minimize1d(lambda z: (z - 3.0) ** 2, Bracket(0.0, 10.0), 1e-8)
        assert abs(z - 3.0) <= 1e-8

    def test_kink_minimum(self):
        z = minimize1d(lambda z: abs(z - 1.0), Bracket(-5.0, 5.0), 1e-8)
        assert abs(z - 1.0) <= 1e-8

    def test_log_objective(self):
        z = minimize1d(lambda z: math.log(z) ** 2, Bracket(0.1, 10.0), 1e-8)
        assert abs(z - 1.0) <= 1e-6

    def test_random_convex_quadratics(self):
        # argmin of a z^2 + b z + c is -b / 2a for any bracket containing it
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-10.0, 10.0)
            c = rng.uniform(-5.0, 5.0)
            vertex = -b / (2 * a)
            bracket = Bracket(vertex - rng.uniform(1, 10), vertex + rng.uniform(1, 10))
            z = minimize1d(lambda z: a * z * z + b * z + c, bracket, 1e-9)
            assert abs(z - vertex) <= 1e-9

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(EvaluationError):
            minimize1d(lambda z: math.inf if z > 1 else z * z, Bracket(0.0, 5.0), 1e-6)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ParameterError):
            Bracket(2.0, 1.0)
        with pytest.raises(ParameterError):
            Bracket(0.0, math.inf)

    def test_bad_tol_rejected(self):
        with pytest.raises(ParameterError):
            minimize1d(lambda z: z * z, Bracket(-1.0, 1.0), 0.0)


class TestRoot1d:
    def test_linear(self):
        assert abs(root1d(lambda z: z - 2.0, Bracket(0.0, 5.0), 1e-10) - 2.0) <= 1e-10

    def test_sqrt2(self):
        z = root1d(lambda z: z * z - 2.0, Bracket(0.0, 2.0), 1e-8)
        assert abs(z - math.sqrt(2.0)) <= 1e-8

    def test_uniform_expectile_balance(self):
        # Closed-form 0.75-expectile of Uniform(0,1): sqrt(t)/(sqrt(t)+sqrt(1-t))
        tau = 0.75
        expected = math.sqrt(tau) / (math.sqrt(tau) + math.sqrt(1.0 - tau))
        z = root1d(lambda z: tau * (1 - z) ** 2 / 2 - (1 - tau) * z * z / 2,
                   Bracket(0.0, 1.0), 1e-8)
        assert abs(z - expected) <= 1e-5

    def test_same_sign_endpoints_rejected(self):
        with pytest.raises(BracketingError):
            root1d(lambda z: z * z + 1.0, Bracket(-1.0, 1.0), 1e-8)

    def test_endpoint_root(self):
        assert root1d(lambda z: z, Bracket(0.0, 1.0), 1e-8) == 0.0


class TestNelderMead:
    """The port gives scipy's Nelder-Mead search bit for bit, under the
    options the linear fit passes (xatol is fit's default tol)."""

    @staticmethod
    def same_as_scipy(f, x0):
        from scipy.optimize import minimize
        want = minimize(f, x0, method="Nelder-Mead",
                        options={"xatol": 1e-9, **SIMPLEX_OPTIONS})
        got = nelder_mead(f, x0, xatol=1e-9, **SIMPLEX_OPTIONS)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun == want.fun
        assert (got.nfev, got.success) == (want.nfev, want.success)
        return got

    def test_smooth_quadratic(self):
        got = self.same_as_scipy(lambda t: (t[0] - 1) ** 2 + 3 * (t[1] + 2) ** 2 + t[0] * t[1],
                                 np.array([0.3, 0.0]))
        assert got.success and got.x == pytest.approx([24 / 11, -26 / 11], abs=1e-6)

    def test_apl_line_on_200_rows(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 10.0, 200)
        spec = parse_score("apl:tau=0.5")
        prepared = prepare_realizations(spec, 1.0 + 0.5 * x + rng.normal(size=200))
        got = self.same_as_scipy(
            lambda t: float(np.mean(score_values(spec, t[0] + t[1] * x, prepared))),
            np.array([0.5, 0.4]))
        assert got.success

    def test_off_the_domain_and_the_restart_from_the_end(self):
        """A valley too steep for the first search, which spends maxiter;
        the restart's simplex puts a vertex at t0 = 1.05, off the domain
        0 < t0 < 1.05 of log(t0) + log(1.05 - t0), where f is inf."""
        offside = []

        def f(t):
            if not 0.0 < t[0] < 1.05:
                offside.append(t)
                return math.inf
            return math.log(t[0]) ** 2 + 1e6 * (t[1] - math.log(t[0]) ** 2) ** 2

        first = self.same_as_scipy(f, np.array([0.05, 3.0]))
        assert not first.success and not offside
        again = self.same_as_scipy(f, first.x)
        assert again.success and offside
        assert again.x == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_a_spent_budget_stops_where_scipy_stops(self):
        from scipy.optimize import minimize
        f = lambda t: abs(t[0] - 2.0) + (t[1] + 1.0) ** 2  # noqa: E731
        for maxfev, maxiter in ((1, 10), (2, 10), (7, 2000), (60, 2000), (4000, 9)):
            want = minimize(f, np.array([1.0, 0.0]), method="Nelder-Mead",
                            options={"xatol": 1e-9, "fatol": 1e-14, "maxiter": maxiter,
                                     "maxfev": maxfev})
            got = nelder_mead(f, np.array([1.0, 0.0]), xatol=1e-9, fatol=1e-14,
                              maxiter=maxiter, maxfev=maxfev)
            assert got.x.tobytes() == want.x.tobytes() and got.fun == want.fun
            assert (got.nfev, got.success) == (want.nfev, want.success) == (got.nfev, False)


class TestMcExpectation:
    """The Monte Carlo mean of h(Y) over seeded draws, and its stderr."""

    def test_standard_normal_mean(self):
        est = oracle.mc_mean(lambda y: y, Normal(0.0, 1.0), 10**6, seed=1)
        assert abs(est.value - 0.0) <= 3 * est.stderr

    def test_second_moment(self):
        est = oracle.mc_mean(np.square, Normal(0.0, 1.0), 10**6, seed=2)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_mgf_point(self):
        # E[exp(Y)] = exp(1/2) for a standard normal
        est = oracle.mc_mean(np.exp, Normal(0.0, 1.0), 10**6, seed=3)
        assert abs(est.value - math.exp(0.5)) <= 3 * est.stderr

    def test_deterministic(self):
        a = oracle.mc_mean(np.exp, Normal(0.0, 1.0), 10**4, seed=11)
        b = oracle.mc_mean(np.exp, Normal(0.0, 1.0), 10**4, seed=11)
        assert a == b


class TestCentralDiff:
    def test_square(self):
        assert abs(central_diff(lambda z: z * z, 3.0, 1e-5) - 6.0) <= 1e-8

    def test_stationary_point(self):
        assert abs(central_diff(lambda z: (z - 1.0) ** 2, 1.0, 1e-5)) <= 1e-9

    def test_log_composite(self):
        # d/dz (log z - 2)^2 = 2 (log z - 2) / z, which is -4 at z = 1
        got = central_diff(lambda z: (math.log(z) - 2.0) ** 2, 1.0, 1e-6)
        assert abs(got - (-4.0)) <= 1e-5

    def test_quadratics_exact_to_second_order(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = rng.uniform(-3, 3, size=3)
            z = rng.uniform(-2, 2)
            got = central_diff(lambda t: a * t * t + b * t + c, z, 1e-6)
            assert got == pytest.approx(2 * a * z + b, abs=1e-7)

    def test_default_step_scaling(self):
        got = central_diff(lambda z: z * z, 1e4)
        assert got == pytest.approx(2e4, rel=1e-9)


def test_derived_seeds_are_stable_and_distinct():
    s1 = derive_seed(42, 0)
    s2 = derive_seed(42, 1)
    assert s1 == derive_seed(42, 0)
    assert s1 != s2
    with pytest.raises(ParameterError):
        derive_seed(-1, 0)
