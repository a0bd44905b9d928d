"""Reference formulas for the score and identification families and the
transformation catalog (``transform``, at the end).

Each family is written out from its definition, one numpy expression per
family, independently of the package's family table; the tests compare the
per-row evaluation and the sorted sweep against these. z is the prediction
and y the realization, both after the transform mode (realization scores
S(z, g(y)), prediction S(g^-1(z), y), both S(g(z), g(y))); ties use
1{z >= y} = 1 at z = y.

Scores:

* ``se``        (z - y)^2
* ``ae``        |z - y|
* ``apl``       (1{z >= y} - tau)(z - y)
* ``gpl``       (1{z >= y} - tau)(g_in(z) - g_in(y))
* ``expectile`` |1{z >= y} - tau| (phi(y) - phi(z) + phi'(z)(z - y))
* ``bregman``   (1/2)(phi(y) - phi(z) + phi'(z)(z - y))

where the Bregman gap of the square phi(t) = t^2 is (z - y)^2.
* ``mv``        x2^-2 (x1^2 - 2 x2 - 2 x1 y + y^2), z = (x1, x2)

Identification functions:

* ``mean``      z - y
* ``quantile``  1{z >= y} - tau
* ``expectile`` 2 |1{z >= y} - tau| (z - y)
* ``mv``        (x1 - y, x2 + x1^2 - y^2)

Also: ``mc_mean``, a Monte Carlo expectation read through the package's own
sampler and mean functional, ``pinball_argmin``, the brute-force
tau-quantile set of a finite sample, and ``average_score``, the realized
average score evaluated one row at a time, which names the first row that
fails.
"""

import math
from fractions import Fraction

import numpy as np

from elicit import DomainError, EvaluationError, FunctionalSpec, evaluate_score, sample_iid
from elicit.functionals import functional_from_draws


def score(spec, z, y):
    """S(z, y) of a ScoreSpec, elementwise over broadcast z and y."""
    y = spec.transform.realization(np.asarray(y, dtype=float))
    fam = spec.family
    if fam == "mv":
        z = np.asarray(z, dtype=float)
        x1, x2 = z[..., 0], z[..., 1]
        return (x1 * x1 - 2.0 * x2 - 2.0 * x1 * y + np.square(y)) / (x2 * x2)
    z = spec.transform.prediction(z)
    ind = np.greater_equal(z, y).astype(float)
    if fam == "se":
        d = np.subtract(z, y)
        return d * d
    if fam == "ae":
        return np.abs(np.subtract(z, y))
    if fam == "apl":
        return (ind - spec.tau) * np.subtract(z, y)
    if fam == "gpl":
        return (ind - spec.tau) * np.subtract(spec.g_inner.apply(z), spec.g_inner.apply(y))
    if spec.phi.name == "square":  # y^2 - z^2 + 2z(z - y) = (z - y)^2
        d = np.subtract(z, y)
        gap = d * d
    else:
        gap = spec.phi.phi(y) - spec.phi.phi(z) + spec.phi.dphi(z) * np.subtract(z, y)
    return 0.5 * gap if fam == "bregman" else np.abs(ind - spec.tau) * gap


def ident(spec, z, y):
    """V(z, y) of an IdentSpec; a pair of arrays for the mv family."""
    y = spec.transform.realization(np.asarray(y, dtype=float))
    if spec.family == "mv":
        x1, x2 = float(z[0]), float(z[1])
        return x1 - y, x2 + x1 * x1 - np.square(y)
    z = spec.transform.prediction(z)
    ind = np.greater_equal(z, y).astype(float)
    if spec.family == "mean":
        return np.subtract(z, y)
    if spec.family == "quantile":
        return ind - spec.tau
    return 2.0 * np.abs(ind - spec.tau) * np.subtract(z, y)


def mc_mean(h, dist, n, seed):
    """E[h(Y)] as a FunctionalValue: the mean of h over ``sample_iid`` draws, and its stderr."""
    return functional_from_draws(FunctionalSpec("mean"), h(sample_iid(dist, n, seed)))


def average_score(spec, z, y) -> float:
    """The mean of S(z_i, y_i), each row evaluated on its own by
    ``evaluate_score``: the first row i that raises, or whose score is not
    finite, raises the error the package's ``average_score`` must raise,
    its text naming index i."""
    scores = []
    for i, (zi, yi) in enumerate(zip(np.asarray(z, dtype=float), np.asarray(y, dtype=float))):
        try:
            s = evaluate_score(spec, zi, yi)
        except DomainError as exc:
            context = f"index {i}" + (f", {exc.context}" if exc.context else "")
            raise DomainError(exc.value, exc.domain, context, index=i) from exc
        except EvaluationError as exc:
            raise EvaluationError(f"at index {i}: {exc}", index=i) from exc
        if not math.isfinite(s):
            raise EvaluationError(f"at index {i}: non-finite score {s!r}", index=i)
        scores.append(s)
    return float(np.mean(scores))


def pinball_argmin(values, tau: Fraction):
    """(lo, hi) of the set of z minimising sum_i (1{z >= y_i} - tau)(z - y_i)
    over the sample ``values``, in exact rational arithmetic: the loss is
    convex and linear between sample points and rises outside them, so its
    minimisers form the interval between the least and greatest minimising
    sample point."""
    ys = [Fraction(y) for y in values]
    loss = {z: sum(((z >= y) - tau) * (z - y) for y in ys) for z in set(ys)}
    least = min(loss.values())
    best = [z for z, l in loss.items() if l == least]
    return float(min(best)), float(max(best))


def transform(name, params=()):
    """(forward, inverse, derivative) of a catalog map, each formula written
    out on its own with the operations in the order the package evaluates
    them, so forward and inverse agree bit for bit (the sign of zero
    included):

    * ``identity``       t
    * ``negate``         -t
    * ``log``            log t
    * ``affine-log``     log(a t + b)
    * ``shifted-log``    log(t + b)
    * ``exp``            exp t
    * ``affine-exp``     exp(a t + b)
    * ``power``          t^a
    * ``affine-power``   (b t + c)^a
    * ``shifted-power``  (t + c)^a
    * ``box-cox``        (t^a - 1)/a, and log t at a = 0
    """
    p = tuple(float(v) for v in params)
    if name == "identity":
        return (lambda t: +np.asarray(t, float), lambda v: +np.asarray(v, float),
                lambda t: np.ones_like(np.asarray(t, float)))
    if name == "negate":
        return np.negative, np.negative, lambda t: -np.ones_like(np.asarray(t, float))
    if name == "log" or (name == "box-cox" and p == (0.0,)):
        return np.log, np.exp, lambda t: 1.0 / np.asarray(t, float)
    if name == "affine-log":
        a, b = p
        return (lambda t: np.log(a * np.asarray(t, float) + b), lambda v: (np.exp(v) - b) / a,
                lambda t: a / (a * np.asarray(t, float) + b))
    if name == "shifted-log":
        (b,) = p
        return (lambda t: np.log(np.asarray(t, float) + b), lambda v: np.exp(v) - b,
                lambda t: 1.0 / (np.asarray(t, float) + b))
    if name == "exp":
        return np.exp, np.log, np.exp
    if name == "affine-exp":
        a, b = p
        return (lambda t: np.exp(a * np.asarray(t, float) + b), lambda v: (np.log(v) - b) / a,
                lambda t: a * np.exp(a * np.asarray(t, float) + b))
    if name == "power":
        (a,) = p
        return (lambda t: np.power(np.asarray(t, float), a),
                lambda v: np.power(np.asarray(v, float), 1.0 / a),
                lambda t: a * np.power(np.asarray(t, float), a - 1.0))
    if name == "affine-power":
        a, b, c = p
        return (lambda t: np.power(b * np.asarray(t, float) + c, a),
                lambda v: (np.power(np.asarray(v, float), 1.0 / a) - c) / b,
                lambda t: a * b * np.power(b * np.asarray(t, float) + c, a - 1.0))
    if name == "shifted-power":
        a, c = p
        return (lambda t: np.power(np.asarray(t, float) + c, a),
                lambda v: np.power(np.asarray(v, float), 1.0 / a) - c,
                lambda t: a * np.power(np.asarray(t, float) + c, a - 1.0))
    (a,) = p  # box-cox, a != 0
    return (lambda t: (np.power(np.asarray(t, float), a) - 1.0) / a,
            lambda v: np.power(a * np.asarray(v, float) + 1.0, 1.0 / a),
            lambda t: np.power(np.asarray(t, float), a - 1.0))
