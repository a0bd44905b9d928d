"""Reference formulas for the score and identification families.

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
"""

import numpy as np


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
