"""Realized skill scores and climatology references.

A skill score normalizes the average score of a prediction against a
reference (and, when the family's minimum is not zero, an optimal)
prediction: positive means better than the reference, 1 is perfect. The
Nash-Sutcliffe efficiency is the squared-error skill score with the sample
mean (climatology) as the reference.

For a transformed score with transformation g, the matching reference is the
constant whose effective prediction is the mean of the effective
realizations (:func:`score_climatology`), replicated across the test set; for
the jointly transformed score S(g(z), g(y)) that is the transformed
climatology g^-1(mean of g(y)).
The reference is the plain inverse-transformed mean; a printed form carrying
an extra leading 1/n factor on the replicated value is not used, as only the
unscaled value reduces to the ordinary climatology when g is the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateReferenceError, ParameterError, naming_observations
from .scoring import ScoreSpec, TransformMode, average_score
from .transforms import Bijection

# Families whose pointwise minimum over z is 0 (required for the
# zero-optimum skill form).
ZERO_OPTIMUM_FAMILIES = ("se", "ae", "apl", "gpl", "expectile", "bregman")


def skill_score(score: ScoreSpec, z, z_ref, z_opt, y) -> float:
    """Skill of z against z_ref, optionally with an explicit optimum.

    With ``z_opt="zero-optimum"`` uses 1 - avg(z) / avg(z_ref), valid for
    families minimized at zero; otherwise uses the two-reference form
    (avg(z) - avg(z_ref)) / (avg(z_opt) - avg(z_ref)).
    """
    return skill_of_average(score, average_score(score, z, y), z_ref, z_opt, y)


def skill_of_average(score: ScoreSpec, s_z: float, z_ref, z_opt, y) -> float:
    """:func:`skill_score` of predictions whose average score on y is ``s_z``."""
    s_ref = average_score(score, z_ref, y)
    if isinstance(z_opt, str):
        if z_opt != "zero-optimum":
            raise ParameterError(f"unknown optimum spec {z_opt!r}")
        if score.family not in ZERO_OPTIMUM_FAMILIES:
            raise ParameterError(
                f"family {score.family!r} is not minimized at zero; "
                "provide explicit optimal predictions")
        if s_ref == 0.0:
            raise DegenerateReferenceError("reference predictions have zero average score")
        return 1.0 - s_z / s_ref
    s_opt = average_score(score, z_opt, y)
    if s_opt == s_ref:
        raise DegenerateReferenceError(
            "optimal and reference predictions have equal average score")
    return (s_z - s_ref) / (s_opt - s_ref)


def nse(z, y) -> float:
    """Nash-Sutcliffe efficiency: squared-error skill vs mean climatology."""
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise ParameterError("nse requires at least two observations")
    if np.all(y == y[0]):
        raise DegenerateReferenceError("constant observations: climatology is degenerate")
    clim = np.full_like(y, np.mean(y))
    return skill_score(ScoreSpec("se"), z, clim, "zero-optimum", y)


def score_climatology(transform: TransformMode, y) -> float:
    """The constant prediction whose effective prediction is the mean of the
    effective realizations: mean(y) under ``none``, mean(g(y)) under
    ``realization``, g(mean(y)) under ``prediction`` and g^-1(mean(g(y)))
    under ``both``."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ParameterError("a climatology requires observations")
    with naming_observations():
        m = float(np.mean(transform.realization(y)))
    if transform.mode == "both":
        return float(transform.g.invert(m))
    return float(transform.g.apply(m)) if transform.mode == "prediction" else m


def transformed_climatology(g: Bijection, y) -> float:
    """g^-1 of the mean of g(y): the climatology in transformed units."""
    return score_climatology(TransformMode.both(g), y)


def climatology_predictions(g: Bijection, y) -> np.ndarray:
    """The reference prediction vector: the transformed climatology, replicated."""
    y = np.asarray(y, dtype=float)
    return np.full_like(y, transformed_climatology(g, y))
