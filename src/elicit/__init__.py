"""Consistent scoring functions, identification functions, and the
verification machinery for transformed predictions and realizations.

The package runs no submodule when imported, so ``elicit score`` and
``elicit fit`` compile only the modules they run: each exported name is
looked up in ``_EXPORTS`` on first read (PEP 562). Each submodule still
sits in ``sys.modules`` from the start, as it did when the package imported
them all, but unexecuted (``importlib.util.LazyLoader``): it runs on the
first read of one of its attributes, an import of it included. Code that
looks the modules up there after ``import elicit``, as the benchmark's
tracer does, finds every one.
"""

import importlib
import importlib.machinery
import importlib.util
import sys

# The names the package exports, by the submodule that defines them.
_EXPORTS = {
    "distributions": ("DistributionSpec", "Empirical", "Exponential", "Lognormal", "Normal",
                      "Uniform", "sample_iid"),
    "errors": ("BracketingError", "DataError", "DegenerateReferenceError", "DomainError",
               "ElicitError", "EvaluationError", "ParameterError", "SpecParseError"),
    "estimation": ("FitResult", "ModelSpec", "fit"),
    "evaluation": ("climatology_predictions", "nse", "skill_score", "transformed_climatology"),
    "functionals": ("FunctionalSpec", "FunctionalValue", "analytic_functional",
                    "expectile_exact", "functional_value", "pushforward_law", "scalar_value"),
    "identification": ("IdentSpec", "OrientationReport", "builtin_osband_pairings",
                       "evaluate_identification", "orientation_probe", "osband_residual"),
    "intervals": ("Interval",),
    "numerics": ("Bracket", "Seed", "central_diff", "derive_seed", "make_rng", "minimize1d",
                 "root1d"),
    "scoring": ("SQUARE", "ConvexGenerator", "ScoreSpec", "TransformMode", "average_score",
                "convex_generator", "evaluate_score", "register_convex_generator"),
    "transforms": ("Bijection", "catalog", "identity"),
    "verify": ("CheckConfig", "VerificationReport", "builtin_suite", "check_consistency",
               "check_identification", "check_pair_consistency", "check_realization_transform",
               "check_revelation", "check_strictness", "load_suite_file", "run_check",
               "run_suite", "suite_passed"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)
__version__ = "0.1.0"

for _name in (*_EXPORTS, "cli", "numparse", "specs", "sweep"):
    _spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{_name}", __path__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # marks it lazy: nothing of it runs yet
del _name, _spec, _module


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
