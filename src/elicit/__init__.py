"""Consistent scoring functions, identification functions, and the
verification machinery for transformed predictions and realizations."""

from .distributions import (DistributionSpec, Empirical, Exponential, Lognormal,
                            Normal, Uniform, sample_iid)
from .errors import (BracketingError, DataError, DegenerateReferenceError,
                     DomainError, ElicitError, EvaluationError, ParameterError,
                     SpecParseError)
from .estimation import FitResult, ModelSpec, fit
from .evaluation import climatology_predictions, nse, skill_score, transformed_climatology
from .functionals import (FunctionalSpec, FunctionalValue, analytic_functional,
                          expectile_exact, functional_value, pushforward_law, scalar_value)
from .identification import (IdentSpec, OrientationReport, builtin_osband_pairings,
                             evaluate_identification, orientation_probe, osband_residual)
from .intervals import Interval
from .numerics import Bracket, Seed, central_diff, derive_seed, make_rng, minimize1d, root1d
from .scoring import (SQUARE, ConvexGenerator, ScoreSpec, TransformMode, average_score,
                      convex_generator, evaluate_score, register_convex_generator)
from .transforms import Bijection, catalog, identity
from .verify import (CheckConfig, VerificationReport, builtin_suite,
                     check_consistency, check_identification,
                     check_pair_consistency, check_realization_transform,
                     check_revelation, check_strictness, load_suite_file,
                     run_check, run_suite, suite_passed)

__version__ = "0.1.0"
