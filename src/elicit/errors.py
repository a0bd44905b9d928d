"""Exception hierarchy.

Every error raised on purpose by this package derives from ElicitError, so
callers (and the CLI) can map failures to exit codes without string matching.
A value check on an array records where it failed: ``index`` is the flat
position of the first offending element, None for a scalar argument.
"""

from contextlib import contextmanager


class ElicitError(Exception):
    """Base class for all package errors."""

    def __init__(self, *args, index=None):
        super().__init__(*args)
        self.index = index


class ParameterError(ElicitError, ValueError):
    """A constructor or function argument violates its contract."""


class DomainError(ElicitError, ValueError):
    """A value lies outside the domain of a transformation or score."""

    def __init__(self, value, domain=None, context=None, index=None):
        self.value = value
        self.domain = domain
        self.context = context
        where = f" of {context}" if context else ""
        dom = f" {domain}" if domain is not None else ""
        super().__init__(f"value {value!r} outside domain{dom}{where}", index=index)


class EvaluationError(ElicitError, ArithmeticError):
    """A function produced a non-finite value where a finite one is required."""


class BracketingError(ElicitError, ValueError):
    """A bracket does not enclose the root/minimizer it was supposed to."""


class DegenerateReferenceError(ElicitError, ZeroDivisionError):
    """A skill-score reference makes the normalization degenerate."""


class SpecParseError(ElicitError, ValueError):
    """A textual spec (score/dist/functional/suite) could not be parsed."""


class DataError(ElicitError, ValueError):
    """Input data (CSV rows, columns) is malformed; carries row context."""


@contextmanager
def naming_observations():
    """A value outside its domain, raised inside, named by the observation
    index it carries; other errors pass as they are, with their index."""
    try:
        yield
    except DomainError as exc:
        if exc.domain is None or exc.index is None:
            raise
        raise DomainError(exc.value, exc.domain, f"observation index {exc.index}",
                          index=exc.index) from exc
