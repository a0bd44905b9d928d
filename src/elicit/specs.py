"""Text encodings for scores, identification functions, functionals, and
distributions, shared by the CLI and suite files.

Grammar: ``family[:key=value...][@mode:transform]``, e.g. ``se@both:log``,
``gpl:tau=0.9:g=log``, ``expectile:tau=0.75:phi=square@both:power(0.5)``.
Transforms are ``name`` or ``name(p1,p2,...)``; distributions likewise:
``normal(0,1)``, ``empirical(1,2,3)``.
"""

from __future__ import annotations

import dataclasses
import shlex
from typing import TYPE_CHECKING

from .errors import ParameterError, SpecParseError
from .numerics import Bracket
from .scoring import FAMILIES, ScoreSpec, TransformMode, convex_generator, family_options
from .transforms import Bijection, catalog, format_number

if TYPE_CHECKING:  # the parsers import these when they run, not at start-up
    from .functionals import FunctionalSpec
    from .identification import IdentSpec


def _numbers(args: str, what: str, text: str) -> list:
    """The comma-separated floats of ``args`` (none when blank)."""
    try:
        return [float(a) for a in args.split(",")] if args.strip() else []
    except ValueError as exc:
        raise SpecParseError(f"bad {what} in {text!r}: {exc}") from exc


def parse_bracket(text: str) -> Bracket:
    """``lo,hi`` with finite lo < hi."""
    try:
        return Bracket(*_numbers(text, "bracket", text))
    except (TypeError, ParameterError) as exc:
        raise SpecParseError(f"bracket must be 'lo,hi' with finite lo < hi, got {text!r}") from exc


def parse_bijection(text: str) -> Bijection:
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise SpecParseError(f"malformed transform spec {text!r}")
        name, args = text[:-1].split("(", 1)
        params = _numbers(args, "transform parameters", text)
    else:
        name, params = text, []
    try:
        return catalog(name, params)
    except Exception as exc:
        raise SpecParseError(f"bad transform spec {text!r}: {exc}") from exc


def format_bijection(bij: Bijection) -> str:
    return bij.label.replace(", ", ",")


def _split_mode(text: str):
    if "@" not in text:
        return text, TransformMode.none()
    head, mode_part = text.split("@", 1)
    if ":" not in mode_part:
        raise SpecParseError(f"transform mode needs 'mode:transform', got {mode_part!r}")
    mode_name, g_text = mode_part.split(":", 1)
    try:
        return head, TransformMode(mode_name, parse_bijection(g_text))
    except ParameterError as exc:
        raise SpecParseError(f"bad transform mode {mode_part!r}: {exc}") from exc


def _split_params(head: str):
    parts = head.split(":")
    family, kv = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise SpecParseError(f"expected key=value, got {part!r}")
        key, value = (t.strip() for t in part.split("=", 1))
        if key in kv:
            raise SpecParseError(f"repeated option {key!r}")
        kv[key] = value
    return family.strip(), kv


# How each family option is read from its text and written back.
_OPTIONS = {"tau": (float, format_number),
            "phi": (convex_generator, lambda phi: phi.name),
            "g": (parse_bijection, format_bijection)}


def _parse(text: str, what: str, table: dict, build, modes: bool = True):
    """``build(family, mode, **options)`` from ``text``, each option converted
    here; an option that no family of ``table`` takes is unknown."""
    head, mode = _split_mode(text.strip())
    if not modes and mode.mode != "none":
        raise SpecParseError(f"{what}s take no transform mode: {text!r}")
    family, kv = _split_params(head)
    unknown = sorted(set(kv) - {opt for fam in table for opt in family_options(table, fam)})
    if unknown:
        raise SpecParseError(f"unknown {what} options {unknown} in {text!r}")
    try:
        return build(family, mode, **{k: _OPTIONS[k][0](v) for k, v in kv.items()})
    except ValueError as exc:  # ParameterError, SpecParseError, float()'s
        raise SpecParseError(f"bad {what} spec {text!r}: {exc}") from exc


def _format(family: str, table: dict, values: dict, mode=None) -> str:
    """``family``, each option of its ``table`` entry set in ``values``, and ``mode``."""
    out = ":".join([family] + [f"{k}={_OPTIONS[k][1](values[k])}"
                               for k in family_options(table, family) if values[k] is not None])
    if mode is not None and mode.mode != "none":
        out += f"@{mode.mode}:{format_bijection(mode.g)}"
    return out


def parse_score(text: str) -> ScoreSpec:
    return _parse(text, "score", FAMILIES, lambda family, mode, g=None, **kw: ScoreSpec(
        family, g_inner=g, transform=mode, **kw))


def format_score(spec: ScoreSpec) -> str:
    return _format(spec.family, FAMILIES, dict(tau=spec.tau, phi=spec.phi, g=spec.g_inner),
                   spec.transform)


def parse_ident(text: str) -> IdentSpec:
    from .identification import IDENT_FAMILIES, IdentSpec

    return _parse(text, "identification", IDENT_FAMILIES,
                  lambda family, mode, **kw: IdentSpec(family, transform=mode, **kw))


def format_ident(spec: IdentSpec) -> str:
    from .identification import IDENT_FAMILIES

    return _format(spec.family, IDENT_FAMILIES, dict(tau=spec.tau), spec.transform)


def parse_functional(text: str) -> FunctionalSpec:
    from .functionals import KINDS, FunctionalSpec

    return _parse(text, "functional", KINDS, lambda kind, mode, **kw: FunctionalSpec(kind, **kw),
                  modes=False)


def format_functional(spec: FunctionalSpec) -> str:
    from .functionals import KINDS

    return _format(spec.kind, KINDS, dict(tau=spec.tau, g=spec.g))


def _dists() -> dict:
    from . import distributions as d

    return {"normal": d.Normal, "lognormal": d.Lognormal, "exponential": d.Exponential,
            "uniform": d.Uniform, "empirical": d.Empirical}


def parse_dist(text: str):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise SpecParseError(f"distribution spec needs parameters: {text!r}")
    name, args = text[:-1].split("(", 1)
    key = name.strip().lower()
    cls = _dists().get(key)
    if cls is None:
        raise SpecParseError(f"unknown distribution {name.strip()!r}")
    params = _numbers(args, "distribution parameters", text)
    try:
        return cls(tuple(params)) if key == "empirical" else cls(*params)
    except TypeError as exc:
        raise SpecParseError(f"{text!r}: expects {len(dataclasses.fields(cls))} "
                             f"parameter(s): {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"bad distribution spec {text!r}: {exc}") from exc


def format_dist(dist) -> str:
    name = next((k for k, cls in _dists().items() if type(dist) is cls), None)
    if name is None:
        raise SpecParseError(f"unknown distribution object {dist!r}")
    params = dist.values if name == "empirical" else \
        [getattr(dist, f.name) for f in dataclasses.fields(dist)]
    return f"{name}({','.join(map(format_number, params))})"


def parse_suite_line(line: str) -> dict:
    """One suite check: whitespace-separated key=value tokens."""
    fields = {}
    for token in shlex.split(line):
        if "=" not in token:
            raise SpecParseError(f"expected key=value token, got {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise SpecParseError(f"duplicate key {key!r}")
        fields[key] = value
    return fields
