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

from .errors import ParameterError, SpecParseError
from .functionals import FunctionalSpec
from .identification import IdentSpec
from .numerics import Bracket
from .scoring import ScoreSpec, TransformMode, convex_generator
from .transforms import Bijection, catalog, format_number
from . import distributions as dist_mod


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
    g = parse_bijection(g_text)
    try:
        if mode_name == "both":
            return head, TransformMode.both(g)
        if mode_name == "prediction":
            return head, TransformMode.prediction_only(g)
        if mode_name == "realization":
            return head, TransformMode.realization_only(g)
    except Exception as exc:
        raise SpecParseError(f"bad transform mode {mode_part!r}: {exc}") from exc
    raise SpecParseError(f"unknown transform mode {mode_name!r}")


def _split_params(head: str):
    parts = head.split(":")
    family, kv = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise SpecParseError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        kv[key.strip()] = value.strip()
    return family.strip(), kv


def _pop_tau(kv, text):
    if "tau" not in kv:
        return None
    try:
        return float(kv.pop("tau"))
    except ValueError as exc:
        raise SpecParseError(f"bad tau in {text!r}") from exc


def parse_score(text: str) -> ScoreSpec:
    head, mode = _split_mode(text.strip())
    family, kv = _split_params(head)
    tau = _pop_tau(kv, text)
    phi = convex_generator(kv.pop("phi")) if "phi" in kv else None
    g_inner = parse_bijection(kv.pop("g")) if "g" in kv else None
    if kv:
        raise SpecParseError(f"unknown score options {sorted(kv)} in {text!r}")
    try:
        return ScoreSpec(family, tau=tau, phi=phi, g_inner=g_inner, transform=mode)
    except Exception as exc:
        raise SpecParseError(f"bad score spec {text!r}: {exc}") from exc


def format_score(spec: ScoreSpec) -> str:
    parts = [spec.family]
    if spec.tau is not None:
        parts.append(f"tau={format_number(spec.tau)}")
    if spec.family in ("expectile", "bregman") and spec.phi is not None:
        parts.append(f"phi={spec.phi.name}")
    if spec.g_inner is not None:
        parts.append(f"g={format_bijection(spec.g_inner)}")
    out = ":".join(parts)
    if spec.transform.mode != "none":
        out += f"@{spec.transform.mode}:{format_bijection(spec.transform.g)}"
    return out


def parse_ident(text: str) -> IdentSpec:
    head, mode = _split_mode(text.strip())
    family, kv = _split_params(head)
    tau = _pop_tau(kv, text)
    if kv:
        raise SpecParseError(f"unknown identification options {sorted(kv)} in {text!r}")
    try:
        return IdentSpec(family, tau=tau, transform=mode)
    except Exception as exc:
        raise SpecParseError(f"bad identification spec {text!r}: {exc}") from exc


def format_ident(spec: IdentSpec) -> str:
    out = spec.family
    if spec.tau is not None:
        out += f":tau={format_number(spec.tau)}"
    if spec.transform.mode != "none":
        out += f"@{spec.transform.mode}:{format_bijection(spec.transform.g)}"
    return out


def parse_functional(text: str) -> FunctionalSpec:
    head, mode = _split_mode(text.strip())
    if mode.mode != "none":
        raise SpecParseError(f"functionals take no transform mode: {text!r}")
    kind, kv = _split_params(head)
    tau = _pop_tau(kv, text)
    g = parse_bijection(kv.pop("g")) if "g" in kv else None
    if kv:
        raise SpecParseError(f"unknown functional options {sorted(kv)} in {text!r}")
    try:
        return FunctionalSpec(kind, tau=tau, g=g)
    except Exception as exc:
        raise SpecParseError(f"bad functional spec {text!r}: {exc}") from exc


def format_functional(spec: FunctionalSpec) -> str:
    parts = [spec.kind]
    if spec.tau is not None:
        parts.append(f"tau={format_number(spec.tau)}")
    if spec.g is not None:
        parts.append(f"g={format_bijection(spec.g)}")
    return ":".join(parts)


_DISTS = {"normal": dist_mod.Normal, "lognormal": dist_mod.Lognormal,
          "exponential": dist_mod.Exponential, "uniform": dist_mod.Uniform,
          "empirical": dist_mod.Empirical}


def parse_dist(text: str):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise SpecParseError(f"distribution spec needs parameters: {text!r}")
    name, args = text[:-1].split("(", 1)
    cls = _DISTS.get(name.strip().lower())
    if cls is None:
        raise SpecParseError(f"unknown distribution {name.strip()!r}")
    params = _numbers(args, "distribution parameters", text)
    try:
        return cls(tuple(params)) if cls is dist_mod.Empirical else cls(*params)
    except TypeError as exc:
        raise SpecParseError(f"{text!r}: expects {len(dataclasses.fields(cls))} "
                             f"parameter(s): {exc}") from exc
    except Exception as exc:
        raise SpecParseError(f"bad distribution spec {text!r}: {exc}") from exc


def format_dist(dist) -> str:
    name = next((k for k, cls in _DISTS.items() if type(dist) is cls), None)
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
