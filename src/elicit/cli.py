"""Command-line interface.

Subcommands: ``catalog`` (list transformations/families and their text
encodings), ``score`` (average score and skill on CSV data), ``fit``
(M-estimation on CSV data), ``verify`` (run a verification suite, emit JSON
reports), ``curve`` (expected-score curve as CSV for plotting).

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 numeric/domain error. The default seed comes from ELICIT_SEED when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import specs
from .errors import (BracketingError, DataError, DegenerateReferenceError,
                     DomainError, ElicitError, EvaluationError, ParameterError,
                     SpecParseError)
from .estimation import fit
from .evaluation import climatology_predictions, skill_score
from .numerics import Bracket
from .distributions import sample_iid
from .scoring import average_score, expected_score_stats, prepare_realizations
from .transforms import CATALOG_ROWS, catalog, identity
from .verify import as_expected, builtin_suite, load_suite_file, run_suite, suite_passed

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _default_seed() -> int:
    env = os.environ.get("ELICIT_SEED")
    return int(env) if env else 0


def _read_csv(path: str, columns):
    """Read required columns from a CSV file with a header row."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing header row")
        missing = [c for c in columns if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}; found {reader.fieldnames}")
        data = {c: [] for c in columns}
        for rownum, row in enumerate(reader, start=2):
            for c in columns:
                cell = row.get(c)
                try:
                    data[c].append(float(cell))
                except (TypeError, ValueError):
                    raise DataError(f"{path}: row {rownum}: cannot parse {c}={cell!r}") from None
    if not data[columns[0]]:
        raise DataError(f"{path}: no data rows")
    arrays = {c: np.asarray(v, dtype=float) for c, v in data.items()}
    for c, arr in arrays.items():
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{path}: row {i + 2}: non-finite {c}={float(arr[i])!r}")
    return arrays


def _emit(payload, out_path):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: not valid JSON
        raise EvaluationError(f"non-finite value in the output: {exc}") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_catalog(args) -> int:
    family = args.family
    sections = {}
    if family in (None, "bijections"):
        sections["bijections"] = [
            {
                "name": name,
                "example_params": list(params),
                "constraint": constraint,
                "domain": str(catalog(name, params).domain),
                "codomain": str(catalog(name, params).codomain),
                "monotonicity": catalog(name, params).monotonicity,
                "functional": functional,
            }
            for name, params, constraint, functional in CATALOG_ROWS
        ]
    if family in (None, "scores"):
        sections["scores"] = [
            {"name": fam, "encoding": enc} for fam, enc in (
                ("se", "se[@mode:g]"),
                ("ae", "ae[@mode:g]"),
                ("apl", "apl:tau=T[@mode:g]"),
                ("gpl", "gpl:tau=T:g=G[@mode:g]"),
                ("expectile", "expectile:tau=T:phi=P[@mode:g]"),
                ("bregman", "bregman:phi=P[@mode:g]"),
                ("mv", "mv[@realization:g]"),
            )
        ]
    if family in (None, "idents"):
        sections["idents"] = [
            {"name": fam, "encoding": enc} for fam, enc in (
                ("mean", "mean[@mode:g]"),
                ("quantile", "quantile:tau=T[@mode:g]"),
                ("expectile", "expectile:tau=T[@mode:g]"),
                ("mv", "mv[@realization:g]"),
            )
        ]
    if family in (None, "functionals"):
        sections["functionals"] = [
            {"name": fam, "encoding": enc} for fam, enc in (
                ("mean", "mean"),
                ("quantile", "quantile:tau=T"),
                ("expectile", "expectile:tau=T"),
                ("gmean", "gmean:g=G"),
                ("gexpectile", "gexpectile:tau=T:g=G"),
                ("mvpair", "mvpair[:g=G]"),
            )
        ]

    if args.format == "json":
        payload = sections[family] if family else sections
        _emit(payload, args.out)
        return EXIT_OK

    lines = []
    for section, rows in sections.items():
        lines.append(f"# {section}")
        for row in rows:
            if section == "bijections":
                lines.append(
                    f"  {row['name']:<14} {row['domain']:>14} -> {row['codomain']:<14} "
                    f"{row['monotonicity']:<10} [{row['constraint']}]  elicits {row['functional']}")
            else:
                lines.append(f"  {row['name']:<10} {row['encoding']}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_score(args) -> int:
    spec = specs.parse_score(args.score)
    if spec.family == "mv":
        data = _read_csv(args.data, ["y", "z", "x2"])
        z = np.column_stack([data["z"], data["x2"]])
    else:
        data = _read_csv(args.data, ["y", "z"])
        z = data["z"]
    y = data["y"]
    payload = {"score": specs.format_score(spec), "n": int(len(y)),
               "average_score": average_score(spec, z, y)}
    if args.skill:
        if spec.family == "mv":
            raise ParameterError("skill scores are defined for scalar-prediction families")
        if args.skill == "climatology":
            ref = climatology_predictions(identity(), y)
        else:  # g-climatology
            g = spec.transform.g
            if spec.transform.mode == "none" or g is None:
                raise ParameterError("g-climatology requires a transformed score (e.g. se@both:log)")
            ref = climatology_predictions(g, y)
        payload["skill"] = skill_score(spec, z, ref, "zero-optimum", y)
        payload["reference"] = args.skill
        payload["reference_value"] = float(ref[0])
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    spec = specs.parse_score(args.score)
    model = {"constant": "constant", "linear": "linear", "mvpair": "constant_pair"}[args.model]
    if model == "linear":
        data = _read_csv(args.data, ["y", "x"])
        result = fit(model, spec, x=data["x"], y=data["y"])
    else:
        data = _read_csv(args.data, ["y"])
        result = fit(model, spec, y=data["y"])
    payload = {"model": args.model, "score": specs.format_score(spec),
               "theta": list(result.theta), "objective": result.objective,
               "iterations": result.iterations, "converged": result.converged}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite.startswith("builtin:"):
        configs = builtin_suite(args.suite.split(":", 1)[1], seed=args.seed)
    else:
        configs = load_suite_file(args.suite, seed=args.seed)
    reports = run_suite(configs, parallelism=args.jobs)
    payload = [r.to_json_dict(include_ms=args.timings) for r in reports]
    _emit(payload, args.out)
    ok = suite_passed(configs, reports)
    for cfg, rpt in zip(configs, reports):
        status = "PASS" if as_expected(cfg, rpt) else "FAIL"
        expected = "" if cfg.expect_pass else " (expected-fail)"
        print(f"{status} {rpt.check}{expected}: {rpt.notes}", file=sys.stderr)
    print(f"{'OK' if ok else 'FAILED'}: {sum(as_expected(c, r) for c, r in zip(configs, reports))}"
          f"/{len(reports)} checks as expected", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_curve(args) -> int:
    spec = specs.parse_score(args.score)
    dist = specs.parse_dist(args.dist)
    lo, hi = (float(v) for v in args.bracket.split(","))
    bracket = Bracket(lo, hi)
    draws = sample_iid(dist, args.n, args.seed)
    prepared = prepare_realizations(spec, draws)
    zs = np.linspace(bracket.lo, bracket.hi, args.points)
    means, stderrs = expected_score_stats(spec, zs, prepared)
    rows = [(float(z), float(m), float(s)) for z, m, s in zip(zs, means, stderrs)]
    out = args.out or "-"
    if out == "-":
        writer = csv.writer(sys.stdout)
        writer.writerow(["z", "escore", "stderr"])
        writer.writerows(rows)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "escore", "stderr"])
            writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicit",
        description="Consistent scoring functions, identification functions, "
                    "and transformed-functional verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list transformations and families")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--family", choices=("bijections", "scores", "idents", "functionals"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("score", help="average score (and skill) on CSV data")
    p.add_argument("--score", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--skill", choices=("climatology", "g-climatology"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("fit", help="M-estimation on CSV data")
    p.add_argument("--model", choices=("constant", "linear", "mvpair"), required=True)
    p.add_argument("--score", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help="builtin:NAME or a suite file path")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock ms in the JSON (breaks byte-level determinism)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("curve", help="expected-score curve as CSV")
    p.add_argument("--score", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--bracket", required=True, metavar="LO,HI")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SpecParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, EvaluationError, BracketingError,
            DegenerateReferenceError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ElicitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
