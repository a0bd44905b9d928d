"""Nothing sits in the package that nothing uses.

Every top-level function and class of ``src/elicit/`` and every name that
``elicit/__init__.py`` exports (its ``_EXPORTS`` table, which the package
resolves on first read) must be referenced (read as a name or an
attribute) somewhere in ``src/elicit/`` outside ``__init__.py`` and outside
its own definition, or be listed in ``KEPT`` with the reason it stays. An
import alone is not a reference. Names are matched by spelling, so a
method call ``d.quantile`` counts as a reference to any ``quantile``.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "elicit"

KEPT = {
    "orientation_probe": "acceptance criterion 06: the sign of E[V(t* + d, Y)] away from the truth",
    "osband_residual": "acceptance criterion 07: the score/identification link of Osband's principle",
    "builtin_osband_pairings": "acceptance criterion 07: the pairings the residual is checked on",
    "nse": "acceptance criterion 10: the Nash-Sutcliffe efficiency as the se skill score",
    "register_convex_generator": "the paper's Bregman family for a general convex phi",
    "format_ident": "the spec grammar's printer, which the round-trip properties hold "
                    "as the parser's inverse",
    "format_functional": "the spec grammar's printer (round-trip properties)",
    "format_dist": "the spec grammar's printer (round-trip properties)",
    "sample_iid": "the n draws as one array, for callers that hold them; the benchmark "
                  "traces it, and sample_chunks is defined as its stream",
    "expected_ident_curve": "the identification curve of held draws, the streamed curve's "
                            "reference; the benchmark traces it",
}


def _surface():
    """(defined, exported, references): top-level definitions as name ->
    (file, first line, last line), the names of ``__init__``'s export
    table, and every (name, file, line) read outside ``__init__``."""
    defined, exported, references = {}, set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            exported |= set(_export_table(tree))
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = (path.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.append((name, path.name, node.lineno))
    return defined, exported, references


def _export_table(tree) -> dict:
    """``__init__``'s ``_EXPORTS`` (module -> names), as name -> module."""
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"])
    return {name: module for module, names in table.items() for name in names}


# The names ``elicit`` exported when it imported them eagerly; none may go.
EXPORTED_BEFORE_LAZY_INIT = {
    "distributions": "DistributionSpec Empirical Exponential Lognormal Normal Uniform sample_iid",
    "errors": "BracketingError DataError DegenerateReferenceError DomainError ElicitError "
              "EvaluationError ParameterError SpecParseError",
    "estimation": "FitResult ModelSpec fit",
    "evaluation": "climatology_predictions nse skill_score transformed_climatology",
    "functionals": "FunctionalSpec FunctionalValue analytic_functional expectile_exact "
                   "functional_value pushforward_law scalar_value",
    "identification": "IdentSpec OrientationReport builtin_osband_pairings "
                      "evaluate_identification orientation_probe osband_residual",
    "intervals": "Interval",
    "numerics": "Bracket Seed central_diff derive_seed make_rng minimize1d root1d",
    "scoring": "SQUARE ConvexGenerator ScoreSpec TransformMode average_score convex_generator "
               "evaluate_score register_convex_generator",
    "transforms": "Bijection catalog identity",
    "verify": "CheckConfig VerificationReport builtin_suite check_consistency "
              "check_identification check_pair_consistency check_realization_transform "
              "check_revelation check_strictness load_suite_file run_check run_suite "
              "suite_passed",
}


def test_the_export_set_has_not_shrunk():
    table = _export_table(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    before = {name: module for module, names in EXPORTED_BEFORE_LAZY_INIT.items()
              for name in names.split()}
    assert len(before) == 67
    assert {name: table.get(name) for name in before} == before


def test_every_export_resolves_to_its_module():
    import importlib

    import elicit

    for name, module in _export_table(
            ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))).items():
        assert getattr(elicit, name) is getattr(importlib.import_module(f"elicit.{module}"), name)
        assert name in dir(elicit) and name in elicit.__all__


def _unreferenced():
    defined, exported, references = _surface()

    def outside_own_definition(name, path, line):
        own = defined.get(name)
        return not (own and own[0] == path and own[1] <= line <= own[2])

    used = {name for name, path, line in references if outside_own_definition(name, path, line)}
    return (set(defined) | exported) - used


def test_every_package_name_is_used_or_kept():
    unused = _unreferenced() - set(KEPT)
    assert not unused, f"referenced nowhere in src/elicit/ and not in KEPT: {sorted(unused)}"


def test_every_kept_name_is_needed():
    # a kept name that the package comes to use leaves the list
    assert set(KEPT) <= _unreferenced(), sorted(set(KEPT) - _unreferenced())
