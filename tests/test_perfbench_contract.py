"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
module and name; a renamed or removed internal would break ``--trace 1``
without failing any other test. The benchmark's verify-core workload
(perfbench/workloads.py) runs frozen copies of builtin paper-core lines,
which must keep matching the builtin suite."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

from elicit import IdentSpec, ScoreSpec, TransformMode, catalog

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for module, function, *_ in _tracing().TARGETS:
        assert callable(getattr(importlib.import_module(module), function, None)), \
            f"{module}.{function}"


def test_prepare_functions_return_realizations_with_y():
    targets = {(m, f) for m, f, *_ in _tracing().TARGETS}
    from elicit.identification import prepare_ident_realizations
    from elicit.scoring import prepare_realizations

    assert {("elicit.scoring", "prepare_realizations"),
            ("elicit.identification", "prepare_ident_realizations")} <= targets
    y = np.array([1.0, 2.0, 4.0])
    log = TransformMode.realization_only(catalog("log"))
    assert np.array_equal(prepare_realizations(ScoreSpec("se", transform=log), y).y, np.log(y))
    assert np.array_equal(prepare_ident_realizations(IdentSpec("mean"), y).y, y)


WORKLOADS = TRACING.with_name("workloads.py")


def test_pinned_paper_core_lines_match_the_builtin_suite():
    """verify-core runs frozen copies of paper-core lines; each must still
    parse, with the seed the benchmark derives, to the builtin check."""
    from elicit.verify import _parse_suite, builtin_suite

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    core = builtin_suite("paper-core", 42)
    for idx, line in workloads.PAPER_CORE_LINES:
        seeded = f"{line} seed={workloads.derive_seed(42, idx)}"
        assert _parse_suite([seeded], 0, "pinned") == [core[idx]], line
