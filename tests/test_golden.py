"""Golden records of two suites at seed 42: ``builtin:paper-core`` and the
benchmark's verify-mc lines, read unedited from perfbench/workloads.py. A
refactor keeps every verdict, note, tolerance and seed, and every estimate,
target and stderr within 1e-9 relative. A change that moves a number
rewrites the records, and lists each move in CHANGES.md, with

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from elicit.verify import _parse_suite, builtin_suite, run_suite

SEED = 42
REL = 1e-9
NUMBERS = ("estimate", "target", "stderr")
DATA = pathlib.Path(__file__).with_name("data")
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _mc_lines() -> list:
    """verify-mc's lines, each seeded as the benchmark seeds it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [f"{line} seed={workloads.derive_seed(SEED, i)}"
            for i, line in enumerate(workloads.MC_LINES)]


SUITES = {"paper-core": lambda: builtin_suite("paper-core", SEED),
          "verify-mc": lambda: _parse_suite(_mc_lines(), SEED, "verify-mc")}


def _reports(suite: str) -> list:
    return [r.to_json_dict() for r in run_suite(SUITES[suite](), parallelism=2)]


def _record(suite: str) -> pathlib.Path:
    return DATA / f"{suite}-seed{SEED}.json"


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if want is None or got is None:
        return got is want
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_matches_its_golden_record(suite):
    want = json.loads(_record(suite).read_text(encoding="utf-8"))
    got = _reports(suite)
    assert [r["check"] for r in got] == [r["check"] for r in want]
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if k not in NUMBERS} == \
            {k: v for k, v in w.items() if k not in NUMBERS}
        for key in NUMBERS:
            assert _close(g[key], w[key]), (w["check"], key, g[key], w[key])


if __name__ == "__main__":
    for name in SUITES:
        _record(name).write_text(json.dumps(_reports(name), indent=2) + "\n", encoding="utf-8")
