import os

import pytest
from hypothesis import settings

ACCEPTANCE_LINES = []


def record_criterion(num: int, ok: bool, detail: str):
    """Queue one pass/fail line per acceptance criterion for the summary."""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Property tests draw the same examples on every run and keep no example
# database: a failure reproduces from the test alone.
settings.register_profile("elicit", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("elicit")


@pytest.fixture
def no_child_is_left():
    """After the test, this process has no child, and no zombie, left."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
