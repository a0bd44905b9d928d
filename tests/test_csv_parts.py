"""The parted parse of a large CSV body (``cli._parts``, ``cli._parse``):
a body cut into parts by row count, each later part parsed in a forked
child, gives the arrays, the errors and the output of the one-part parse,
bit for bit, and leaves no child behind.

The part size is patched down to tens or hundreds of bytes and the CPU
count to 2 or 3, so that small files take the parted path."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elicit import cli
from elicit.errors import DataError

NUMBER_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.integers(-10**18, 10**18).map(str),
                         st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-30, 30)))
NAMES = ["a", "b", "c"]


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    with pytest.raises(ChildProcessError):  # no child, and no zombie, is left
        os.waitpid(-1, os.WNOHANG)


def _outcome(path, columns):
    """The arrays' bytes ``_read_csv`` gives, or the message of its DataError."""
    try:
        return [a.tobytes() for a in cli._read_csv(path, columns).values()]
    except DataError as exc:
        return str(exc)


def _one_part(path, columns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_cpus", lambda: 1)
        return _outcome(path, columns)


def _parted(path, columns, cpus, part_bytes=64):
    """``_outcome`` with ``cpus`` CPUs and parts of ``part_bytes``, and the
    (k, h) that ``_parts`` chose."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_cpus", lambda: cpus)
        mp.setattr(cli, "_PART_BYTES", part_bytes)
        with open(path, encoding="utf-8", newline="") as fh:
            fh.readline()
            chosen = cli._parts(fh, 1)
        return _outcome(path, columns), chosen


def _write(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parts") / "f.csv"
    path.write_bytes(text.encode())
    return str(path)


@st.composite
def plain_bodies(draw, min_rows=20):
    """(text, columns read): 1-3 columns of number cells, one row a line,
    under a header of one line whose names may be quoted."""
    width = draw(st.integers(1, 3))
    rows = [",".join(draw(NUMBER_CELLS) for _ in range(width))
            for _ in range(draw(st.integers(min_rows, 120)))]
    used = draw(st.lists(st.sampled_from(NAMES[:width]), min_size=1, max_size=width,
                         unique=True))
    header = ",".join(f'"{name}"' if draw(st.booleans()) else name for name in NAMES[:width])
    text = header + "\n" + "\n".join(rows) + draw(st.sampled_from(["", "\n"]))
    return text, used


@settings(max_examples=60, deadline=None)
@given(plain_bodies(), st.sampled_from([2, 3]), st.integers(32, 600))
def test_the_parted_arrays_are_the_one_part_arrays(tmp_path_factory, body, cpus, part_bytes):
    text, used = body
    path = _write(tmp_path_factory, text)
    got, (parts, _) = _parted(path, used, cpus, part_bytes)
    assert got == _one_part(path, used)
    body_bytes = len(text.encode()) - text.index("\n") - 1
    assert parts == max(1, min(cpus, body_bytes // part_bytes))


@settings(max_examples=40, deadline=None)
@given(plain_bodies(min_rows=60), st.sampled_from([2, 3]),
       st.sampled_from(['"', "\r", "empty-first", "empty-inside", "whitespace"]),
       st.data())
def test_irregular_bodies_give_what_one_part_gives(tmp_path_factory, body, cpus, kind, data):
    text, used = body
    header, rest = text.split("\n", 1)
    lines = rest.split("\n")
    at = data.draw(st.integers(0, max(0, len(lines) // 3)))  # inside the first part
    if kind == '"':
        cells = lines[at].split(",")
        cells[0] = f'"{cells[0]}"'
        lines[at] = ",".join(cells)
    elif kind == "\r":
        lines[at] += "\r"
    elif kind == "empty-first":
        lines.insert(0, "")
    elif kind == "empty-inside":
        lines.insert(at, "")
    else:
        lines.insert(at, data.draw(st.sampled_from([" ", "\t", "  \t "])))
    path = _write(tmp_path_factory, header + "\n" + "\n".join(lines))
    got, (parts, _) = _parted(path, used, cpus)
    assert got == _one_part(path, used)
    assert (parts > 1) == (kind == "whitespace")  # numpy rejects a blank cell as it stands


@settings(max_examples=30, deadline=None)
@given(plain_bodies(min_rows=60), st.sampled_from([2, 3]), st.data())
def test_a_bad_cell_in_the_last_part_names_the_same_row(tmp_path_factory, body, cpus, data):
    text, used = body
    header, rest = text.split("\n", 1)
    lines = rest.rstrip("\n").split("\n")
    bad = data.draw(st.integers(len(lines) - len(lines) // 4, len(lines) - 1))
    cells = lines[bad].split(",")
    cells[NAMES.index(used[0])] = "abc"
    lines[bad] = ",".join(cells)
    path = _write(tmp_path_factory, header + "\n" + "\n".join(lines) + "\n")
    got, (parts, _) = _parted(path, used, cpus)
    assert parts > 1
    assert got == _one_part(path, used) == f"{path}: row {bad + 2}: cannot parse {used[0]}='abc'"


@settings(max_examples=30, deadline=None)
@given(st.integers(20, 200), st.integers(20, 200), st.sampled_from([2, 3]))
def test_unequal_line_lengths_lose_no_row(tmp_path_factory, short, long, cpus):
    # the first lines are short, so their mean sizes h for far more rows than
    # the body holds: h overshoots the first part, and later parts are empty
    rows = [f"{i},1" for i in range(short)] + [f"{i}.{'7' * 60},{i}e-5" for i in range(long)]
    path = _write(tmp_path_factory, "a,b\n" + "\n".join(rows) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SAMPLE_BYTES", 64)
        got, (parts, rows_a_part) = _parted(path, ["a", "b"], cpus)
    assert parts > 1 and rows_a_part * (parts - 1) > short
    assert got == _one_part(path, ["a", "b"])
    assert len(got[0]) == 8 * (short + long)


def _big_file(tmp_path, rows=400):
    text = "y,z\n" + "".join(f"{1 + i / 7!r},{1 + i * 1e-3!r}\n" for i in range(rows))
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("failure", ["exit", "memory"])
def test_a_lost_child_leaves_the_parse_to_this_process(tmp_path, monkeypatch, failure):
    path = _big_file(tmp_path)
    want = _one_part(path, ["y", "z"])
    parent, loadtxt = os.getpid(), np.loadtxt

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(9)
            raise MemoryError
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", failing)
    got, (parts, _) = _parted(path, ["y", "z"], 3)
    assert parts == 3 and got == want


def test_a_child_that_dies_mid_column_leaves_the_parse_to_this_process(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    want = _one_part(path, ["y", "z"])
    parent, ascontiguousarray = os.getpid(), np.ascontiguousarray

    def dying(a, *args, **kwargs):  # after the child wrote its row count
        if os.getpid() != parent:
            os._exit(9)
        return ascontiguousarray(a, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", dying)
    got, (parts, _) = _parted(path, ["y", "z"], 2)
    assert parts == 2 and got == want


def test_no_fork_to_spare_is_one_part(tmp_path, monkeypatch):
    path = _big_file(tmp_path)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _parted(path, ["y", "z"], 2)[0] == _one_part(path, ["y", "z"])


def test_the_cli_output_is_the_one_part_output(tmp_path):
    """A child prints nothing, and output this process buffered before the
    fork is written once: stdout and stderr are those of the one-part run."""
    path = _big_file(tmp_path, rows=2000)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    def run(cpus):
        code = ("import os, sys\n"
                "from elicit import cli\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                f"cli._cpus, cli._PART_BYTES = lambda: {cpus}, 4096\n"
                "print('buffered before the parse')\n"
                "sys.stderr.write('stderr before the parse\\n')\n"
                f"code = cli.main(['score', '--score', 'se@both:log', '--data', {path!r}])\n"
                "print(code)\n"
                "print(len(forks))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        *out, forks = proc.stdout.split("\n")[:-1]
        return out, proc.stderr, int(forks)

    parted, one = run(3), run(1)
    assert parted[:2] == one[:2]
    assert (parted[2], one[2]) == (2, 0)
    assert one[0][0] == "buffered before the parse" and one[0][-1] == "0"
