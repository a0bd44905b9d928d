"""The bulk decoder of plain CSV bodies (``elicit.numparse``): each cell
comes back bit for bit as ``float`` reads it, and ``cli._read_csv`` gives
the arrays, or the error, of the chain it replaces (numpy's ``loadtxt``,
then the row-by-row reader) on every body, taken or declined."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elicit import cli, numparse
from elicit.errors import DataError

pytestmark = [pytest.mark.usefixtures("no_child_is_left"),
              pytest.mark.skipif(not numparse.supported(),
                                 reason="the rounding argument needs an x87 long double")]


def _decode(cells):
    """The kernel's column of ``cells``, one a line, under a one-line header."""
    raw = ("v\n" + "\n".join(cells) + "\n").encode()
    got = numparse.columns(raw, 2, len(raw), [0], 1)
    assert got is not None, cells
    return got[0]


def _same(cells):
    want = np.array([float(c) for c in cells])
    assert _decode(cells).tobytes() == want.tobytes(), cells


TABLE = ["9007199254740993", "2.2250738585072011e-308", "2.2250738585072014e-308",
         "4.9406564584124654e-324", "1.7976931348623157e308", "1e23", "-0.0", "0000.5",
         "0.000123456789012345678", "9999999999999999999", "1.8446744073709551615e19",
         "0.1", "-1.5e-5", "1E+16", "123456789012345678901234", "1e-27", "1e27", "1e28",
         "8.98846567431158e307", "1e309", "-1e-400"]


def test_the_rounding_table():
    _same(TABLE)
    _same(["%.18e" % x for x in (0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, 6.02e23)])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=50), st.sampled_from(["{!r}", "{:.18e}", "{:.17g}",
                                                                   "{:.15g}"]))
def test_printed_doubles_decode_as_float_reads_them(values, form):
    _same([form.format(v) for v in values])


@st.composite
def decimals(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=24))
    text = draw(st.sampled_from(["", "-"]))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "." + digits[cut:]
    text += digits
    if draw(st.booleans()):
        power = draw(st.integers(-30, 30))
        text += draw(st.sampled_from("eE")) + ("+" if power >= 0 and draw(st.booleans()) else "")
        text += str(power)
    return text


@settings(max_examples=300, deadline=None)
@given(st.lists(decimals(), min_size=1, max_size=50))
@example(["0.5", "1" * 20 + ".5", "0." + "0" * 23 + "1"])
def test_random_decimals_decode_as_float_reads_them(cells):
    _same(cells)


def _outcome(path, columns):
    """The arrays' bytes ``_read_csv`` gives, or the message of its DataError."""
    try:
        return [a.tobytes() for a in cli._read_csv(path, columns).values()]
    except DataError as exc:
        return str(exc)


def test_the_platform_gate_off_gives_the_same_arrays(tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    path.write_text("y,z\n" + "".join(f"{c},{c}\n" for c in TABLE[:-2]), encoding="utf-8")
    got = _outcome(str(path), ["y", "z"])
    monkeypatch.setattr(numparse, "supported", lambda: False)
    monkeypatch.setattr(numparse, "columns", None)  # never reached with the gate off
    assert _outcome(str(path), ["y", "z"]) == got


ALPHABET = "0123456789.eE+-,\n\r\" _naif"


@st.composite
def bodies(draw):
    """Headers and bodies near the kernel's edge: mostly plain lines of one
    width, with ragged, empty or odd lines, and a final line break or not."""
    width = draw(st.integers(1, 3))
    cell = st.one_of(decimals(), decimals(), st.text(ALPHABET, max_size=6))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.text(ALPHABET.replace("\n", ""), max_size=12)))
        elif kind == 1:
            lines.append(",".join(draw(cell) for _ in range(draw(st.integers(0, 4)))))
        else:
            lines.append(",".join(draw(decimals()) for _ in range(width)))
    header = ",".join("abc"[:width])
    text = header + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    used = draw(st.lists(st.sampled_from("abc"[:width]), min_size=1, max_size=width,
                         unique=True))
    return text, used


def _chain(path, columns):
    """``_outcome`` with the kernel declining every body."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numparse, "columns", lambda *args, **kwargs: None)
        return _outcome(path, columns)


@settings(max_examples=200, deadline=None)
@given(bodies(), st.sampled_from([None, 64]))
def test_taken_and_declined_bodies_give_what_the_chain_gives(tmp_path_factory, body, part_bytes):
    text, used = body
    path = tmp_path_factory.mktemp("edge") / "f.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        if part_bytes:  # a body over two parts' bytes is parted when numpy parses it
            mp.setattr(cli, "_PART_BYTES", part_bytes)
            mp.setattr(cli, "_cpus", lambda: 2)
        assert _outcome(str(path), used) == _chain(str(path), used)


def test_a_pipe_is_decoded_from_its_held_bytes(tmp_path):
    text = "y,z\n" + "".join(f"{i / 7!r},{-i * 1e-3!r}\n" for i in range(500))
    want = _outcome(str(_write(tmp_path, text)), ["y", "z"])
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    try:
        assert _outcome(f"/dev/fd/{r}", ["y", "z"]) == want
    finally:
        os.close(r)


def _write(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("text, message", [
    ("y\n1.5\n1e999\n", "row 3: non-finite y=inf"),
    ("y,z\n1,2\n3\n", "row 3: cannot parse z=None"),
    ("y,z\n1,2\n\n3,x\n", "row 3: cannot parse z='x'"),
])
def test_errors_name_the_row_the_chain_names(tmp_path, text, message):
    path = str(_write(tmp_path, text))
    got = _outcome(path, ["y", "z"] if "z" in text.split("\n")[0] else ["y"])
    assert got == _chain(path, ["y", "z"] if "z" in text.split("\n")[0] else ["y"])
    assert got.endswith(message)
