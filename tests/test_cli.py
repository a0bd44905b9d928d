import csv
import json
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from elicit import cli, evaluation, nse
from elicit.cli import _read_csv, main


def write_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def zy_file(tmp_path):
    def make(z, y, name="data.csv"):
        return write_csv(tmp_path / name, list(zip(y, z)), ["y", "z"])
    return make


class TestCatalog:
    @pytest.mark.parametrize("fmt,record", [("text", "catalog.txt"), ("json", "catalog.json")])
    def test_output_matches_its_golden_record(self, tmp_path, fmt, record):
        """Any change to a domain, codomain, orientation or encoding string
        changes these bytes."""
        out = tmp_path / record
        assert main(["catalog", "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (pathlib.Path(__file__).with_name("data") / record).read_bytes()

    def test_text_has_enough_rows(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        bij_lines = [l for l in out.splitlines()
                     if l.startswith("  ") and "elicits" in l]
        assert len(bij_lines) >= 12

    def test_json_box_cox_entry(self, capsys):
        assert main(["catalog", "--format", "json", "--family", "bijections"]) == 0
        rows = json.loads(capsys.readouterr().out)
        entry = next(r for r in rows if r["name"] == "box-cox")
        assert "exp(E[log y])" in entry["functional"]
        assert "E[y^a]^(1/a)" in entry["functional"]

    def test_seven_score_families(self, capsys):
        assert main(["catalog", "--format", "json", "--family", "scores"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 7


class TestScoreCommand:
    def test_perfect_prediction(self, zy_file, capsys):
        path = zy_file([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert main(["score", "--score", "se", "--data", path,
                     "--skill", "climatology"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_score"] == 0.0
        assert payload["skill"] == 1.0

    def test_skill_scores_the_model_once(self, zy_file, capsys, monkeypatch):
        rows = []
        average_score = evaluation.average_score

        def counted(spec, z, y):
            rows.append(np.asarray(z).tolist())
            return average_score(spec, z, y)

        monkeypatch.setattr(cli, "average_score", counted)
        monkeypatch.setattr(evaluation, "average_score", counted)
        path = zy_file([1.5, 2.0, 2.5], [1.0, 2.0, 4.0])
        assert main(["score", "--score", "se", "--data", path, "--skill", "climatology"]) == 0
        assert rows == [[1.5, 2.0, 2.5], [7.0 / 3.0] * 3]  # the model's, then the reference's
        assert json.loads(capsys.readouterr().out)["skill"] == pytest.approx(nse([1.5, 2.0, 2.5],
                                                                                 [1.0, 2.0, 4.0]))

    def test_a_reference_of_zero_average_score_exits_3(self, zy_file, capsys):
        path = zy_file([1.0, 3.0], [2.0, 2.0])
        assert main(["score", "--score", "se", "--data", path, "--skill", "climatology"]) == 3
        assert "reference predictions have zero average score" in capsys.readouterr().err

    def test_climatology_skill_reproduces_nse(self, zy_file, capsys):
        rng = np.random.default_rng(3)
        y = rng.uniform(1, 5, 40)
        z = y + rng.normal(0, 0.7, 40)
        path = zy_file(z.tolist(), y.tolist())
        assert main(["score", "--score", "se", "--data", path,
                     "--skill", "climatology"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skill"] == pytest.approx(nse(z, y), abs=1e-12)

    def test_g_climatology_reference_scores_zero(self, zy_file, capsys):
        # prediction equal to the geometric-mean reference has zero skill
        path = zy_file([2.0, 2.0], [1.0, 4.0])
        assert main(["score", "--score", "se@both:log", "--data", path,
                     "--skill", "g-climatology"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skill"] == 0.0
        assert payload["reference_value"] == 2.0

    @pytest.mark.parametrize("mode", ["realization", "prediction", "both"])
    def test_g_climatology_is_the_score_optimal_constant(self, zy_file, capsys, mode):
        y = np.random.default_rng(5).lognormal(0.0, 1.0, 1000)
        path = zy_file((1.1 * y).tolist(), y.tolist())
        score = f"se@{mode}:log"
        assert main(["score", "--score", score, "--data", path,
                     "--skill", "g-climatology"]) == 0
        ref = json.loads(capsys.readouterr().out)["reference_value"]
        assert main(["fit", "--model", "constant", "--score", score, "--data", path]) == 0
        theta = json.loads(capsys.readouterr().out)["theta"][0]
        exact = {"realization": np.mean(np.log(y)), "prediction": np.log(np.mean(y)),
                 "both": np.exp(np.mean(np.log(y)))}[mode]
        assert ref == pytest.approx(exact, rel=1e-12)
        # the bracketed minimizer resolves smooth non-quadratic objectives
        # to about 1e-7 relative
        assert ref == pytest.approx(theta, rel=1e-7)

    def test_g_climatology_requires_transform(self, zy_file, capsys):
        path = zy_file([1.0], [1.0])
        assert main(["score", "--score", "se", "--data", path,
                     "--skill", "g-climatology"]) == 2
        assert "--skill g-climatology requires a transformed --score" in capsys.readouterr().err

    @pytest.mark.parametrize("skill", ["climatology", "g-climatology"])
    def test_skill_of_mean_variance_score_is_a_usage_error(self, tmp_path, capsys, skill):
        path = write_csv(tmp_path / "mv.csv", [[0.0, 0.0, 1.0]], ["y", "z", "x2"])
        assert main(["score", "--score", "mv@realization:log", "--data", path,
                     "--skill", skill]) == 2
        assert "--skill takes a scalar-prediction --score" in capsys.readouterr().err

    def test_missing_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", [[1.0]], ["y"])
        assert main(["score", "--score", "se", "--data", path]) == 2
        # a byte-order mark is part of the first name
        path = write_text(tmp_path / "bom.csv", "\ufeffy,z\n1,2\n")
        assert main(["score", "--score", "se", "--data", path]) == 2
        assert f"{path}: missing column(s) ['y']; found ['\\ufeffy', 'z']" in capsys.readouterr().err

    def test_unparsable_cell_reports_row(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", [[1.0, 1.0], ["oops", 2.0]], ["y", "z"])
        assert main(["score", "--score", "se", "--data", path]) == 2
        assert "row 3" in capsys.readouterr().err
        for body, message in [
            ("1,2\n3\n", "row 3: cannot parse z=None"),  # short row
            ("1,\n", "row 2: cannot parse z=''"),
            ("#1,2\n", "row 2: cannot parse y='#1'"),  # no comment lines
            ("1,0x10\n", "row 2: cannot parse z='0x10'"),
            ("1,2\n\n  ,3\n", "row 3: cannot parse y='  '"),  # blank lines not counted
            ('1,2\n1, "2"\n', "row 3: cannot parse z=' \"2\"'"),  # quotes open a cell only
            ("1_000,1\n" + "1,2\n" * 3000 + "oops,1\n", "row 3003: cannot parse y='oops'"),
        ]:
            path = write_text(tmp_path / "bad.csv", "y,z\n" + body)
            assert main(["score", "--score", "se", "--data", path]) == 2
            assert f"{path}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, capsys, cell):
        path = write_csv(tmp_path / "bad.csv", [[1.0, 1.0], [2.0, cell]], ["y", "z"])
        assert main(["score", "--score", "se", "--data", path]) == 2
        assert "row 3: non-finite z=" in capsys.readouterr().err
        path = write_csv(tmp_path / "bad_y.csv", [[cell]], ["y"])
        assert main(["fit", "--model", "constant", "--score", "se", "--data", path]) == 2
        assert "row 2: non-finite y=" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_result_exits_3_not_invalid_json(self, zy_file, capsys):
        # finite cells whose squared error overflows to infinity
        path = zy_file([-1e200], [1e200])
        assert main(["score", "--score", "se", "--data", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err

    def test_transform_overflow_names_the_row(self, tmp_path, capsys):
        # exp(exp(6.7)) overflows in the inner transformation of row index 1
        path = write_text(tmp_path / "f.csv", "y,z\n1.0,2.0\n2.0,6.7\n3.0,1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["score", "--score", "gpl:tau=0.2:g=exp@prediction:log",
                         "--data", path]) == 3
        err = capsys.readouterr().err
        assert "index 1," in err and "forward of exp" in err

    def test_domain_violation_exit_code(self, zy_file, capsys):
        path = zy_file([1.0, 1.0], [1.0, -4.0])
        assert main(["score", "--score", "se@both:log", "--data", path]) == 3

    def test_bad_value_names_the_file_row(self, tmp_path, capsys):
        # the header is row 1 and a blank line is not counted
        path = write_text(tmp_path / "f.csv", "y,z\n1.0,1.0\n\n2.0,-1.0\n-4.0,1.0\n")
        assert main(["score", "--score", "se@both:log", "--data", path]) == 3
        assert capsys.readouterr().err == (f"error: {path}: row 3: value -1.0 outside domain "
                                           "(0, inf) of index 1, forward of log\n")
        for model in ("constant", "mvpair"):
            score = "mv@realization:log" if model == "mvpair" else "se@both:log"
            assert main(["fit", "--model", model, "--score", score, "--data", path]) == 3
            assert capsys.readouterr().err == (f"error: {path}: row 4: value -4.0 outside "
                                               "domain (0, inf) of observation index 2\n")

    def test_error_of_the_fit_search_names_no_row(self, tmp_path, capsys):
        # the squared half range underflows: the search's first pairs have
        # variance 0, at its own position 0, not at a data row
        path = write_csv(tmp_path / "tiny.csv", [[0.0], [1e-200]], ["y"])
        assert main(["fit", "--model", "mvpair", "--score", "mv", "--data", path]) == 3
        assert capsys.readouterr().err.startswith("error: value 0.0 outside domain of mean-var")

    def test_bad_score_spec(self, zy_file):
        path = zy_file([1.0], [1.0])
        assert main(["score", "--score", "nope", "--data", path]) == 2

    @pytest.mark.parametrize("score, message", [
        ("expectile:tau=0.3:g=log", "expectile takes no g"), ("se:tau=0.3", "se takes no tau"),
        ("expectile:tau=0.5:phi=wat", "unknown convex generator 'wat'"),
        ("gpl:tau=0.5", "gpl requires g"), ("bregman:tau=0.5", "bregman takes no tau")])
    def test_option_the_family_does_not_take_exits_2(self, zy_file, capsys, score, message):
        path = zy_file([1.0, 2.0], [2.0, 2.0])
        assert main(["score", "--score", score, "--data", path]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_mv_needs_x2_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "mv.csv", [[0.0, 0.0, 1.0]], ["y", "z", "x2"])
        assert main(["score", "--score", "mv", "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["average_score"] == pytest.approx(-2.0)


class TestCsvInput:
    """What ``score``/``fit`` accept as CSV: every file read gives the
    arrays ``float`` gives cell by cell."""

    @pytest.mark.parametrize("text, y, z", [
        ('"y","z"\n"1","2"\n', [1.0], [2.0]),  # quoted header and cells
        ("y,z\r\n1,2\r\n3,4\r\n", [1.0, 3.0], [2.0, 4.0]),
        ("y,z,w\n1,2,3\n", [1.0], [2.0]),
        ("y,z\n1,2,3,4\n5,6\n", [1.0, 5.0], [2.0, 6.0]),  # ragged extra cells
        ("y,z\n\n1,2\n\n3,4\n\n\n", [1.0, 3.0], [2.0, 4.0]),
        ("z,y\n2,1\n", [1.0], [2.0]),
        ('name,y,z\nabc,1,2\n"a,\nb",3,4\n', [1.0, 3.0], [2.0, 4.0]),
        ("w,y,z,w\na,1,2,b\n", [1.0], [2.0]),  # a repeated column that is not read
        ("y,z\n+1,.5\n4e0,-0.\n", [1.0, 4.0], [0.5, -0.0]),
        ("y,z\n 1 ,\t2\n", [1.0], [2.0]),
        ("y,z\n1_000,2\n", [1000.0], [2.0]),  # a form only float takes
    ])
    def test_accepted_forms(self, tmp_path, text, y, z):
        data = _read_csv(write_text(tmp_path / "ok.csv", text), ["y", "z"])
        for got, want in ((data["y"], y), (data["z"], z)):
            assert got.flags.c_contiguous
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("text, message", [
        ("", "missing header row"),
        ("y,z\n", "no data rows"),
        ("y,z\n\n\r\n", "no data rows"),
        ("y,z,y\n1,2,10\n", "repeated column(s) ['y']; found ['y', 'z', 'y']"),
        ("y\n1" + " " * 140000 + "\n#\n", "field larger than field limit"),
    ])
    def test_rejected_files(self, tmp_path, capsys, text, message):
        path = write_text(tmp_path / "bad.csv", text)
        assert main(["fit", "--model", "constant", "--score", "se", "--data", path]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", cli._COMPRESSED)
    def test_a_compressed_suffix_is_only_a_name(self, tmp_path, suffix):
        # numpy decompresses a file it is given by such a name
        data = _read_csv(write_text(tmp_path / f"f{suffix}", 'y,"z\nq"\n1,2\n'), ["y", "z\nq"])
        assert (data["y"].tolist(), data["z\nq"].tolist()) == ([1.0], [2.0])

    def test_the_compressed_suffixes_are_numpys(self):
        from numpy.lib import _datasource
        assert set(cli._COMPRESSED) == set(_datasource._file_openers.keys()) - {None}

    def test_a_pipe_reads_as_the_file_does(self, tmp_path):
        # the header's read takes a whole buffer from a pipe, well into the
        # body; a second open of the pipe would start past it
        text = 'y,"z\nq"\n' + "".join(f"{i},{i / 4}\n" for i in range(3000))
        want = _read_csv(write_text(tmp_path / "f.csv", text), ["y", "z\nq"])
        r, w = os.pipe()
        try:
            os.write(w, text.encode())  # under the pipe's 64 KiB capacity
            os.close(w)
            got = _read_csv(f"/dev/fd/{r}", ["y", "z\nq"])
        finally:
            os.close(r)
        assert [got[c].tobytes() for c in want] == [want[c].tobytes() for c in want]
        assert len(want["y"]) == 3000

    @pytest.mark.parametrize("cell, code, message", [
        ("1_000", 0, '"average_score": 497005.0'),
        ("abc", 2, "/dev/stdin: row 3: cannot parse y='abc'")])
    def test_a_piped_body_numpy_rejects_is_read_again(self, cell, code, message):
        # the fallback parses the body a second time, which a pipe cannot give
        proc = subprocess.run([sys.executable, "-m", "elicit", "score", "--score", "se",
                               "--data", "/dev/stdin"], input=f"y,z\n1,2\n{cell},3\n",
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert message in (proc.stdout if code == 0 else proc.stderr)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_not_utf8_is_a_data_error(self, tmp_path, capsys, rows):
        # with 5000 rows the bad byte lies past the first block read
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,z\n" + b"1,2\n" * rows + b"3,\xff4\n")
        assert main(["score", "--score", "se", "--data", str(path)]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=30))
    @example([(-0.0, 5e-324), (1.7976931348623157e308, -1.7976931348623157e308),
              (2.2250738585072014e-308, -2.225073858507201e-308)])
    def test_repr_roundtrip_is_bit_identical(self, tmp_path_factory, pairs):
        y, z = (np.array(col) for col in zip(*pairs))
        text = "y,z\n" + "".join(f"{a!r},{b!r}\n" for a, b in pairs)
        data = _read_csv(write_text(tmp_path_factory.mktemp("rt") / "f.csv", text), ["y", "z"])
        assert data["y"].tobytes() == y.tobytes() and data["z"].tobytes() == z.tobytes()


NUMBER_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.integers(-10**18, 10**18).map(str),
                         st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-300, 300)))


@st.composite
def csv_files(draw):
    """Files with columns y and z, maybe a third, in any order: quoted or
    bare names (the third may hold a line break), one line ending, blank
    lines, quoted or bare number cells, and a final line ending or not."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    names = draw(st.permutations(["y", "z", *draw(st.sampled_from([[], ["w"],
                                                                  [f"note{eol}here"]]))]))
    quote = st.booleans()
    cell = lambda text: f'"{text}"' if draw(quote) or eol in text else text  # noqa: E731
    lines = [",".join(cell(name) for name in names)]
    for _ in range(draw(st.integers(1, 20))):
        lines.append(",".join(cell(draw(NUMBER_CELLS)) for _ in names))
        lines += [""] * draw(st.integers(0, 2))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@given(csv_files())
def test_the_block_reader_gives_the_arrays_float_gives(tmp_path_factory, text):
    path = write_text(tmp_path_factory.mktemp("blocks") / "f.csv", text)
    with mock.patch.object(cli, "_read_rows", side_effect=AssertionError("fell back")):
        got = _read_csv(path, ["y", "z"])
    with open(path, encoding="utf-8", newline="") as fh:
        positions, _ = cli._read_header(fh, path, ["y", "z"])
        want = cli._read_rows(fh, path, ["y", "z"], positions)
    assert [got["y"].tobytes(), got["z"].tobytes()] == [w.tobytes() for w in want]


class TestFitCommand:
    def test_constant_se(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0]], ["y"])
        assert main(["fit", "--model", "constant", "--score", "se",
                     "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"][0] == pytest.approx(2.0, abs=1e-9)
        assert payload["converged"]

    def test_constant_median(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [100.0]], ["y"])
        assert main(["fit", "--model", "constant", "--score", "apl:tau=0.5",
                     "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"][0] == pytest.approx(2.0, abs=1e-6)

    def test_constant_geometric_mean(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [4.0]], ["y"])
        assert main(["fit", "--model", "constant", "--score", "se@both:log",
                     "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"][0] == pytest.approx(2.0, abs=1e-6)

    def test_linear(self, tmp_path, capsys):
        x = np.linspace(0, 1, 20)
        path = write_csv(tmp_path / "xy.csv",
                         [[yi, xi] for xi, yi in zip(x, 2 * x)], ["y", "x"])
        assert main(["fit", "--model", "linear", "--score", "se",
                     "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"][1] == pytest.approx(2.0, abs=1e-6)

    def test_mvpair(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        y = rng.normal(1.0, 2.0, 500)
        path = write_csv(tmp_path / "y.csv", [[v] for v in y], ["y"])
        assert main(["fit", "--model", "mvpair", "--score", "mv",
                     "--data", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta"][0] == pytest.approx(float(y.mean()), abs=0.01)
        assert payload["theta"][1] == pytest.approx(float(y.var()), rel=0.01)

    @pytest.mark.parametrize("rows", [[[5.0]], [[2.0], [2.0], [2.0]]])
    def test_mvpair_on_zero_spread_exits_3(self, tmp_path, capsys, rows):
        path = write_csv(tmp_path / "y.csv", rows, ["y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--model", "mvpair", "--score", "mv", "--data", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "zero spread" in captured.err
        assert "Warning" not in captured.err

    def test_linear_on_constant_x_exits_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "xy.csv", [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]], ["y", "x"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--model", "linear", "--score", "se", "--data", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "two distinct x values" in captured.err

    @pytest.mark.parametrize("model, score", [
        ("constant", "mv"), ("linear", "mv"), ("mvpair", "se"), ("mvpair", "apl:tau=0.5")])
    def test_model_and_score_mismatch_is_a_usage_error(self, tmp_path, capsys, model, score):
        path = write_csv(tmp_path / "xy.csv", [[1.0, 0.0], [2.0, 1.0]], ["y", "x"])
        assert main(["fit", "--model", model, "--score", score, "--data", path]) == 2
        err = capsys.readouterr().err
        assert f"--model {model} does not take --score {score}" in err
        assert "--model mvpair" in err


class TestCurveCommand:
    def test_minimum_near_truth_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--score", "se", "--dist", "normal(0,1)",
                     "--bracket=-2,2", "--points", "41", "--n", "20000",
                     "--seed", "5", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        zs = np.array([float(r["z"]) for r in rows])
        means = np.array([float(r["escore"]) for r in rows])
        ses = np.array([float(r["stderr"]) for r in rows])
        # lossless float round-trip through the CSV
        assert np.array_equal(zs, np.linspace(-2.0, 2.0, 41))
        assert abs(zs[int(np.argmin(means))]) <= 0.2
        assert np.all(ses > 0)
        # convexity of the squared-error curve: second differences >= -noise
        second = means[2:] - 2 * means[1:-1] + means[:-2]
        assert np.all(second >= -3 * ses[1:-1].max())

    def test_pinball_minimum_near_quantile(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--score", "apl:tau=0.9", "--dist", "uniform(0,1)",
                     "--bracket", "0.5,0.999", "--points", "41", "--n", "40000",
                     "--seed", "6", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        zs = [float(r["z"]) for r in rows]
        means = [float(r["escore"]) for r in rows]
        assert abs(zs[int(np.argmin(means))] - 0.9) <= 0.05


    @pytest.mark.parametrize("args, flag", [
        (["--bracket", "1"], "--bracket"),
        (["--bracket", "a,b"], "--bracket"),
        (["--bracket", "2,1"], "--bracket"),
        (["--bracket=-1,1", "--n", "1"], "--n"),
        (["--bracket=-1,1", "--points", "0"], "--points"),
        (["--bracket=-1,1", "--seed", "-1"], "--seed"),
    ])
    def test_bad_argument_exit_2_names_flag(self, tmp_path, capsys, args, flag):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--score", "se", "--dist", "normal(0,1)", *args,
                     "--out", str(out)]) == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_mean_variance_score_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--score", "mv", "--dist", "normal(0,1)", "--bracket", "0,1",
                     "--out", str(out)]) == 2
        assert "--score mv" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_smoke_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--suite", "builtin:smoke", "--seed", "11",
                     "--out", str(f1)]) == 0
        assert main(["verify", "--suite", "builtin:smoke", "--seed", "11",
                     "--jobs", "4", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        reports = json.loads(f1.read_text())
        assert all(r["pass"] for r in reports)
        assert all(r["ms"] == 0.0 for r in reports)

    def test_seed_changes_estimates(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--suite", "builtin:smoke", "--seed", "1", "--out", str(f1)])
        main(["verify", "--suite", "builtin:smoke", "--seed", "2", "--out", str(f2)])
        assert f1.read_bytes() != f2.read_bytes()

    def test_failing_check_sets_exit_code(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text(
            "name=wrong kind=consistency dist=normal(0,1) score=se "
            "functional=mean target=1.0 bracket=-2,2 n=20000 points=41\n")
        out = tmp_path / "r.json"
        assert main(["verify", "--suite", str(suite), "--seed", "3",
                     "--out", str(out)]) == 1
        reports = json.loads(out.read_text())
        assert reports[0]["pass"] is False

    def test_expected_fail_passes_suite(self, tmp_path):
        suite = tmp_path / "suite.txt"
        suite.write_text(
            "name=flat kind=strictness dist=empirical(1,1,2,2) "
            "score=gpl:tau=0.5:g=identity functional=quantile:tau=0.5 "
            "bracket=0.5,2.5 n=10000 points=51 expect=fail\n")
        assert main(["verify", "--suite", str(suite), "--seed", "3"]) == 0

    def test_check_raising_non_package_error_exits_1_with_valid_json(self, tmp_path, capsys):
        from elicit import ConvexGenerator, register_convex_generator

        def broken(t):
            raise ZeroDivisionError("phi divides by zero")

        register_convex_generator(ConvexGenerator("broken-cli", phi=broken, dphi=broken))
        suite = tmp_path / "suite.txt"
        suite.write_text(
            "name=boom kind=consistency dist=normal(0,1) "
            "score=expectile:tau=0.5:phi=broken-cli functional=mean bracket=-2,2 "
            "n=20000 points=41\n"
            "name=fine kind=consistency dist=normal(0,1) score=se functional=mean "
            "bracket=-2,2 n=20000 points=41 tol_abs=0.05\n")
        out = tmp_path / "r.json"
        assert main(["verify", "--suite", str(suite), "--seed", "3", "--out", str(out)]) == 1

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        reports = json.loads(out.read_text(), parse_constant=reject)
        assert [r["check"] for r in reports] == ["boom", "fine"]
        assert reports[0]["error"] == {"type": "ZeroDivisionError",
                                       "message": "phi divides by zero"}
        assert reports[0]["estimate"] is None and reports[0]["target"] is None
        assert reports[1]["pass"] and "error" not in reports[1]

    @pytest.mark.parametrize("bad", [
        "expect=passs", "n=inf", "n=20000.7", "tol_abs=nan", "tol_rel=-0.1", "seed=-3",
        "points=41.5", "bracket=2,1",
        # kind preconditions
        "kind=pair bracket2=1,2", "score=mv kind=pair bracket2=0,2", "score=mv",
        "score=mv kind=strictness", "kind=identification ident=mv",
        "kind=revelation g=exp score=se@both:log",
        "kind=realization g=log score=se@realization:exp", "score=mv kind=realization g=log",
        # keys the kind does not take
        "g=exp", "kind=strictness g=exp", "bracket2=1,2", "kind=realization g=log bracket2=1,2",
        "ident=mean", "kind=identification ident=mean score=ae",
        "kind=identification ident=mean bracket2=1,2",
        # options the family or kind does not take
        "functional=mean:g=log", "functional=quantile:tau=0.5:phi=square", "score=se:tau=0.3",
        "score=expectile:tau=0.3:g=log", "kind=identification ident=mean:tau=0.5"])
    def test_bad_suite_value_exit_2_names_line(self, tmp_path, capsys, bad):
        tokens = {"name": "c", "kind": "consistency", "dist": "normal(0,1)", "score": "se",
                  "functional": "mean", "bracket": "-2,2", "n": "20000", "points": "41"}
        tokens.update(token.split("=", 1) for token in bad.split())
        if tokens["kind"] == "identification" and "score=" not in bad:
            del tokens["score"]
        suite = tmp_path / "suite.txt"
        suite.write_text("# header\n" + " ".join(f"{k}={v}" for k, v in tokens.items()) + "\n")
        out = tmp_path / "r.json"
        assert main(["verify", "--suite", str(suite), "--out", str(out)]) == 2
        assert "suite.txt:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_suite_exit_2(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("kind=consistency\n")
        assert main(["verify", "--suite", str(suite)]) == 2

    def test_unknown_builtin_exit_2(self):
        assert main(["verify", "--suite", "builtin:wat"]) == 2

    def test_unreadable_suite_file_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.suite"
        assert main(["verify", "--suite", str(missing)]) == 2
        assert f"cannot read suite file {missing}:" in capsys.readouterr().err
        latin1 = tmp_path / "latin1.suite"
        latin1.write_bytes(b"# caf\xe9\n")
        assert main(["verify", "--suite", str(latin1)]) == 2
        assert f"{latin1}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        assert main(["verify", "--suite", "builtin:smoke", "--jobs", jobs]) == 2
        assert "argument --jobs:" in capsys.readouterr().err

    def test_timings_flag_breaks_byte_identity_only(self, tmp_path):
        f1 = tmp_path / "a.json"
        assert main(["verify", "--suite", "builtin:smoke", "--seed", "11",
                     "--timings", "--out", str(f1)]) == 0
        reports = json.loads(f1.read_text())
        assert any(r["ms"] > 0 for r in reports)


class TestSeedEnvVar:
    def test_elicit_seed_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ELICIT_SEED", "11")
        f_env = tmp_path / "env.json"
        assert main(["verify", "--suite", "builtin:smoke", "--out", str(f_env)]) == 0
        f_flag = tmp_path / "flag.json"
        monkeypatch.delenv("ELICIT_SEED")
        assert main(["verify", "--suite", "builtin:smoke", "--seed", "11",
                     "--out", str(f_flag)]) == 0
        assert f_env.read_bytes() == f_flag.read_bytes()

    def test_bad_seed_is_a_usage_error_where_a_seed_is_read(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "builtin:smoke", "--seed", "-1"]) == 2
        assert "argument --seed:" in capsys.readouterr().err
        monkeypatch.setenv("ELICIT_SEED", "abc")
        assert main(["verify", "--suite", "builtin:smoke"]) == 2
        assert "argument --seed:" in capsys.readouterr().err
        assert main(["catalog", "--family", "scores"]) == 0


def test_usage_error_exit_code():
    assert main(["score"]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_start_up_imports_no_scipy(tmp_path):
    # scipy's import costs a process about half a second, and no command
    # needs it: not at start-up, and not in the linear fit's simplex search
    path = write_csv(tmp_path / "xy.csv", [[1.0 + 0.5 * v + (-1) ** v, v] for v in range(20)],
                     ["y", "x"])
    scipy = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    code = (f"import sys, elicit.cli; {scipy}; "
            f"code = elicit.cli.main(['fit', '--model', 'linear', '--score', 'apl:tau=0.5', "
            f"'--data', {path!r}, '--out', {str(tmp_path / 'fit.json')!r}]); {scipy}; print(code)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["[]", "[]", "0", ""]
    assert json.loads((tmp_path / "fit.json").read_text())["converged"]
    # nor do score and fit run the modules of the other commands, or compile
    # them: the package holds each submodule in sys.modules unexecuted until
    # it is first read, so a module ran once it is a plain module
    zy = write_csv(tmp_path / "zy.csv", [[1.0 + v, 1.5 + v] for v in range(5)], ["y", "z"])
    calls = [["fit", "--model", "constant", "--score", "se@both:log", "--data", zy],
             ["score", "--score", "se@both:log", "--skill", "g-climatology", "--data", zy],
             ["score", "--score", "apl:tau=0.9", "--skill", "climatology", "--data", zy]]
    assert _modules_run(calls, tmp_path, NOT_RUN_BY_SCORE_OR_FIT) == []


# Modules that score and fit do not run: each costs a process its import.
NOT_RUN_BY_SCORE_OR_FIT = ("elicit.verify", "elicit.functionals", "elicit.identification",
                           "elicit.distributions", "concurrent.futures", "numpy.random",
                           "numpy.ma")


def _modules_run(calls, tmp_path, watched) -> list:
    """The modules of ``watched`` that ran in one fresh process making the
    CLI calls ``calls``, each of which must exit 0."""
    out = str(tmp_path / "out.json")
    code = (f"import sys, types, elicit.cli\n"
            f"for argv in {calls!r}:\n"
            f"    assert elicit.cli.main([*argv, '--out', {out!r}]) == 0, argv\n"
            f"print([m for m in {watched!r} if type(sys.modules.get(m)) is types.ModuleType])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.replace("'", '"'))


def test_a_serial_verify_run_starts_no_pool_and_imports_no_masked_arrays(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("kind=consistency dist=normal(0,1) score=se functional=mean bracket=-2,2 "
                     "n=10000\n"
                     "kind=consistency dist=normal(0,1) score=ae functional=quantile:tau=0.5 bracket=-2,2 "
                     "n=10000\n")
    calls = [["verify", "--suite", str(suite), "--jobs", "1"]]
    assert _modules_run(calls, tmp_path, ("numpy.ma", "concurrent.futures")) == []
