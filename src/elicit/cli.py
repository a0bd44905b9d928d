"""Command-line interface.

Subcommands: ``catalog`` (list transformations/families and their text
encodings), ``score`` (average score and skill on CSV data), ``fit``
(M-estimation on CSV data), ``verify`` (run a verification suite, emit JSON
reports), ``curve`` (expected-score curve as CSV for plotting).

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 numeric/domain error; ``score`` and ``fit`` name the file row of a value
that fails. The default seed comes from ELICIT_SEED when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import mmap
import os
import signal
import stat
import sys
import warnings

import numpy as np

from . import specs
from .errors import DataError, ElicitError, EvaluationError, SpecParseError
from .scoring import FAMILIES, average_score, family_options, streamed_score_stats
from .transforms import CATALOG_ROWS, catalog, identity

# Each command imports the modules only it runs, so that score and fit do
# not compile verify, functionals, identification or distributions.

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ElicitError):
    """Flags that the subcommand does not take together (exit 2)."""


def _flag(parse):
    """An argparse type from ``parse``: its ValueError becomes a usage error
    naming the flag. argparse converts a string default (ELICIT_SEED for
    --seed) the same way, and only for subcommands that take the flag."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _at_least(least: int):
    def parse(text: str) -> int:
        if int(text) < least:
            raise ValueError(f"expected an integer >= {least}, got {text!r}")
        return int(text)
    return _flag(parse)


# Suffixes by which numpy decompresses a file it is given by name: they
# mirror the keys of numpy.lib._datasource._file_openers.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _numpy_reads_by_path(fh, path: str) -> bool:
    """Whether numpy may open ``path`` afresh and read the same bytes ``fh``
    reads: only a regular file reads the same twice (a pipe's first block is
    gone with ``fh``'s buffer), and only a name without a suffix numpy
    decompresses by is read as it stands."""
    return (stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            and os.path.splitext(path)[1] not in _COMPRESSED)


def _read_header(fh, path: str, columns) -> tuple:
    """Positions of ``columns`` in the header row read from ``fh``, and the
    physical lines the header takes (a quoted name may hold a line break)."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: missing header row")
    missing = [c for c in columns if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {missing}; found {header}")
    repeated = [c for c in columns if header.count(c) > 1]
    if repeated:
        raise DataError(f"{path}: repeated column(s) {repeated}; found {header}")
    return [header.index(c) for c in columns], reader.line_num


def _read_rows(fh, path: str, columns, positions) -> list:
    """Parse the body row by row with ``float``: slow, but it takes every
    form ``float`` takes and names the first bad row (blank lines not
    counted) and column."""
    data = [[] for _ in columns]
    for rownum, row in enumerate(filter(None, csv.reader(fh)), start=2):
        for c, i, values in zip(columns, positions, data):
            cell = row[i] if i < len(row) else None
            try:
                values.append(float(cell))
            except (TypeError, ValueError):
                raise DataError(f"{path}: row {rownum}: cannot parse {c}={cell!r}") from None
    return [np.asarray(v, dtype=float) for v in data]


# Bytes of the body a part takes at least, so a body of fewer than two is
# decoded in one process: in two parts, csv-eval's two-column rows took
# 1.05-1.85x the one-part time on a 2 MiB body, 0.91-1.51x on 4 MiB and
# 0.78-0.80x on 6 MiB (medians of 21 interleaved, two sets, the second CPU
# busy in part of the first; a 2-core Xeon VM). A body's first
# _SAMPLE_BYTES are decoded before any part's process is started.
_PART_BYTES = 3 * 2**20
_SAMPLE_BYTES = 2**16


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _loadtxt(source, skip: int, positions) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, skiprows=skip, encoding="utf-8", delimiter=",",
                          usecols=positions, quotechar='"', comments=None, ndmin=2,
                          dtype=float)


def _decode_part(decode, i: int) -> None:
    """In a forked child: decode part ``i`` and end with status 0, or 1 if
    the part is not plain; any other end (an error, a signal) is a lost
    part. The child never returns into the caller, runs no exit handler
    and flushes no buffer it shares with its parent."""
    status = 2
    try:
        warnings.simplefilter("ignore")
        status = 0 if decode(i) is not None else 1
    finally:
        os._exit(status)


def _parse(data, cuts, positions, width: int) -> list:
    """The columns ``numparse.columns`` decodes from the body
    ``data[cuts[0]:cuts[-1]]``, in the parts between consecutive ``cuts``
    (each after a line break): part 0 in this process, each later one in a
    forked child. The columns are counted out first and made in a map
    shared with the children, and each part is decoded into its own rows
    of them, so no part is copied. A part that is not plain raises
    ValueError; a child that is lost, or that cannot be started, raises
    ChildProcessError. Every child is ended and reaped before this
    returns."""
    from . import numparse

    ends = np.cumsum([0] + [numparse.lines(data, lo, hi) for lo, hi in zip(cuts, cuts[1:])])
    size = int(ends[-1]) * len(positions)
    shared = mmap.mmap(-1, 8 * size or 1)  # anonymous, shared with the children
    table = np.frombuffer(shared, np.float64, size).reshape(len(positions), -1)

    def decode(i):
        rows = [col[ends[i]:ends[i + 1]] for col in table]
        return numparse.columns(data, cuts[i], cuts[i + 1], positions, width, rows)

    children = []  # in part order
    try:
        for i in range(1, len(cuts) - 1):
            try:
                pid = os.fork()
            except OSError as exc:
                raise ChildProcessError(f"cannot start a part's process: {exc}") from exc
            if not pid:
                _decode_part(decode, i)
            children.append(pid)
        if decode(0) is None:
            raise ValueError("a part of the body is not plain")
        while children:
            status = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            del children[0]
            if status == 1:
                raise ValueError("a part of the body is not plain")
            if status:
                raise ChildProcessError(f"a part's process ended with status {status}")
        return list(table)
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)  # one still decoding ends now
                os.waitpid(pid, 0)


def _cuts(data, start: int, parts: int) -> list:
    """Byte offsets that cut ``data[start:]`` into at most ``parts`` parts of
    about equal size, each starting after a line break."""
    cuts = [start]
    for i in range(1, parts):
        at = data.find(b"\n", start + i * (len(data) - start) // parts) + 1
        if not at or at >= len(data):
            break
        if at > cuts[-1]:
            cuts.append(at)
    return cuts + [len(data)]


def _decode(fh, held, skip: int, positions):
    """The body's columns as ``numparse.columns`` decodes them, from the
    pipe's ``held`` bytes or else a read-only map of the regular file
    ``fh``; or None where it declines the body, the platform fails its
    rounding argument, or the header's ``skip`` lines hold a carriage
    return (the line breaks ``csv`` and numpy count may differ there).

    A body of at least two parts of ``_PART_BYTES`` is cut at line breaks
    into one part per CPU this process may use, each decoded by ``_parse``
    (the later ones in forked children), once its first ``_SAMPLE_BYTES``
    are decoded; every part must have the first line's number of
    fields."""
    from . import numparse

    if not numparse.supported():
        return None
    try:
        data = held if held is not None else mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # no map of this file
        return None
    try:
        start = 0
        for _ in range(skip):
            start = data.find(b"\n", start) + 1
        if not start or data.find(b"\r", 0, start) >= 0:
            return None
        first_end = data.find(b"\n", start)
        width = data[start:first_end if first_end >= 0 else len(data)].count(b",") + 1
        parts = min(_cpus(), (len(data) - start) // _PART_BYTES) if hasattr(os, "fork") else 1
        if parts > 1:
            head = data.find(b"\n", min(start + _SAMPLE_BYTES, len(data))) + 1 or len(data)
            if numparse.columns(data, start, head, positions, width) is None:
                return None  # no child is started for a body its first lines rule out
            try:
                return _parse(data, _cuts(data, start, parts), positions, width)
            except ValueError:
                return None
            except ChildProcessError:  # a part was lost: this process decodes them all
                pass
        return numparse.columns(data, start, len(data), positions, width)
    finally:
        if held is None:
            with contextlib.suppress(BufferError):  # a view a traceback still holds
                data.close()


def _read_csv(path: str, columns):
    """Read required columns from a CSV file with a header row.

    ``csv`` reads the header; numpy's C reader parses the body. numpy gets
    the file's path, not the open handle: from a path it reads the file in
    large blocks, from a handle it pulls one line at a time through Python,
    which takes 13-37% more time on a 1e6-row file. The path is made
    absolute, so numpy never takes it for a URL. A pipe, or a name with a
    suffix numpy would decompress by, goes as a handle, which numpy reads
    on from the header's end (``_numpy_reads_by_path``); a pipe's bytes are
    read once and held, a byte a character, since a pipe cannot be read
    again. A body numpy rejects is parsed again by ``_read_rows``, which
    also accepts the few forms only ``float`` takes (such as ``1_000``), so
    every file gives the arrays ``float`` gives.

    Before all that, a plain body (``numparse``: one width of comma-separated
    fields, bytes ``0-9 . e E + - ,`` and line breaks only, each cell read
    ``-?D+(.D+)?([eE][-+]?D+)?``) is decoded in bulk from a read-only map of
    a regular file or from a pipe's held bytes, bit for bit what ``float``
    gives; any other body, a compressed name, a header with a carriage
    return, or a platform whose long double fails the rounding argument,
    goes the way above, in one process, with the same arrays and errors.
    A plain body of at least two parts of ``_PART_BYTES`` is decoded in
    parts cut at line breaks, one process per CPU this process may use
    (``_decode``); one CPU or a platform without ``os.fork`` decodes it in
    one process.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            source = os.path.abspath(path) if _numpy_reads_by_path(fh, path) else None
            body, held = fh, None
            if not fh.seekable():  # a pipe reads once: its bytes are held
                held = fh.buffer.read()
                body = io.TextIOWrapper(io.BytesIO(held), encoding="utf-8", newline="")
            positions, skip = _read_header(body, path, columns)
            values = _decode(fh, held, skip, positions) if source or held else None
            if values is None:
                if source is None:
                    source, skip = body, 0
                try:
                    values = [np.ascontiguousarray(col)
                              for col in _loadtxt(source, skip, positions).T]
                except ValueError:
                    body.seek(0)
                    values = _read_rows(body, path, columns, _read_header(body, path, columns)[0])
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from None
    arrays = dict(zip(columns, values))
    if not len(values[0]):
        raise DataError(f"{path}: no data rows")
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


def _encoding(family: str, table: dict, modes: bool) -> str:
    """The text form of ``family`` of ``table``: each option set to its initial
    in capitals, in brackets when optional, then the transform mode."""
    out = family
    for option, required in family_options(table, family).items():
        part = f":{option}={option[0].upper()}"
        out += part if required else f"[{part}]"
    if modes:  # mean-variance predictions are pairs: only realizations transform
        out += "[@realization:g]" if family == "mv" else "[@mode:g]"
    return out


def _cmd_catalog(args) -> int:
    from .functionals import KINDS
    from .identification import IDENT_FAMILIES

    family = args.family
    sections = {}
    if family in (None, "bijections"):
        sections["bijections"] = [
            {
                "name": name,
                "example_params": list(params),
                "constraint": constraint,
                "domain": str(bij.domain),
                "codomain": str(bij.codomain),
                "monotonicity": bij.monotonicity,
                "functional": functional,
            }
            for name, params, constraint, functional in CATALOG_ROWS
            for bij in (catalog(name, params),)
        ]
    for section, table, modes in (("scores", FAMILIES, True), ("idents", IDENT_FAMILIES, True),
                                  ("functionals", KINDS, False)):
        if family in (None, section):
            sections[section] = [{"name": fam, "encoding": _encoding(fam, table, modes)}
                                 for fam in table]
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
    if args.skill and spec.family == "mv":
        raise UsageError("--skill takes a scalar-prediction --score, not the mean-variance mv")
    if args.skill == "g-climatology" and spec.transform.mode == "none":
        raise UsageError("--skill g-climatology requires a transformed --score, e.g. se@both:log")
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
        from .evaluation import climatology_predictions, score_climatology, skill_of_average

        if args.skill == "climatology":
            ref = climatology_predictions(identity(), y)
        else:  # g-climatology, in the score's transform mode
            ref = np.full_like(y, score_climatology(spec.transform, y))
        payload["skill"] = skill_of_average(spec, payload["average_score"], ref, "zero-optimum", y)
        payload["reference"] = args.skill
        payload["reference_value"] = float(ref[0])
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .estimation import fit

    spec = specs.parse_score(args.score)
    if (spec.family == "mv") != (args.model == "mvpair"):
        raise UsageError(f"--model {args.model} does not take --score {args.score}: "
                         "the mean-variance score mv fits --model mvpair, and only it")
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
    from .verify import (as_expected, builtin_suite, check_memory, load_suite_file, run_suite,
                         suite_bytes, suite_passed)

    if args.suite.startswith("builtin:"):
        configs = builtin_suite(args.suite.split(":", 1)[1], seed=args.seed)
    else:
        configs = load_suite_file(args.suite, seed=args.seed)
    check_memory(f"--jobs {args.jobs}", suite_bytes(configs, args.jobs), UsageError)
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
    from .distributions import sample_chunks

    spec = specs.parse_score(args.score)
    if spec.family == "mv":
        raise UsageError("curve sweeps scalar predictions; --score mv takes (x1, x2) pairs")
    dist = specs.parse_dist(args.dist)
    # The draws stream, CHUNK at a time: no n-long array, so --n has no memory cap.
    zs = np.linspace(args.bracket.lo, args.bracket.hi, args.points)
    means, stderrs = streamed_score_stats(spec, zs, sample_chunks(dist, args.n, args.seed))
    rows = [(float(z), float(m), float(s)) for z, m, s in zip(zs, means, stderrs)]
    to_stdout = (args.out or "-") == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else \
            open(args.out, "w", encoding="utf-8", newline="") as fh:
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
    p.add_argument("--seed", type=_at_least(0), default=os.environ.get("ELICIT_SEED", "0"))
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--out")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock ms in the JSON (breaks byte-level determinism)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("curve", help="expected-score curve as CSV")
    p.add_argument("--score", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--bracket", type=_flag(specs.parse_bracket), required=True, metavar="LO,HI")
    p.add_argument("--points", type=_at_least(1), default=201)
    p.add_argument("--n", type=_at_least(2), default=10**5)
    p.add_argument("--seed", type=_at_least(0), default=os.environ.get("ELICIT_SEED", "0"))
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
    except (SpecParseError, DataError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ElicitError as exc:
        # a data row, counted as _read_csv counts it: the header is row 1
        row = exc.index is not None and args.command in ("score", "fit")
        print(f"error: {f'{args.data}: row {exc.index + 2}: ' if row else ''}{exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
