"""Child process of the benchmark.

    python perfbench/child.py setup suite FILE        import elicit, load a suite file
    python perfbench/child.py setup scores SPEC...    import elicit, parse score specs
    python perfbench/child.py trace SPANS -- ARGV...  run ``elicit ARGV`` traced

``setup`` prints the monotonic clock reading at which set-up finished, so
the parent can time it from before it started this process. ``trace``
writes the spans as JSONL to SPANS and exits with the CLI's exit code.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def setup(kind, rest):
    from elicit.cli import build_parser
    from elicit.specs import parse_score
    from elicit.verify import load_suite_file

    build_parser()
    if kind == "suite":
        load_suite_file(rest[0], seed=0)
    else:
        for text in rest:
            parse_score(text)
    print(repr(time.perf_counter()), flush=True)
    return 0


def trace(spans_path, argv):
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    import elicit.cli

    tracer.span("setup.import", START, time.perf_counter())
    try:
        return elicit.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3:]))
    sep = sys.argv.index("--")
    sys.exit(trace(sys.argv[2], sys.argv[sep + 1:]))
