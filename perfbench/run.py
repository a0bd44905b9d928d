"""Benchmark of the elicit package: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is run from ``src/`` as it is in
the tree; nothing is installed. Workloads (see ``workloads.py``):

* ``verify-core``: eleven ``builtin:paper-core`` checks, serial.
* ``verify-mc``: a generated suite whose targets all need Monte Carlo,
  ``--jobs 2``.
* ``csv-eval``: six ``score``/``fit`` CLI calls on generated 1e6-row CSVs.

Inputs are generated from ``--seed`` under ``perfbench/work/`` and removed
at exit; run one benchmark at a time per checkout. Every operation is one
``elicit`` CLI process, run one after another (a closed loop with one
client). Outputs are checked against references; the last line of
standard output is the result as JSON.

``--trace 0`` runs passes over the workload until ``--seconds`` have
passed (at least one) and reports the end-to-end metrics. ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
from the traced pass; ``trace.overhead_s`` is the difference of the two
walls. Spans are written to ``perfbench/results/``. A traced run at a seed
already traced with the same source stores and compares the repeat counts
(draws, evaluations, function evaluations, iterations, target paths, rows):
they must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_PROBES = 5  # timed set-up probes per run, after one untimed warm-up
OP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # At most two threads: the verify pool; numpy's BLAS stays single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ELICIT_SEED", None)
    return env


def setup_times(wl, env) -> list:
    """Seconds from process start to a built workload, per probe."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", *wl.setup_args]
    times = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        if probe:  # the first probe warms byte-code and file caches
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_op(op, env, spans=None):
    """Run one operation's CLI process, traced into ``spans`` if given;
    returns its exit code and standard error."""
    op.out_path.unlink(missing_ok=True)
    if spans is None:
        cmd = [sys.executable, "-m", "elicit", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans), "--", *op.argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {OP_TIMEOUT_S} s"


class Tally:
    """Operation outcomes over all passes of a run."""

    def __init__(self, env):
        self.env = env
        self.attempted = 0
        self.failures = []
        self.incorrect = []
        self.digests = {}

    def record(self, op, code, stderr):
        outcome = op.outcome(op, code)
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures)
        self.incorrect.extend(outcome.incorrect)
        if outcome.incorrect and stderr.strip():
            self.incorrect.append(f"{op.name} stderr: {stderr.strip()[-300:]}")
        if op.name.startswith("verify") and op.out_path.exists():
            self.digests.setdefault(op.name, hashlib.sha256(op.out_path.read_bytes()).hexdigest())
        for failure, check in outcome.rechecks:
            code, stderr = run_op(check, self.env)
            again = check.outcome(check, code)
            if again.incorrect:
                failure["reason"] += "; repeated on fresh draws"
                self.incorrect.extend(again.incorrect)
            else:
                failure["reason"] += "; false alarm: passed on fresh draws"


def run_pass(wl, tally, spans_dir=None):
    """Run every operation once, in order; returns the pass wall time. The
    outputs are checked after the clock stops."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        results.append(run_op(op, tally.env, spans_dir and spans_dir / f"{i}.jsonl"))
    wall = time.perf_counter() - start
    for op, (code, stderr) in zip(wl.ops, results):
        tally.record(op, code, stderr)
    return wall


def _cache_sizes() -> dict:
    """Cache sizes of CPU 0, read-only from sysfs (empty where unavailable)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout, or a packed ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "elicit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(wl, seed) -> dict:
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(), "caches": _cache_sizes(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(), "source_sha256": source_digest(),
        "largest_draw_array_bytes": 8 * wl.largest_rows,
        "bytes_note": "scoring.bytes_computed and the array size are computed from counts, "
                      "not measured; compare the array with the last-level cache above",
    }


def measure(wl, seconds, tally):
    setup = setup_times(wl, tally.env)
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        walls.append(run_pass(wl, tally))
    wall = statistics.median(walls)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "ok_ratio": ((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "rows_per_s": (wl.rows / wall, "1/s"),
    }
    return metrics, {"pass_walls_s": walls, "setup_s": setup}


def measure_traced(wl, seed, tally):
    untraced = run_pass(wl, tally)
    spans_dir = RESULTS / f"{wl.name}-seed{seed}-spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced = run_pass(wl, tally, spans_dir)
    processes = [tracing.load(p) for p in sorted(spans_dir.glob("*.jsonl"))]
    metrics, counts = tracing.summarize(processes, traced)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    repeat = check_repeat(wl, seed, counts)
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "counts": counts, "repeat": repeat}


def check_repeat(wl, seed, counts) -> dict:
    """Compare repeat counts with an earlier traced run at this seed and
    source, or store them for the next one."""
    path = RESULTS / f"{wl.name}-seed{seed}-{source_digest()[:16]}.counts.json"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        return {"compared": False, "file": path.name}
    before = json.loads(path.read_text(encoding="utf-8"))
    diff = {k: [before.get(k), v] for k, v in counts.items() if before.get(k) != v}
    diff.update({k: [v, None] for k, v in before.items() if k not in counts})
    return {"compared": True, "file": path.name, "identical": not diff, "differences": diff}


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "elicit" / "__init__.py").is_file():
        print(f"error: no elicit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # On SIGTERM unwind like Ctrl-C: subprocess.run kills and reaps the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, _interrupt)
    work = WORK / args.workload
    RESULTS.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(WORK, ignore_errors=True)  # inputs left by a killed run
    work.mkdir(parents=True)
    tally = Tally(child_env())
    try:
        wl = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, detail = measure_traced(wl, args.seed, tally)
        else:
            metrics, detail = measure(wl, args.seconds, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    repeat = detail.get("repeat", {})
    if repeat.get("compared") and not repeat["identical"]:
        tally.incorrect.append(f"repeat counts differ: {repeat['differences']}")
    correct = not tally.incorrect
    failed = len(tally.failures)
    record = {
        "provenance": provenance(wl, args.seed), "trace": args.trace,
        "correct": correct, "attempted": tally.attempted, "failed": failed,
        "failures": tally.failures, "incorrect": tally.incorrect,
        "report_sha256": tally.digests, **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}", file=sys.stderr)
    for item in tally.failures:
        print(f"failed: {item['operation']} (exit {item['exit']}): {item['reason']}", file=sys.stderr)
    for item in tally.incorrect:
        print(f"INCORRECT: {item}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
