"""Outside-in tracing of the elicit package.

The tracer wraps public functions of each layer at every attribute a caller
looks up (``verify`` and ``estimation`` import names directly, so
``elicit.verify.score_values`` is wrapped as well as
``elicit.scoring.score_values``). Each wrapped call becomes a span with a
parent, a thread and counts. Spans stay in memory and are written as JSONL
when the traced process ends. ``summarize`` turns the spans of one pass
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, thread, name, start, end, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt = None  # parent for spans opened on a thread with an empty stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, before=None, after=None, adopt=False):
        """Run fn(*args, **kwargs) inside a span; ``before`` may rewrite the
        arguments and returns span attributes, ``after`` adds attributes
        from the result."""
        stack = self._stack()
        parent = stack[-1][0] if stack else self._adopt
        sid = next(self._ids)
        attrs = {}
        if before is not None:
            args, kwargs = before(attrs, args, kwargs)
        stack.append((sid, attrs))
        if adopt:
            saved, self._adopt = self._adopt, sid
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopt = saved
            self.spans.append((sid, parent, threading.get_ident(), name, start, end, attrs))
        if after is not None:
            after(attrs, out, args, kwargs)
        return out

    def add(self, key, value):
        """Add a count to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            attrs = stack[-1][1]
            attrs[key] = attrs.get(key, 0) + value

    def span(self, name, start, end):
        """Record an already timed top-level span (process set-up)."""
        self.spans.append((next(self._ids), None, threading.get_ident(), name, start, end, {}))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, thread, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "thread": thread,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# What to wrap, and which counts each span records
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, key):
    return kwargs[key] if key in kwargs else args[i]


def _counted(attrs, f):
    attrs["fevals"] = 0

    def counting(z):
        attrs["fevals"] += 1
        return f(z)

    return counting


def _with_counted_f(attrs, args, kwargs):
    if "f" in kwargs:
        kwargs = dict(kwargs, f=_counted(attrs, kwargs["f"]))
    else:
        args = (_counted(attrs, args[0]), *args[1:])
    return args, kwargs


def _before(**extract):
    """Attributes computed from the arguments: name -> fn(args, kwargs)."""
    def before(attrs, args, kwargs):
        for key, fn in extract.items():
            attrs[key] = fn(args, kwargs)
        return args, kwargs

    return before


def _n_realizations(args, kwargs):
    return int(np.size(_arg(args, kwargs, 2, "prepared").y))


def _score_before(attrs, args, kwargs):
    attrs["family"] = _arg(args, kwargs, 0, "spec").family
    attrs["evals"] = _n_realizations(args, kwargs)
    return args, kwargs


def _ident_curve_before(attrs, args, kwargs):
    points = len(_arg(args, kwargs, 1, "zs"))
    attrs["points"] = points
    attrs["evals"] = points * _n_realizations(args, kwargs)
    return args, kwargs


def _functional_after(attrs, out, args, kwargs):
    attrs["method"] = out.method
    if out.method == "mc":
        attrs["mc_draws"] = int(kwargs.get("n", args[2] if len(args) > 2 else 10**6))


def _fit_after(attrs, out, args, kwargs):
    attrs["iterations"] = int(out.iterations)
    attrs["converged"] = bool(out.converged)


def _run_check_before(attrs, args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    attrs["kind"] = cfg.kind
    attrs["check"] = cfg.name
    return args, kwargs


def _run_suite_before(attrs, args, kwargs):
    attrs["jobs"] = int(kwargs.get("parallelism", args[1] if len(args) > 1 else 1))
    return args, kwargs


def _run_suite_after(attrs, out, args, kwargs):
    configs = list(_arg(args, kwargs, 0, "configs"))
    attrs["checks"] = len(out)
    attrs["as_expected"] = sum(r.passed == c.expect_pass for c, r in zip(configs, out))


# (module, function, span name, before, after, adopt)
TARGETS = (
    ("elicit.cli", "main", "cli.main", None, None, False),
    ("elicit.verify", "run_suite", "verify.run_suite", _run_suite_before, _run_suite_after, True),
    ("elicit.verify", "run_check", "verify.run_check", _run_check_before, None, False),
    ("elicit.distributions", "sample_iid", "distributions.sample_iid",
     _before(draws=lambda a, k: int(_arg(a, k, 1, "n"))), None, False),
    ("elicit.scoring", "prepare_realizations", "scoring.prepare_realizations",
     _before(n=lambda a, k: int(np.size(_arg(a, k, 1, "y")))), None, False),
    ("elicit.scoring", "score_values", "scoring.score_values", _score_before, None, False),
    ("elicit.scoring", "expected_score_curve", "scoring.expected_score_curve",
     _before(points=lambda a, k: len(_arg(a, k, 1, "zs"))), None, False),
    ("elicit.scoring", "score_diff_stats", "scoring.score_diff_stats",
     _before(points=lambda a, k: len(_arg(a, k, 2, "zs"))), None, False),
    ("elicit.scoring", "average_score", "scoring.average_score",
     _before(rows=lambda a, k: int(np.shape(_arg(a, k, 2, "y"))[0])), None, False),
    ("elicit.identification", "prepare_ident_realizations",
     "identification.prepare_ident_realizations",
     _before(n=lambda a, k: int(np.size(_arg(a, k, 1, "y")))), None, False),
    ("elicit.identification", "ident_values", "identification.ident_values",
     _before(evals=_n_realizations), None, False),
    ("elicit.identification", "expected_ident_curve", "identification.expected_ident_curve",
     _ident_curve_before, None, False),
    ("elicit.functionals", "functional_value", "functionals.functional_value",
     None, _functional_after, False),
    ("elicit.numerics", "minimize1d", "numerics.minimize1d", _with_counted_f, None, False),
    ("elicit.numerics", "root1d", "numerics.root1d", _with_counted_f, None, False),
    ("elicit.estimation", "fit", "estimation.fit", None, _fit_after, False),
    ("elicit.evaluation", "skill_score", "evaluation.skill_score", None, None, False),
    ("elicit.evaluation", "climatology_predictions", "evaluation.climatology_predictions",
     None, None, False),
)


def install(tracer: Tracer) -> None:
    """Wrap every target at each elicit module attribute bound to it, and
    ``Bijection.apply``; count CSV rows read by the CLI."""
    import elicit  # noqa: F401  (loads every submodule)
    from elicit import cli
    from elicit.transforms import Bijection

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "elicit" or name.startswith("elicit."))]
    for mod_name, fn_name, span, before, after, adopt in TARGETS:
        original = getattr(sys.modules[mod_name], fn_name)

        def wrapper(*args, _orig=original, _span=span, _b=before, _a=after, _ad=adopt, **kwargs):
            return tracer.call(_span, _orig, args, kwargs, _b, _a, _ad)

        functools.update_wrapper(wrapper, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    apply = Bijection.apply
    elements = _before(elements=lambda a, k: int(np.size(a[1])))

    def traced_apply(self, t):
        return tracer.call("transforms.apply", apply, (self, t), {}, elements)

    Bijection.apply = traced_apply

    read_csv = cli._read_csv

    def counted_read_csv(path, columns):
        data = read_csv(path, columns)
        tracer.add("rows", len(data[columns[0]]))
        return data

    cli._read_csv = counted_read_csv


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# Counts that must repeat exactly across two traced passes at one seed.
REPEAT_COUNTS = (
    "distributions.sample_iid.draws", "scoring.score_values.evals",
    "identification.ident_values.evals", "identification.expected_ident_curve.evals",
    "numerics.minimize1d.fevals", "numerics.root1d.fevals", "estimation.fit.iterations",
    "functionals.functional_value.calls_analytic", "functionals.functional_value.calls_mc",
    "functionals.functional_value.mc_draws", "cli.main.rows", "scoring.average_score.rows",
)

SCORE_FAMILIES = ("se", "apl", "gpl", "expectile", "mv")
CHECK_KINDS = ("consistency", "strictness", "identification", "pair", "revelation",
               "realization")


def _rate(num, den):
    return num / den if den > 0 else 0.0


def summarize(processes, wall: float):
    """Per-layer metrics and repeat counts from the spans of one pass.

    ``processes`` holds one span list per traced process; ``wall`` is the
    pass wall time measured by the benchmark around those processes.
    Returns (metrics, counts); metrics map name -> (value, unit).
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)  # "<span>.<attr>" summed over spans
    fam_self = defaultdict(float)
    fam_evals = defaultdict(float)
    check_s = defaultdict(float)
    covered = child_cover = check_total = 0.0
    pool = [0.0, 0.0]  # (summed check time, jobs x suite wall)
    for spans in processes:
        children = defaultdict(list)
        for sp in spans:
            children[sp["parent"]].append((sp["start"], sp["end"]))
        top = []
        for sp in spans:
            name, attrs = sp["name"], sp["attrs"]
            dur = sp["end"] - sp["start"]
            own = dur - _union(children[sp["id"]])
            if sp["parent"] is None:
                top.append((sp["start"], sp["end"]))
            self_s[name] += own
            calls[name] += 1
            for key, val in attrs.items():
                if isinstance(val, (int, float)) and not isinstance(val, bool):
                    total[f"{name}.{key}"] += val
            if name == "scoring.score_values":
                fam_self[attrs["family"]] += own
                fam_evals[attrs["family"]] += attrs["evals"]
            elif name == "functionals.functional_value":
                total[f"{name}.calls_{attrs.get('method')}"] += 1
            elif name == "estimation.fit":
                total[f"{name}.converged"] += bool(attrs.get("converged"))
            elif name == "verify.run_check":
                check_s[attrs["kind"]] += dur
                child_cover += dur - own
                check_total += dur
            elif name == "verify.run_suite":
                pool[1] += attrs["jobs"] * dur
        covered += _union(top)
        pool[0] += sum(sp["end"] - sp["start"] for sp in spans if sp["name"] == "verify.run_check")

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def stats(span, *names):
        for stat in names:
            if stat == "self_s":
                put(f"{span}.self_s", self_s[span], "s")
            elif stat == "calls":
                put(f"{span}.calls", calls[span], "count")
            else:
                put(f"{span}.{stat}", total[f"{span}.{stat}"], "count")

    stats("cli.main", "self_s")
    put("cli.rows", total["cli.main.rows"], "count")
    put("cli.rows_per_s", _rate(total["cli.main.rows"], self_s["cli.main"]), "1/s")

    stats("scoring.expected_score_curve", "self_s", "points")
    stats("scoring.score_diff_stats", "self_s", "points")
    stats("scoring.score_values", "self_s", "calls", "evals")
    evals = total["scoring.score_values.evals"]
    put("scoring.evals_per_s", _rate(evals, self_s["scoring.score_values"]), "1/s")
    for fam in SCORE_FAMILIES:
        put(f"scoring.{fam}.evals_per_s", _rate(fam_evals[fam], fam_self[fam]), "1/s")
    # Computed, not measured: each evaluation reads one float64 prepared
    # realization, the least traffic any kernel over the draws can move.
    put("scoring.bytes_computed", 8 * evals, "B")
    stats("scoring.average_score", "self_s", "calls", "rows")

    stats("identification.expected_ident_curve", "self_s", "points", "evals")
    stats("identification.ident_values", "self_s", "calls")
    put("identification.evals_per_s", _rate(total["identification.ident_values.evals"],
                                            self_s["identification.ident_values"]), "1/s")

    stats("functionals.functional_value", "self_s", "calls_analytic", "calls_mc", "mc_draws")
    stats("numerics.root1d", "self_s", "calls", "fevals")
    stats("numerics.minimize1d", "self_s", "calls", "fevals")

    stats("estimation.fit", "self_s", "calls", "iterations")
    put("estimation.fit.converged_ratio",
        _rate(total["estimation.fit.converged"], calls["estimation.fit"]), "ratio")
    stats("evaluation.skill_score", "self_s")
    stats("evaluation.climatology_predictions", "self_s")

    stats("distributions.sample_iid", "self_s")
    put("distributions.draws", total["distributions.sample_iid.draws"], "count")
    stats("scoring.prepare_realizations", "self_s")
    stats("identification.prepare_ident_realizations", "self_s")
    stats("transforms.apply", "self_s", "elements")

    stats("verify.run_check", "self_s")
    for kind in CHECK_KINDS:
        put(f"verify.check_s.{kind}", check_s[kind], "s")
    put("verify.checks", total["verify.run_suite.checks"], "count")
    put("verify.checks_as_expected", total["verify.run_suite.as_expected"], "count")
    put("verify.pool_busy_ratio", _rate(pool[0], pool[1]), "ratio")

    put("trace.coverage", _rate(covered, wall), "ratio")
    put("trace.check_coverage", _rate(child_cover, check_total), "ratio")

    counts = {k: total[k] for k in REPEAT_COUNTS}
    counts.update({f"{k}.calls": v for k, v in sorted(calls.items())})
    return m, counts
