"""What a check holds, and the memory cap.

A caller's array comes back bit for bit, order included, from every public
entry point, and per-row values keep the draw order after a sweep.

The guard runs one line per check kind under ``tracemalloc``, which numpy
reports its buffers to, at two sizes: the slope of the traced peak is the
bytes each check holds per draw, 8 per n-long array of doubles. Each kind
stays within ``verify.LIVE_ARRAYS``, the table the cap reads, plus one byte
for boolean masks. Every kind streams its draws, and so do every Monte
Carlo target and the orientation probe, which hold under one byte per
draw: identification and pair lines hold a chunk and a target's cells, and
the argmin kinds' lines on a continuous law with an exact target, which
also hold the draws beside their argmin, stay under 4 MB at n = 4e6.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from elicit import cli, scoring
from elicit.distributions import Empirical, sample_iid
from elicit.errors import ElicitError, SpecParseError
from elicit.estimation import fit
from elicit.functionals import streamed_functional
from elicit.identification import expected_ident_curve, ident_values, prepare_ident_realizations
from elicit.scoring import (average_score, effective_chunks, expected_score_curve, held_moments,
                            prepare_realizations, score_values)
from elicit.specs import parse_functional, parse_ident, parse_score
from elicit.verify import (LIVE_ARRAYS, MEMORY_CAP, MIN_N, _parse_suite, builtin_suite,
                           draw_bytes, run_check, suite_bytes)

MODES = ("", "@realization:log", "@prediction:exp", "@both:log", "@both:negate")
FAMILIES = ("se", "ae", "apl:tau=0.3", "gpl:tau=0.6:g=exp", "expectile:tau=0.75:phi=square",
            "bregman:phi=square")
SCORES = [f"{fam}{mode}" for fam in FAMILIES for mode in MODES] + [
    "mv", "mv@realization:log"]
IDENTS = [f"{fam}{mode}" for fam in ("mean", "quantile:tau=0.3", "expectile:tau=0.8")
          for mode in MODES]
FEW = settings(max_examples=10)  # the family x mode grid is wide; each cell needs few draws
FUNCTIONALS = ["mean", "quantile:tau=0.3", "expectile:tau=0.8", "gmean:g=log",
               "gexpectile:tau=0.8:g=box-cox(0.5)", "mvpair", "mvpair:g=log"]


@st.composite
def positive_draws(draw):
    """Positive draws, with ties in about a third of the examples."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.lognormal(0.0, 0.7, n)
    return np.round(y, 1) + 0.05 if draw(st.booleans()) else y


def _predictions(spec, y):
    if spec.family == "mv":
        return [(float(np.mean(y)), 1.0), (1.0, 0.5)]
    return [float(np.median(y)), 0.5, 2.0]


def _rows(spec, y):
    if spec.family == "mv":
        return np.column_stack([y, np.full_like(y, 0.5)])
    return y * 1.1


def _unchanged(y, before):
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("text", SCORES)
@FEW
@given(y=positive_draws())
def test_score_paths_leave_the_callers_draws_as_they_were(text, y):
    spec = parse_score(text)
    before = y.copy()
    prepared = prepare_realizations(spec, y)
    _unchanged(y, before)
    expected_score_curve(spec, _predictions(spec, y), prepared)
    _unchanged(y, before)
    average_score(spec, _rows(spec, y), y)
    _unchanged(y, before)
    try:
        fit("constant_pair" if spec.family == "mv" else "constant", spec, y=y)
    except ElicitError:
        pass  # tied draws may leave no vertex: the draws must still be unchanged
    _unchanged(y, before)


@pytest.mark.parametrize("text", IDENTS)
@FEW
@given(y=positive_draws())
def test_ident_paths_leave_the_callers_draws_as_they_were(text, y):
    spec = parse_ident(text)
    before = y.copy()
    prepared = prepare_ident_realizations(spec, y)
    expected_ident_curve(spec, _predictions(spec, y), prepared)
    _unchanged(y, before)


@pytest.mark.parametrize("text", FUNCTIONALS)
@FEW
@given(y=positive_draws())
def test_streamed_functionals_leave_the_callers_draws_as_they_were(text, y):
    """A held array reaches the streamed entry as copies of its slices
    (oracle.chunked), and the moments as the slices themselves, which a
    pass without points never sorts."""
    before = y.copy()
    streamed_functional(parse_functional(text), oracle.chunked(y), y.size)
    _unchanged(y, before)
    held_moments(y)
    _unchanged(y, before)


ORDERED_SCORES = [t for t in SCORES if not t.startswith(("se", "bregman", "mv"))]
ORDERED_IDENTS = [t for t in IDENTS if not t.startswith("mean")]


@pytest.mark.parametrize("text", ORDERED_SCORES + ORDERED_IDENTS)
@FEW
@given(y=positive_draws())
def test_per_row_values_after_a_sweep_keep_the_draw_order(text, y):
    """A sweep sorts a copy: the prepared draws stay in draw order, so
    per-row values after it are still row i's, bit for bit."""
    is_score = text in ORDERED_SCORES
    spec = parse_score(text) if is_score else parse_ident(text)
    prepared = (prepare_realizations if is_score else prepare_ident_realizations)(spec, y)
    z = float(np.median(y))
    want = (score_values if is_score else ident_values)(spec, z, prepared)
    (expected_score_curve if is_score else expected_ident_curve)(spec, [z, 0.5], prepared)
    got = (score_values if is_score else ident_values)(spec, z, prepared)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.asarray(got).tobytes() == np.asarray(
        (oracle.score if is_score else oracle.ident)(spec, z, y), dtype=float).tobytes()


def test_effective_chunks_never_yield_an_array_a_callable_holds():
    """A streamed pass sorts each effective chunk in place: a bare
    callable's values that are not its argument are copied first, and a
    chunk that is its own effective draws, or a map's new values, are not."""
    kept = np.random.default_rng(2).lognormal(0.0, 0.7, 100)
    before = kept.copy()
    chunk = kept[::-1].copy()
    for transform in (scoring.TransformMode.realization_only(lambda w: kept),
                      scoring.TransformMode.realization_only(lambda w: w),
                      scoring.TransformMode.none(), parse_score("ae@both:log").transform):
        (w,) = effective_chunks(transform, [chunk.copy()])
        assert not np.shares_memory(w, kept)
        w.sort()
    _unchanged(kept, before)
    mine = chunk.copy()
    (w,) = effective_chunks(scoring.TransformMode.realization_only(lambda v: v), [mine])
    assert w is mine


# One line per kind, untransformed and transformed; the transformed ones
# take a Monte Carlo target where the kind has one.
GUARD_LINES = (
    "kind=consistency dist=normal(0,1) score=se functional=mean bracket=-2,2",
    "kind=consistency dist=lognormal(0,0.5) score=expectile:tau=0.75:phi=square@both:box-cox(0.5) "
    "functional=gexpectile:tau=0.75:g=box-cox(0.5) bracket=0.5,3.0",
    "kind=consistency dist=exponential(1) score=apl:tau=0.25@both:negate "
    "functional=quantile:tau=0.75 bracket=0.3,4",
    "kind=strictness dist=uniform(0,1) score=expectile:tau=0.75:phi=square "
    "functional=expectile:tau=0.75 bracket=0.05,0.95",
    "kind=strictness dist=empirical(1,1,2,2) score=gpl:tau=0.5:g=identity "
    "functional=quantile:tau=0.5 bracket=0.5,2.5 expect=fail",
    "kind=identification dist=uniform(0,1) ident=quantile:tau=0.75 functional=quantile:tau=0.75 "
    "bracket=0.1,0.999",
    "kind=identification dist=lognormal(0,0.5) ident=expectile:tau=0.75@both:box-cox(0.5) "
    "functional=gexpectile:tau=0.75:g=box-cox(0.5) bracket=0.6,2.5",
    "kind=pair dist=normal(0.5,2) score=mv functional=mvpair bracket=-0.5,1.5 bracket2=1,8",
    "kind=pair dist=lognormal(0,0.5) score=mv@realization:box-cox(0.5) "
    "functional=mvpair:g=box-cox(0.5) bracket=-0.5,0.6 bracket2=0.05,1.0",
    "kind=revelation dist=normal(0,1) score=se functional=mean g=exp bracket=-2,2",
    "kind=realization dist=lognormal(0.3,1) score=se functional=mean g=log bracket=-1,1.5",
    "kind=realization dist=lognormal(0,0.5) score=apl:tau=0.9 functional=quantile:tau=0.9 "
    "g=box-cox(0.5) bracket=0.2,1.5",
    "kind=realization dist=exponential(1) score=se functional=mean g=shifted-log(1) "
    "bracket=0.1,1.5",
)
SMALL, LARGE = 200_000, 800_000


def _traced_peak(line: str, n: int) -> int:
    (cfg,) = _parse_suite([f"{line} n={n}"], 42, "guard")
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    run_check(cfg)
    return tracemalloc.get_traced_memory()[1] - start


def test_each_check_kind_holds_its_live_arrays_per_draw_and_no_more():
    tracemalloc.start()
    try:
        slopes = {line: (_traced_peak(line, LARGE) - _traced_peak(line, SMALL)) / (LARGE - SMALL)
                  for line in GUARD_LINES}
    finally:
        tracemalloc.stop()
    over = {line: round(b, 2) for line, b in slopes.items()
            if b > 8 * LIVE_ARRAYS[line.split()[0].removeprefix("kind=")] + 1}
    assert not over, over


# Every line of these kinds, the identification's Monte Carlo expectile
# target included.
STREAMED_LINES = [line for line in GUARD_LINES if line.startswith(("kind=identification",
                                                                   "kind=pair"))]


def test_streamed_checks_hold_chunks_not_draws():
    tracemalloc.start()
    try:
        for line in STREAMED_LINES:  # imports and lazy set-up before the measured run
            _traced_peak(line, MIN_N)
        peaks = {line: _traced_peak(line, 4 * 10**6) for line in STREAMED_LINES}
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    over = {line: peak for line, peak in peaks.items() if peak >= 4 * 10**6}
    assert not over, over


# The lines whose target has no closed form: a map without a pushforward law.
MC_TARGET_LINES = [line for line in GUARD_LINES if "box-cox" in line or "shifted-log" in line]


def test_monte_carlo_targets_hold_under_a_byte_per_draw():
    """A Monte Carlo target streams its draws: a chunk, and the draws of a
    few of 256 cells, not n draws and their transform (16 bytes a draw)."""
    tracemalloc.start()
    try:
        slopes = {line: (_traced_peak(line, LARGE) - _traced_peak(line, SMALL)) / (LARGE - SMALL)
                  for line in MC_TARGET_LINES}
    finally:
        tracemalloc.stop()
    assert len(slopes) == 5
    over = {line: round(b, 2) for line, b in slopes.items() if b >= 1.0}
    assert not over, over


def test_the_orientation_probe_holds_under_a_byte_per_draw():
    """Acceptance criterion 06's probe streams its draws: a chunk, not n
    draws and a sorted copy (16.25 bytes a draw when it held them)."""
    from elicit.distributions import Lognormal
    from elicit.identification import orientation_probe
    spec = parse_ident("quantile:tau=0.5")

    def peak(n):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert orientation_probe(spec, Lognormal(0.0, 1.0), 1.0, (-0.25, 0.25), n, 7).passed
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(MIN_N)
        slope = (peak(LARGE) - peak(SMALL)) / (LARGE - SMALL)
    finally:
        tracemalloc.stop()
    assert slope < 1.0, slope


# The argmin kinds' lines on a continuous law whose target is exact: they
# hold a chunk and the draws of their window, about 7% of them at most here.
WINDOW_LINES = [line for line in GUARD_LINES if line.startswith(
    ("kind=consistency", "kind=strictness", "kind=revelation", "kind=realization"))
    and not any(mc in line for mc in ("gexpectile", "box-cox", "shifted-log", "empirical"))]


def test_streamed_argmins_hold_chunks_and_their_window():
    tracemalloc.start()
    try:
        for line in WINDOW_LINES:
            _traced_peak(line, MIN_N)
        peaks = {line: _traced_peak(line, 4 * 10**6) for line in WINDOW_LINES}
    finally:
        tracemalloc.stop()
    assert len(peaks) == 5
    over = {line: peak for line, peak in peaks.items() if peak >= 4 * 10**6}
    assert not over, over


COSH = scoring.ConvexGenerator("cosh", np.cosh, np.sinh, np.cosh)


@pytest.mark.parametrize("spec, how, held", [
    (scoring.ScoreSpec("bregman", phi=COSH), "fit", 0),
    (parse_score("gpl:tau=0.3:g=exp"), "sweep", 8),
    (scoring.ScoreSpec("expectile", tau=0.3, phi=COSH), "sweep", 8)])
def test_held_sweeps_centre_a_mapped_basis_without_an_n_long_column(spec, how, held):
    """The centres of g_in(w) and phi(w) are reduced CHUNK draws at a time:
    ``fit --model constant`` under a phi score, whose draws are neither
    sorted nor copied, holds no n-long array of its own, and a sweep only
    its sorted copy of the draws."""
    def peak(n):
        y = np.random.default_rng(4).lognormal(0.0, 0.5, n)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        if how == "fit":
            fit("constant", spec, y=y)
        else:
            expected_score_curve(spec, [0.8, 1.2], prepare_realizations(spec, y))
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(MIN_N)
        slope = (peak(LARGE) - peak(SMALL)) / (LARGE - SMALL)
    finally:
        tracemalloc.stop()
    assert slope <= held + 1, slope


def test_empirical_sampling_holds_its_draws_and_no_index_array():
    def peak(n):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sample_iid(Empirical((1.0, 1.0, 2.0, 2.0)), n, 3)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(SMALL)
        slope = (peak(LARGE) - peak(SMALL)) / (LARGE - SMALL)
    finally:
        tracemalloc.stop()
    assert slope <= 8 + 1, slope


def test_the_cap_reads_the_live_array_table():
    assert draw_bytes(10**6, "pair") == 8 * 10**6 * LIVE_ARRAYS["pair"]
    (cfg,) = _parse_suite(["kind=consistency dist=normal(0,1) score=se functional=mean "
                           "bracket=-2,2 n=1e6"], 42, "t")
    assert suite_bytes([cfg] * 3, 2) == 2 * draw_bytes(10**6, "consistency")
    assert suite_bytes([cfg] * 3, 10**9) == 3 * draw_bytes(10**6, "consistency")


def _over_cap_n(kind: str) -> int:
    return MEMORY_CAP // (8 * LIVE_ARRAYS[kind]) + 1


def test_a_suite_line_over_the_cap_is_rejected_by_name():
    n = _over_cap_n("consistency")
    lines = ["kind=consistency dist=normal(0,1) score=se functional=mean bracket=-2,2 n=1e5",
             f"kind=consistency dist=normal(0,1) score=se functional=mean bracket=-2,2 n={n}"]
    with pytest.raises(SpecParseError, match=r"^big:2: n=\d+ would hold .* over the 2 GiB cap"):
        _parse_suite(lines, 42, "big")


def test_jobs_over_the_cap_exit_2_before_anything_runs(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the cap must stop the run before it samples")

    monkeypatch.setattr("elicit.verify.run_suite", never)  # the command imports it as it runs
    n = _over_cap_n("consistency") // 2 + 1  # one line fits, two together do not
    suite = tmp_path / "suite.txt"
    suite.write_text("".join(f"kind=consistency dist=normal(0,1) score=se functional=mean "
                             f"bracket=-2,2 n={n}\n" for _ in range(2)))
    assert cli.main(["verify", "--suite", str(suite), "--jobs", "2"]) == 2
    assert "error: --jobs 2 would hold" in capsys.readouterr().err


def test_curve_streams_so_its_n_has_no_cap(monkeypatch):
    """``curve`` holds one chunk at any --n: an n a held sweep could not
    hold reaches the sampler."""
    class Sampled(Exception):
        pass

    def sampled(dist, n, seed):
        raise Sampled(n)

    monkeypatch.setattr("elicit.distributions.sample_chunks", sampled)
    n = _over_cap_n("consistency")
    with pytest.raises(Sampled, match=str(n)):
        cli.main(["curve", "--score", "apl:tau=0.9", "--dist", "normal(0,1)", "--bracket=-1,1",
                  "--n", str(n)])


def test_the_appended_expectile_line_catches_swapped_expectile_weights(monkeypatch):
    """Off tau = 1/2 the transformed expectile's argmin moves to the level
    1 - tau when the score's weights are swapped; at 1/2 nothing would."""
    cfg = builtin_suite("paper-core", 42)[-1]
    assert cfg.name == "cons/expectile-0.75-both-log"
    assert run_check(cfg).passed
    coefficients = scoring._coefficients

    def swapped(spec, u, centre):
        gap, lo, hi = coefficients(spec, u, centre)
        return (gap, hi, lo) if spec.family == "expectile" else (gap, lo, hi)

    monkeypatch.setattr(scoring, "_coefficients", swapped)
    assert not run_check(cfg).passed
