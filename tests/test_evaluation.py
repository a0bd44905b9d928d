import math

import numpy as np
import pytest

from elicit import (DegenerateReferenceError, DomainError, EvaluationError, ParameterError,
                    ScoreSpec, TransformMode, catalog, estimation, fit, identity, nse, scoring,
                    skill_score, transformed_climatology, climatology_predictions)
from elicit.evaluation import score_climatology
from elicit.scoring import average_score


class TestSkillScore:
    def test_perfect_prediction_scores_one(self):
        y = [0.5, 1.5, 3.0]
        got = skill_score(ScoreSpec("se"), y, [1.0, 1.0, 1.0], "zero-optimum", y)
        assert got == 1.0

    def test_reference_scores_zero(self):
        y = [0.5, 1.5, 3.0]
        ref = [1.0, 2.0, 2.0]
        assert skill_score(ScoreSpec("se"), ref, ref, "zero-optimum", y) == 0.0

    def test_arithmetic_example(self):
        got = skill_score(ScoreSpec("se"), [0.0, 1.0], [1.0, 1.0], "zero-optimum", [0.0, 2.0])
        assert got == pytest.approx(0.5)

    def test_two_reference_form(self):
        y = [0.0, 2.0]
        got = skill_score(ScoreSpec("se"), [0.0, 1.0], [1.0, 1.0], y, y)
        assert got == pytest.approx(0.5)

    def test_degenerate_zero_reference(self):
        y = [1.0, 2.0]
        with pytest.raises(DegenerateReferenceError):
            skill_score(ScoreSpec("se"), [0.0, 0.0], y, "zero-optimum", y)

    def test_degenerate_equal_references(self):
        y = [1.0, 2.0]
        with pytest.raises(DegenerateReferenceError):
            skill_score(ScoreSpec("se"), [0.0, 0.0], [0.5, 0.5], [0.5, 0.5], y)

    def test_mv_rejected_for_zero_optimum(self):
        with pytest.raises(ParameterError):
            skill_score(ScoreSpec("mv"), [(0.0, 1.0)], [(0.0, 1.0)], "zero-optimum", [1.0])

    def test_rank_preservation(self):
        # lower average score <=> higher skill, for any fixed reference
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 60)
        ref = np.full_like(y, y.mean())
        spec = ScoreSpec("se")
        for _ in range(100):
            z1 = y + rng.normal(0, 0.5, y.size)
            z2 = y + rng.normal(0, 0.5, y.size)
            s1, s2 = average_score(spec, z1, y), average_score(spec, z2, y)
            k1 = skill_score(spec, z1, ref, "zero-optimum", y)
            k2 = skill_score(spec, z2, ref, "zero-optimum", y)
            assert (s1 <= s2) == (k1 >= k2)


class TestNse:
    def test_perfect(self):
        y = [0.0, 2.0, 5.0]
        assert nse(y, y) == 1.0

    def test_climatology_scores_zero(self):
        y = np.array([0.0, 2.0, 5.0])
        clim = np.full_like(y, y.mean())
        assert nse(clim, y) == 0.0

    def test_climatology_example(self):
        assert nse([1.0, 1.0], [0.0, 2.0]) == 0.0

    def test_equals_skill_with_climatology_reference(self):
        rng = np.random.default_rng(4)
        y = rng.normal(1, 2, 50)
        z = y + rng.normal(0, 1, 50)
        ref = np.full_like(y, y.mean())
        assert nse(z, y) == skill_score(ScoreSpec("se"), z, ref, "zero-optimum", y)

    def test_constant_observations_degenerate(self):
        with pytest.raises(DegenerateReferenceError):
            nse([1.0, 2.0], [3.0, 3.0])

    def test_needs_two_points(self):
        with pytest.raises(ParameterError):
            nse([1.0], [1.0])


class TestTransformedClimatology:
    def test_identity_is_sample_mean(self):
        assert transformed_climatology(identity(), [1.0, 2.0, 3.0]) == 2.0

    def test_log_is_geometric_mean(self):
        assert transformed_climatology(catalog("log"), [1.0, 4.0]) == 2.0

    def test_square_is_root_mean_square(self):
        got = transformed_climatology(catalog("power", [2.0]), [3.0, 4.0])
        assert got == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_domain_violation_names_index(self):
        with pytest.raises(DomainError, match="index 1"):
            transformed_climatology(catalog("log"), [1.0, -2.0, 3.0])

    def test_replicated_predictions(self):
        preds = climatology_predictions(catalog("log"), [1.0, 4.0])
        assert np.array_equal(preds, [2.0, 2.0])


def test_transformed_climatology_reference_scores_zero_skill():
    # scoring the transformed-climatology reference against itself
    y = np.array([1.0, 4.0, 2.0, 8.0])
    g = catalog("log")
    spec = ScoreSpec("se", transform=TransformMode.both(g))
    ref = climatology_predictions(g, y)
    assert skill_score(spec, ref, ref, "zero-optimum", y) == 0.0


class TestBadRowsAreFoundWhereDetected:
    def test_no_per_row_rescan(self, monkeypatch):
        def per_row(*args):
            raise AssertionError("re-scanned row by row")

        for module in (scoring, estimation):
            for name in ("evaluate_score", "score_values"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, per_row)
        log = catalog("log")
        y = [1.0, 2.0, -3.0, 4.0]
        with pytest.raises(DomainError, match="of index 2, forward of log$"):
            average_score(ScoreSpec("se", transform=TransformMode.both(log)), [1.0] * 4, y)
        with pytest.raises(DomainError, match="of observation index 2$"):
            score_climatology(TransformMode.realization_only(log), y)
        with pytest.raises(DomainError, match="of observation index 2$"):
            fit("linear", ScoreSpec("se", transform=TransformMode.both(log)), x=[0, 1, 2, 3], y=y)

    def test_climatology_names_an_overflow_by_its_index(self):
        with pytest.raises(DomainError, match=r"^value 800.0 outside domain of forward of exp "
                                              r"\(value inf not in") as info:
            score_climatology(TransformMode.realization_only(catalog("exp")), [1.0, 800.0])
        assert info.value.index == 1

    def test_non_finite_realization_names_its_row(self):
        with pytest.raises(EvaluationError, match="^at index 2: non-finite score nan$"):
            nse([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])
