"""Resolution scoring and Monte Carlo aggregation."""

import numpy as np
import pytest

from msdoa import (
    Doa,
    ValidationError,
    aggregate,
    resolve_and_score,
)

TRUTH = (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(12.0, 90.0))


def _estimates_1d(theta_list):
    """Estimates of an azimuth-only search at elevation 90 degrees."""
    return tuple(Doa.from_degrees(t, 90.0) for t in theta_list)


def _estimates_2d(pairs):
    return tuple(Doa.from_degrees(t, p) for t, p in pairs)


def test_exact_hit():
    out = resolve_and_score(_estimates_1d([-22.0, 12.0]), TRUTH)
    assert out.resolved
    assert out.errors_deg == (0.0, 0.0)
    assert out.matched == (True, True)


def test_worked_example():
    # Errors 0.2 and 3.6 degrees; both inside the 17-degree threshold
    # (half the 34-degree separation), pooled RMSE sqrt((0.04+12.96)/2).
    out = resolve_and_score(_estimates_1d([-21.8, 15.6]), TRUTH)
    assert out.resolved
    assert sorted(out.errors_deg) == pytest.approx([0.2, 3.6])
    agg = aggregate([out], TRUTH)
    assert agg.pr == 1.0
    assert agg.rmse_deg == pytest.approx(2.5495097568, abs=1e-6)


def test_permutation_invariance():
    a = resolve_and_score(_estimates_1d([12.1, -21.9]), TRUTH)
    b = resolve_and_score(_estimates_1d([-21.9, 12.1]), TRUTH)
    assert sorted(a.errors_deg) == sorted(b.errors_deg)
    assert a.resolved and b.resolved


def test_threshold_from_separation():
    # Sources 34 degrees apart: threshold is 17 degrees.
    near_miss = resolve_and_score(_estimates_1d([-22.0 + 16.9, 12.0]), TRUTH)
    assert near_miss.resolved
    too_far = resolve_and_score(_estimates_1d([-22.0 + 17.1, 12.0]), TRUTH)
    assert not too_far.resolved


def test_single_source_threshold():
    truth = (Doa.from_degrees(22.0, 90.0),)
    assert resolve_and_score(_estimates_1d([23.9]), truth).resolved
    assert not resolve_and_score(_estimates_1d([24.1]), truth).resolved


def test_missing_estimates_penalized():
    out = resolve_and_score(_estimates_1d([-22.0]), TRUTH)
    assert not out.resolved
    assert sorted(out.errors_deg) == [0.0, 180.0]
    assert sorted(out.matched) == [False, True]


def test_greedy_matching_is_nearest_first():
    # One estimate sits between the sources, nearer the second; the
    # other is far away. Greedy pairing gives the close pair first.
    out = resolve_and_score(_estimates_1d([10.0, -60.0]), TRUTH)
    # errors_deg follows truth order: (-22, 12).
    assert out.errors_deg[1] == pytest.approx(2.0)
    assert out.errors_deg[0] == pytest.approx(38.0)
    assert not out.resolved


def test_two_dimensional_distance_is_per_axis_max():
    truth = (Doa.from_degrees(-36.0, 20.0), Doa.from_degrees(42.0, 45.0))
    out = resolve_and_score(_estimates_2d([(-36.5, 21.5), (42.0, 45.0)]), truth)
    assert sorted(out.errors_deg) == pytest.approx([0.0, 1.5])
    assert out.resolved


def test_aggregate_pr_and_pooled_rmse():
    trials = [
        resolve_and_score(_estimates_1d([-21.8, 15.6]), TRUTH),  # errors .2, 3.6
        resolve_and_score(_estimates_1d([-22.0, 12.0]), TRUTH),  # errors 0, 0
    ]
    agg = aggregate(trials, TRUTH)
    assert agg.num_trials == 2
    assert agg.pr == 1.0
    assert agg.rmse_deg == pytest.approx(np.sqrt((0.04 + 12.96) / 4.0))


def test_aggregate_unresolved_trials_pool_their_errors():
    trials = [
        resolve_and_score(_estimates_1d([-22.0, 12.0]), TRUTH),
        resolve_and_score(_estimates_1d([-22.0]), TRUTH),  # unmatched: 180
    ]
    agg = aggregate(trials, TRUTH)
    assert agg.pr == 0.5
    assert agg.rmse_deg == pytest.approx(np.sqrt(180.0**2 / 4.0))


def test_aggregate_zero_resolution_is_180():
    trials = [resolve_and_score(_estimates_1d([]), TRUTH) for _ in range(3)]
    agg = aggregate(trials, TRUTH)
    assert agg.pr == 0.0
    assert agg.rmse_deg == 180.0  # exact sentinel


def test_aggregate_empty_raises():
    with pytest.raises(ValidationError):
        aggregate([], TRUTH)


def test_scoring_needs_matching_truth():
    with pytest.raises(ValidationError, match="at least one true source"):
        resolve_and_score(_estimates_1d([-22.0]), ())
    one_source = resolve_and_score(_estimates_1d([-22.0]), TRUTH[:1])
    with pytest.raises(ValidationError, match="source count"):
        aggregate([one_source], TRUTH)
