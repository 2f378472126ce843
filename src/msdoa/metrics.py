"""Trial scoring: peak-to-truth matching, resolution, and aggregates.

One rule scores every search: the error of an estimate is the larger of
its azimuth and elevation errors. An azimuth-only search reports the
elevation it searched at, which its sources share, so its elevation
error is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .surface import Doa

UNMATCHED_ERROR_DEG = 180.0
# Largest error at which a trial with one source counts as resolved.
SINGLE_SOURCE_THRESHOLD_DEG = 2.0


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial scoring record: one error entry per true source."""

    estimates: tuple[Doa, ...]
    errors_deg: tuple[float, ...]
    matched: tuple[bool, ...]
    resolved: bool


def _distance_deg(est: Doa, truth: Doa) -> float:
    return max(abs(est.theta_deg - truth.theta_deg), abs(est.phi_deg - truth.phi_deg))


def resolve_and_score(estimates, truth) -> TrialOutcome:
    """Match a trial's estimates to the true directions and score the trial.

    Matching is greedy one-to-one nearest neighbor on the angle error,
    the larger of the azimuth and elevation errors. A trial resolves
    when the search produced exactly as many peaks as sources and every
    matched error is at most half the minimum pairwise true separation,
    or ``SINGLE_SOURCE_THRESHOLD_DEG`` for one source. Unmatched sources
    score 180 degrees.
    """
    truth = tuple(truth)
    k = len(truth)
    if k < 1:
        raise ValidationError("need at least one true source to score against")
    estimates = tuple(estimates)

    pairs = sorted(
        (_distance_deg(e, t), ei, ti)
        for ei, e in enumerate(estimates)
        for ti, t in enumerate(truth)
    )
    est_free = [True] * len(estimates)
    truth_err = [None] * k
    for dist, ei, ti in pairs:
        if est_free[ei] and truth_err[ti] is None:
            est_free[ei] = False
            truth_err[ti] = dist

    if k == 1:
        tau = SINGLE_SOURCE_THRESHOLD_DEG
    else:
        tau = 0.5 * min(
            _distance_deg(truth[i], truth[j])
            for i in range(k)
            for j in range(i + 1, k)
        )

    matched = tuple(err is not None for err in truth_err)
    errors = tuple(
        float(err) if err is not None else UNMATCHED_ERROR_DEG for err in truth_err
    )
    resolved = len(estimates) == k and all(
        m and e <= tau for m, e in zip(matched, errors)
    )
    return TrialOutcome(estimates, errors, matched, resolved)


@dataclass(frozen=True)
class AggregateResult:
    """Probability of resolution and root-mean-square error over trials."""

    pr: float
    rmse_deg: float
    num_trials: int


def aggregate(outcomes, truth) -> AggregateResult:
    """Combine trial outcomes into (PR, RMSE).

    RMSE pools the per-source errors of every trial, with unmatched
    sources already carrying the 180-degree penalty; an all-unresolved
    batch reports exactly 180.
    """
    outcomes = list(outcomes)
    k = len(tuple(truth))
    if not outcomes:
        raise ValidationError("need at least one trial outcome")
    for out in outcomes:
        if len(out.errors_deg) != k:
            raise ValidationError("trial outcome source count does not match truth")
    pr = sum(1 for out in outcomes if out.resolved) / len(outcomes)
    if pr == 0.0:
        return AggregateResult(0.0, UNMATCHED_ERROR_DEG, len(outcomes))
    errs = np.array([out.errors_deg for out in outcomes], dtype=float)
    return AggregateResult(pr, float(np.sqrt(np.mean(errs**2))), len(outcomes))
