"""Confidence bounds on a configuration's real test accuracy, derived from
one probe on sampled data, plus the snapshot clamping that keeps the
interval nested inside the one cached at the last pruning round.

Both bounds are Hoeffding-style: the upper bound starts from the train
accuracy on the sampled training set and adds deviation terms for the
training sample size and the full test set size; the lower bound starts
from the test accuracy on the sampled test set and subtracts a deviation
term for the test sample size. The number of configurations, delta and the
full test set size come from the run's :class:`~abcselect.core.RunParams`,
which validates them. :class:`IntervalRule` combines these pieces into the
post-probe interval; a run builds one.
"""

from __future__ import annotations

import math

from .core import ConfidenceInterval, ProbeOutcome, RunParams, clamp_interval

__all__ = [
    "IntervalRule",
    "clamp_to_cached",
    "lower_bound",
    "upper_bound",
]


class IntervalRule:
    """One run's interval update, with both bounds' log terms and the upper
    bound's full-test-set term computed once from its parameters."""

    def __init__(self, params: RunParams) -> None:
        self.upper_log = math.log(4.0 * params.n_configs * params.n_configs / params.delta)
        self.lower_log = math.log(2.0 * params.n_configs * params.n_configs / params.delta)
        self.full_test_term = math.sqrt(self.upper_log / (2.0 * params.max_test_size))
        self.max_sizes = (params.max_train_size, params.max_test_size)

    def upper(self, outcome: ProbeOutcome) -> float:
        root = math.sqrt(self.upper_log / (2.0 * outcome.train_sample_size))
        return outcome.train_accuracy + root + self.full_test_term

    def lower(self, outcome: ProbeOutcome) -> float:
        return outcome.test_accuracy - math.sqrt(self.lower_log / (2.0 * outcome.test_sample_size))

    def update(
        self, outcome: ProbeOutcome, cached: ConfidenceInterval
    ) -> tuple[ConfidenceInterval, ConfidenceInterval, bool]:
        """:func:`~abcselect.engine.update_interval` under this run's parameters."""
        (max_train, max_test), s_te = self.max_sizes, outcome.test_sample_size
        if s_te > max_test:
            raise ValueError(f"test sample size {s_te} exceeds the full test set size {max_test}")
        if outcome.train_sample_size >= max_train and s_te >= max_test:
            raw = clamp_interval(outcome.test_accuracy, outcome.test_accuracy)
        else:
            raw = clamp_interval(self.lower(outcome), self.upper(outcome))
        return (raw, *clamp_to_cached(raw, cached))


def upper_bound(outcome: ProbeOutcome, params: RunParams) -> float:
    """Unclamped upper confidence bound of the real test accuracy.

    acc_train + sqrt(ln(4 n^2 / delta) / (2 s_tr))
              + sqrt(ln(4 n^2 / delta) / (2 full_test_size))

    Nonincreasing in s_tr and in the full test size, nondecreasing in the
    number of configurations and in the train accuracy. The caller clamps
    into [0, 1].
    """
    return IntervalRule(params).upper(outcome)


def lower_bound(outcome: ProbeOutcome, params: RunParams) -> float:
    """Unclamped lower confidence bound of the real test accuracy.

    acc_test - sqrt(ln(2 n^2 / delta) / (2 s_te))

    Always <= the probe's test accuracy; nondecreasing in s_te,
    nonincreasing in the number of configurations.
    """
    return IntervalRule(params).lower(outcome)


def clamp_to_cached(
    raw: ConfidenceInterval, cached: ConfidenceInterval
) -> tuple[ConfidenceInterval, bool]:
    """Intersect a fresh interval with the cached snapshot interval.

    Returns the nested interval plus a flag that is True when the two were
    disjoint; in that anomalous case the result collapses to the cached
    endpoint nearest the fresh interval. A fresh interval already inside
    the cached one is returned itself.
    """
    if raw.lower >= cached.lower and raw.upper <= cached.upper:
        return raw, False
    if raw.upper < cached.lower:
        return ConfidenceInterval(cached.lower, cached.lower), True
    if raw.lower > cached.upper:
        return ConfidenceInterval(cached.upper, cached.upper), True
    return (
        ConfidenceInterval(max(raw.lower, cached.lower), min(raw.upper, cached.upper)),
        False,
    )
