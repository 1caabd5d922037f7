"""Confidence bounds on a configuration's real test accuracy, derived from
one probe on sampled data, plus the snapshot clamping that keeps the
interval nested inside the one cached at the last pruning round.

Both bounds are Hoeffding-style: the upper bound starts from the train
accuracy on the sampled training set and adds deviation terms for the
training sample size and the full test set size; the lower bound starts
from the test accuracy on the sampled test set and subtracts a deviation
term for the test sample size. The number of configurations, delta and the
full test set size come from the run's :class:`~abcselect.core.RunParams`,
which validates them. :func:`abcselect.engine.update_interval` combines
these pieces into the post-probe interval.
"""

from __future__ import annotations

import math

from .core import ConfidenceInterval, ProbeOutcome, RunParams

__all__ = [
    "clamp_to_cached",
    "lower_bound",
    "upper_bound",
]


def upper_bound(outcome: ProbeOutcome, params: RunParams) -> float:
    """Unclamped upper confidence bound of the real test accuracy.

    acc_train + sqrt(ln(4 n^2 / delta) / (2 s_tr))
              + sqrt(ln(4 n^2 / delta) / (2 full_test_size))

    Nonincreasing in s_tr and in the full test size, nondecreasing in the
    number of configurations and in the train accuracy. The caller clamps
    into [0, 1].
    """
    log_term = math.log(4.0 * params.n_configs * params.n_configs / params.delta)
    return (
        outcome.train_accuracy
        + math.sqrt(log_term / (2.0 * outcome.train_sample_size))
        + math.sqrt(log_term / (2.0 * params.max_test_size))
    )


def lower_bound(outcome: ProbeOutcome, params: RunParams) -> float:
    """Unclamped lower confidence bound of the real test accuracy.

    acc_test - sqrt(ln(2 n^2 / delta) / (2 s_te))

    Always <= the probe's test accuracy; nondecreasing in s_te,
    nonincreasing in the number of configurations.
    """
    log_term = math.log(2.0 * params.n_configs * params.n_configs / params.delta)
    return outcome.test_accuracy - math.sqrt(log_term / (2.0 * outcome.test_sample_size))


def clamp_to_cached(
    raw: ConfidenceInterval, cached: ConfidenceInterval
) -> tuple[ConfidenceInterval, bool]:
    """Intersect a fresh interval with the cached snapshot interval.

    Returns the nested interval plus a flag that is True when the two were
    disjoint; in that anomalous case the result collapses to the cached
    endpoint nearest the fresh interval.
    """
    if raw.upper < cached.lower:
        return ConfidenceInterval(cached.lower, cached.lower), True
    if raw.lower > cached.upper:
        return ConfidenceInterval(cached.upper, cached.upper), True
    return (
        ConfidenceInterval(max(raw.lower, cached.lower), min(raw.upper, cached.upper)),
        False,
    )
