import math

import pytest
from hypothesis import given, settings, strategies as st

from abcselect.ci_estimator import IntervalRule, clamp_to_cached, lower_bound, upper_bound
from abcselect.core import ConfidenceInterval, ProbeOutcome, RunParams, clamp_interval
from abcselect.engine import update_interval

from conftest import bound_params

# Frozen reference values, computed with a 40-digit evaluation of the bound
# formulas (see test_acceptance for the live high-precision comparison).
U_REFERENCE = 0.9066169763124238
L_REFERENCE = 0.7660692978779244


def make_inputs(s_tr=1000, s_te=2000, a_tr=0.85, a_te=0.80, n=5, delta=0.5,
                full_test=100_000):
    """A probe and the run parameters the bounds read, as a pair."""
    return ProbeOutcome(s_tr, s_te, a_tr, a_te, 1.0), bound_params(n, delta, full_test)


class TestUpperBound:
    def test_worked_value(self):
        assert upper_bound(*make_inputs()) == pytest.approx(U_REFERENCE, abs=1e-15)

    def test_vanishing_variation_terms(self):
        inp = make_inputs(s_tr=10**12, full_test=10**12)
        assert upper_bound(*inp) == pytest.approx(0.85, abs=1e-5)

    def test_clamps_above_one(self):
        inp = make_inputs(s_tr=50, s_te=50, a_tr=0.99, full_test=100)
        raw = upper_bound(*inp)
        assert raw > 1.0
        assert clamp_interval(0.0, raw).upper == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_inputs(n=0)
        with pytest.raises(ValueError):
            make_inputs(delta=1.0)
        outcome, params = make_inputs(full_test=100)  # smaller than the test sample
        with pytest.raises(ValueError):
            update_interval(outcome, ConfidenceInterval(0.0, 1.0), params)


class TestLowerBound:
    def test_worked_value(self):
        assert lower_bound(*make_inputs()) == pytest.approx(L_REFERENCE, abs=1e-15)

    def test_clamps_below_zero(self):
        inp = make_inputs(s_te=10, a_te=0.02, full_test=100_000)
        raw = lower_bound(*inp)
        assert raw < 0.0
        assert clamp_interval(raw, 1.0).lower == 0.0

    def test_vanishing_variation_term(self):
        inp = make_inputs(s_te=10**12, full_test=10**12)
        assert lower_bound(*inp) == pytest.approx(0.80, abs=1e-5)

    def test_never_exceeds_test_accuracy(self):
        assert lower_bound(*make_inputs()) <= 0.80


valid_inputs = st.builds(
    make_inputs,
    s_tr=st.integers(1, 10**9),
    s_te=st.integers(1, 10**5),  # headroom for the x100 growth cases below
    a_tr=st.floats(0, 1),
    a_te=st.floats(0, 1),
    n=st.integers(1, 1000),
    delta=st.floats(1e-6, 0.999),
    full_test=st.just(10**7),
)


def grown(inp, **changes):
    """``make_inputs`` arguments of ``inp`` with ``changes`` applied."""
    outcome, params = inp
    kwargs = dict(
        s_tr=outcome.train_sample_size, s_te=outcome.test_sample_size,
        a_tr=outcome.train_accuracy, a_te=outcome.test_accuracy,
        n=params.n_configs, delta=params.delta, full_test=params.max_test_size,
    )
    kwargs.update(changes)
    return make_inputs(**kwargs)


class TestMonotonicity:
    @given(valid_inputs, st.integers(2, 100))
    def test_upper_nonincreasing_in_train_size(self, inp, factor):
        bigger = grown(inp, s_tr=inp[0].train_sample_size * factor)
        assert upper_bound(*bigger) <= upper_bound(*inp)

    @given(valid_inputs, st.integers(2, 100))
    def test_upper_nondecreasing_in_n(self, inp, factor):
        more = grown(inp, n=inp[1].n_configs * factor)
        assert upper_bound(*more) >= upper_bound(*inp)

    @given(valid_inputs, st.integers(2, 100))
    def test_lower_nondecreasing_in_test_size(self, inp, factor):
        bigger = grown(inp, s_te=inp[0].test_sample_size * factor)
        assert lower_bound(*bigger) >= lower_bound(*inp)

    @given(valid_inputs, st.floats(0.0, 0.2))
    def test_upper_nondecreasing_in_train_accuracy(self, inp, bump):
        higher = grown(inp, a_tr=min(1.0, inp[0].train_accuracy + bump))
        assert upper_bound(*higher) >= upper_bound(*inp)


class TestSnapshotClamp:
    def test_lower_clamped_into_cache(self):
        nested, disjoint = clamp_to_cached(
            ConfidenceInterval(0.70, 0.90), ConfidenceInterval(0.72, 0.95)
        )
        assert nested == ConfidenceInterval(0.72, 0.90)
        assert not disjoint

    def test_already_nested_unchanged(self):
        nested, disjoint = clamp_to_cached(
            ConfidenceInterval(0.75, 0.90), ConfidenceInterval(0.72, 0.95)
        )
        assert nested == ConfidenceInterval(0.75, 0.90)
        assert not disjoint

    def test_fresh_cache_is_vacuous(self):
        raw = ConfidenceInterval(0.3, 0.6)
        nested, disjoint = clamp_to_cached(raw, ConfidenceInterval(0.0, 1.0))
        assert nested == raw and not disjoint

    def test_disjoint_collapses_to_nearest_endpoint(self):
        below, flag = clamp_to_cached(
            ConfidenceInterval(0.1, 0.2), ConfidenceInterval(0.5, 0.9)
        )
        assert flag and below == ConfidenceInterval(0.5, 0.5)
        above, flag = clamp_to_cached(
            ConfidenceInterval(0.95, 0.99), ConfidenceInterval(0.5, 0.9)
        )
        assert flag and above == ConfidenceInterval(0.9, 0.9)

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
    )
    def test_result_always_inside_cache(self, a, b, c, d):
        raw = ConfidenceInterval(min(a, b), max(a, b))
        cached = ConfidenceInterval(min(c, d), max(c, d))
        nested, _ = clamp_to_cached(raw, cached)
        assert nested.is_subset_of(cached)


class TestEstimateCI:
    def test_estimate_nested_in_cache(self):
        outcome, params = make_inputs()
        cached = ConfidenceInterval(0.72, 0.95)
        raw, ci, disjoint = update_interval(outcome, cached, params)
        assert ci.is_subset_of(cached) and not disjoint
        # lower bound 0.766 beats the cache floor; upper 0.907 under the cap
        assert ci == raw
        assert ci.lower == pytest.approx(L_REFERENCE, abs=1e-15)
        assert ci.upper == pytest.approx(U_REFERENCE, abs=1e-15)

    def test_fresh_configuration_gets_raw_interval(self):
        outcome, params = make_inputs()
        raw, ci, disjoint = update_interval(outcome, ConfidenceInterval(0.0, 1.0), params)
        assert ci == raw and not disjoint
        assert ci.lower == pytest.approx(L_REFERENCE, abs=1e-15)
        assert ci.upper == pytest.approx(U_REFERENCE, abs=1e-15)


def test_update_interval():
    outcome, params = make_inputs()  # full sets: 10**12 train rows, 100,000 test rows
    fresh = ConfidenceInterval(0.0, 1.0)
    # Snapshot clamp: the nested interval keeps the snapshot's tighter ends.
    _, nested, disjoint = update_interval(outcome, ConfidenceInterval(0.78, 0.80), params)
    assert nested == ConfidenceInterval(0.78, 0.80) and not disjoint
    # Disjoint from the snapshot: collapse to its nearest endpoint, flagged.
    raw, nested, disjoint = update_interval(outcome, ConfidenceInterval(0.95, 0.99), params)
    assert raw.upper < 0.95 and nested == ConfidenceInterval(0.95, 0.95) and disjoint
    # [0, 1] clamp of both bounds.
    raw, _, _ = update_interval(ProbeOutcome(50, 50, 0.99, 0.02, 1.0), fresh, params)
    assert raw == ConfidenceInterval(0.0, 1.0)
    # Saturation: full training and test data give the exact point acc_test.
    full = ProbeOutcome(10**12, 100_000, 0.9, 0.8, 1.0)
    assert update_interval(full, fresh, params) == (
        ConfidenceInterval(0.8, 0.8), ConfidenceInterval(0.8, 0.8), False
    )
    # A test sample beyond the full test set is rejected.
    with pytest.raises(ValueError):
        update_interval(ProbeOutcome(1000, 100_001, 0.9, 0.8, 1.0), fresh, params)


def reference_bounds(outcome, params):
    """Both unclamped bounds, each computed from ``params`` on every call,
    as a run did before :class:`IntervalRule`."""
    n, delta = params.n_configs, params.delta
    upper_log = math.log(4.0 * n * n / delta)
    upper = (
        outcome.train_accuracy
        + math.sqrt(upper_log / (2.0 * outcome.train_sample_size))
        + math.sqrt(upper_log / (2.0 * params.max_test_size))
    )
    lower_log = math.log(2.0 * n * n / delta)
    lower = outcome.test_accuracy - math.sqrt(lower_log / (2.0 * outcome.test_sample_size))
    return lower, upper


def reference_update(outcome, cached, params):
    """The interval update from :func:`reference_bounds`, with the snapshot
    clamp by ``max``/``min`` alone."""
    s_tr, s_te = outcome.train_sample_size, outcome.test_sample_size
    if s_tr >= params.max_train_size and s_te >= params.max_test_size:
        raw = clamp_interval(outcome.test_accuracy, outcome.test_accuracy)
    else:
        raw = clamp_interval(*reference_bounds(outcome, params))
    if raw.upper < cached.lower:
        return raw, ConfidenceInterval(cached.lower, cached.lower), True
    if raw.lower > cached.upper:
        return raw, ConfidenceInterval(cached.upper, cached.upper), True
    nested = ConfidenceInterval(max(raw.lower, cached.lower), min(raw.upper, cached.upper))
    return raw, nested, False


def bits(result):
    """``(raw, nested, disjoint)`` with every endpoint as its exact bits
    (``float.hex`` tells -0.0 from 0.0)."""
    raw, nested, disjoint = result
    return (raw.lower.hex(), raw.upper.hex(), nested.lower.hex(), nested.upper.hex(), disjoint)


unit = st.floats(-0.0, 1.0)


@st.composite
def rule_cases(draw):
    n = draw(st.integers(1, 10_000))
    delta = draw(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([5e-324, 1e-300, 1.0 - 2.0**-53, 0.5])
    )
    max_train, max_test = draw(st.integers(1, 10**12)), draw(st.integers(1, 10**9))
    if draw(st.booleans()):  # a probe on the full data
        s_tr, s_te = max_train, max_test
    else:  # large samples too, whose bounds fall inside [0, 1]
        s_tr = draw(st.integers(1, max_train) | st.integers(max_train // 2 + 1, max_train))
        s_te = draw(st.integers(1, max_test) | st.integers(max_test // 2 + 1, max_test))
    outcome = ProbeOutcome(s_tr, s_te, draw(unit), draw(unit), 1.0)
    a, b = draw(unit), draw(unit)
    cached = ConfidenceInterval(min(a, b), max(a, b))  # disjoint from raw at times
    params = RunParams(0.01, delta, n, 1, 1, 2.0, 1.0, max_train, max_test, 0)
    return outcome, cached, params


@settings(max_examples=500, deadline=None)
@given(rule_cases())
def test_interval_rule_matches_per_call_bounds_bit_for_bit(case):
    outcome, cached, params = case
    lower, upper = reference_bounds(outcome, params)
    assert lower_bound(outcome, params).hex() == lower.hex()
    assert upper_bound(outcome, params).hex() == upper.hex()
    expected = bits(reference_update(outcome, cached, params))
    assert bits(IntervalRule(params).update(outcome, cached)) == expected
    assert bits(update_interval(outcome, cached, params)) == expected
