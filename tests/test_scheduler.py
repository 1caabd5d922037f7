import itertools
import math
import sys

import pytest
from hypothesis import given, strategies as st

from abcselect.core import ConfidenceInterval, ConfigurationState, ProbeOutcome, RunParams
from abcselect.engine import ActiveSet
from abcselect.scheduler import (
    GradientEstimate,
    GradientSum,
    SchedulerKind,
    gradient_ci_pick,
    next_sample_size,
    optimal_step_size,
    pick_next,
    round_robin_pick,
    size_ladder,
    sweeps,
    ucb_pick,
)


def make_config(cid, upper, lower=0.0, probes=2):
    cfg = ConfigurationState(id=cid, label=f"c{cid}")
    cfg.ci = ConfidenceInterval(lower, upper)
    for i in range(probes):
        cfg.append_probe(ProbeOutcome(1000 * (i + 1), 2000, 0.9, 0.85, 1.0))
    return cfg


class TestOptimalStepSize:
    def test_linear_cost_doubles(self):
        assert optimal_step_size(1.0) == 2.0

    def test_quadratic_cost(self):
        assert optimal_step_size(2.0) == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_square_root_cost(self):
        assert optimal_step_size(0.5) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_step_size(0.0)
        with pytest.raises(ValueError):
            optimal_step_size(-1.0)


class TestNextSampleSize:
    def test_doubling(self):
        assert next_sample_size(1000, 2.0, 10**9) == 2000

    def test_cap_saturation(self):
        assert next_sample_size(900_000, 2.0, 1_000_000) == 1_000_000

    def test_fixed_point_at_cap(self):
        assert next_sample_size(1_000_000, 2.0, 1_000_000) == 1_000_000

    def test_minimum_increment(self):
        # growth factors near 1 must still move
        assert next_sample_size(2, 1.1, 100) == 3

    @given(st.integers(1, 10**6), st.floats(1.01, 8.0), st.integers(1, 10**7))
    def test_monotone_and_idempotent_at_cap(self, current, c, cap):
        if cap < current:
            with pytest.raises(ValueError):
                next_sample_size(current, c, cap)
            return
        grown = next_sample_size(current, c, cap)
        assert current <= grown <= cap
        if current < cap:
            assert grown > current
        assert next_sample_size(cap, c, cap) == cap


@st.composite
def ladder_params(draw):
    max_train, max_test = draw(st.integers(1, 3000)), draw(st.integers(1, 3000))
    c = draw(
        st.floats(1.0, 1.001, exclude_min=True)  # +1 steps, then near-1 growth
        | st.floats(1.001, 16.0)
        | st.sampled_from([1.0 + 2.0**-52, 2.0])
    )
    train0 = draw(st.integers(1, max_train) | st.just(max_train))  # at the full size too
    test0 = draw(st.integers(1, max_test))
    return RunParams(0.01, 0.5, 2, train0, test0, c, 1.0, max_train, max_test, 0)


@given(ladder_params())
def test_size_ladder_iterates_next_sample_size(params):
    # Each probe's sizes grown from the last probe's, full test data at full
    # train data, until a probe at full train data.
    expected, s_tr, s_te = [], params.initial_train_size, params.initial_test_size
    while True:
        if s_tr >= params.max_train_size:
            expected.append((s_tr, params.max_test_size))
            break
        expected.append((s_tr, s_te))
        s_tr = next_sample_size(s_tr, params.step_factor_c, params.max_train_size)
        s_te = next_sample_size(s_te, params.step_factor_c, params.max_test_size)
    assert list(size_ladder(params)) == expected


def test_size_ladder_caps_train_before_test():
    params = RunParams(0.01, 0.5, 2, 100, 100, 2.0, 1.0, 300, 10**6, 0)
    assert list(size_ladder(params)) == [(100, 100), (200, 200), (300, 10**6)]
    # The test size may reach its cap first; the train size still grows.
    params = RunParams(0.01, 0.5, 2, 100, 100, 2.0, 1.0, 10**6, 300, 0)
    assert list(size_ladder(params))[:4] == [(100, 100), (200, 200), (400, 300), (800, 300)]


def gradient_sum(estimates):
    sums = GradientSum()
    for cid, estimate in estimates.items():
        sums.set(cid, estimate)
    return sums


def ranked(configs):
    """``configs`` (ids 1..n, in id order) as the engine ranks them."""
    return ActiveSet(configs).ranked


class TestGradientCIPick:
    def test_leader_when_cheaper_per_unit(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.02, -0.01),   # g1 = 50
            2: GradientEstimate(1.0, 0.01, -0.01),   # G = 100
        })
        assert gradient_ci_pick([a, b], grads, incumbent_id=1) == 1

    def test_runner_up_when_leader_expensive(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.001, -0.01),  # g1 = 1000
            2: GradientEstimate(1.0, 0.01, -0.01),   # G = 100
        })
        assert gradient_ci_pick([a, b], grads, incumbent_id=1) == 2

    def test_stalled_lower_bound_is_infinite(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.0, -0.01),
            2: GradientEstimate(1.0, 0.01, -0.01),
        })
        assert gradient_ci_pick([a, b], grads, incumbent_id=1) == 2

    def test_nonnegative_upper_delta_contributes_zero(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        c = make_config(3, upper=0.85)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.02, -0.01),  # g1 = 50
            2: GradientEstimate(1.0, 0.01, 0.0),    # contributes 0
            3: GradientEstimate(1.0, 0.01, -0.1),   # contributes 10
        })
        # G = 10 < 50: runner-up (config 2, the second-highest upper)
        assert gradient_ci_pick([a, b, c], grads, incumbent_id=1) == 2

    def test_incumbent_leads_below_the_top_upper_bound(self):
        # LUCB's pair: the incumbent (2) leads and the top other configuration
        # by upper bound (1) is the runner-up; G sums over 1 and 3.
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90, lower=0.80)
        c = make_config(3, upper=0.85)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.01, -0.02),  # contributes 50
            2: GradientEstimate(1.0, 0.015, -0.5),  # g1 = 66.7
            3: GradientEstimate(1.0, 0.01, -0.1),   # contributes 10
        })
        assert gradient_ci_pick([a, b, c], grads, incumbent_id=2) == 1
        grads.set(3, GradientEstimate(1.0, 0.01, -0.05))  # contributes 20: G = 70
        assert gradient_ci_pick([a, b, c], grads, incumbent_id=2) == 2

    def test_saturated_incumbent_yields_runner_up(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        grads = gradient_sum({
            1: GradientEstimate(1.0, 0.02, -0.01),   # g1 = 50
            2: GradientEstimate(1.0, 0.01, -0.01),   # G = 100
        })
        assert gradient_ci_pick([a, b], grads, 1, incumbent_saturated=True) == 2
        assert gradient_ci_pick([a, b], grads, 2, incumbent_saturated=True) == 1

    def test_rejects_inactive_incumbent(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90)
        grads = gradient_sum({i: GradientEstimate(1.0, 0.01, -0.01) for i in (1, 2)})
        with pytest.raises(ValueError):
            gradient_ci_pick([a, b], grads, incumbent_id=3)

    def test_requires_two_probes_each(self):
        a = make_config(1, upper=0.95)
        b = make_config(2, upper=0.90, probes=1)
        grads = gradient_sum({1: GradientEstimate(1.0, 0.01, -0.01)})
        with pytest.raises(ValueError, match="1 of 2 active configurations"):
            gradient_ci_pick([a, b], grads, incumbent_id=1)

    @given(st.lists(st.floats(0.5, 1.0), min_size=2, max_size=8), st.data())
    def test_only_top_two_returned(self, uppers, data):
        # The two candidates are the incumbent and the top other configuration.
        configs = [make_config(i + 1, upper=u) for i, u in enumerate(uppers)]
        grads = gradient_sum({c.id: GradientEstimate(1.0, 0.01, -0.01) for c in configs})
        order = ranked(configs)
        incumbent = data.draw(st.sampled_from(order))
        runner_up = next(c for c in order if c is not incumbent)
        pick = gradient_ci_pick(order, grads, incumbent.id)
        assert pick in (incumbent.id, runner_up.id)


def term_estimate(term):
    """An estimate whose G term is exactly ``term``."""
    return GradientEstimate(delta_cost=term, delta_lower=0.0, delta_upper=-1.0)


def fsum_or_inf(terms):
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


TERMS = st.one_of(
    st.floats(0.0, 1e6),
    st.floats(0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e308, sys.float_info.max)),
)


class TestGradientSum:
    @given(st.lists(st.tuples(st.integers(1, 6), st.none() | TERMS), max_size=40))
    def test_equals_fsum_of_live_terms_after_any_sequence(self, ops):
        sums, live = GradientSum(), {}
        for cid, term in ops:
            if term is None:
                sums.discard(cid)
                live.pop(cid, None)
            else:
                sums.set(cid, term_estimate(term))
                live[cid] = term
            assert len(sums) == len(live)
            # No configuration 0: others(0) is the whole sum.
            for skip in range(7):
                expected = fsum_or_inf(t for i, t in live.items() if i != skip)
                assert sums.others(skip) == expected

    @given(st.lists(TERMS | st.just(math.inf), max_size=20), st.randoms())
    def test_adding_then_discarding_every_term_returns_to_zero(self, terms, rnd):
        sums = GradientSum()
        for cid, term in enumerate(terms, start=1):
            sums.set(cid, term_estimate(term))
        ids = list(range(1, len(terms) + 1))
        rnd.shuffle(ids)
        for cid in ids:
            sums.discard(cid)
        assert len(sums) == 0
        assert sums.others(0) == 0.0
        assert (sums._total, sums._infs) == (0, 0)

    def test_infinite_terms_are_counted_apart(self):
        sums = gradient_sum({1: term_estimate(math.inf), 2: term_estimate(0.25),
                             3: term_estimate(0.5)})
        assert sums.others(0) == math.inf
        assert sums.others(2) == math.inf
        assert sums.others(1) == 0.75
        sums.set(4, term_estimate(math.inf))
        assert sums.others(1) == math.inf
        sums.discard(4)
        sums.set(1, term_estimate(1.0))
        assert sums.others(0) == 1.75

    def test_finite_total_beyond_float_range_is_infinite(self):
        big = sys.float_info.max
        sums = gradient_sum({1: term_estimate(big), 2: term_estimate(big)})
        assert sums.others(0) == math.inf
        assert sums.others(1) == big

    def test_upper_bound_that_did_not_move_down_adds_zero(self):
        sums = gradient_sum({1: GradientEstimate(3.0, 0.1, 0.0),
                             2: GradientEstimate(3.0, 0.1, 0.2),
                             3: GradientEstimate(3.0, 0.1, -0.5)})
        assert sums.others(0) == 6.0


class TestUcbPick:
    def test_argmax(self):
        configs = [make_config(1, 0.90), make_config(2, 0.95), make_config(3, 0.85)]
        assert ucb_pick(ranked(configs)) == 2

    def test_tie_breaks_by_id(self):
        configs = [make_config(1, 0.90), make_config(2, 0.90)]
        assert ucb_pick(ranked(configs)) == 1

    def test_singleton(self):
        assert ucb_pick([make_config(7, 0.5)]) == 7


def round_robin(configs, ids=None):
    ids = [c.id for c in configs] if ids is None else ids
    return sweeps(configs, ids, itertools.count(2))


class TestRoundRobinPick:
    def test_min_probe_count(self):
        configs = [
            make_config(1, 0.9, probes=3),
            make_config(2, 0.9, probes=2),
            make_config(3, 0.9, probes=3),
        ]
        assert round_robin_pick(round_robin(configs)) == 2

    def test_tie_breaks_by_id(self):
        configs = [make_config(1, 0.9, probes=2), make_config(2, 0.9, probes=2)]
        assert round_robin_pick(round_robin(configs)) == 1

    def test_singleton(self):
        configs = [make_config(i, 0.9) for i in range(1, 5)]
        assert round_robin_pick(round_robin(configs, ids=[4])) == 4

    def test_sweeps_continue_in_fewest_probes_order(self):
        configs = [make_config(i, 0.9, probes=2) for i in range(1, 4)]
        ids = [1, 2, 3]
        sweep = round_robin(configs, ids)
        picks = []
        for _ in range(5):
            cfg = configs[round_robin_pick(sweep) - 1]
            cfg.append_probe(ProbeOutcome(1000 * (len(cfg.history) + 1), 2000, 0.9, 0.85, 1.0))
            picks.append(cfg.id)
            if cfg.id == 2:  # pruned after its third probe
                cfg.active = False
                ids.remove(2)
        assert picks == [1, 2, 3, 1, 3]

    def test_no_active_configuration(self):
        with pytest.raises(ValueError):
            round_robin_pick(round_robin([make_config(1, 0.9)], ids=[]))


def test_pick_next_dispatch():
    configs = [make_config(1, 0.9), make_config(2, 0.95)]
    order = ranked(configs)
    grads = gradient_sum({i: GradientEstimate(1.0, 0.01, -0.01) for i in (1, 2)})
    assert pick_next(SchedulerKind.UCB, order, grads, 1) == 2
    sweep = round_robin(configs)
    assert pick_next(SchedulerKind.ROUND_ROBIN, order, grads, 1, sweep=sweep) == 1
    with pytest.raises(ValueError):
        pick_next(SchedulerKind.ROUND_ROBIN, order, grads, 1)
    assert pick_next(SchedulerKind.GRADIENT_CI, order, grads, 1) in (1, 2)
    assert pick_next(SchedulerKind.UCB, [configs[0]], GradientSum(), 1) == 1
    # Gradient-CI skips a saturated incumbent.
    kind = SchedulerKind.GRADIENT_CI
    assert pick_next(kind, order, grads, 2, incumbent_saturated=True) == 1
    assert pick_next(kind, order, grads, 1, incumbent_saturated=True) == 2


def test_reported_cost_ratio_versus_brute_force_schedule():
    """Accumulated scheduler cost against the cheapest single-probe-per-config
    schedule on the geometric grid at zero tolerance. The bound-noise makes
    this a report rather than a hard assertion; ratios are printed and only
    sanity-checked.
    """
    import numpy as np

    from abcselect.ci_estimator import IntervalRule
    from abcselect.engine import run_abc
    from abcselect.probes import CurveSpec, SyntheticBackend, SyntheticInstance
    from abcselect.core import ProbeOutcome, RunParams, initial_states

    from conftest import bound_params

    curves = (
        CurveSpec(a_inf=0.90, b=0.4, beta=0.5, overfit_gap=0.2, gamma=0.5,
                  kappa=1.0, alpha=1.0),
        CurveSpec(a_inf=0.85, b=0.4, beta=0.5, overfit_gap=0.2, gamma=0.5,
                  kappa=1.0, alpha=1.0),
        CurveSpec(a_inf=0.80, b=0.4, beta=0.5, overfit_gap=0.2, gamma=0.5,
                  kappa=1.0, alpha=1.0),
    )
    instance = SyntheticInstance(
        name="ratio", curves=curves, max_train_size=2**14 * 1000,
        max_test_size=2**15 * 1000,
    )
    n = len(curves)
    s0, t0 = 1000, 2000
    grid = [
        (min(s0 * 2**k, instance.max_train_size), min(t0 * 2**k, instance.max_test_size))
        for k in range(15)
    ]

    def noise_free_bounds(cfg_idx, s, t):
        spec = curves[cfg_idx]
        outcome = ProbeOutcome(s, t, spec.train_accuracy(s), spec.true_accuracy(s), 0.0)
        rule = IntervalRule(bound_params(n, 0.5, instance.max_test_size))
        return rule.lower(outcome), min(1.0, rule.upper(outcome))

    full_train_cost = curves[0].cost(instance.max_train_size)
    best_probe_oracle = np.inf
    for i1 in range(len(grid)):
        l1, _ = noise_free_bounds(0, *grid[i1])
        cost = curves[0].cost(grid[i1][0])
        feasible = True
        for j in (1, 2):
            ok = [k for k in range(len(grid)) if noise_free_bounds(j, *grid[k])[1] <= l1]
            if not ok:
                feasible = False
                break
            cost += curves[j].cost(grid[min(ok)][0])
        if feasible:
            best_probe_oracle = min(best_probe_oracle, cost)
    assert np.isfinite(best_probe_oracle) and best_probe_oracle > 0

    for kind in (SchedulerKind.GRADIENT_CI, SchedulerKind.UCB):
        backend = SyntheticBackend(instance, seed=7)
        params = RunParams(0.0, 0.5, n, s0, t0, 2.0, 1.0,
                           instance.max_train_size, instance.max_test_size, 7)
        states = initial_states(list(backend.labels), params)
        _, trace = run_abc(states, backend, params, kind)
        probe_ratio = trace.wall_cost_total / best_probe_oracle
        total_ratio = (trace.wall_cost_total + full_train_cost) / (
            best_probe_oracle + full_train_cost
        )
        print(
            f"\n{kind.value}: probe-cost ratio {probe_ratio:.2f}, "
            f"with-final-training ratio {total_ratio:.2f} "
            f"(guide: <= 4 when bound assumptions hold exactly)"
        )
        assert probe_ratio > 0
