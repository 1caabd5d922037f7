"""The incremental active-set index and O(1) picks against the
O(n)-per-round loop they replaced.

``reference_run`` is the engine loop as it was before the index: every
round rescans the active set for the warm-up sweeps and the pick, builds
every gradient estimate, sums G with ``math.fsum`` (correctly rounded, so
the exact sum's oracle), tests every active configuration against the prune
rule and copies every surviving interval into its snapshot. Hypothesis
drives it and the engine over small random instances whose accuracies sit
on a coarse grid, so that upper bounds tie often, and compares picks,
pruned tuples and final configuration states. ``ReferenceIndex`` does the
same for the index on its own, with the arbitrary updates and prunes an
audit replay can feed it.
"""

import math
import random
from collections.abc import Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abcselect.ci_estimator import IntervalRule, clamp_to_cached
from abcselect.core import (
    ConfidenceInterval,
    ProbeOutcome,
    RunParams,
    RunTrace,
    TraceRound,
    clamp_interval,
    initial_states,
)
from abcselect.engine import ActiveSet, run_abc
from abcselect.scheduler import (
    GradientEstimate,
    GradientSum,
    SchedulerKind,
    gradient_ci_pick,
    next_sample_size,
    ucb_pick,
)

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def reference_run(configs, backend, params, scheduler):
    """Unbudgeted selection loop with O(n) warm-up, prune and snapshot."""
    active_set = {c.id for c in configs if c.active}
    prev_ci = {}
    trace = RunTrace(params=params)
    rule = IntervalRule(params)
    incumbent_id, incumbent_lower = configs[0].id, 0.0
    round_index = 0

    def active_configs():
        return [configs[i - 1] for i in sorted(active_set)]

    def next_sizes(cfg):
        # Each size grown from the last probe's; full test data at full train data.
        if not cfg.history:
            s_tr, s_te = params.initial_train_size, params.initial_test_size
        else:
            last = cfg.history[-1]
            s_tr = next_sample_size(
                last.train_sample_size, params.step_factor_c, params.max_train_size
            )
            s_te = next_sample_size(
                last.test_sample_size, params.step_factor_c, params.max_test_size
            )
        if s_tr >= params.max_train_size:
            s_te = params.max_test_size
        return s_tr, s_te

    def saturated(cfg):
        return bool(cfg.history) and cfg.history[-1].train_sample_size >= params.max_train_size

    def choose():
        active = active_configs()
        for want in (0, 1):
            for cfg in active:
                if len(cfg.history) == want:
                    return cfg
        if scheduler is SchedulerKind.UCB:
            return min(active, key=lambda c: (-c.ci.upper, c.id))
        if scheduler is SchedulerKind.ROUND_ROBIN:
            return min(active, key=lambda c: (len(c.history), c.id))
        incumbent = configs[incumbent_id - 1]
        others = [c for c in active if c is not incumbent]
        runner_up = min(others, key=lambda c: (-c.ci.upper, c.id))
        if saturated(incumbent):
            return runner_up
        grads = {}
        for cfg in active:
            last, prev = cfg.history[-1], cfg.history[-2]
            grads[cfg.id] = GradientEstimate(
                delta_cost=max(0.0, last.cost - prev.cost),
                delta_lower=cfg.ci.lower - prev_ci[cfg.id].lower,
                delta_upper=cfg.ci.upper - prev_ci[cfg.id].upper,
            )
        lead = grads[incumbent_id]
        g1 = math.inf if lead.delta_lower <= 0.0 else lead.delta_cost / lead.delta_lower
        terms = [
            abs(g.delta_cost / g.delta_upper)
            for c in others
            if (g := grads[c.id]).delta_upper < 0.0
        ]
        try:
            total = math.fsum(terms)
        except OverflowError:
            total = math.inf
        return incumbent if g1 <= total else runner_up

    while len(active_set) > 1:
        cfg = choose()
        s_tr, s_te = next_sizes(cfg)
        outcome = backend.probe(cfg.id, s_tr, s_te)
        round_index += 1
        if s_tr >= params.max_train_size and s_te >= params.max_test_size:
            raw = clamp_interval(outcome.test_accuracy, outcome.test_accuracy)
        else:
            raw = clamp_interval(rule.lower(outcome), rule.upper(outcome))
        ci, _ = clamp_to_cached(raw, cfg.cached_ci)
        prev_ci[cfg.id] = cfg.ci
        cfg.append_probe(outcome)
        cfg.ci = ci
        if ci.lower > incumbent_lower:
            incumbent_id, incumbent_lower = cfg.id, ci.lower
        pruned = tuple(
            c.id
            for c in active_configs()
            if c.id != incumbent_id and c.ci.upper - incumbent_lower <= params.epsilon
        )
        for pid in pruned:
            configs[pid - 1].active = False
            active_set.discard(pid)
        if pruned:
            for c in active_configs():
                c.cached_ci = c.ci
        trace.append(
            TraceRound(round_index, cfg.id, outcome, ci, incumbent_id, pruned, bool(pruned))
        )
    return incumbent_id, trace


class GridBackend:
    """Accuracies and costs drawn on first use of each (config, sizes) and
    replayed afterwards, so two loops making the same probes see the same
    outcomes. Each configuration's accuracies stay near a base drawn from
    three values, so configurations survive the warm-up and tie often."""

    def __init__(self, draw, n, max_train, max_test):
        self._draw = draw
        self._base = {}
        self._outcomes = {}
        self.n_configs = n
        self.labels = tuple(f"grid-{i + 1}" for i in range(n))
        self.max_train_size = max_train
        self.max_test_size = max_test

    def probe(self, config_id, s_tr, s_te):
        key = (config_id, s_tr, s_te)
        if key not in self._outcomes:
            if config_id not in self._base:
                self._base[config_id] = self._draw(st.sampled_from((0.7, 0.75, 0.8)))
            noise = self._draw(st.sampled_from((-0.01, 0.0, 0.01, 0.1)))
            test = self._base[config_id] + noise
            gap = self._draw(st.sampled_from((0.0, 0.02, 0.05)))
            cost = self._draw(st.sampled_from((0.0, 1.0, 3.0))) + s_tr / 1000
            self._outcomes[key] = ProbeOutcome(s_tr, s_te, test + gap, test, cost)
        return self._outcomes[key]

    def estimate_cost(self, config_id, s_tr, s_te):
        return None

    def true_accuracy(self, config_id):
        return None


def final_states(states):
    return [(c.ci, c.cached_ci, c.active, len(c.history)) for c in states]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    n=st.integers(2, 7),
    train_doublings=st.integers(0, 7),
    test_doublings=st.integers(0, 4),
    epsilon=st.sampled_from((0.0, 0.01, 0.05)),
    delta=st.sampled_from((0.1, 0.5, 0.9)),
    scheduler=st.sampled_from(list(SchedulerKind)),
)
def test_engine_matches_reference_loop(
    data, n, train_doublings, test_doublings, epsilon, delta, scheduler
):
    max_train = 1000 * 2**train_doublings
    max_test = 1000 * 2**(train_doublings + test_doublings)
    params = RunParams(epsilon, delta, n, 1000, 1000, 2.0, 1.0, max_train, max_test, 0)
    backend = GridBackend(data.draw, n, max_train, max_test)

    ref_states = initial_states(list(backend.labels), params)
    ref_selected, ref_trace = reference_run(ref_states, backend, params, scheduler)

    states = initial_states(list(backend.labels), params)
    selected, trace = run_abc(states, backend, params, scheduler)

    assert trace.to_jsonl() == ref_trace.to_jsonl()
    assert selected == ref_selected
    assert final_states(states) == final_states(ref_states)


class ReferenceIndex:
    """Active set, intervals and snapshots kept by rescanning every call."""

    def __init__(self, n):
        self.ci = {i: ConfidenceInterval(0.0, 1.0) for i in range(1, n + 1)}
        self.cached = dict(self.ci)
        self.active = set(self.ci)
        self.snapshots = 0

    def update(self, cid, ci):
        self.ci[cid] = ci

    def due(self, incumbent_id, incumbent_lower, epsilon):
        return tuple(
            sorted(
                i
                for i in self.active
                if i != incumbent_id and self.ci[i].upper - incumbent_lower <= epsilon
            )
        )

    def prune(self, ids):
        self.active -= set(ids)
        if ids:
            self.snapshots += 1
            for i in self.active:
                self.cached[i] = self.ci[i]


def endpoint():
    # Grid values tie often; arbitrary floats probe rounding in the prune rule.
    return st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0))


def interval():
    return st.tuples(endpoint(), endpoint()).map(
        lambda t: ConfidenceInterval(min(t), max(t))
    )


def operation(n):
    ids = st.integers(0, n + 1)
    return st.one_of(
        st.tuples(st.just("update"), st.integers(1, n), interval()),
        st.tuples(
            st.just("prune_due"), ids, endpoint(), st.sampled_from((0.0, 0.01, 0.25))
        ),
        st.tuples(st.just("prune_ids"), st.lists(ids, max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_index_matches_reference_index(data, n):
    ops = data.draw(st.lists(operation(n), max_size=40))
    params = RunParams(0.01, 0.5, n, 1, 1, 2.0, 1.0, 1, 1, 0)
    states = initial_states([""] * n, params)
    index, ref = ActiveSet(states), ReferenceIndex(n)
    for op in ops:
        if op[0] == "update":
            _, cid, ci = op
            cfg = states[cid - 1]
            assert index.cached(cfg) == ref.cached[cid]
            index.update(cfg, ci)
            ref.update(cid, ci)
        elif op[0] == "prune_due":
            _, incumbent, lower, epsilon = op
            due = index.due(incumbent, lower, epsilon)
            assert due == ref.due(incumbent, lower, epsilon)
            index.prune(due)
            ref.prune(due)
        else:
            index.prune(op[1])
            ref.prune(op[1])
        assert index.active == ref.active
        assert index.snapshots == ref.snapshots
        assert [c.id for c in index.ranked] == sorted(
            ref.active, key=lambda i: (-ref.ci[i].upper, i)
        )
    index.flush()
    for cfg in states:
        assert cfg.active == (cfg.id in ref.active)
        assert (cfg.ci, cfg.cached_ci) == (ref.ci[cfg.id], ref.cached[cfg.id])


class CountingSequence(Sequence):
    """A read-only sequence that records which positions were read."""

    def __init__(self, items):
        self._items = items
        self.reads = set()

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        self.reads.add(i)
        return self._items[i]


def test_picks_read_at_most_the_first_two_ranked_entries():
    rng = random.Random(5)
    for n in (10, 1000):
        params = RunParams(0.01, 0.5, n, 1, 1, 2.0, 1.0, 1, 1, 0)
        states = initial_states([""] * n, params)
        for cfg in states:
            upper = rng.choice(GRID[1:] + (rng.random(),))
            cfg.ci = ConfidenceInterval(upper / 2, upper)
        index = ActiveSet(states)
        grads = GradientSum()
        for cfg in states:
            grads.set(cfg.id, GradientEstimate(rng.random(), rng.random() - 0.5, -rng.random()))
        for incumbent in (index.ranked[0].id, index.ranked[1].id, index.ranked[-1].id):
            for saturated in (False, True):
                ranked = CountingSequence(index.ranked)
                gradient_ci_pick(ranked, grads, incumbent, saturated)
                assert ranked.reads <= {0, 1}
        ranked = CountingSequence(index.ranked)
        assert ucb_pick(ranked) == index.ranked[0].id
        assert ranked.reads == {0}
