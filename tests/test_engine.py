import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abcselect.baselines import full_run
from abcselect.core import (
    BackendError,
    ConfidenceInterval,
    ConfigurationState,
    ProbeOutcome,
    RunParams,
    initial_states,
)
from abcselect.engine import (
    ActiveSet,
    EngineState,
    anytime_best_guess,
    build_report,
    run_abc,
    select_with_budget,
    verify_selection,
)
from abcselect.harness import (
    make_expensive_decoy_instance,
    make_plateau_instance,
    make_sweep_instance,
    make_two_config_instance,
    structural_audit,
)
from abcselect.scheduler import SchedulerKind

from conftest import fresh_run_inputs


class StubBackend:
    """Fixed train/test accuracies per configuration; unit cost per sample."""

    def __init__(self, accs, max_train=100_000, max_test=100_000, full_accs=None):
        self.accs = accs
        self._max_train = max_train
        self._max_test = max_test
        self.full_accs = full_accs or accs

    @property
    def n_configs(self):
        return len(self.accs)

    @property
    def labels(self):
        return tuple(f"stub-{i + 1}" for i in range(len(self.accs)))

    @property
    def max_train_size(self):
        return self._max_train

    @property
    def max_test_size(self):
        return self._max_test

    def probe(self, config_id, s_tr, s_te):
        full = s_tr >= self._max_train and s_te >= self._max_test
        acc = self.full_accs[config_id - 1] if full else self.accs[config_id - 1]
        return ProbeOutcome(s_tr, s_te, min(1.0, acc + 0.05), acc, float(s_tr))

    def estimate_cost(self, config_id, s_tr, s_te):
        return float(s_tr)

    def true_accuracy(self, config_id):
        return None


class CountingBackend(StubBackend):
    """StubBackend that records every probe call."""

    def __init__(self, accs, **kwargs):
        super().__init__(accs, **kwargs)
        self.calls = []

    def probe(self, config_id, s_tr, s_te):
        self.calls.append((config_id, s_tr, s_te))
        return super().probe(config_id, s_tr, s_te)


class TestRunAbc:
    def test_single_configuration_returns_without_probing(self):
        inst = make_two_config_instance().truncated(1)
        states, backend, params = fresh_run_inputs(inst, seed=1)
        selected, trace = run_abc(states, backend, params)
        assert selected == 1
        assert trace.n_rounds == 0
        assert trace.final_selection == 1

    def test_two_well_separated_configs(self):
        inst = make_two_config_instance()
        states, backend, params = fresh_run_inputs(inst, seed=11)
        selected, trace = run_abc(states, backend, params)
        truths = [backend.true_accuracy(i) for i in (1, 2)]
        assert truths[0] == pytest.approx(0.90, abs=1e-9)
        assert truths[1] == pytest.approx(0.70, abs=1e-9)
        assert selected == 1  # zero accuracy loss
        # exhaustive evaluation agrees on the argmax
        best, _, _ = full_run([1, 2], backend)
        assert best == selected
        # termination by pruning eliminates exactly n - 1 configurations
        assert trace.pruned_total == 1
        assert trace.n_snapshots < params.n_configs

    def test_vacuous_tolerance_ends_after_first_prune_opportunity(self):
        inst = make_two_config_instance()
        states, backend, params = fresh_run_inputs(inst, seed=5, epsilon=1.0)
        selected, trace = run_abc(states, backend, params)
        assert trace.n_rounds == 1
        assert selected == 1
        # everyone but the incumbent is within a vacuous tolerance
        assert trace.rounds[0].pruned_ids == (2,)

    def test_trace_passes_structural_audit(self):
        inst = make_plateau_instance(3)
        states, backend, params = fresh_run_inputs(inst, seed=21)
        _, trace = run_abc(states, backend, params, SchedulerKind.UCB)
        assert structural_audit(trace.rounds, params) == []

    def test_determinism_bit_identical(self):
        inst = make_plateau_instance(4)
        runs = []
        for _ in range(2):
            states, backend, params = fresh_run_inputs(inst, seed=33)
            _, trace = run_abc(states, backend, params)
            runs.append(trace.to_jsonl())
        assert runs[0] == runs[1]

    def test_backend_failure_carries_round_context(self):
        class FailingBackend(StubBackend):
            def probe(self, config_id, s_tr, s_te):
                raise RuntimeError("disk on fire")

        backend = FailingBackend([0.9, 0.7])
        params = RunParams(0.01, 0.5, 2, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(list(backend.labels), params)
        with pytest.raises(BackendError, match="round 1"):
            run_abc(states, backend, params)

    @pytest.mark.parametrize("shift", [(1, 0), (0, 1), (-1, 0)])
    def test_outcome_at_other_sizes_is_a_backend_error(self, shift):
        class ResizingBackend(StubBackend):
            def probe(self, config_id, s_tr, s_te):
                return super().probe(config_id, s_tr + shift[0], s_te + shift[1])

        backend = ResizingBackend([0.9, 0.7])
        params = RunParams(0.01, 0.5, 2, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(list(backend.labels), params)
        with pytest.raises(BackendError, match=r"round 1 for config 1 \(s_tr=100, s_te=200\)"):
            run_abc(states, backend, params)

    def test_setup_validation(self):
        backend = StubBackend([0.9, 0.7])
        params = RunParams(0.01, 0.5, 3, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(["a", "b", "c"], params)
        with pytest.raises(ValueError):
            run_abc(states, backend, params)

    def test_saturation_collapses_to_exact_point_and_terminates(self):
        # Identical wide-interval configurations never separate early; growth
        # reaches full data and the interval collapses to the measured point.
        # A saturated incumbent is kept and never probed again; the other
        # configuration is then driven to full data and pruned by the point
        # it reaches, so the better one is returned as the sole survivor.
        for kind in SchedulerKind:
            backend = StubBackend(
                [0.5, 0.5], max_train=4000, max_test=4000, full_accs=[0.52, 0.5]
            )
            params = RunParams(0.001, 0.5, 2, 1000, 1000, 2.0, 1.0, 4000, 4000, 0)
            states = initial_states(list(backend.labels), params)
            selected, trace = run_abc(states, backend, params, kind)
            saturated = [r for r in trace.rounds if r.outcome.train_sample_size == 4000]
            assert [r.config_id for r in saturated] in ([1, 2], [2, 1])
            assert all(r.ci.width == 0.0 for r in saturated)
            assert all(r.incumbent_id not in r.pruned_ids for r in trace.rounds)
            assert trace.rounds[-1].pruned_ids == (2,)
            assert selected == trace.final_selection == 1
            assert [c.id for c in states if c.active] == [1]
            assert trace.flags == []


def engine_state(uppers, lowers, incumbent_id, active=None, probed=True):
    params = RunParams(0.01, 0.5, len(uppers), 1000, 2000, 2.0, 1.0,
                       10**6, 10**6, 0)
    configs = []
    for i, (u, l) in enumerate(zip(uppers, lowers), start=1):
        cfg = ConfigurationState(id=i, label=f"c{i}")
        cfg.ci = ConfidenceInterval(l, u)
        if probed:
            cfg.append_probe(ProbeOutcome(1000, 2000, 0.9, 0.8, 1.0))
        configs.append(cfg)
    active_ids = set(active) if active is not None else {c.id for c in configs}
    for cfg in configs:
        cfg.active = cfg.id in active_ids
    return EngineState(
        configs=configs,
        params=params,
        active=ActiveSet(configs),
        incumbent_id=incumbent_id,
        incumbent_lower=configs[incumbent_id - 1].ci.lower,
    )


class TestAnytimeBestGuess:
    def test_smaller_gap_wins(self):
        # incumbent (1): others' max upper 0.84, own lower 0.80 -> gap 0.04
        # top-upper (2): others' max upper 0.83, own lower 0.78 -> gap 0.05
        state = engine_state(
            uppers=[0.83, 0.84, 0.82], lowers=[0.80, 0.78, 0.40], incumbent_id=1
        )
        assert anytime_best_guess(state) == 1

    def test_equal_gaps_prefer_incumbent(self):
        state = engine_state(
            uppers=[0.84, 0.84], lowers=[0.80, 0.80], incumbent_id=1
        )
        assert anytime_best_guess(state) == 1

    def test_single_probed_configuration(self):
        state = engine_state(uppers=[0.9], lowers=[0.6], incumbent_id=1)
        assert anytime_best_guess(state) == 1

    def test_top_upper_wins_on_smaller_gap(self):
        # incumbent (1): gap = 0.95 - 0.80 = 0.15
        # top-upper (2): gap = 0.85 - 0.75 = 0.10
        state = engine_state(
            uppers=[0.85, 0.95], lowers=[0.80, 0.75], incumbent_id=1
        )
        assert anytime_best_guess(state) == 2


class TestSelectWithBudget:
    def test_unbounded_budget_matches_plain_run(self):
        inst = make_plateau_instance(6)
        states, backend, params = fresh_run_inputs(inst, seed=44)
        sel_plain, trace_plain = run_abc(states, backend, params, SchedulerKind.UCB)
        states2, backend2, params2 = fresh_run_inputs(inst, seed=44)
        sel_budget, trace_budget = select_with_budget(
            states2, backend2, params2, SchedulerKind.UCB, math.inf
        )
        assert sel_budget == sel_plain
        assert trace_budget.to_jsonl() == trace_plain.to_jsonl()

    def test_budget_below_first_probe_returns_config_one(self):
        inst = make_two_config_instance()
        states, backend, params = fresh_run_inputs(inst, seed=2)
        selected, trace = select_with_budget(
            states, backend, params, SchedulerKind.GRADIENT_CI, 10.0
        )
        assert selected == 1
        assert trace.n_rounds == 0
        assert any("budget" in f for f in trace.flags)

    def test_never_exceeds_budget_with_estimates(self):
        inst = make_plateau_instance(7)
        budget = 25_000.0
        states, backend, params = fresh_run_inputs(inst, seed=9)
        _, trace = select_with_budget(
            states, backend, params, SchedulerKind.UCB, budget
        )
        assert trace.wall_cost_total <= budget

    def test_rejects_nonpositive_budget(self):
        inst = make_two_config_instance()
        states, backend, params = fresh_run_inputs(inst, seed=2)
        with pytest.raises(ValueError):
            select_with_budget(states, backend, params, SchedulerKind.UCB, 0.0)


class NoEstimateBackend:
    """A backend whose probe costs are known only after the probe, as with
    measured wall time: ``estimate_cost`` returns None."""

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def estimate_cost(self, config_id, s_tr, s_te):
        return None


READOUT_FAMILIES = {
    "plateau": lambda seed: make_plateau_instance(seed),
    "sweep": lambda seed: make_sweep_instance(seed, n=6),
    "decoy": lambda seed: make_expensive_decoy_instance(seed),
    "two_config": lambda seed: make_two_config_instance(),
}


def budget_flag(trace):
    flags = [f for f in trace.flags if f.startswith("budget stop")]
    assert len(flags) <= 1
    return flags[0] if flags else None


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(sorted(READOUT_FAMILIES)),
    seed=st.integers(0, 20),
    scheduler=st.sampled_from(list(SchedulerKind)),
    estimates=st.booleans(),
    budgets=st.lists(
        st.one_of(st.floats(1.0, 1e10), st.sampled_from((1e3, 2e5, 2e6, math.inf))),
        max_size=5,
    ).map(sorted),
)
def test_budget_readouts_match_select_with_budget(family, seed, scheduler, estimates, budgets):
    instance = READOUT_FAMILIES[family](seed)

    def inputs():
        states, backend, params = fresh_run_inputs(instance, seed=100 + seed)
        return states, (backend if estimates else NoEstimateBackend(backend)), params

    plain_selected, plain = run_abc(*inputs(), scheduler)
    selected, trace = run_abc(*inputs(), scheduler, budgets)
    assert selected == plain_selected
    assert trace.to_jsonl() == plain.to_jsonl()
    assert trace.flags == plain.flags
    assert plain.budget_readouts == []
    assert [r.budget for r in trace.budget_readouts] == budgets

    for readout in trace.budget_readouts:
        expected_selected, expected = select_with_budget(*inputs(), scheduler, readout.budget)
        assert (
            readout.selected,
            readout.rounds,
            readout.wall_cost_total,
            readout.pruned_total,
            readout.flag,
        ) == (
            expected_selected,
            expected.n_rounds,
            expected.wall_cost_total,
            expected.pruned_total,
            budget_flag(expected),
        )
        assert expected.to_jsonl() == "".join(
            plain.to_jsonl().splitlines(keepends=True)[: readout.rounds]
        )
        if readout.flag is None:
            assert (readout.selected, readout.rounds) == (plain_selected, plain.n_rounds)
        elif estimates:
            assert readout.flag.startswith("budget stop before round")
        else:
            assert readout.flag.startswith("budget stop after round")
            assert readout.wall_cost_total >= readout.budget


# What ``select_with_budget`` returns over fixed cases, budgets on both sides
# of probe costs (the first probe of a kappa = 1 curve costs exactly 1000),
# with and without cost estimates: the SHA-256 of (selection, rounds, cost,
# prunes, flags, JSONL trace) per case. Recorded on the engine that ran one
# loop per budget, before budgets became readouts of one run.
GOLDEN_BUDGET_RUNS = "2b93fdce36e139963e84f5e948b4cf7714b0c9903337d7233df497fd6aa02409"


def budget_runs_digest():
    cases = []
    for family in sorted(READOUT_FAMILIES):
        instance = READOUT_FAMILIES[family](3)
        for kind in SchedulerKind:
            for estimates in (True, False):
                for budget in (10.0, 1000.0, 3000.0, 2e5, 2e6, math.inf):
                    states, backend, params = fresh_run_inputs(instance, seed=7)
                    if not estimates:
                        backend = NoEstimateBackend(backend)
                    selected, trace = select_with_budget(states, backend, params, kind, budget)
                    cases.append([
                        selected, trace.n_rounds, trace.wall_cost_total,
                        trace.pruned_total, trace.flags, trace.to_jsonl(),
                    ])
    return hashlib.sha256(json.dumps(cases).encode()).hexdigest()


def test_select_with_budget_matches_golden():
    assert budget_runs_digest() == GOLDEN_BUDGET_RUNS


def test_readout_after_the_round_that_reaches_the_budget():
    # Unit cost per training row and no estimates: each round is read out
    # after its probe, once the spent total reaches the budget.
    backend = StubBackend([0.9, 0.7, 0.6], max_train=4000, max_test=4000)
    params = RunParams(0.001, 0.5, 3, 1000, 1000, 2.0, 1.0, 4000, 4000, 0)
    budgets = (1000.0, 1500.0, 2000.0)
    _, trace = run_abc(
        initial_states(list(backend.labels), params), NoEstimateBackend(backend), params,
        SchedulerKind.ROUND_ROBIN, budgets,
    )
    assert [(r.rounds, r.wall_cost_total) for r in trace.budget_readouts] == [
        (1, 1000.0), (2, 2000.0), (2, 2000.0)
    ]
    assert trace.budget_readouts[0].flag == (
        "budget stop after round 1: spent 1000 >= budget 1000 (no cost estimate available)"
    )


def test_readouts_reject_nonpositive_budgets():
    inst = make_two_config_instance()
    states, backend, params = fresh_run_inputs(inst, seed=2)
    with pytest.raises(ValueError):
        run_abc(states, backend, params, SchedulerKind.UCB, (5000.0, 0.0))
    with pytest.raises(ValueError):
        run_abc(states, backend, params, SchedulerKind.UCB, (math.nan,))


class TestFinalEvaluation:
    def test_full_below_sampled_is_flagged(self):
        backend = StubBackend([0.9, 0.7], full_accs=[0.85, 0.7])
        params = RunParams(0.01, 0.5, 2, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(list(backend.labels), params)
        states[0].append_probe(backend.probe(1, 100, 200))
        final = verify_selection(backend, states, 1)
        assert final.full_below_sampled
        assert final.deliverable == "sampled_model"
        assert final.accuracy == 0.85

    def test_reuses_last_probe_at_full_sizes(self):
        backend = CountingBackend([0.9, 0.7], max_train=400, max_test=800)
        params = RunParams(0.01, 0.5, 2, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(list(backend.labels), params)
        states[0].append_probe(backend.probe(1, 100, 200))
        states[0].append_probe(backend.probe(1, 400, 800))
        backend.calls.clear()
        final = verify_selection(backend, states, 1)
        last = states[0].last_outcome
        assert backend.calls == []
        assert (final.accuracy, final.cost, final.sampled_accuracy) == (
            last.test_accuracy, last.cost, last.test_accuracy
        )
        assert not final.full_below_sampled

    def test_probes_once_below_full_sizes(self):
        backend = CountingBackend([0.9, 0.7], max_train=400, max_test=800)
        params = RunParams(0.01, 0.5, 2, 100, 200, 2.0, 1.0,
                           backend.max_train_size, backend.max_test_size, 0)
        states = initial_states(list(backend.labels), params)
        states[0].append_probe(backend.probe(1, 200, 400))
        backend.calls.clear()
        final = verify_selection(backend, states, 1)
        assert backend.calls == [(1, 400, 800)]
        assert final.cost == 400.0

    def test_report_contents(self):
        inst = make_two_config_instance()
        states, backend, params = fresh_run_inputs(inst, seed=3)
        selected, trace = run_abc(states, backend, params)
        report = build_report(selected, trace, backend, params, method="abc_gradient_ci")
        assert report["selected"] == selected
        assert report["real_accuracy"] == pytest.approx(0.90, abs=1e-9)
        assert report["total_cost_scenario_i"] == trace.wall_cost_total
        assert report["total_cost_scenario_ii"] > report["total_cost_scenario_i"]
        assert report["rounds"] == trace.n_rounds
        assert "true_accuracies" in report
