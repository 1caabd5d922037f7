"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line when it holds. Monte Carlo pieces use fixed base seeds so the
suite is deterministic."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from abcselect.baselines import relative_accuracy_loss, successive_halving
from abcselect.ci_estimator import IntervalRule
from abcselect.core import ProbeOutcome, RunParams, initial_states
from abcselect.engine import run_abc, select_with_budget
from abcselect.harness import (
    containment_audit,
    make_expensive_decoy_instance,
    make_monte_carlo_instance,
    make_plateau_instance,
    make_skewed_cost_instance,
    make_sweep_instance,
    structural_audit,
)
from abcselect.probes import DatasetHandle, LearnerBackend, LearnerSpec, SyntheticBackend
from abcselect.scheduler import SchedulerKind, next_sample_size, optimal_step_size

from conftest import bound_params, fresh_run_inputs

mp.mp.dps = 40


def report(line):
    print(f"\nPASS {line}")


def wilson_upper(successes, trials, z=2.576):
    """Upper end of the Wilson score interval (z=2.576 -> 99% two-sided)."""
    if trials == 0:
        return 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    rad = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (center + rad) / denom


def run_on(instance, seed, scheduler=SchedulerKind.GRADIENT_CI, **kwargs):
    states, backend, params = fresh_run_inputs(instance, seed, **kwargs)
    selected, trace = run_abc(states, backend, params, scheduler)
    return selected, trace, backend, params


def test_criterion_1_bound_formulas_match_high_precision_oracle():
    t0 = time.time()

    def oracle_upper(a_tr, s_tr, full_te, n, delta):
        log_term = mp.log(4 * mp.mpf(n) ** 2 / mp.mpf(repr(delta)))
        return mp.mpf(repr(a_tr)) + mp.sqrt(log_term / (2 * s_tr)) + mp.sqrt(
            log_term / (2 * full_te)
        )

    def oracle_lower(a_te, s_te, n, delta):
        log_term = mp.log(2 * mp.mpf(n) ** 2 / mp.mpf(repr(delta)))
        return mp.mpf(repr(a_te)) - mp.sqrt(log_term / (2 * s_te))

    # the worked examples first
    worked = ProbeOutcome(1000, 2000, 0.85, 0.80, 1.0)
    rule = IntervalRule(bound_params(5, 0.5, 100_000))
    assert abs(rule.upper(worked) - float(oracle_upper(0.85, 1000, 100_000, 5, 0.5))) < 1e-12
    assert abs(rule.upper(worked) - 0.90662) < 5e-6
    assert abs(rule.lower(worked) - float(oracle_lower(0.80, 2000, 5, 0.5))) < 1e-12
    assert abs(rule.lower(worked) - 0.76607) < 5e-6

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 1000))
        delta = float(rng.uniform(1e-4, 0.999))
        s_tr = int(rng.integers(1, 10**9))
        s_te = int(rng.integers(1, 10**8))
        full_te = s_te + int(rng.integers(0, 10**9))
        a_tr = float(rng.uniform(0, 1))
        a_te = float(rng.uniform(0, 1))
        outcome = ProbeOutcome(s_tr, s_te, a_tr, a_te, 0.0)
        rule = IntervalRule(bound_params(n, delta, full_te))
        du = abs(rule.upper(outcome) - float(oracle_upper(a_tr, s_tr, full_te, n, delta)))
        dl = abs(rule.lower(outcome) - float(oracle_lower(a_te, s_te, n, delta)))
        worst = max(worst, du, dl)
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report(
        f"criterion 1: bounds match a 40-digit oracle on 1000 random inputs "
        f"(worst {worst:.2e}) in {elapsed:.2f}s"
    )


def test_criterion_2_tolerance_guarantee_monte_carlo():
    t0 = time.time()
    instance = make_monte_carlo_instance(0)
    truths = [c.true_accuracy(instance.max_train_size) for c in instance.curves]
    best = max(truths)
    violations = 0
    for rep in range(500):
        selected, _, _, _ = run_on(instance, seed=1000 + rep)
        if best - truths[selected - 1] > 0.01:
            violations += 1
    elapsed = time.time() - t0
    upper99 = wilson_upper(violations, 500)
    assert upper99 <= 0.5
    assert elapsed < 120
    report(
        f"criterion 2: P(loss > 0.01) = {violations}/500 "
        f"(99% upper bound {upper99:.4f} <= 0.5) in {elapsed:.1f}s"
    )


def test_criterion_3_per_configuration_speedup_cells():
    t0 = time.time()
    passed = total = 0
    for iseed in range(5):
        instance = make_skewed_cost_instance(iseed, n=20)
        for n in (5, 8, 11, 15, 20):
            sub = instance.truncated(n)
            _, trace, backend, _ = run_on(sub, seed=100 + iseed)
            full_cost = sum(
                backend.estimate_cost(i, sub.max_train_size, sub.max_test_size)
                for i in range(1, n + 1)
            )
            total += 1
            passed += trace.wall_cost_total <= full_cost / n
    elapsed = time.time() - t0
    assert passed >= 20
    assert elapsed < 300
    report(
        f"criterion 3: selection cost within full-run/n in {passed}/{total} "
        f"cells (need >= 20) in {elapsed:.1f}s"
    )


def test_criterion_4_interval_pruning_beats_point_ranking_on_plateaus():
    t0 = time.time()
    abc_losses = {kind: [] for kind in SchedulerKind}
    sh_losses = []
    for seed in range(50):
        instance = make_plateau_instance(seed)
        truths = [c.true_accuracy(instance.max_train_size) for c in instance.curves]
        best = max(truths)
        backend = SyntheticBackend(instance, seed=777 + seed)
        for kind in SchedulerKind:
            selected, _, _, _ = run_on(instance, seed=777 + seed, scheduler=kind)
            abc_losses[kind].append(relative_accuracy_loss(best, truths[selected - 1]))
        sh_sel, _ = successive_halving(
            list(range(1, instance.n_configs + 1)), backend, 1000, 2000
        )
        sh_losses.append(relative_accuracy_loss(best, truths[sh_sel - 1]))
    elapsed = time.time() - t0
    mean_sh = float(np.mean(sh_losses))
    for losses in abc_losses.values():
        assert max(losses) <= 0.01
        assert mean_sh >= 5 * float(np.mean(losses))
    assert elapsed < 180
    worst = max(max(losses) for losses in abc_losses.values())
    means = ", ".join(f"{k.value} {np.mean(v):.4f}" for k, v in abc_losses.items())
    report(
        f"criterion 4: halving mean rel. loss {mean_sh:.4f} >= 5x interval-pruning "
        f"({means}); interval max {worst:.4f} <= 1% in {elapsed:.1f}s"
    )


def test_criterion_5_containment_rate_within_bound():
    t0 = time.time()
    instance = make_monte_carlo_instance(1).truncated(5)
    traces = []
    rep = 0
    while sum(t.n_rounds for t in traces) < 10_000:
        _, trace, _, _ = run_on(instance, seed=9000 + rep)
        traces.append(trace)
        rep += 1
    audit = containment_audit(traces)
    threshold = audit.threshold
    margin = 3 * math.sqrt(threshold * (1 - threshold) / audit.pooled_probes)
    elapsed = time.time() - t0
    assert audit.pooled_probes >= 10_000
    assert audit.pooled_rate <= threshold + margin
    assert elapsed < 60
    report(
        f"criterion 5: containment violations {audit.pooled_violations}/"
        f"{audit.pooled_probes} (rate {audit.pooled_rate:.5f} <= "
        f"{threshold:.3f}+{margin:.4f}) in {elapsed:.1f}s"
    )


def test_criterion_6_geometric_step_size_optimality():
    t0 = time.time()

    def worst_case_ratio(c, alpha, m_max=60):
        js = np.arange(m_max, dtype=float)
        costs = (c**js) ** alpha
        csum = np.cumsum(costs)
        return max(csum[m - 1] / costs[m - 2] for m in range(2, m_max + 1))

    for alpha in (0.5, 1.0, 2.0, 3.0):
        grid = np.linspace(1.02, 6.0, 20_000)
        values = [worst_case_ratio(c, alpha) for c in grid]
        c_numeric = float(grid[int(np.argmin(values))])
        c_closed = optimal_step_size(alpha)
        assert abs(c_numeric - c_closed) / c_closed <= 0.01

        # accumulated/optimal ratio stays <= 4 on generated integer schedules
        for s0 in (1000, 10_000):
            sizes = [s0]
            while len(sizes) < 10:
                sizes.append(next_sample_size(sizes[-1], c_closed, 10**12))
            for m in range(2, len(sizes) + 1):
                ratio = sum(s**alpha for s in sizes[:m]) / sizes[m - 2] ** alpha
                assert ratio <= 4.0 + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10
    report(
        "criterion 6: numeric minimizer matches 2^(1/alpha) within 1% for "
        f"alpha in (0.5, 1, 2, 3); all schedule ratios <= 4 in {elapsed:.1f}s"
    )


def test_criterion_7_scheduler_cost_ordering():
    t0 = time.time()
    means = {}
    per_instance = {}
    for kind in SchedulerKind:
        inst_means = []
        for iseed in range(3):
            instance = make_expensive_decoy_instance(iseed)
            costs = [
                run_on(instance, seed=40 + rep, scheduler=kind)[1].wall_cost_total
                for rep in range(10)
            ]
            inst_means.append(float(np.mean(costs)))
        per_instance[kind] = inst_means
        means[kind] = float(np.mean(inst_means))
    elapsed = time.time() - t0
    g = means[SchedulerKind.GRADIENT_CI]
    u = means[SchedulerKind.UCB]
    r = means[SchedulerKind.ROUND_ROBIN]
    ratios = [
        rr / gg
        for gg, rr in zip(
            per_instance[SchedulerKind.GRADIENT_CI],
            per_instance[SchedulerKind.ROUND_ROBIN],
        )
    ]
    assert g <= u < r
    assert max(ratios) >= 4.0
    assert elapsed < 180
    report(
        f"criterion 7: mean cost gradient_ci {g:.3g} <= ucb {u:.3g} < "
        f"round_robin {r:.3g}; max per-instance rr/gci ratio {max(ratios):.1f}x "
        f"in {elapsed:.1f}s"
    )


def test_criterion_8_tolerance_sweep_trends():
    t0 = time.time()
    instance = make_sweep_instance(0)
    truths = [c.true_accuracy(instance.max_train_size) for c in instance.curves]
    best = max(truths)
    full_cost = sum(c.cost(instance.max_train_size) for c in instance.curves)
    mean_loss, mean_speedup = [], []
    for eps in (0.01, 0.05, 0.1):
        losses, speedups = [], []
        for rep in range(100):
            selected, trace, _, _ = run_on(instance, seed=3000 + rep, epsilon=eps)
            losses.append(best - truths[selected - 1])
            speedups.append(full_cost / trace.wall_cost_total)
        mean_loss.append(float(np.mean(losses)))
        mean_speedup.append(float(np.mean(speedups)))
    elapsed = time.time() - t0
    assert mean_speedup[0] <= mean_speedup[1] <= mean_speedup[2]
    assert mean_loss[0] <= mean_loss[1] <= mean_loss[2]
    assert elapsed < 180
    report(
        f"criterion 8: speedups {[f'{s:.0f}' for s in mean_speedup]} nondecreasing, "
        f"losses {[f'{l:.5f}' for l in mean_loss]} nondecreasing in {elapsed:.1f}s"
    )


def halving_budget_curve(backend, initial_train_sizes):
    """Successive-halving (total cost, selected id) at each initial train
    size, with a test sample twice the train sample."""
    ids = list(range(1, backend.n_configs + 1))
    points = []
    for init in initial_train_sizes:
        selected, trace = successive_halving(ids, backend, init, 2 * init)
        points.append((trace.wall_cost_total, selected))
    return points


def test_criterion_9_anytime_curve_dominates_halving():
    t0 = time.time()
    instance = make_plateau_instance(0)
    truths = [c.true_accuracy(instance.max_train_size) for c in instance.curves]
    backend = SyntheticBackend(instance, seed=777)
    points = halving_budget_curve(backend, [250, 500, 1000, 2000, 4000, 8000, 16_000])
    assert len(points) >= 6
    matched = []
    for budget, sh_selected in points:
        states, backend2, params = fresh_run_inputs(instance, seed=777)
        abc_selected, _ = select_with_budget(
            states, backend2, params, SchedulerKind.UCB, budget
        )
        matched.append((budget, truths[abc_selected - 1], truths[sh_selected - 1]))
    elapsed = time.time() - t0
    assert all(abc >= sh for _, abc, sh in matched)
    assert any(abc > sh for _, abc, sh in matched)
    assert elapsed < 120
    report(
        "criterion 9: anytime accuracy >= halving accuracy at all "
        f"{len(matched)} matched budgets (strictly better at "
        f"{sum(1 for _, a, s in matched if a > s)}) in {elapsed:.1f}s"
    )


CERTIFIED_FAMILIES = {
    "plateau": (make_plateau_instance, 50),
    "sweep": (make_sweep_instance, 40),
    "monte_carlo": (make_monte_carlo_instance, 40),
    "skewed": (make_skewed_cost_instance, 40),
    "decoy": (make_expensive_decoy_instance, 40),
}


@pytest.mark.parametrize("kind", list(SchedulerKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family", sorted(CERTIFIED_FAMILIES))
def test_every_family_and_scheduler_ends_certified(family, kind):
    """Every shipped family under every scheduler, at the default tolerance:
    no round prunes its own incumbent, no selection misses epsilon, the run
    ends with only the incumbent active, within n * (growth steps + 1)
    rounds."""
    make, runs = CERTIFIED_FAMILIES[family]
    for seed in range(runs):
        states, backend, params = fresh_run_inputs(make(seed), seed=1000 + seed)
        selected, trace = run_abc(states, backend, params, kind)
        assert all(r.incumbent_id not in r.pruned_ids for r in trace.rounds), seed
        truths = trace.true_accuracies
        assert max(truths.values()) - truths[selected] <= params.epsilon, seed
        assert [c.id for c in states if c.active] == [selected], seed
        steps, size = 0, params.initial_train_size
        while size < params.max_train_size:
            size = next_sample_size(size, params.step_factor_c, params.max_train_size)
            steps += 1
        assert trace.n_rounds <= params.n_configs * (steps + 1), seed


def test_criterion_10_determinism_and_structural_invariants():
    t0 = time.time()
    checked = 0
    for make, seed in [
        (make_monte_carlo_instance, 0),
        (make_plateau_instance, 1),
        (make_expensive_decoy_instance, 2),
    ]:
        instance = make(seed)
        first = second = None
        for attempt in range(2):
            _, trace, _, params = run_on(instance, seed=4242)
            serialized = trace.to_jsonl()
            first, second = second, serialized
        assert first == second  # bit-identical traces
        assert structural_audit(trace.rounds, params) == []
        assert trace.n_snapshots < params.n_configs
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(
        f"criterion 10: {checked} instance families give bit-identical traces "
        f"that pass the full structural audit in {elapsed:.1f}s"
    )


def test_criterion_11_real_learner_smoke():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    features = rng.normal(size=(100_000, 5))
    weights = rng.normal(size=5)
    labels = (features @ weights > 0).astype(int)
    handle = DatasetHandle(features, labels, holdout=0.3, seed=7)
    learners = [
        LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.3, epochs=10, batch_size=64),
        LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.2, epochs=8, batch_size=64),
        LearnerSpec(kind="decision_stump"),
        LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.0005, epochs=100, batch_size=64),
        LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=0.0003, epochs=100,
            l2=0.001, batch_size=64,
        ),
        LearnerSpec(kind="majority_class"),
    ]
    backend = LearnerBackend(handle, learners, seed=7)
    ids = list(range(1, 7))

    from abcselect.baselines import full_run

    best, accuracies, full_cost = full_run(ids, backend)
    params = RunParams(
        epsilon=0.01, delta=0.5, n_configs=6, initial_train_size=1000,
        initial_test_size=2000, step_factor_c=2.0, alpha_cost_exponent=1.0,
        max_train_size=backend.max_train_size, max_test_size=backend.max_test_size,
        seed=7,
    )
    states = initial_states(list(backend.labels), params)
    selected, trace = run_abc(states, backend, params, SchedulerKind.GRADIENT_CI)
    selected_full_accuracy = accuracies[selected]  # its full-size probe, as probes are pure
    elapsed = time.time() - t0
    loss = accuracies[best] - selected_full_accuracy
    ratio = trace.wall_cost_total / full_cost
    assert loss <= 0.01
    assert ratio < 0.25
    assert elapsed < 300
    report(
        f"criterion 11: learner selection loss {loss:.4f} <= 0.01 at "
        f"{ratio:.1%} of full-run wall time in {elapsed:.1f}s"
    )
