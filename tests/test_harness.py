import csv
import hashlib
import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from abcselect import harness
from abcselect.baselines import relative_accuracy_loss
from abcselect.core import ConfidenceInterval, RunParams, RunTrace, TraceRound, initial_states
from abcselect.engine import run_abc, select_with_budget
from abcselect.harness import (
    ABC_METHODS,
    ExperimentSpec,
    InstanceSource,
    METRICS_HEADER,
    MetricsRow,
    cell_seed,
    containment_audit,
    make_expensive_decoy_instance,
    make_monte_carlo_instance,
    make_plateau_instance,
    make_skewed_cost_instance,
    make_sweep_instance,
    make_two_config_instance,
    run_experiment,
    structural_audit,
)
from abcselect.probes import CurveSpec, SyntheticInstance
from abcselect.scheduler import SchedulerKind

from conftest import fresh_run_inputs


def tiny_instance():
    return make_two_config_instance()


def small_spec(methods, reps=1, budget_grid=(), eps=(0.01,)):
    return ExperimentSpec(
        sources=(InstanceSource(name="two", synthetic=tiny_instance()),),
        methods=tuple(methods),
        epsilon_grid=tuple(eps),
        n_configs_grid=(2,),
        repetitions=reps,
        base_seed=17,
        budget_grid=tuple(budget_grid),
    )


@pytest.mark.parametrize(
    "file, make",
    [
        ("demo.json", make_monte_carlo_instance),
        ("adversarial_plateau.json", make_plateau_instance),
        ("expensive_decoy.json", make_expensive_decoy_instance),
        ("skewed_costs.json", make_skewed_cost_instance),
        ("tolerance_sweep.json", make_sweep_instance),
    ],
)
def test_shipped_instance_is_reproducible(file, make):
    # The README's claim: the shipped families are their make_* at seed 0.
    path = Path(__file__).resolve().parent.parent / "instances" / file
    assert SyntheticInstance.load(path) == make(0)


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(1, "m", "i", 5, 0.01, 0) == cell_seed(1, "m", "i", 5, 0.01, 0)

    def test_distinct_across_coordinates(self):
        seeds = {
            cell_seed(1, m, i, n, e, r)
            for m in ("a", "b")
            for i in ("x", "y")
            for n in (5, 10)
            for e in (0.01, 0.1)
            for r in range(3)
        }
        assert len(seeds) == 48


class TestExperimentSpec:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            small_spec(["full_run"], eps=())
        with pytest.raises(ValueError):
            ExperimentSpec(
                sources=(InstanceSource(name="t", synthetic=tiny_instance()),),
                methods=(), epsilon_grid=(0.01,), n_configs_grid=(2,),
                repetitions=1, base_seed=0,
            )

    @pytest.mark.parametrize(
        "key, value",
        [("step_factor_c", float("nan")), ("step_factor_c", float("inf")),
         ("alpha_cost_exponent", float("nan")), ("delta", float("nan"))],
    )
    def test_rejects_non_finite_run_param(self, key, value):
        with pytest.raises(ValueError, match=key):
            replace(small_spec(["full_run"]), **{key: value})

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            small_spec(["warp_drive"])

    def test_rejects_oversized_n(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                sources=(InstanceSource(name="t", synthetic=tiny_instance()),),
                methods=("full_run",), epsilon_grid=(0.01,), n_configs_grid=(5,),
                repetitions=1, base_seed=0,
            )


class TestRunExperiment:
    def test_full_run_only_speedup_is_one(self):
        rows = run_experiment(small_spec(["full_run"]))
        assert len(rows) == 1
        assert rows[0].speedup_i == pytest.approx(1.0)
        assert rows[0].speedup_ii == pytest.approx(1.0)
        assert rows[0].loss == 0.0

    def test_one_cell_yields_one_row(self):
        rows = run_experiment(small_spec(["abc_gradient_ci"]))
        assert len(rows) == 1
        assert rows[0].method == "abc_gradient_ci"
        assert rows[0].instance == "two#n=2"

    def test_rows_reproducible(self):
        spec = small_spec(["abc_gradient_ci", "successive_halving"], reps=2)
        assert run_experiment(spec) == run_experiment(spec)

    def test_parallel_matches_serial(self):
        spec = small_spec(["abc_gradient_ci", "full_run"], reps=2)
        assert run_experiment(spec, workers=2) == run_experiment(spec, workers=1)

    def test_pooled_cells_match_serial_ones_over_shared_tables(self):
        # Serial cells of a (source, n) share one instance and its truths
        # tables; a worker gets its cells' instances pickled without them.
        source = InstanceSource("sweep", synthetic=make_sweep_instance(4, n=6))
        spec = ExperimentSpec(
            sources=(source,), methods=harness.METHODS, epsilon_grid=(0.01, 0.05),
            n_configs_grid=(3, 6), repetitions=2, base_seed=9, budget_grid=(2e5,),
        )
        tables = source.synthetic.truncated(3)._truths
        pooled = run_experiment(spec, workers=2)
        assert list(tables) == [source.synthetic.max_train_size]  # the full-data table
        serial = run_experiment(spec, workers=1)
        assert len(tables) > 1
        assert len(serial) == 2 * 2 * 2 * (len(harness.METHODS) + len(ABC_METHODS))
        assert pooled == serial
        assert run_experiment(spec, workers=2) == serial

    def test_budget_rows_are_labelled(self):
        rows = run_experiment(small_spec(["abc_ucb"], budget_grid=(5000.0,)))
        labels = sorted(r.instance for r in rows)
        assert labels == ["two#n=2", "two#n=2@b=5000"]

    def test_output_files(self, tmp_path):
        run_experiment(small_spec(["full_run", "abc_gradient_ci"]), out_dir=tmp_path)
        with open(tmp_path / "metrics.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == METRICS_HEADER.split(",")
            assert len(list(reader)) == 2
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["method"]
        assert (tmp_path / "aggregates.csv").exists()


def budget_cell_rows(spec):
    """Each budget cell's row as one ``select_with_budget`` call per cell
    gives it: the reference for the rows read off one run per group."""
    rows = []
    for source in spec.sources:
        for n in spec.n_configs_grid:
            _, accs, costs = harness._full_table(harness.make_backend(source, n, spec.base_seed))
            fullrun_cost, acc_best = sum(costs.values()), max(accs.values())
            for method in spec.methods:
                for budget in spec.budget_grid if method in ABC_METHODS else ():
                    for epsilon in spec.epsilon_grid:
                        for rep in range(spec.repetitions):
                            seed = cell_seed(spec.base_seed, method, source.name, n, epsilon, rep)
                            backend = harness.make_backend(source, n, seed)
                            params = RunParams(
                                epsilon, spec.delta, n, spec.initial_train_size,
                                spec.initial_test_size, spec.step_factor_c,
                                spec.alpha_cost_exponent, backend.max_train_size,
                                backend.max_test_size, seed,
                            )
                            states = initial_states(list(backend.labels), params)
                            selected, trace = select_with_budget(
                                states, backend, params, ABC_METHODS[method], budget
                            )
                            cost_i = trace.wall_cost_total
                            cost_ii = cost_i + costs[selected]
                            rows.append(MetricsRow(
                                method=method, instance=f"{source.name}#n={n}@b={budget:g}",
                                seed=seed, epsilon=epsilon, selected=selected,
                                acc_selected=accs[selected], acc_best=acc_best,
                                loss=acc_best - accs[selected],
                                delta_rel=relative_accuracy_loss(acc_best, accs[selected]),
                                cost_i=cost_i, cost_ii=cost_ii,
                                speedup_i=fullrun_cost / cost_i if cost_i > 0 else math.inf,
                                speedup_ii=fullrun_cost / cost_ii if cost_ii > 0 else math.inf,
                                rounds=trace.n_rounds, prunes=trace.pruned_total,
                            ))
    return sorted(rows, key=lambda r: (r.method, r.instance, r.epsilon, r.seed))


# Below the first probe's cost, the benchmark grid's two budgets, and above
# the cost of any full run of these families.
GRID_BUDGETS = (10.0, 2e5, 2e6, 1e15)


def grid_spec(budget_grid=GRID_BUDGETS):
    return ExperimentSpec(
        sources=(
            InstanceSource("plateau", synthetic=make_plateau_instance(1, n_fillers=18)),
            InstanceSource("decoy", synthetic=make_expensive_decoy_instance(1, n_fillers=18)),
            InstanceSource("skewed", synthetic=make_skewed_cost_instance(1, n=20)),
            InstanceSource("sweep", synthetic=make_sweep_instance(1, n=20)),
        ),
        methods=tuple(ABC_METHODS),
        epsilon_grid=(0.01, 0.05),
        n_configs_grid=(4, 20),
        repetitions=2,
        base_seed=1,
        budget_grid=budget_grid,
    )


class TestBudgetGrid:
    def test_budget_rows_equal_one_budgeted_run_per_cell(self):
        spec = grid_spec()
        rows = run_experiment(spec)
        budget_rows = [r for r in rows if "@b=" in r.instance]
        assert budget_rows == budget_cell_rows(spec)
        assert len(rows) == len(budget_rows) * 5 // 4
        plain = {(r.method, r.instance, r.epsilon, r.seed): r for r in rows if "@b=" not in r.instance}
        below = [r for r in budget_rows if r.instance.endswith("@b=10")]
        above = [r for r in budget_rows if r.instance.endswith("@b=1e+15")]
        assert all((r.selected, r.rounds, r.cost_i) == (1, 0, 0.0) for r in below)
        for r in above:
            full = plain[(r.method, r.instance.split("@")[0], r.epsilon, r.seed)]
            assert (r.selected, r.rounds, r.cost_i, r.prunes) == (
                full.selected, full.rounds, full.cost_i, full.prunes
            )

    def test_parallel_matches_serial(self):
        spec = grid_spec()
        assert run_experiment(spec, workers=2) == run_experiment(spec, workers=1)

    def test_budgets_in_any_order_and_repeated(self):
        rows = run_experiment(grid_spec(GRID_BUDGETS))
        shuffled = run_experiment(grid_spec((2e6, 10.0, 1e15, 2e5, 2e6)))
        repeated = [r for r in shuffled if r.instance.endswith("@b=2e+06")]
        assert sorted(set(map(repr, shuffled))) == sorted(map(repr, rows))
        assert len(repeated) == 2 * sum(r.instance.endswith("@b=2e+06") for r in rows)


class FailAtProbe:
    """Wraps a backend so that its ``k``-th probe raises."""

    def __init__(self, backend, k):
        self._backend = backend
        self._k = k
        self._probes = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def probe(self, config_id, s_tr, s_te):
        self._probes += 1
        if self._probes == self._k:
            raise RuntimeError("disk on fire")
        return self._backend.probe(config_id, s_tr, s_te)


def test_failing_run_fails_every_cell_of_its_group(tmp_path, monkeypatch):
    make_backend = harness.make_backend
    monkeypatch.setattr(
        harness, "make_backend", lambda source, n, seed: FailAtProbe(make_backend(source, n, seed), 2)
    )
    # The 10.0 budget stops before the first probe, so a run limited to it
    # alone would not fail; it fails with its group.
    spec = small_spec(["abc_ucb"], budget_grid=(5000.0, 10.0))
    assert run_experiment(spec, out_dir=tmp_path) == []
    records = [json.loads(line) for line in (tmp_path / "errors.jsonl").read_text().splitlines()]
    assert [(r["method"], r["instance"]) for r in records] == [
        ("abc_ucb", "two#n=2"), ("abc_ucb", "two#n=2@b=5000"), ("abc_ucb", "two#n=2@b=10"),
    ]
    assert all("round 2" in r["error"] for r in records)
    assert len({r["seed"] for r in records}) == 1


class TestContainmentAudit:
    def run_traces(self, n_runs=20, seed0=100):
        inst = make_monte_carlo_instance(1).truncated(5)
        traces = []
        for rep in range(n_runs):
            states, backend, params = fresh_run_inputs(inst, seed=seed0 + rep)
            _, trace = run_abc(states, backend, params)
            traces.append(trace)
        return traces

    def test_zero_noise_instance_has_full_containment(self):
        # enormous test samples: accuracy measured with negligible error
        curves = tuple(
            CurveSpec(a_inf=a, b=0.3, beta=0.5, overfit_gap=0.2, gamma=0.5,
                      kappa=1.0, alpha=1.0)
            for a in (0.9, 0.8, 0.7)
        )
        inst = SyntheticInstance(
            name="zero-noise", curves=curves,
            max_train_size=10**6, max_test_size=10**12,
        )
        states, backend, params = fresh_run_inputs(
            inst, seed=4, initial_test=10**8
        )
        _, trace = run_abc(states, backend, params)
        report = containment_audit([trace])
        assert report.pooled_violations == 0
        assert report.flagged == ()

    def test_rates_and_threshold(self):
        report = containment_audit(self.run_traces())
        assert report.threshold == pytest.approx(0.5 / 25)
        assert report.pooled_probes > 0
        assert set(report.rates) <= set(range(1, 6))

    def test_rejects_traces_without_truth(self):
        trace = RunTrace(params=None, true_accuracies=None)
        with pytest.raises(ValueError):
            containment_audit([trace])


class TestStructuralAudit:
    def clean_trace(self):
        inst = make_monte_carlo_instance(2).truncated(4)
        states, backend, params = fresh_run_inputs(inst, seed=55)
        _, trace = run_abc(states, backend, params, SchedulerKind.UCB)
        return trace, params

    def test_clean_trace_passes(self):
        trace, params = self.clean_trace()
        assert structural_audit(trace.rounds, params) == []

    def corrupt(self, rounds, idx, **changes):
        rounds = list(rounds)
        row = rounds[idx]
        fields = dict(
            round_index=row.round_index, config_id=row.config_id,
            outcome=row.outcome, ci=row.ci, incumbent_id=row.incumbent_id,
            pruned_ids=row.pruned_ids, snapshot=row.snapshot,
        )
        fields.update(changes)
        rounds[idx] = TraceRound(**fields)
        return rounds

    def test_detects_widened_interval(self):
        trace, params = self.clean_trace()
        target = trace.rounds[3]
        widened = ConfidenceInterval(max(0.0, target.ci.lower - 0.05), target.ci.upper)
        rounds = self.corrupt(trace.rounds, 3, ci=widened)
        issues = structural_audit(rounds, params)
        assert issues
        assert any(i.round_index == target.round_index for i in issues)

    def test_detects_wrong_incumbent(self):
        trace, params = self.clean_trace()
        row = trace.rounds[2]
        wrong = 1 if row.incumbent_id != 1 else 2
        rounds = self.corrupt(trace.rounds, 2, incumbent_id=wrong)
        issues = structural_audit(rounds, params)
        assert any("incumbent" in i.message for i in issues)

    def test_detects_phantom_prune(self):
        trace, params = self.clean_trace()
        idx = next(i for i, r in enumerate(trace.rounds) if not r.pruned_ids)
        victim = trace.rounds[idx]
        rounds = self.corrupt(
            trace.rounds, idx,
            pruned_ids=(victim.config_id,), snapshot=True,
        )
        issues = structural_audit(rounds, params)
        assert any("prune" in i.message for i in issues)

    def test_reports_unknown_pruned_id(self):
        trace, params = self.clean_trace()
        rounds = self.corrupt(trace.rounds, 0, pruned_ids=(99,), snapshot=True)
        messages = [i.message for i in structural_audit(rounds, params)]
        assert "unknown config id 99 pruned" in messages
        assert not any("pruned twice" in m for m in messages)


SHIPPED_FAMILIES = {
    "plateau": make_plateau_instance,
    "sweep": make_sweep_instance,
    "skewed": make_skewed_cost_instance,
    "decoy": make_expensive_decoy_instance,
    "monte_carlo": make_monte_carlo_instance,
}


@pytest.mark.parametrize("scheduler", list(SchedulerKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("family", sorted(SHIPPED_FAMILIES))
def test_every_family_and_scheduler_audits_clean(family, scheduler):
    instance = SHIPPED_FAMILIES[family](7)
    states, backend, params = fresh_run_inputs(instance, seed=7)
    _, trace = run_abc(states, backend, params, scheduler)
    assert structural_audit(trace.rounds, params) == []
    # A run stopped at half that cost by its budget.
    states, backend, params = fresh_run_inputs(instance, seed=7)
    _, stopped = select_with_budget(
        states, backend, params, scheduler, trace.wall_cost_total / 2
    )
    assert stopped.budget_readouts[0].flag is not None
    assert 0 < stopped.n_rounds < trace.n_rounds
    assert structural_audit(stopped.rounds, params) == []


# Seeded tamperings of engine traces and the SHA-256 of the findings the
# structural audit reports for them. The digests were recorded on the
# engine whose prune rule never removes the incumbent; a change to any
# finding, or to which rows it names, changes them.
AUDIT_FAMILIES = {
    "plateau": lambda: make_plateau_instance(2, n_fillers=4),
    "sweep": lambda: make_sweep_instance(3, n=8),
    "skewed": lambda: make_skewed_cost_instance(4, n=20),
}
AUDIT_SCHEDULERS = {kind.value: kind for kind in SchedulerKind}
TAMPERINGS = ("ulp", "pruned", "incumbent", "after_prune", "round_index", "prune_incumbent")
TAMPER_SEEDS = range(4)


def nudge_one_ulp(ci, rng):
    """``ci`` with one endpoint moved by one ulp, still a valid interval."""
    moves = []
    if ci.lower < ci.upper:
        moves += [("lower", 1.0), ("upper", 0.0)]
    if ci.lower > 0.0:
        moves.append(("lower", 0.0))
    if ci.upper < 1.0:
        moves.append(("upper", 1.0))
    end, toward = rng.choice(moves)
    return replace(ci, **{end: math.nextafter(getattr(ci, end), toward)})


def tamper(rounds, kind, rng, n):
    rounds = list(rounds)
    k = rng.randrange(len(rounds))
    row = rounds[k]
    if kind == "ulp":
        rounds[k] = replace(row, ci=nudge_one_ulp(row.ci, rng))
    elif kind == "pruned":
        pruned = list(row.pruned_ids)
        if pruned and (len(pruned) == n or rng.random() < 0.5):
            pruned.remove(rng.choice(pruned))
        else:
            pruned.append(rng.choice([i for i in range(1, n + 1) if i not in pruned]))
        rounds[k] = replace(row, pruned_ids=tuple(sorted(pruned)), snapshot=bool(pruned))
    elif kind == "incumbent":
        wrong = rng.choice([i for i in range(1, n + 1) if i != row.incumbent_id])
        rounds[k] = replace(row, incumbent_id=wrong)
    elif kind == "prune_incumbent":
        pruned = tuple(sorted({*row.pruned_ids, row.incumbent_id}))
        rounds[k] = replace(row, pruned_ids=pruned, snapshot=True)
    elif kind == "after_prune":
        later = [
            (j, pid)
            for i, r in enumerate(rounds)
            for pid in r.pruned_ids
            for j in range(i + 1, len(rounds))
        ]
        j, pid = rng.choice(later)
        rounds[j] = replace(rounds[j], config_id=pid)
    else:
        rounds[k] = replace(row, round_index=row.round_index + rng.choice((-1, 1)))
    return rounds


def audit_run(case):
    family, scheduler = case.split("/")
    states, backend, params = fresh_run_inputs(AUDIT_FAMILIES[family](), seed=11)
    _, trace = run_abc(states, backend, params, AUDIT_SCHEDULERS[scheduler])
    return trace, params


def audit_findings_digest(case):
    trace, params = audit_run(case)
    findings = []
    for kind in TAMPERINGS:
        for seed in TAMPER_SEEDS:
            rng = random.Random(f"{case}/{kind}/{seed}")
            rounds = tamper(trace.rounds, kind, rng, params.n_configs)
            issues = [str(issue) for issue in structural_audit(rounds, params)]
            assert issues, f"{kind} tampering {seed} not detected"
            if kind == "prune_incumbent":
                assert any(re.fullmatch(r"round \d+: incumbent \d+ pruned", i) for i in issues)
            findings.append([kind, seed, issues])
    return hashlib.sha256(json.dumps(findings).encode()).hexdigest()


GOLDEN_AUDIT = {
    "plateau/gradient_ci": "d5a884c5c94a773f413684159b9355ba36a265ac284e4aa85eacd07d0620c24d",
    "plateau/ucb": "c5bbca1914ccf80cf712aa8cefb05ee44285c0f09fee75ed967d15498bb03cfb",
    "plateau/round_robin": "7be2f5130d1dc02c26593779c2dbea242722bc77c7894c56ea3279cb9c4e2fe5",
    "sweep/gradient_ci": "a3e9d8653fd205087df0ca76bf0874c81ce0b5a80f1a6f97f2394fd4b2cb6180",
    "sweep/ucb": "16cf6572c50ea77f02c76e2423387808fda3f592ce8c763ded117614dce8b9bb",
    "sweep/round_robin": "dfebd4f7b0d0df4ce1b9c73d19bd453460bb4c3320045ee6a62f4ce552be69d2",
    "skewed/gradient_ci": "30c6122e7e0fb03ab8f1ade345f9faec3c2be0572cf998c0e9674e7038cece73",
    "skewed/ucb": "cdb8905ac1345321bc85ab3defc984b935e2e577be6c67aed5623d8b03cefee1",
    "skewed/round_robin": "83ebebef16d68bce3a097f763587f9c7b976d0ba618f922a62458046e84b67eb",
}


def test_every_audit_case_is_recorded():
    cases = [f"{f}/{s}" for f in AUDIT_FAMILIES for s in AUDIT_SCHEDULERS]
    assert sorted(GOLDEN_AUDIT) == sorted(cases)


@pytest.mark.parametrize("case", sorted(GOLDEN_AUDIT))
def test_audit_findings_match_golden(case):
    assert audit_findings_digest(case) == GOLDEN_AUDIT[case]


def test_audit_rejects_test_sample_above_full_test_set():
    trace, params = audit_run("sweep/ucb")
    k = next(
        i for i, r in enumerate(trace.rounds)
        if r.outcome.train_sample_size < params.max_train_size
    )
    rounds = list(trace.rounds)
    outcome = replace(rounds[k].outcome, test_sample_size=params.max_test_size + 1)
    rounds[k] = replace(rounds[k], outcome=outcome)
    with pytest.raises(ValueError):
        structural_audit(rounds, params)
