"""The benchmark's three workloads: seeded inputs, one timed unit, checks.

Every input is generated here from the ``--seed`` argument (``ABC_SEED`` is
ignored); the program only sees the generated instances, CSV files and run
configs. A workload's *unit* is the timed piece of work that the benchmark
repeats; ``check`` runs untimed after each unit and returns what the
metrics need.

* ``wide_synthetic``: one ``run_abc`` with gradient_ci over n = 2000
  stratified uniform synthetic curves, then ``structural_audit`` and the
  trace digest. The engine's O(n)-per-round bookkeeping dominates.
* ``learner_csv``: ``abcselect run --final-train`` in-process on a seeded
  100k-row CSV file with 10% label flips and the criterion-11 learner grid.
  The SGD minibatch loop dominates.
* ``grid_small_n``: ``run_experiment`` with one worker over 3520 small cells
  of the shipped families (plateau, expensive-decoy, skewed-cost, sweep),
  all five methods and a budget grid. Per-run constant costs dominate.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from abcselect import baselines, cli, core, engine, harness, probes
from abcselect.scheduler import SchedulerKind

from tracing import Target

EPSILON = 0.01
DELTA = 0.5

# Criterion-11 learner grid of the acceptance suite: four SGD variants, a
# stump and the majority class.
LEARNERS = (
    {"kind": "logistic_regression_sgd", "learning_rate": 0.3, "epochs": 10, "batch_size": 64},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.2, "epochs": 8, "batch_size": 64},
    {"kind": "decision_stump"},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.0005, "epochs": 100, "batch_size": 64},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.0003, "epochs": 100, "l2": 0.001,
     "batch_size": 64},
    {"kind": "majority_class"},
)
# Spelled out, not imported: they name per-layer metrics, which must not
# change when the program is refactored.
LEARNER_KINDS = ("logistic_regression_sgd", "decision_stump", "majority_class")
# Cost in model units proportional to training work, about one unit per
# second on a 2-vCPU Intel Xeon VM: SGD costs rows x epochs, the stump sorts
# every feature, the majority class counts labels. With a cost model the
# probe path does not depend on measured wall time.
SGD_COST_PER_ROW_EPOCH = 5e-7
COST_MODEL = tuple(
    [SGD_COST_PER_ROW_EPOCH * spec["epochs"], 1.0]
    if spec["kind"] == "logistic_regression_sgd"
    else [1e-6 if spec["kind"] == "decision_stump" else 1e-8, 1.0]
    for spec in LEARNERS
)
LABEL_WEIGHTS = np.array([1.0, -0.8, 0.6, 0.4, -0.2])
# A wide_synthetic set-up takes about 15 ms and a grid_small_n one about
# 2 ms, so a run makes many and reports their median; a learner_csv set-up
# writes a 100k-row file in about 0.4 s.
SETUP_REPEATS = 25
LEARNER_SETUP_REPEATS = 5


@dataclass
class UnitCheck:
    """What one unit did, as the metrics and the correctness checks see it."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    selection_cost: float = 0.0
    full_cost: float = 0.0
    abc_selections: int = 0
    epsilon_misses: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class AbcRun:
    """What the benchmark keeps of one engine selection: counts and audit
    findings, not the trace, so that the benchmark holds no more memory than
    the program would."""

    rounds: int
    prunes: int
    snapshots: int
    budget_stop: bool
    findings: tuple[str, ...]


def abc_run(result: tuple[int, core.RunTrace], audit: bool = False) -> AbcRun:
    """Reduce a ``run_abc``/``select_with_budget`` return value to an AbcRun,
    replaying the trace through ``structural_audit`` if ``audit``."""
    _, trace = result
    return AbcRun(
        rounds=trace.n_rounds,
        prunes=trace.pruned_total,
        snapshots=trace.n_snapshots,
        budget_stop=any(f.startswith("budget stop") for f in trace.flags),
        findings=tuple(_audit(trace.rounds, trace.params)) if audit else (),
    )


def _abc_targets(owner, names, audit: bool) -> tuple[Target, ...]:
    reduce = functools.partial(abc_run, audit=audit)
    return tuple(Target(owner, name, name, result=reduce) for name in names)


def _audit(trace_rounds, params: core.RunParams) -> list[str]:
    return [str(finding) for finding in harness.structural_audit(trace_rounds, params)]


# ---------------------------------------------------------------------------
# wide_synthetic
# ---------------------------------------------------------------------------


@dataclass
class WideInput:
    backend: probes.SyntheticBackend
    params: core.RunParams
    truths: list[float]
    full_cost: float


def _stratified(rng: np.random.Generator, low: float, high: float, n: int) -> np.ndarray:
    """n values uniform on [low, high]: the midpoints of n equal strata, in
    the seed's order."""
    return low + (high - low) * (rng.permutation(n) + 0.5) / n


def wide_setup(seed: int, quick: bool) -> WideInput:
    """The seed's n curves, a Latin hypercube over the curve parameters:
    each parameter takes its stratified values and the seed pairs them. With
    independent draws the cost of a selection varied by up to 1.6x between
    seeds; with strata only the pairing and the probe noise change, and the
    rounds of a selection vary by about 2%."""
    n = 60 if quick else 2000
    rng = np.random.default_rng(seed)
    columns = [
        _stratified(rng, low, high, n)
        for low, high in ((0.6, 0.9), (0.3, 0.5), (0.45, 0.6), (0.15, 0.3), (0.4, 0.6))
    ]
    curves = tuple(
        probes.CurveSpec(
            a_inf=float(a_inf), b=float(b), beta=float(beta), overfit_gap=float(gap),
            gamma=float(gamma), kappa=1.0, alpha=1.0,
        )
        for a_inf, b, beta, gap, gamma in zip(*columns)
    )
    instance = probes.SyntheticInstance(
        name=f"uniform-{seed}", curves=curves, max_train_size=4_000_000, max_test_size=8_000_000
    )
    backend = probes.SyntheticBackend(instance, seed=seed)
    params = core.RunParams(
        epsilon=EPSILON, delta=DELTA, n_configs=n, initial_train_size=1000,
        initial_test_size=2000, step_factor_c=2.0, alpha_cost_exponent=1.0,
        max_train_size=instance.max_train_size, max_test_size=instance.max_test_size,
        seed=seed,
    )
    truths = [backend.true_accuracy(i) for i in range(1, n + 1)]
    full_cost = sum(c.cost(instance.max_train_size) for c in curves)
    return WideInput(backend, params, truths, full_cost)


def wide_unit(inp: WideInput) -> dict:
    states = core.initial_states(list(inp.backend.labels), inp.params)
    selected, trace = engine.run_abc(states, inp.backend, inp.params, SchedulerKind.GRADIENT_CI)
    findings = harness.structural_audit(trace.rounds, inp.params)
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    return {"selected": selected, "trace": trace, "findings": findings, "digest": digest}


def wide_check(inp: WideInput, out: dict, runs: list[AbcRun]) -> UnitCheck:
    check = UnitCheck(attempted=1, digests=[out["digest"]])
    trace = out["trace"]
    if out["findings"]:
        check.problems += [f"structural audit: {f}" for f in out["findings"][:3]]
    if trace.final_selection != out["selected"] or not 1 <= out["selected"] <= len(inp.truths):
        check.problems.append(f"selection {out['selected']} does not match its trace")
    check.failed = int(bool(check.problems))
    check.selection_cost = trace.wall_cost_total
    check.full_cost = inp.full_cost
    check.abc_selections = 1
    loss = max(inp.truths) - inp.truths[out["selected"] - 1]
    check.epsilon_misses = int(loss > inp.params.epsilon)
    return check


# ---------------------------------------------------------------------------
# learner_csv
# ---------------------------------------------------------------------------


@dataclass
class LearnerInput:
    directory: Path
    config: Path
    seed: int


def learner_setup(seed: int, rows: int, directory: Path) -> LearnerInput:
    """Write the seed's CSV file and its run config."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(rows, len(LABEL_WEIGHTS)))
    labels = (features @ LABEL_WEIGHTS > 0.0).astype(np.int64)
    labels ^= (rng.random(rows) < 0.1).astype(np.int64)
    directory.mkdir(parents=True, exist_ok=True)
    np.savetxt(
        directory / "data.csv",
        np.column_stack([features, labels]),
        delimiter=",",
        fmt=["%.6f"] * len(LABEL_WEIGHTS) + ["%d"],
    )
    config = {
        "backend": {
            "csv": "data.csv", "header": False, "holdout": 0.3, "split_seed": seed,
            "learners": list(LEARNERS), "cost_model": [list(c) for c in COST_MODEL],
        },
        # Probes start at 8000 rows: below that the SGD learners are still
        # undertrained, their intervals jump out of the snapshot and the
        # probe path changes from seed to seed. Round-robin then gives the
        # same 13-round path on most seeds, so the timings measure the code.
        "params": {
            "epsilon": EPSILON, "delta": DELTA, "seed": seed,
            "initial_train_size": 8000, "initial_test_size": 16000,
        },
        "scheduler": "round_robin",
        "method": "abc",
        "output": {
            "trace": str(directory / "trace.jsonl"),
            "report": str(directory / "report.json"),
        },
    }
    path = directory / "run.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return LearnerInput(directory, path, seed)


def learner_unit(inp: LearnerInput) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return {"code": cli.main(["run", str(inp.config), "--final-train"])}


def learner_check(inp: LearnerInput, out: dict, runs: list[AbcRun]) -> UnitCheck:
    check = UnitCheck(attempted=1)
    if out["code"] != cli.EXIT_OK:
        check.problems.append(f"abcselect run exited with code {out['code']}")
    else:
        report = json.loads((inp.directory / "report.json").read_text())
        trace_path = inp.directory / "trace.jsonl"
        rounds = core.load_trace_rounds(trace_path)
        params = core.RunParams.from_dict(report["params"])
        check.problems += _audit(rounds, params)[:3]
        if report["rounds"] != len(rounds) or "final_evaluation" not in report:
            check.problems.append("report does not match its trace")
        check.digests.append(hashlib.sha256(trace_path.read_bytes()).hexdigest())
        check.selection_cost = report["total_cost_scenario_i"]
        check.full_cost = sum(
            kappa * float(params.max_train_size) ** alpha for kappa, alpha in COST_MODEL
        )
    check.failed = int(bool(check.problems))
    return check


def learner_reference(inp: LearnerInput) -> bool:
    """Untimed full run of every learner on the input's file: does the
    selection in the last report miss the best by more than epsilon?"""
    conf = json.loads(inp.config.read_text())["backend"]
    handle = probes.load_csv_dataset(
        inp.directory / "data.csv", header=False, holdout=conf["holdout"],
        seed=conf["split_seed"],
    )
    backend = probes.LearnerBackend(
        handle, [probes.LearnerSpec.from_dict(d) for d in LEARNERS], seed=inp.seed,
        cost_model=[tuple(c) for c in COST_MODEL],
    )
    _, accuracies, _ = baselines.full_run(list(range(1, len(LEARNERS) + 1)), backend)
    report = json.loads((inp.directory / "report.json").read_text())
    return max(accuracies.values()) - accuracies[report["selected"]] > EPSILON


def _learner_probe_kind(backend, config_id, *args) -> str:
    return f"LearnerBackend.probe:{LEARNERS[config_id - 1]['kind']}"


def _learner_probe_work(backend, config_id, s_tr, *args) -> float:
    """Thousands of rows times epochs trained by an SGD probe."""
    return s_tr / 1000.0 * LEARNERS[config_id - 1].get("epochs", 1)


# ---------------------------------------------------------------------------
# grid_small_n
# ---------------------------------------------------------------------------

# Model-cost budgets for the anytime path: the first stops most abc runs
# early, the second only the long ones.
GRID_BUDGETS = (2.0e5, 2.0e6)


@dataclass
class GridInput:
    spec: harness.ExperimentSpec
    cells: int


def grid_setup(seed: int, quick: bool) -> GridInput:
    sources = (
        harness.InstanceSource("plateau", synthetic=harness.make_plateau_instance(seed, n_fillers=18)),
        harness.InstanceSource(
            "expensive-decoy",
            synthetic=harness.make_expensive_decoy_instance(seed, n_fillers=18),
        ),
        harness.InstanceSource("skewed-cost", synthetic=harness.make_skewed_cost_instance(seed, n=20)),
        harness.InstanceSource("sweep", synthetic=harness.make_sweep_instance(seed, n=20)),
    )
    spec = harness.ExperimentSpec(
        sources=sources,
        methods=harness.METHODS,
        epsilon_grid=(0.01, 0.05),
        n_configs_grid=(4, 20),
        repetitions=1 if quick else 20,
        base_seed=seed,
        budget_grid=GRID_BUDGETS,
        delta=DELTA,
    )
    per_source = sum(
        1 + (len(spec.budget_grid) if m in harness.ABC_METHODS else 0) for m in spec.methods
    )
    cells = (
        len(sources) * len(spec.n_configs_grid) * len(spec.epsilon_grid)
        * spec.repetitions * per_source
    )
    return GridInput(spec, cells)


def grid_unit(inp: GridInput) -> dict:
    return {"rows": harness.run_experiment(inp.spec, out_dir=None, workers=1)}


def grid_check(inp: GridInput, out: dict, runs: list[AbcRun]) -> UnitCheck:
    rows = out["rows"]
    check = UnitCheck(attempted=inp.cells, failed=max(0, inp.cells - len(rows)))
    if len(rows) != inp.cells:
        check.problems.append(f"{len(rows)} metric rows for {inp.cells} cells")
    # The first unit replays every abc trace through structural_audit as the
    # selection returns (see ``abc_run``); later units repeat the same cells.
    for run in runs:
        if run.findings:
            check.failed += 1
            check.problems.append(f"structural audit: {run.findings[0]}")
    misses: dict[tuple[str, str], list[int]] = {}
    for row in rows:
        if row.method not in harness.ABC_METHODS or "@b=" in row.instance:
            continue
        check.abc_selections += 1
        miss = int(row.loss > row.epsilon)
        check.epsilon_misses += miss
        check.selection_cost += row.cost_i
        check.full_cost += row.cost_i * row.speedup_i
        tally = misses.setdefault((row.method, row.instance.split("#")[0]), [0, 0])
        tally[0] += miss
        tally[1] += 1
    check.notes = [
        f"epsilon_miss_rate[{method} on {family}] = {m}/{k}"
        for (method, family), (m, k) in sorted(misses.items())
    ]
    return check


# Spans every traced unit records, whatever the workload.
COMMON_TARGETS = (
    Target(engine, "pick_next", "pick_next"),
    Target(engine, "lower_bound", "lower_bound"),
    Target(engine, "upper_bound", "upper_bound"),
    Target(engine, "clamp_to_cached", "clamp_to_cached"),
    Target(engine.EngineState, "active_configs", "EngineState.active_configs"),
    Target(core.RunTrace, "append", "RunTrace.append"),
    Target(core.RunTrace, "to_jsonl", "RunTrace.to_jsonl"),
    Target(core.RunTrace, "write_jsonl", "RunTrace.write_jsonl"),
    Target(probes.SyntheticBackend, "probe", "SyntheticBackend.probe"),
    Target(
        probes.LearnerBackend, "probe", "LearnerBackend.probe",
        info=_learner_probe_work, rename=_learner_probe_kind,
    ),
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _prepare(make, repeats: int):
    """Set up ``repeats`` times; the last input and every set-up's time.
    Earlier inputs are dropped, so that they do not add to peak memory, and
    collected before the next set-up, so that each one starts from the same
    heap."""
    times = []
    for _ in range(repeats):
        made = None
        gc.collect()
        start = time.perf_counter()
        made = make()
        times.append(time.perf_counter() - start)
    return made, times


def wide_prepare(seed: int, quick: bool, workdir: Path):
    return _prepare(lambda: wide_setup(seed, quick), SETUP_REPEATS)


def learner_prepare(seed: int, quick: bool, workdir: Path):
    rows = 3000 if quick else 100_000
    return _prepare(lambda: learner_setup(seed, rows, workdir), LEARNER_SETUP_REPEATS)


def grid_prepare(seed: int, quick: bool, workdir: Path):
    return _prepare(lambda: grid_setup(seed, quick), SETUP_REPEATS)


@dataclass(frozen=True)
class Workload:
    """How the benchmark drives one workload.

    ``prepare`` returns the input and the duration of each set-up it made;
    ``unit`` is the timed work on the input; ``check`` inspects one unit's
    output and the AbcRun of each of its engine selections.
    ``selection(audit)`` gives the bindings wrapped in every unit, which
    replay each abc trace through ``structural_audit`` if ``audit`` (the
    first unit); ``traced`` the bindings wrapped in traced units only;
    ``reference`` is the optional untimed epsilon check of the input.
    """

    prepare: Callable
    unit: Callable
    check: Callable
    selection: Callable[[bool], tuple[Target, ...]]
    traced: tuple[Target, ...]
    reference: Callable[..., bool] | None = None


WORKLOADS = {
    "wide_synthetic": Workload(
        # The unit audits its own trace.
        wide_prepare, wide_unit, wide_check,
        lambda audit: _abc_targets(engine, ("run_abc",), False),
        (Target(harness, "structural_audit", "structural_audit"),),
    ),
    "learner_csv": Workload(
        # The check audits the trace the CLI wrote.
        learner_prepare, learner_unit, learner_check,
        lambda audit: _abc_targets(cli, ("run_abc",), False),
        (
            Target(cli, "main", "cli.main"),
            Target(cli, "load_csv_dataset", "load_csv_dataset"),
            Target(cli, "verify_selection", "verify_selection"),
        ),
        learner_reference,
    ),
    "grid_small_n": Workload(
        grid_prepare, grid_unit, grid_check,
        lambda audit: _abc_targets(harness, ("run_abc", "select_with_budget"), audit) + (
            Target(harness, "full_run", "full_run"),
            Target(harness, "successive_halving", "successive_halving"),
        ),
        (Target(harness, "run_experiment", "run_experiment"),),
    ),
}
