"""Seeded Monte Carlo experiment runner and trace audits.

Runs every (method x instance x n x epsilon x repetition) cell of an
experiment with per-cell seeds derived by hashing, emits one metrics row
per cell (CSV + JSONL + aggregates), and provides two audits over traces:
a structural audit, which replays the recorded rows through the engine's
own round rule (:class:`~abcselect.engine.EngineState`) and checks interval
replay, nesting, the prune condition, incumbent monotonicity and snapshot
accounting, and a containment audit against simulator ground truth.

An abc method's budget cells share the seed of its unbudgeted cell, so one
unbudgeted ``run_abc`` per (method, instance, n, epsilon, repetition) group
serves them all: each budget row is that run's readout at the budget (see
:class:`~abcselect.core.BudgetReadout`), the row a run stopped there would
give. A group fails as a whole: if its run raises, each of its cells gets
its own failure record.

Also ships the synthetic instance families used by the benchmark suites.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .baselines import full_run, relative_accuracy_loss, successive_halving
from .core import RunParams, RunTrace, TraceRound, check_run_setting, initial_states
from .engine import ActiveSet, EngineState, run_abc
from .probes import (
    CurveSpec,
    LearnerBackend,
    LearnerSpec,
    ProbeBackend,
    SyntheticBackend,
    SyntheticInstance,
    load_csv_dataset,
)
from .scheduler import SchedulerKind

__all__ = [
    "ABC_METHODS",
    "AuditIssue",
    "ContainmentReport",
    "ExperimentSpec",
    "InstanceSource",
    "METHODS",
    "MetricsRow",
    "METRICS_HEADER",
    "cell_seed",
    "containment_audit",
    "make_expensive_decoy_instance",
    "make_monte_carlo_instance",
    "make_plateau_instance",
    "make_skewed_cost_instance",
    "make_sweep_instance",
    "make_two_config_instance",
    "run_experiment",
    "structural_audit",
    "write_metrics",
]

logger = logging.getLogger(__name__)

ABC_METHODS = {
    "abc_gradient_ci": SchedulerKind.GRADIENT_CI,
    "abc_ucb": SchedulerKind.UCB,
    "abc_round_robin": SchedulerKind.ROUND_ROBIN,
}
METHODS = tuple(ABC_METHODS) + ("full_run", "successive_halving")

METRICS_HEADER = (
    "method,instance,seed,epsilon,selected,acc_selected,acc_best,loss,"
    "delta_rel,cost_i,cost_ii,speedup_i,speedup_ii,rounds,prunes"
)


# ---------------------------------------------------------------------------
# Experiment specification and metric rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSource:
    """One instance an experiment runs over: either an inline synthetic
    instance or a CSV dataset with a learner grid."""

    name: str
    synthetic: SyntheticInstance | None = None
    csv_path: str | None = None
    learners: tuple[LearnerSpec, ...] = ()
    holdout: float = 0.3
    header: bool = False
    split_seed: int = 0  # the train/test partition is part of the instance

    def __post_init__(self) -> None:
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValueError("source needs exactly one of synthetic | csv_path")
        if self.csv_path is not None and not self.learners:
            raise ValueError("CSV source needs a learner grid")

    @property
    def n_available(self) -> int:
        if self.synthetic is not None:
            return self.synthetic.n_configs
        return len(self.learners)


@lru_cache(maxsize=4)
def _cached_dataset(path: str, header: bool, holdout: float, seed: int):
    return load_csv_dataset(path, header=header, holdout=holdout, seed=seed)


def make_backend(source: InstanceSource, n: int, seed: int) -> ProbeBackend:
    """Backend over the first n configurations of a source."""
    if not 1 <= n <= source.n_available:
        raise ValueError(
            f"instance {source.name!r} has {source.n_available} configurations, "
            f"cannot use n={n}"
        )
    if source.synthetic is not None:
        return SyntheticBackend(source.synthetic.truncated(n), seed=seed)
    handle = _cached_dataset(
        source.csv_path, source.header, source.holdout, source.split_seed
    )
    return LearnerBackend(handle, source.learners[:n], seed=seed)


# The run settings an experiment gives every cell, which adds its epsilon
# and seed: each is an ExperimentSpec field and a RunParams.for_backend key.
_RUN_SETTINGS = (
    "delta", "initial_train_size", "initial_test_size", "step_factor_c", "alpha_cost_exponent"
)


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: sources, methods, grids, repetitions, seeding."""

    sources: tuple[InstanceSource, ...]
    methods: tuple[str, ...]
    epsilon_grid: tuple[float, ...]
    n_configs_grid: tuple[int, ...]
    repetitions: int = 100
    base_seed: int = 0
    budget_grid: tuple[float, ...] = ()
    delta: float = 0.5
    initial_train_size: int = 1000
    initial_test_size: int = 2000
    step_factor_c: float = 2.0
    alpha_cost_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("experiment needs at least one instance source")
        if not self.methods:
            raise ValueError("experiment needs at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}")
        if not self.epsilon_grid:
            raise ValueError("epsilon_grid must be nonempty")
        if not self.n_configs_grid:
            raise ValueError("n_configs_grid must be nonempty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for src in self.sources:
            for n in self.n_configs_grid:
                if n > src.n_available:
                    raise ValueError(
                        f"instance {src.name!r} has only {src.n_available} "
                        f"configurations; n_configs_grid asks for {n}"
                    )
        for b in self.budget_grid:
            if not b > 0:
                raise ValueError("budgets must be > 0")
        # The ranges RunParams enforces for every cell, checked once here so
        # that a bad value fails the spec rather than each of its cells.
        for eps in self.epsilon_grid:
            check_run_setting("epsilon", eps, "epsilon_grid values")
        for key in _RUN_SETTINGS:
            check_run_setting(key, getattr(self, key))


@dataclass(frozen=True)
class MetricsRow:
    """One experiment cell. ``loss`` is the real accuracy gap to the best
    configuration; costs and speedups cover scenario (i) (selection only)
    and scenario (ii) (selection plus one full training of the pick)."""

    method: str
    instance: str
    seed: int
    epsilon: float
    selected: int
    acc_selected: float
    acc_best: float
    loss: float
    delta_rel: float
    cost_i: float
    cost_ii: float
    speedup_i: float
    speedup_ii: float
    rounds: int
    prunes: int

    def to_record(self) -> dict:
        return asdict(self)


def cell_seed(
    base_seed: int, method: str, instance: str, n: int, epsilon: float, rep: int
) -> int:
    """Stable per-cell seed: hash of the cell coordinates."""
    key = f"{base_seed}|{method}|{instance}|{n}|{epsilon!r}|{rep}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1  # keep it positive int64


def _full_table(backend: ProbeBackend) -> tuple[int, dict[int, float], dict[int, float]]:
    """Full-data accuracy and cost per configuration (argmax ties: lowest id)."""
    ids = list(range(1, backend.n_configs + 1))
    accs: dict[int, float] = {}
    costs: dict[int, float] = {}
    for cid in ids:
        truth = backend.true_accuracy(cid)
        est = backend.estimate_cost(cid, backend.max_train_size, backend.max_test_size)
        if truth is not None and est is not None:
            accs[cid], costs[cid] = truth, est
        else:
            outcome = backend.probe(cid, backend.max_train_size, backend.max_test_size)
            accs[cid], costs[cid] = outcome.test_accuracy, outcome.cost
    best = min(ids, key=lambda i: (-accs[i], i))
    return best, accs, costs


@dataclass(frozen=True)
class _Cell:
    """One (method, instance, n, epsilon, repetition) group: the unbudgeted
    cell and one cell per budget in ``budgets`` (abc methods only), all
    answered by one run."""

    source: InstanceSource
    method: str
    n: int
    epsilon: float
    rep: int
    seed: int
    budgets: tuple[float, ...]
    settings: tuple[tuple[str, float], ...]  # the spec's _RUN_SETTINGS
    full_accs: tuple[tuple[int, float], ...]
    full_costs: tuple[tuple[int, float], ...]

    def instance_label(self, budget: float | None = None) -> str:
        label = f"{self.source.name}#n={self.n}"
        if budget is not None:
            label += f"@b={budget:g}"
        return label

    @property
    def instance_labels(self) -> list[str]:
        """The group's cells: the unbudgeted one first."""
        return [self.instance_label(b) for b in (None, *self.budgets)]


def _run_cell(cell: _Cell) -> list[MetricsRow]:
    """The group's rows: the unbudgeted cell's, then one per budget."""
    backend = make_backend(cell.source, cell.n, cell.seed)
    params = RunParams.for_backend(
        backend, epsilon=cell.epsilon, seed=cell.seed, **dict(cell.settings)
    )
    full_accs = dict(cell.full_accs)
    full_costs = dict(cell.full_costs)
    fullrun_cost = sum(full_costs.values())
    acc_best = max(full_accs.values())
    ids = list(range(1, cell.n + 1))

    def row(
        budget: float | None, selected: int, cost_i: float, rounds: int, prunes: int,
        cost_ii: float | None = None,
    ) -> MetricsRow:
        acc_selected = full_accs[selected]
        if cost_ii is None:
            cost_ii = cost_i + full_costs[selected]
        return MetricsRow(
            method=cell.method,
            instance=cell.instance_label(budget),
            seed=cell.seed,
            epsilon=cell.epsilon,
            selected=selected,
            acc_selected=acc_selected,
            acc_best=acc_best,
            loss=acc_best - acc_selected,
            delta_rel=relative_accuracy_loss(acc_best, acc_selected),
            cost_i=cost_i,
            cost_ii=cost_ii,
            speedup_i=fullrun_cost / cost_i if cost_i > 0 else math.inf,
            speedup_ii=fullrun_cost / cost_ii if cost_ii > 0 else math.inf,
            rounds=rounds,
            prunes=prunes,
        )

    if cell.method == "full_run":
        selected, _, cost = full_run(ids, backend)
        return [row(None, selected, cost, cell.n, 0, cost_ii=cost)]
    if cell.method == "successive_halving":
        selected, trace = successive_halving(
            ids, backend, params.initial_train_size, params.initial_test_size,
            params.step_factor_c,
        )
    else:
        states = initial_states(list(backend.labels), params)
        kind = ABC_METHODS[cell.method]
        selected, trace = run_abc(states, backend, params, kind, cell.budgets)
    rows = [row(None, selected, trace.wall_cost_total, trace.n_rounds, trace.pruned_total)]
    readouts = {r.budget: r for r in trace.budget_readouts}
    for budget in cell.budgets:
        r = readouts[budget]
        rows.append(row(budget, r.selected, r.wall_cost_total, r.rounds, r.pruned_total))
    return rows


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> list[MetricsRow]:
    """Execute every cell; rows come back in canonical order.

    One run serves each cell group (see :class:`_Cell`): an abc method's
    budget rows are the readouts of its unbudgeted run. Failures are logged
    and recorded in ``errors.jsonl`` under ``out_dir``, one record per cell,
    so a failing run fails every cell of its group; the experiment
    continues. When ``out_dir`` is given, metrics.csv,
    metrics.jsonl and aggregates.csv are written there.
    """
    cells: list[_Cell] = []
    settings = tuple((key, getattr(spec, key)) for key in _RUN_SETTINGS)
    full_cache: dict[tuple[str, int], tuple[dict, dict]] = {}
    for source in spec.sources:
        for n in spec.n_configs_grid:
            key = (source.name, n)
            if key not in full_cache:
                # The full-data table is seed-independent for simulators and
                # measured once for learner backends.
                backend = make_backend(source, n, spec.base_seed)
                _, accs, costs = _full_table(backend)
                full_cache[key] = (accs, costs)
            accs, costs = full_cache[key]
            for method in spec.methods:
                budgets = spec.budget_grid if method in ABC_METHODS else ()
                for epsilon in spec.epsilon_grid:
                    for rep in range(spec.repetitions):
                        cells.append(
                            _Cell(
                                source=source,
                                method=method,
                                n=n,
                                epsilon=epsilon,
                                rep=rep,
                                seed=cell_seed(
                                    spec.base_seed, method, source.name, n, epsilon, rep
                                ),
                                budgets=budgets,
                                settings=settings,
                                full_accs=tuple(sorted(accs.items())),
                                full_costs=tuple(sorted(costs.items())),
                            )
                        )

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell_safe, cells))
    else:
        results = map(_run_cell_safe, cells)
    rows: list[MetricsRow] = []
    failures: list[dict] = []
    for cell, result in zip(cells, results):
        if not isinstance(result, Exception):
            rows.extend(result)
            continue
        for label in cell.instance_labels:
            logger.error("cell failed (%s on %s): %s", cell.method, label, result)
            failures.append(
                {
                    "method": cell.method,
                    "instance": label,
                    "seed": cell.seed,
                    "epsilon": cell.epsilon,
                    "error": str(result),
                }
            )

    rows.sort(key=lambda r: (r.method, r.instance, r.epsilon, r.seed))
    if out_dir is not None:
        write_metrics(rows, out_dir, failures=failures)
    return rows


def _run_cell_safe(cell: _Cell) -> list[MetricsRow] | Exception:
    try:
        return _run_cell(cell)
    except Exception as exc:  # noqa: BLE001 - cell isolation
        return exc


def write_metrics(
    rows: Sequence[MetricsRow],
    out_dir: str | Path,
    failures: Sequence[dict] = (),
) -> None:
    """Write metrics.csv (fixed header), metrics.jsonl, aggregates.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = METRICS_HEADER.split(",")
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            rec = row.to_record()
            writer.writerow([rec[k] for k in header])
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_record()) + "\n")
    _write_aggregates(rows, out / "aggregates.csv")
    if failures:
        with open(out / "errors.jsonl", "w", encoding="utf-8") as fh:
            for rec in failures:
                fh.write(json.dumps(rec) + "\n")


def _write_aggregates(rows: Sequence[MetricsRow], path: Path) -> None:
    groups: dict[tuple[str, str, float], list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.instance, row.epsilon), []).append(row)
    cols = ("loss", "delta_rel", "cost_i", "speedup_i")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "instance", "epsilon", "count"]
            + [f"{c}_{s}" for c in cols for s in ("mean", "p10", "p50", "p90")]
        )
        for (method, instance, epsilon), grp in sorted(groups.items()):
            record = [method, instance, epsilon, len(grp)]
            for col in cols:
                values = np.array([getattr(r, col) for r in grp], dtype=float)
                record += [
                    float(values.mean()),
                    float(np.percentile(values, 10)),
                    float(np.percentile(values, 50)),
                    float(np.percentile(values, 90)),
                ]
            writer.writerow(record)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditIssue:
    round_index: int | None
    message: str

    def __str__(self) -> str:
        where = f"round {self.round_index}" if self.round_index is not None else "trace"
        return f"{where}: {self.message}"


def structural_audit(rounds: Sequence[TraceRound], params: RunParams) -> list[AuditIssue]:
    """Replay every interval update from the recorded probes and check all
    structural invariants; an empty list means the trace is clean.

    Checks: round numbering, interval replay (bit-exact), nesting inside the
    cached snapshot interval, incumbent identity and lower-bound
    monotonicity, the prune condition, that the incumbent is never pruned,
    prune uniqueness, and snapshot count < n.

    The replay runs the engine's own round over fresh configuration states:
    an :class:`~abcselect.engine.EngineState` recomputes each row's interval
    (:meth:`~abcselect.engine.EngineState.interval`), adopts the recorded
    one, and applies the incumbent and prune rules to it
    (:meth:`~abcselect.engine.EngineState.settle`). The recorded prunes are
    checked against the ids the rule selects and then applied, so a round
    costs O(log n). A row whose test sample exceeds the full test set raises
    ``ValueError``.
    """
    issues: list[AuditIssue] = []
    n = params.n_configs
    states = initial_states([""] * n, params)
    state = EngineState(states, params, ActiveSet(states), incumbent_id=1)
    active = state.active

    for pos, row in enumerate(rounds):
        r = row.round_index
        if r != pos + 1:
            issues.append(AuditIssue(r, f"round index {r} out of order (expected {pos + 1})"))
        cid = row.config_id
        if not 1 <= cid <= n:
            issues.append(AuditIssue(r, f"unknown config id {cid}"))
            continue
        cfg = states[cid - 1]
        if not cfg.active:
            issues.append(AuditIssue(r, f"config {cid} probed after being pruned"))

        cached, _, expected, _ = state.interval(cfg, row.outcome)
        if expected.lower != row.ci.lower or expected.upper != row.ci.upper:
            issues.append(
                AuditIssue(
                    r,
                    f"interval does not replay: recorded [{row.ci.lower!r}, "
                    f"{row.ci.upper!r}], recomputed [{expected.lower!r}, "
                    f"{expected.upper!r}]",
                )
            )
        if not row.ci.is_subset_of(cached):
            issues.append(
                AuditIssue(
                    r,
                    f"nesting violated: [{row.ci.lower}, {row.ci.upper}] not inside "
                    f"snapshot [{cached.lower}, {cached.upper}]",
                )
            )

        due = state.settle(cfg, row.ci)
        incumbent_id = state.incumbent_id
        if row.incumbent_id != incumbent_id:
            issues.append(
                AuditIssue(
                    r,
                    f"incumbent mismatch: recorded {row.incumbent_id}, "
                    f"replay gives {incumbent_id}",
                )
            )
        if row.pruned_ids != due and tuple(sorted(row.pruned_ids)) != due:
            issues.append(
                AuditIssue(
                    r,
                    f"pruned set mismatch: recorded {sorted(row.pruned_ids)}, "
                    f"replay gives {list(due)}",
                )
            )
        for pid in row.pruned_ids:
            if not 1 <= pid <= n:
                issues.append(AuditIssue(r, f"unknown config id {pid} pruned"))
            elif pid not in active.active:
                issues.append(AuditIssue(r, f"config {pid} pruned twice"))
            elif pid == incumbent_id:
                issues.append(AuditIssue(r, f"incumbent {pid} pruned"))
            elif pid not in due:
                issues.append(
                    AuditIssue(
                        r,
                        f"prune condition violated for config {pid}: upper "
                        f"{states[pid - 1].ci.upper} - incumbent lower "
                        f"{state.incumbent_lower} > epsilon {params.epsilon}",
                    )
                )
        active.prune(row.pruned_ids)

    if active.snapshots >= n:
        issues.append(
            AuditIssue(None, f"{active.snapshots} snapshots but only {n} configurations")
        )
    return issues


@dataclass(frozen=True)
class ContainmentReport:
    """Per-configuration interval violation rates against ground truth."""

    violations: dict[int, int]
    probes: dict[int, int]
    threshold: float
    flagged: tuple[int, ...]

    @property
    def rates(self) -> dict[int, float]:
        return {i: self.violations[i] / self.probes[i] for i in self.probes}

    @property
    def pooled_probes(self) -> int:
        return sum(self.probes.values())

    @property
    def pooled_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def pooled_rate(self) -> float:
        total = self.pooled_probes
        return self.pooled_violations / total if total else 0.0


def containment_audit(traces: Iterable[RunTrace]) -> ContainmentReport:
    """Fraction of probes whose post-clamp interval excludes the true
    accuracy, per configuration; flags configurations whose rate exceeds
    delta/n^2 beyond a 3-sigma binomial margin.

    Traces must come from runs with ground truth attached (simulator runs).
    """
    violations: dict[int, int] = {}
    probes: dict[int, int] = {}
    threshold: float | None = None
    for trace in traces:
        if trace.true_accuracies is None:
            raise ValueError("trace lacks ground-truth accuracies; cannot audit containment")
        if trace.params is None:
            raise ValueError("trace lacks run parameters")
        t = trace.params.delta / trace.params.n_configs**2
        if threshold is None:
            threshold = t
        elif abs(threshold - t) > 1e-15:
            raise ValueError("traces mix different delta/n^2 thresholds")
        for row in trace.rounds:
            truth = trace.true_accuracies[row.config_id]
            probes[row.config_id] = probes.get(row.config_id, 0) + 1
            if not row.ci.contains(truth):
                violations[row.config_id] = violations.get(row.config_id, 0) + 1
    if threshold is None:
        raise ValueError("no traces given")
    for cid in probes:
        violations.setdefault(cid, 0)
    flagged = []
    for cid, m in probes.items():
        rate = violations[cid] / m
        margin = 3.0 * math.sqrt(threshold * (1.0 - threshold) / m)
        if rate > threshold + margin:
            flagged.append(cid)
    return ContainmentReport(
        violations=violations,
        probes=probes,
        threshold=threshold,
        flagged=tuple(sorted(flagged)),
    )


# ---------------------------------------------------------------------------
# Shipped synthetic instance families
# ---------------------------------------------------------------------------


def make_two_config_instance() -> SyntheticInstance:
    """Two well-separated curves (true accuracies 0.90 and 0.70)."""
    common = dict(b=0.3, beta=0.5, overfit_gap=0.2, gamma=0.5, kappa=1.0, alpha=1.0)
    return SyntheticInstance(
        name="two-config",
        curves=(
            CurveSpec(a_inf=0.9003, **common),
            CurveSpec(a_inf=0.7003, **common),
        ),
        max_train_size=1_000_000,
        max_test_size=1_000_000,
    )


def make_monte_carlo_instance(seed: int = 0) -> SyntheticInstance:
    """Ten curves for tolerance-guarantee Monte Carlo runs: one best, one
    runner-up within a 0.01 tolerance, the rest clearly below."""
    rng = np.random.default_rng(seed)
    tops = [0.900, 0.895]
    others = sorted(rng.uniform(0.80, 0.875, size=8), reverse=True)
    curves = []
    for a_inf in tops + [float(a) for a in others]:
        curves.append(
            CurveSpec(
                a_inf=a_inf,
                b=float(rng.uniform(0.3, 0.5)),
                beta=float(rng.uniform(0.45, 0.6)),
                overfit_gap=float(rng.uniform(0.15, 0.3)),
                gamma=float(rng.uniform(0.4, 0.6)),
                kappa=1.0,
                alpha=1.0,
            )
        )
    return SyntheticInstance(
        name=f"monte-carlo-{seed}",
        curves=tuple(curves),
        max_train_size=2_000_000,
        max_test_size=4_000_000,
    )


def make_skewed_cost_instance(seed: int, n: int = 20) -> SyntheticInstance:
    """Curves whose pruning sample sizes span orders of magnitude: a best
    configuration with a near-tied rival (separation requires very large
    samples) over a field of early-separable losers. Linear cost model."""
    rng = np.random.default_rng(seed)
    best = CurveSpec(
        a_inf=0.90,
        b=float(rng.uniform(0.35, 0.5)),
        beta=float(rng.uniform(0.5, 0.6)),
        overfit_gap=float(rng.uniform(0.15, 0.25)),
        gamma=float(rng.uniform(0.45, 0.55)),
        kappa=1.0,
        alpha=1.0,
    )
    rival = CurveSpec(
        a_inf=0.90 - float(rng.uniform(0.001, 0.004)),
        b=float(rng.uniform(0.35, 0.5)),
        beta=float(rng.uniform(0.5, 0.6)),
        overfit_gap=float(rng.uniform(0.15, 0.25)),
        gamma=float(rng.uniform(0.45, 0.55)),
        kappa=1.0,
        alpha=1.0,
    )
    losers = []
    for _ in range(n - 2):
        losers.append(
            CurveSpec(
                a_inf=float(rng.uniform(0.60, 0.78)),
                b=float(rng.uniform(0.3, 0.5)),
                beta=float(rng.uniform(0.45, 0.6)),
                overfit_gap=float(rng.uniform(0.1, 0.25)),
                gamma=float(rng.uniform(0.4, 0.6)),
                kappa=1.0,
                alpha=1.0,
            )
        )
    return SyntheticInstance(
        name=f"skewed-{seed}",
        curves=(best, rival, *losers),
        max_train_size=64_000_000,
        max_test_size=128_000_000,
    )


def make_plateau_instance(seed: int, n_fillers: int = 2) -> SyntheticInstance:
    """Adversarial instance: the true best configuration's curve is held
    flat across a sample-size band where an early-strong rival outranks it,
    which defeats point-estimate pruning; interval pruning keeps it alive
    through the flat band.
    """
    rng = np.random.default_rng(seed)
    best = CurveSpec(
        a_inf=0.90,
        b=float(rng.uniform(0.86, 0.90)),
        beta=0.35,
        overfit_gap=float(rng.uniform(0.36, 0.42)),
        gamma=0.22,
        kappa=1.0,
        alpha=1.0,
        plateau=(4_000, 64_000),
    )
    rival = CurveSpec(
        a_inf=0.856 + float(rng.uniform(-0.003, 0.003)),
        b=float(rng.uniform(0.08, 0.12)),
        beta=0.5,
        overfit_gap=float(rng.uniform(0.28, 0.33)),
        gamma=0.25,
        kappa=1.0,
        alpha=1.0,
    )
    fillers = []
    for _ in range(n_fillers):
        fillers.append(
            CurveSpec(
                a_inf=float(rng.uniform(0.78, 0.81)),
                b=float(rng.uniform(0.08, 0.15)),
                beta=0.5,
                overfit_gap=0.15,
                gamma=0.4,
                kappa=1.0,
                alpha=1.0,
            )
        )
    return SyntheticInstance(
        name=f"plateau-{seed}",
        curves=(rival, best, *fillers),
        max_train_size=4_000_000,
        max_test_size=8_000_000,
    )


def make_expensive_decoy_instance(seed: int, n_fillers: int = 2) -> SyntheticInstance:
    """Scheduler-separating family: a cheap winner on a slow-rising curve,
    one configuration that is hundreds of times more expensive to probe and
    keeps a stubbornly high upper bound (large, slowly decaying train/test
    gap), and cheap early-prunable fillers.

    Cost-aware scheduling leaves the expensive configuration alone and lifts
    the winner's lower bound past it; upper-bound-chasing probes it a little;
    even allocation drags it through several doublings and pays dearly."""
    rng = np.random.default_rng(seed)
    winner = CurveSpec(
        a_inf=0.90,
        b=float(rng.uniform(0.85, 0.90)),
        beta=0.28,
        overfit_gap=0.2,
        gamma=0.2,
        kappa=1.0,
        alpha=1.0,
    )
    decoy = CurveSpec(
        a_inf=0.69 + float(rng.uniform(-0.005, 0.005)),
        b=float(rng.uniform(0.25, 0.35)),
        beta=0.5,
        overfit_gap=0.30,
        gamma=0.08,
        kappa=400.0,
        alpha=1.0,
    )
    fillers = []
    for _ in range(n_fillers):
        fillers.append(
            CurveSpec(
                a_inf=float(rng.uniform(0.74, 0.76)),
                b=float(rng.uniform(0.25, 0.35)),
                beta=0.5,
                overfit_gap=0.15,
                gamma=0.4,
                kappa=1.0,
                alpha=1.0,
            )
        )
    return SyntheticInstance(
        name=f"expensive-decoy-{seed}",
        curves=(winner, decoy, *fillers),
        max_train_size=8_000_000,
        max_test_size=16_000_000,
    )


def make_sweep_instance(seed: int, n: int = 8) -> SyntheticInstance:
    """Family for tolerance sweeps: a best configuration with competitors at
    small accuracy gaps, so larger tolerances trade accuracy for speed."""
    rng = np.random.default_rng(seed)
    gaps = [0.0, 0.02, 0.04, 0.06]
    curves = []
    for i in range(n):
        gap = gaps[i % len(gaps)] + float(rng.uniform(0.0, 0.01))
        curves.append(
            CurveSpec(
                a_inf=0.90 - gap if i else 0.90,
                b=float(rng.uniform(0.3, 0.45)),
                beta=float(rng.uniform(0.45, 0.6)),
                overfit_gap=float(rng.uniform(0.15, 0.25)),
                gamma=0.5,
                kappa=1.0,
                alpha=1.0,
            )
        )
    return SyntheticInstance(
        name=f"sweep-{seed}",
        curves=tuple(curves),
        max_train_size=4_000_000,
        max_test_size=8_000_000,
    )
