"""The selection loop: probe, bound, prune, snapshot, schedule.

Each round probes one configuration, re-estimates its confidence interval
with :meth:`~abcselect.ci_estimator.IntervalRule.update`, updates the
incumbent (the configuration with the highest lower bound seen so far),
prunes every other active configuration whose upper bound is within
epsilon of the incumbent lower bound, and snapshot-caches the surviving
intervals whenever pruning happened. The incumbent is never pruned, so the loop, which runs while more
than one configuration is active, stops exactly when ``incumbent_lower +
epsilon >= upper`` holds for every other configuration (the LUCB stopping
rule; Hoeffding-race elimination), and returns the incumbent.

Termination: a configuration probed on the full data is saturated, with the
exact point ``acc_test`` as its interval. If it is not the incumbent, that
point is at or below the incumbent lower bound, so the rule prunes it in
the same round. Only the incumbent can be active and saturated, and no
scheduler picks it then. (The warm-up never meets it: a first probe
saturates only when every first probe does, and then the first sweep
prunes all but the incumbent.) So every round grows an unsaturated
configuration's sample, each configuration is probed at most ``growth steps
+ 1`` times (the rungs of :func:`~abcselect.scheduler.size_ladder`), and a
run ends within ``n * (growth steps + 1)`` rounds.

A run builds its size ladder (a configuration's k-th probe is at rung k)
and its :class:`~abcselect.ci_estimator.IntervalRule` once. One index,
:class:`ActiveSet`, holds the ``(-upper, id)`` rank order and the prune
rule; the loop and the structural audit's replay both use it and the rule.
Only the probed configuration's interval changes in a round, so the
engine's own work per round is O(log n) tuple comparisons plus list moves
of at most n pointers, and each pick is O(1): UCB and gradient-CI read the
head of the ranked order, and gradient-CI's G is an exact sum that gains or
loses one term when a configuration is probed or pruned
(:class:`~abcselect.scheduler.GradientSum`). The warm-up is two
:func:`~abcselect.scheduler.sweeps`, each a queue built once; round-robin
continues them. Pruning walks in from the low-upper end of the ranked order
(``upper - incumbent_lower`` is monotone in ``upper`` under float
subtraction), and snapshots are lazy (see :class:`ActiveSet`).

Budgets are readouts of one run. The loop takes an ascending tuple of cost
budgets and makes one budget check per round: it records, for the smallest
budget not yet read out, what a run limited to it returns (a
:class:`~abcselect.core.BudgetReadout`) at the round where that run would
stop, and carries on. So one unbudgeted run answers a whole budget grid;
:func:`select_with_budget` is the one-budget case that stops there. Also
provides the anytime best-guess output.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Iterable, Iterator, Sequence

from .ci_estimator import IntervalRule
from .core import (
    BackendError,
    BudgetReadout,
    ConfidenceInterval,
    ConfigurationState,
    ProbeOutcome,
    RunParams,
    RunTrace,
    TraceRound,
)
from .probes import LearnerBackend, ProbeBackend
from .scheduler import (
    GradientEstimate,
    GradientSum,
    SchedulerKind,
    pick_next,
    size_ladder,
    sweeps,
)

__all__ = [
    "ActiveSet",
    "EngineState",
    "FinalEvaluation",
    "anytime_best_guess",
    "build_report",
    "run_abc",
    "select_with_budget",
    "verify_selection",
]

logger = logging.getLogger(__name__)


@dataclass
class EngineState:
    """Snapshot of the loop: configurations, active set, incumbent, trace."""

    configs: list[ConfigurationState]
    params: RunParams
    active: ActiveSet
    incumbent_id: int
    incumbent_lower: float = 0.0
    round_index: int = 0
    trace: RunTrace = field(default_factory=RunTrace)

    def by_id(self, config_id: int) -> ConfigurationState:
        return self.configs[config_id - 1]


class ActiveSet:
    """Index of a run's active configurations, updated one entry at a time.

    ``ids`` holds the active ids in ascending order and ``ranked`` the active
    configurations ordered by ``(-upper, id)``: UCB's pick and gradient-CI's
    pair at its head, the prune candidates at its low-upper end. ``active``
    is the set of active ids. ``update`` and ``prune`` find an entry by
    bisecting a parallel list of the ``(-upper, id)`` keys.

    Snapshots are lazy. ``prune`` counts a snapshot in ``snapshots``, and a
    configuration's ``cached_ci`` is set from its ``ci`` only when it is read
    through :meth:`cached`: before its interval changes, when it is pruned,
    and in :meth:`flush`. Until then its ``ci`` is the one the snapshot saw.
    """

    def __init__(self, configs: Sequence[ConfigurationState]):
        """``configs[i]`` must have id ``i + 1``, as the engine requires."""
        self._configs = list(configs)
        self.ids = [c.id for c in configs if c.active]
        self.active = set(self.ids)
        self.snapshots = 0
        self._synced = [0] * len(configs)
        self._keys = sorted((-c.ci.upper, c.id) for c in configs if c.active)
        self.ranked = [self._configs[i - 1] for _, i in self._keys]

    def __len__(self) -> int:
        return len(self.ids)

    def cached(self, cfg: ConfigurationState) -> ConfidenceInterval:
        """``cfg.cached_ci``, first brought up to date if ``cfg`` is active."""
        if cfg.active and self._synced[cfg.id - 1] != self.snapshots:
            cfg.cached_ci = cfg.ci
            self._synced[cfg.id - 1] = self.snapshots
        return cfg.cached_ci

    def update(self, cfg: ConfigurationState, ci: ConfidenceInterval) -> None:
        """Give ``cfg`` the interval ``ci`` and move its ranked entry."""
        if not cfg.active:
            cfg.ci = ci
            return
        self.cached(cfg)
        self._unrank(cfg)
        cfg.ci = ci
        key = (-ci.upper, cfg.id)
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self.ranked.insert(i, cfg)

    def due(
        self, incumbent_id: int, incumbent_lower: float, epsilon: float
    ) -> tuple[int, ...]:
        """Ascending ids of the active configurations the prune rule selects:
        every one but the incumbent with ``upper - incumbent_lower <= epsilon``."""
        ranked = self.ranked
        if not ranked or ranked[-1].ci.upper - incumbent_lower > epsilon:
            return ()
        due = []
        for cfg in reversed(ranked):
            if cfg.ci.upper - incumbent_lower > epsilon:
                break
            if cfg.id != incumbent_id:
                due.append(cfg.id)
        return tuple(sorted(due))

    def prune(self, ids: Sequence[int]) -> None:
        """Deactivate every active id in ``ids`` (others are skipped); when
        ``ids`` is not empty, take a snapshot of the configurations left."""
        for cid in ids:
            if cid not in self.active:
                continue
            cfg = self._configs[cid - 1]
            self.cached(cfg)
            self._unrank(cfg)
            del self.ids[bisect_left(self.ids, cid)]
            self.active.discard(cid)
            cfg.active = False
        if ids:
            self.snapshots += 1

    def flush(self) -> None:
        """Bring every active configuration's ``cached_ci`` up to date."""
        for cfg in self.ranked:
            self.cached(cfg)

    def _unrank(self, cfg: ConfigurationState) -> None:
        i = bisect_left(self._keys, (-cfg.ci.upper, cfg.id))
        del self._keys[i]
        del self.ranked[i]


def _validate_setup(
    configs: Sequence[ConfigurationState], backend: ProbeBackend, params: RunParams
) -> None:
    if len(configs) != params.n_configs:
        raise ValueError(
            f"{len(configs)} configurations but params.n_configs = {params.n_configs}"
        )
    if len(configs) != backend.n_configs:
        raise ValueError(
            f"{len(configs)} configurations but backend has {backend.n_configs}"
        )
    if params.max_train_size != backend.max_train_size:
        raise ValueError(
            f"params.max_train_size {params.max_train_size} != backend "
            f"{backend.max_train_size}"
        )
    if params.max_test_size != backend.max_test_size:
        raise ValueError(
            f"params.max_test_size {params.max_test_size} != backend "
            f"{backend.max_test_size}"
        )
    for i, cfg in enumerate(configs):
        if cfg.id != i + 1:
            raise ValueError("configuration ids must be 1..n in input order")


def _sweep_keys(
    state: EngineState, cfg: ConfigurationState, sizes: tuple[int, int]
) -> Iterator[tuple[int, int, int]]:
    """``(config_id, s_tr, s_te)`` of the probes left in ``cfg``'s sweep if
    nothing is pruned meanwhile: ``cfg``'s, then each active configuration
    after it with as many probes, in id order, all at ``sizes``."""
    ids, count = state.active.ids, len(cfg.history)
    for cid in itertools.islice(ids, bisect_left(ids, cfg.id), None):
        if len(state.by_id(cid).history) == count:
            yield (cid, *sizes)


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _serve(backend: ProbeBackend, conn: Connection, parent_ends: list[Connection]) -> None:
    """A sweep-probe worker: probe each key received, reply with the outcome,
    and return once the parent's end is closed. ``parent_ends``, the parent's
    pipe ends the fork copied, are closed first: a copy would keep the pipe
    open after the parent dies."""
    for end in parent_ends:
        end.close()
    while True:
        try:
            key = conn.recv()
        except EOFError:
            return
        try:
            conn.send((True, backend.probe(*key)))
        except Exception as exc:  # noqa: BLE001 - raised again by the engine
            conn.send((False, exc))


def _sweep_workers(backend: ProbeBackend) -> _SweepProbes | None:
    """Workers for a run's sweep probes, one per usable CPU, or None. Only a
    learner's probes pay for a pipe round trip, only modelled costs ignore a
    busy neighbour, and workers need two CPUs, fork and no enclosing pool."""
    if isinstance(backend, LearnerBackend) and backend.estimate_cost(1, 1, 1) is not None:
        if multiprocessing.parent_process() is None and _usable_cpus() > 1:
            if "fork" in multiprocessing.get_all_start_methods():
                return _SweepProbes(backend, _usable_cpus())
    return None


class _SweepProbes:
    """Forked workers that inherit the backend. As ``probe`` is pure, a
    worker's outcome is the one the round would compute in-process."""

    def __init__(self, backend: ProbeBackend, width: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self._width, self._idle, self._busy = width, [], {}  # (pipe, process), by key
        for _ in range(width):
            conn, child = ctx.Pipe()
            parent_ends = [conn, *(c for c, _ in self._idle)]
            worker = ctx.Process(target=_serve, args=(backend, child, parent_ends), daemon=True)
            worker.start()
            child.close()
            self._idle.append((conn, worker))

    def probe(self, keys: Iterable[tuple[int, int, int]]) -> ProbeOutcome | None:
        """Hand the first of ``keys``, one per worker, to idle workers, then
        return the first one's outcome (raising its error); None if no worker
        took it or a worker died."""
        keys = list(itertools.islice(keys, self._width))
        try:
            for key, (conn, _) in list(self._busy.items()):
                if key not in keys and conn.poll():  # a probe no round reads
                    conn.recv()
                    self._idle.append(self._busy.pop(key))
            for key in keys:
                if key not in self._busy and self._idle:
                    self._busy[key] = self._idle.pop()
                    self._busy[key][0].send(key)
            if keys[0] not in self._busy:
                return None
            ok, value = self._busy[keys[0]][0].recv()
        except (EOFError, OSError):  # a worker died: the run goes on in-process
            self.close()
            logger.warning("a sweep-probe worker died; probing in-process")
            return None
        self._idle.append(self._busy.pop(keys[0]))
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Stop the workers, killing any probe in flight."""
        for conn, worker in [*self._idle, *self._busy.values()]:
            worker.kill()
            worker.join()
            conn.close()
        self._idle, self._busy = [], {}


def _gradient_estimate(
    cfg: ConfigurationState, prev_ci: ConfidenceInterval
) -> GradientEstimate:
    last, prev = cfg.history[-1], cfg.history[-2]
    return GradientEstimate(
        delta_cost=max(0.0, last.cost - prev.cost),
        delta_lower=cfg.ci.lower - prev_ci.lower,
        delta_upper=cfg.ci.upper - prev_ci.upper,
    )


def _run(
    configs: Sequence[ConfigurationState],
    backend: ProbeBackend,
    params: RunParams,
    scheduler: SchedulerKind,
    budgets: tuple[float, ...] = (),
    stop_at_budget: bool = False,
) -> EngineState:
    """The selection loop, with a readout for each of the ascending
    ``budgets`` in ``state.trace.budget_readouts``.

    A budget is read out before the first probe whose estimated cost would
    take the spent total past it, or, for a probe the backend cannot
    estimate, after the round whose cost reaches it. A budget the run never
    reaches is read out at the end. With ``stop_at_budget`` the loop stops
    at the first readout and appends its flag to the trace.

    A sweep round hands its probe and the next (:func:`_sweep_keys`) to the
    :func:`_sweep_workers`, if any, and takes its outcome from them; a probe
    for a configuration pruned first is never read: it is in no trace row,
    cost or flag.
    """
    _validate_setup(configs, backend, params)
    if not all(b > 0.0 for b in budgets):
        raise ValueError(f"budgets must be > 0, got {list(budgets)}")
    active = ActiveSet(configs)
    state = EngineState(
        configs=list(configs), params=params, active=active, incumbent_id=configs[0].id
    )
    state.trace.params = params
    # The warm-up probes every configuration at the initial size, then once
    # grown; round-robin is the same sweeps continued.
    warmup = sweeps(state.configs, active.ids, range(2))
    rr_sweep = None
    if scheduler is SchedulerKind.ROUND_ROBIN:
        rr_sweep = sweeps(state.configs, active.ids, itertools.count(2))
    grads = GradientSum()
    track_grads = scheduler is SchedulerKind.GRADIENT_CI
    rule = IntervalRule(params)
    ladder, rungs = [], size_ladder(params)  # rungs are listed on first use
    pending = sorted(budgets, reverse=True)  # the next budget to read out is last
    readouts = state.trace.budget_readouts

    workers = _sweep_workers(backend)
    try:
        while len(active) > 1:
            cfg = next(warmup, None)
            if cfg is None:
                if workers is not None and rr_sweep is None:  # the sweeps are over
                    workers.close()
                    workers = None
                last = state.by_id(state.incumbent_id).last_outcome
                saturated = last is not None and last.train_sample_size >= params.max_train_size
                cfg = state.by_id(
                    pick_next(
                        scheduler, active.ranked, grads, state.incumbent_id, saturated, rr_sweep
                    )
                )
            k = len(cfg.history)
            while k >= len(ladder):
                ladder.append(next(rungs))
            s_tr, s_te = ladder[k]

            if pending:
                spent = state.trace.wall_cost_total
                est = backend.estimate_cost(cfg.id, s_tr, s_te)
                while est is not None and pending and spent + est > pending[-1]:
                    budget = pending.pop()
                    _read_out(
                        state,
                        budget,
                        f"budget stop before round {state.round_index + 1}: "
                        f"spent {spent:g} + estimated {est:g} > budget {budget:g}",
                    )
                if stop_at_budget and readouts:
                    state.trace.flags.append(readouts[0].flag)
                    break

            try:
                # A sweep's keys start with this round's.
                outcome = None
                if workers is not None:
                    outcome = workers.probe(_sweep_keys(state, cfg, ladder[k]))
                if outcome is None:
                    outcome = backend.probe(cfg.id, s_tr, s_te)
                if outcome.train_sample_size != s_tr or outcome.test_sample_size != s_te:
                    raise ValueError(f"outcome at other sizes: {outcome}")
            except Exception as exc:  # noqa: BLE001 - re-raised with round context
                raise BackendError(
                    f"probe failed at round {state.round_index + 1} "
                    f"for config {cfg.id} (s_tr={s_tr}, s_te={s_te}): {exc}"
                ) from exc
            state.round_index += 1

            cached = active.cached(cfg)
            raw, ci, disjoint = rule.update(outcome, cached)
            if disjoint:
                msg = (
                    f"round {state.round_index}: interval [{raw.lower:.6f}, "
                    f"{raw.upper:.6f}] disjoint from snapshot "
                    f"[{cached.lower:.6f}, {cached.upper:.6f}] "
                    f"for config {cfg.id}"
                )
                state.trace.flags.append(msg)
                logger.warning(msg)

            prev_ci = cfg.ci
            cfg.append_probe(outcome)
            active.update(cfg, ci)
            if track_grads and len(cfg.history) >= 2:
                grads.set(cfg.id, _gradient_estimate(cfg, prev_ci))

            if ci.lower > state.incumbent_lower:
                state.incumbent_id = cfg.id
                state.incumbent_lower = ci.lower

            pruned = active.due(state.incumbent_id, state.incumbent_lower, params.epsilon)
            if pruned:
                active.prune(pruned)
                for pid in pruned:
                    grads.discard(pid)

            state.trace.append(
                TraceRound(
                    state.round_index, cfg.id, outcome, ci, state.incumbent_id, pruned,
                    bool(pruned),
                )
            )

            # ``est`` is this round's: ``pending`` only shrinks.
            if pending and est is None:
                spent = state.trace.wall_cost_total
                while pending and spent >= pending[-1]:
                    budget = pending.pop()
                    _read_out(
                        state,
                        budget,
                        f"budget stop after round {state.round_index}: spent "
                        f"{spent:g} >= budget {budget:g} (no cost estimate available)",
                    )
                if stop_at_budget and readouts:
                    state.trace.flags.append(readouts[0].flag)
                    break
    finally:
        if workers is not None:
            workers.close()

    while pending:
        _read_out(state, pending.pop(), None)
    active.flush()
    state.trace.final_selection = state.incumbent_id
    truths = {
        c.id: acc
        for c in state.configs
        if (acc := backend.true_accuracy(c.id)) is not None
    }
    if len(truths) == len(state.configs):
        state.trace.true_accuracies = truths
    return state


def _read_out(state: EngineState, budget: float, flag: str | None) -> None:
    """Record what a run stopped at ``budget`` returns, as the run stands."""
    trace = state.trace
    trace.budget_readouts.append(
        BudgetReadout(
            budget=budget,
            selected=anytime_best_guess(state),
            rounds=trace.n_rounds,
            wall_cost_total=trace.wall_cost_total,
            pruned_total=trace.pruned_total,
            flag=flag,
        )
    )


def run_abc(
    configs: Sequence[ConfigurationState],
    backend: ProbeBackend,
    params: RunParams,
    scheduler: SchedulerKind = SchedulerKind.GRADIENT_CI,
    budgets: Sequence[float] = (),
) -> tuple[int, RunTrace]:
    """Run the full selection loop; returns (selected id, trace).

    ``trace.budget_readouts`` gets one readout per budget in ``budgets``, in
    ascending order: what :func:`select_with_budget` with that budget
    returns (selection, rounds, cost, prunes and budget-stop flag), read off
    this run where that one would stop. The run itself, its trace rows and
    its flags are the same as without budgets.
    """
    state = _run(configs, backend, params, scheduler, tuple(sorted(budgets)))
    return state.incumbent_id, state.trace


def anytime_best_guess(state: EngineState) -> int:
    """Best configuration to output mid-run.

    Compares the incumbent with the active configuration of highest upper
    bound; each candidate's gap is the highest upper bound among the other
    configurations minus its own lower bound. Smaller gap wins; ties go to
    the incumbent.
    """
    if not any(c.history for c in state.configs):
        return state.incumbent_id
    incumbent = state.by_id(state.incumbent_id)
    ranked = state.active.ranked
    if not ranked or ranked[0] is incumbent:
        return incumbent.id
    top = ranked[0]
    incumbent_gap = top.ci.upper - incumbent.ci.lower
    top_gap = max(c.ci.upper for c in [incumbent, *ranked[1:2]]) - top.ci.lower
    return incumbent.id if incumbent_gap <= top_gap else top.id


def select_with_budget(
    configs: Sequence[ConfigurationState],
    backend: ProbeBackend,
    params: RunParams,
    scheduler: SchedulerKind,
    cost_budget: float,
) -> tuple[int, RunTrace]:
    """Run the loop but stop before the probe that would exceed the budget.

    This is the one-budget case of :func:`run_abc`'s readouts that stops at
    its readout: on a budget stop the anytime best guess is returned; if the
    run terminated naturally first, the result matches :func:`run_abc`. A
    budget below the first probe's cost yields configuration 1 with an empty
    trace and a warning flag. An experiment reads its budget cells off one
    unbudgeted run instead of calling this once per budget.
    """
    state = _run(configs, backend, params, scheduler, (cost_budget,), stop_at_budget=True)
    (readout,) = state.trace.budget_readouts
    if readout.flag is not None and not readout.rounds:
        state.trace.flags.append(
            "budget below the first probe cost; returning configuration 1 unprobed"
        )
    state.trace.final_selection = readout.selected
    return readout.selected, state.trace


@dataclass(frozen=True)
class FinalEvaluation:
    """Outcome of fully training the selected configuration.

    When the full-data accuracy falls below the last sampled-model test
    accuracy, the sampled model is the better deliverable and the violation
    is flagged.
    """

    accuracy: float
    cost: float
    sampled_accuracy: float
    full_below_sampled: bool

    @property
    def deliverable(self) -> str:
        return "sampled_model" if self.full_below_sampled else "full_model"


def verify_selection(
    backend: ProbeBackend,
    configs: Sequence[ConfigurationState],
    selected_id: int,
) -> FinalEvaluation:
    """Train the selected configuration on full data and compare against its
    last sampled probe.

    When that last probe already ran at the full sizes, its outcome is the
    full-data result and is returned without probing again. This relies on
    backends being pure functions of (configuration, sizes): a second probe
    would give the same accuracy, and with a cost model the same cost; with
    measured wall time the cost is that of the same full-data training.
    """
    cfg = configs[selected_id - 1]
    last = cfg.last_outcome
    sampled_acc = last.test_accuracy if last is not None else 0.0
    full = (backend.max_train_size, backend.max_test_size)
    if last is not None and (last.train_sample_size, last.test_sample_size) == full:
        outcome = last
    else:
        outcome = backend.probe(selected_id, *full)
    return FinalEvaluation(
        accuracy=outcome.test_accuracy,
        cost=outcome.cost,
        sampled_accuracy=sampled_acc,
        full_below_sampled=outcome.test_accuracy < sampled_acc,
    )


def build_report(
    selected_id: int,
    trace: RunTrace,
    backend: ProbeBackend,
    params: RunParams,
    method: str,
    final_eval: FinalEvaluation | None = None,
) -> dict:
    """Report JSON: selection, both cost scenarios, rounds, prunes, params.

    Scenario (i) is selection cost only; scenario (ii) adds one full-data
    training of the selected configuration (taken from ``final_eval`` when
    provided, otherwise from the backend's cost estimate).
    """
    full_cost: float | None
    real_accuracy: float | None
    if final_eval is not None:
        full_cost = final_eval.cost
        real_accuracy = final_eval.accuracy
    else:
        full_cost = backend.estimate_cost(
            selected_id, backend.max_train_size, backend.max_test_size
        )
        real_accuracy = backend.true_accuracy(selected_id)
    report = {
        "method": method,
        "selected": selected_id,
        "selected_label": backend.labels[selected_id - 1],
        "real_accuracy": real_accuracy,
        "total_cost_scenario_i": trace.wall_cost_total,
        "total_cost_scenario_ii": (
            trace.wall_cost_total + full_cost if full_cost is not None else None
        ),
        "rounds": trace.n_rounds,
        "prunes": sorted({p for r in trace.rounds for p in r.pruned_ids}),
        "params": params.to_dict(),
        "flags": list(trace.flags),
    }
    if trace.true_accuracies is not None:
        report["true_accuracies"] = {
            str(k): v for k, v in sorted(trace.true_accuracies.items())
        }
    if final_eval is not None:
        report["final_evaluation"] = {
            "accuracy": final_eval.accuracy,
            "cost": final_eval.cost,
            "sampled_accuracy": final_eval.sampled_accuracy,
            "full_below_sampled": final_eval.full_below_sampled,
            "deliverable": final_eval.deliverable,
        }
    return report
