"""Shared domain types: run parameters, confidence intervals, probe
outcomes, per-configuration state, and the append-only run trace."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .probes import ProbeBackend

__all__ = [
    "BackendError",
    "BudgetReadout",
    "ConfidenceInterval",
    "ConfigurationState",
    "FULL_INTERVAL",
    "ProbeOutcome",
    "RunParams",
    "RunTrace",
    "TraceRound",
    "check_run_setting",
    "clamp_interval",
    "initial_states",
    "load_trace_rounds",
]


class BackendError(Exception):
    """A probe backend failed; carries the round context when raised by the engine."""


# The range of each run setting that a run and an experiment share: the
# condition, which NaN fails, and how the error message states it.
_SETTING_RANGES = {
    "epsilon": (lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
    "delta": (lambda x: 0.0 < x < 1.0, "in (0, 1)"),
    "initial_train_size": (lambda x: x >= 1, ">= 1"),
    "initial_test_size": (lambda x: x >= 1, ">= 1"),
    "step_factor_c": (lambda x: 1.0 < x < math.inf, "> 1 and finite"),
    "alpha_cost_exponent": (lambda x: x > 0.0, "> 0"),
}


def check_run_setting(key: str, value: float, name: str | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is in the range of the run
    setting ``key``; the message calls the value ``name`` (``key`` by default)."""
    in_range, expected = _SETTING_RANGES[key]
    if not in_range(value):
        raise ValueError(f"{name or key} must be {expected}, got {value}")


@dataclass(frozen=True)
class RunParams:
    """Immutable parameters of one selection run.

    ``epsilon`` is the accuracy-loss tolerance, ``delta`` the failure
    probability, ``step_factor_c`` the geometric sample-size growth factor
    and ``alpha_cost_exponent`` the exponent of the training-cost model
    ``T(s) = s**alpha``.
    """

    epsilon: float
    delta: float
    n_configs: int
    initial_train_size: int
    initial_test_size: int
    step_factor_c: float
    alpha_cost_exponent: float
    max_train_size: int
    max_test_size: int
    seed: int

    def __post_init__(self) -> None:
        for key in _SETTING_RANGES:
            check_run_setting(key, getattr(self, key))
        if self.n_configs < 1:
            raise ValueError(f"n_configs must be >= 1, got {self.n_configs}")
        for part, initial, full in (
            ("train", self.initial_train_size, self.max_train_size),
            ("test", self.initial_test_size, self.max_test_size),
        ):
            if initial > full:
                raise ValueError(f"initial_{part}_size {initial} must be <= the full size {full}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @classmethod
    def for_backend(
        cls,
        backend: ProbeBackend,
        *,
        epsilon: float,
        delta: float,
        initial_train_size: int,
        initial_test_size: int,
        step_factor_c: float,
        alpha_cost_exponent: float,
        seed: int,
    ) -> "RunParams":
        """A run's parameters over ``backend``: its number of configurations
        and full sizes, with the initial sizes capped at the full sizes."""
        return cls(
            epsilon=epsilon,
            delta=delta,
            n_configs=backend.n_configs,
            initial_train_size=min(initial_train_size, backend.max_train_size),
            initial_test_size=min(initial_test_size, backend.max_test_size),
            step_factor_c=step_factor_c,
            alpha_cost_exponent=alpha_cost_exponent,
            max_train_size=backend.max_train_size,
            max_test_size=backend.max_test_size,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunParams":
        return cls(**d)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A pair [lower, upper] bounding a configuration's real test accuracy."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] must satisfy "
                "0 <= lower <= upper <= 1"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def is_subset_of(self, other: "ConfidenceInterval") -> bool:
        return self.lower >= other.lower and self.upper <= other.upper


FULL_INTERVAL = ConfidenceInterval(0.0, 1.0)


def clamp_interval(raw_lower: float, raw_upper: float) -> ConfidenceInterval:
    """Clamp raw interval endpoints into [0, 1].

    If clamping produces lower > upper, collapse to the degenerate point at
    the raw midpoint clipped to [0, 1].
    """
    lo = max(0.0, raw_lower)
    hi = min(1.0, raw_upper)
    if lo <= hi:
        return ConfidenceInterval(lo, hi)
    mid = min(1.0, max(0.0, (raw_lower + raw_upper) / 2.0))
    return ConfidenceInterval(mid, mid)


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of one training probe at sampled train/test sizes.

    ``cost`` is an abstract nonnegative real: wall-clock seconds for real
    learner backends, model-computed units for the simulator.
    """

    train_sample_size: int
    test_sample_size: int
    train_accuracy: float
    test_accuracy: float
    cost: float

    def __post_init__(self) -> None:
        if self.train_sample_size < 1 or self.test_sample_size < 1:
            raise ValueError("sample sizes must be >= 1")
        if not 0.0 <= self.train_accuracy <= 1.0:
            raise ValueError(f"train_accuracy {self.train_accuracy} not in [0, 1]")
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError(f"test_accuracy {self.test_accuracy} not in [0, 1]")
        if not self.cost >= 0.0:
            raise ValueError(f"cost must be >= 0, got {self.cost}")


@dataclass
class ConfigurationState:
    """Mutable per-configuration bookkeeping owned by the engine loop.

    ``ci`` is the current interval, ``cached_ci`` the interval stored at the
    most recent snapshot (a round in which pruning happened). ``history``
    holds every probe in order of strictly increasing train sample size.
    """

    id: int
    label: str
    ci: ConfidenceInterval = FULL_INTERVAL
    cached_ci: ConfidenceInterval = FULL_INTERVAL
    history: list[ProbeOutcome] = field(default_factory=list)
    total_cost: float = 0.0
    active: bool = True

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"configuration id must be >= 1, got {self.id}")

    @property
    def last_outcome(self) -> ProbeOutcome | None:
        return self.history[-1] if self.history else None

    def append_probe(self, outcome: ProbeOutcome) -> None:
        """Record a probe; train sizes must strictly increase across history."""
        last = self.last_outcome
        if last is not None and outcome.train_sample_size <= last.train_sample_size:
            raise ValueError(
                f"config {self.id}: probe at train size {outcome.train_sample_size} "
                f"does not exceed previous size {last.train_sample_size}"
            )
        self.history.append(outcome)
        self.total_cost += outcome.cost


def initial_states(labels: list[str], params: RunParams) -> list[ConfigurationState]:
    """Fresh configuration states with ids assigned in input order (1-based)."""
    if len(labels) != params.n_configs:
        raise ValueError(
            f"{len(labels)} labels but params.n_configs = {params.n_configs}"
        )
    return [ConfigurationState(id=i + 1, label=label) for i, label in enumerate(labels)]


@dataclass(frozen=True)
class TraceRound:
    """One engine round: the probe, the post-update interval, the incumbent,
    and any configurations pruned this round."""

    round_index: int
    config_id: int
    outcome: ProbeOutcome
    ci: ConfidenceInterval
    incumbent_id: int
    pruned_ids: tuple[int, ...]
    snapshot: bool

    def __post_init__(self) -> None:
        if self.snapshot != bool(self.pruned_ids):
            raise ValueError("snapshot flag must be set exactly when pruning happens")

    def to_record(self) -> dict:
        # Wire format: key order is fixed.
        return {
            "round": self.round_index,
            "config_id": self.config_id,
            "s_tr": self.outcome.train_sample_size,
            "s_te": self.outcome.test_sample_size,
            "acc_train": self.outcome.train_accuracy,
            "acc_test": self.outcome.test_accuracy,
            "cost": self.outcome.cost,
            "lower": self.ci.lower,
            "upper": self.ci.upper,
            "incumbent": self.incumbent_id,
            "pruned": list(self.pruned_ids),
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TraceRound":
        outcome = ProbeOutcome(
            train_sample_size=record["s_tr"],
            test_sample_size=record["s_te"],
            train_accuracy=record["acc_train"],
            test_accuracy=record["acc_test"],
            cost=record["cost"],
        )
        return cls(
            round_index=record["round"],
            config_id=record["config_id"],
            outcome=outcome,
            ci=ConfidenceInterval(record["lower"], record["upper"]),
            incumbent_id=record["incumbent"],
            pruned_ids=tuple(record["pruned"]),
            snapshot=record["snapshot"],
        )


@dataclass(frozen=True)
class BudgetReadout:
    """What a run stopped at ``budget`` returns: its selection (the anytime
    best guess, configuration 1 before any round), rounds, model cost and
    prunes. ``flag`` is the budget-stop message, ``None`` when the run ended
    before reaching the budget (the values are then the full run's)."""

    budget: float
    selected: int
    rounds: int
    wall_cost_total: float
    pruned_total: int
    flag: str | None


@dataclass
class RunTrace:
    """Append-only record of every round, for audit, metrics and anytime output.

    ``flags`` collects anomaly/diagnostic messages (snapshot-interval
    disjointness, budget stops). ``params``
    and ``true_accuracies`` are attached by the engine when available; they
    travel in the report JSON, not in the JSONL round stream.
    ``budget_readouts`` holds one :class:`BudgetReadout` per budget the run
    was given, ascending, so that one run answers a whole budget grid; they
    are in neither the JSONL stream nor ``flags``.
    """

    rounds: list[TraceRound] = field(default_factory=list)
    final_selection: int | None = None
    wall_cost_total: float = 0.0
    params: RunParams | None = None
    true_accuracies: dict[int, float] | None = None
    flags: list[str] = field(default_factory=list)
    budget_readouts: list[BudgetReadout] = field(default_factory=list)
    _pruned_seen: set[int] = field(default_factory=set, repr=False)

    def append(self, row: TraceRound) -> None:
        if row.pruned_ids:
            dup = self._pruned_seen.intersection(row.pruned_ids)
            if dup:
                raise ValueError(f"configs {sorted(dup)} pruned more than once")
            self._pruned_seen.update(row.pruned_ids)
        self.rounds.append(row)
        self.wall_cost_total += row.outcome.cost

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def pruned_total(self) -> int:
        return sum(len(r.pruned_ids) for r in self.rounds)

    @property
    def n_snapshots(self) -> int:
        return sum(1 for r in self.rounds if r.snapshot)

    def to_jsonl(self) -> str:
        return "".join(map(_jsonl_line, self.rounds))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def _jsonl_line(r: TraceRound) -> str:
    """``json.dumps(r.to_record())`` and a newline: JSON writes a finite
    float, ``np.float64`` too, as ``float.__repr__``; only a cost can be inf."""
    o, ci, _repr = r.outcome, r.ci, float.__repr__
    try:
        return (
            f'{{"round": {r.round_index}, "config_id": {r.config_id}, '
            f'"s_tr": {o.train_sample_size}, "s_te": {o.test_sample_size}, '
            f'"acc_train": {_repr(o.train_accuracy)}, "acc_test": {_repr(o.test_accuracy)}, '
            f'"cost": {_repr(o.cost) if o.cost < math.inf else json.dumps(o.cost)}, '
            f'"lower": {_repr(ci.lower)}, "upper": {_repr(ci.upper)}, '
            f'"incumbent": {r.incumbent_id}, "pruned": {list(r.pruned_ids)}, '
            f'"snapshot": {"true" if r.snapshot else "false"}}}\n'
        )
    except TypeError:  # an int or a bool where the format has a float
        return json.dumps(r.to_record()) + "\n"


def load_trace_rounds(path) -> list[TraceRound]:
    """Read trace rounds back from a JSONL file."""
    rounds = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rounds.append(TraceRound.from_record(json.loads(line)))
    return rounds
