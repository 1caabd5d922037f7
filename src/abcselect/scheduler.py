"""Probe-target selection policies and the geometric sample-size rule.

Three schedulers decide which active configuration to probe next:

* gradient-CI: compare the cost of raising the incumbent's lower bound
  against the summed cost of lowering everyone else's upper bound;
* UCB: always probe the configuration with the highest upper bound;
* round-robin: probe the configuration with the fewest probes so far.

Each pick is O(1). UCB and gradient-CI read the head of the active set
ranked by ``(-upper, id)``, as :class:`~abcselect.engine.ActiveSet` keeps
it; gradient-CI's sum G is kept exact and up to date by
:class:`GradientSum`, one configuration at a time. Round-robin continues
the warm-up's :func:`sweeps`. None of them picks a saturated incumbent (one
already probed on the full data, whose interval is the exact point).
Gradient-CI skips it; every other active configuration has fewer probes and
an upper bound above that point by more than epsilon, so UCB and
round-robin never rank it first.

Sample sizes grow geometrically by a factor ``c``; for a cost model
``T(s) = s**alpha`` the worst-case-optimal factor is ``2**(1/alpha)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import ConfigurationState, RunParams, check_run_setting

__all__ = [
    "GradientEstimate",
    "GradientSum",
    "SchedulerKind",
    "gradient_ci_pick",
    "next_sample_size",
    "optimal_step_size",
    "pick_next",
    "round_robin_pick",
    "size_ladder",
    "sweeps",
    "ucb_pick",
]


class SchedulerKind(enum.Enum):
    GRADIENT_CI = "gradient_ci"
    UCB = "ucb"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class GradientEstimate:
    """Per-configuration differences between its two most recent probes:
    cost difference and the movement of each interval endpoint."""

    delta_cost: float
    delta_lower: float
    delta_upper: float

    def __post_init__(self) -> None:
        if self.delta_cost < 0.0:
            raise ValueError(f"delta_cost must be >= 0, got {self.delta_cost}")


def optimal_step_size(alpha: float) -> float:
    """Worst-case-optimal geometric growth factor for cost T(s) = s**alpha."""
    check_run_setting("alpha_cost_exponent", alpha)
    return 2.0 ** (1.0 / alpha)


def next_sample_size(current: int, c: float, cap: int) -> int:
    """Grow ``current`` by factor ``c``, round to nearest, saturate at ``cap``.

    The increment is at least 1 below the cap so sizes strictly increase;
    at the cap the result is the cap itself (fixed point).
    """
    if current < 1:
        raise ValueError(f"current size must be >= 1, got {current}")
    check_run_setting("step_factor_c", c, "growth factor")
    if cap < current:
        raise ValueError(f"cap {cap} below current size {current}")
    if current == cap:
        return cap
    grown = int(math.floor(c * current + 0.5))
    return min(cap, max(current + 1, grown))


def size_ladder(params: RunParams) -> Iterator[tuple[int, int]]:
    """The ``(s_tr, s_te)`` of a configuration's probes: each grown by
    :func:`next_sample_size` up to the full train size, whose probe runs on
    the full test set (its accuracy is then exact) and is the last."""
    s_tr, s_te = params.initial_train_size, params.initial_test_size
    while s_tr < params.max_train_size:
        yield s_tr, s_te
        s_tr = next_sample_size(s_tr, params.step_factor_c, params.max_train_size)
        s_te = next_sample_size(s_te, params.step_factor_c, params.max_test_size)
    yield s_tr, params.max_test_size


# 2**-1074, the smallest subnormal float, divides every finite float.
_UNITS_PER_ONE = 1 << 1074


class GradientSum:
    """Gradient-CI's estimate for every configuration probed at least twice,
    and the exact sum of their terms, kept one configuration at a time.

    A configuration's term is its cost per unit of upper-bound decrease,
    ``|delta_cost / delta_upper|``, and 0 when its upper bound did not move
    down. Every finite float is an integer multiple of 2**-1074, so the
    finite terms add up exactly in one Python int in those units, whatever
    the order of additions and removals (a superaccumulator; Neal, "Fast
    exact summation using small and large superaccumulators",
    arXiv:1505.05571). Infinite terms are counted apart.
    """

    def __init__(self) -> None:
        # id -> (estimate, term in units of 2**-1074, None when infinite)
        self._entries: dict[int, tuple[GradientEstimate, int | None]] = {}
        self._total = 0
        self._infs = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, config_id: int) -> GradientEstimate | None:
        entry = self._entries.get(config_id)
        return None if entry is None else entry[0]

    def set(self, config_id: int, estimate: GradientEstimate) -> None:
        """Make ``estimate`` the configuration's, replacing its old term."""
        self.discard(config_id)
        d_up = estimate.delta_upper
        term = abs(estimate.delta_cost / d_up) if d_up < 0.0 else 0.0
        if term == math.inf:
            scaled = None
            self._infs += 1
        else:
            p, q = term.as_integer_ratio()
            scaled = p << (1075 - q.bit_length())
            self._total += scaled
        self._entries[config_id] = (estimate, scaled)

    def discard(self, config_id: int) -> None:
        """Drop the configuration's estimate and term, if it has one."""
        _, scaled = self._entries.pop(config_id, (None, 0))
        if scaled is None:
            self._infs -= 1
        else:
            self._total -= scaled

    def others(self, config_id: int) -> float:
        """G: the sum of every term but ``config_id``'s, correctly rounded
        (one division), ``inf`` if an infinite term is left or the sum is
        beyond the float range."""
        total, infs = self._total, self._infs
        _, scaled = self._entries.get(config_id, (None, 0))
        if scaled is None:
            infs -= 1
        else:
            total -= scaled
        if infs:
            return math.inf
        try:
            return total / _UNITS_PER_ONE
        except OverflowError:
            return math.inf


def sweeps(
    configs: Sequence[ConfigurationState], ids: Sequence[int], counts: Iterable[int]
) -> Iterator[ConfigurationState]:
    """For each probe count k in ``counts``, the active configurations with
    exactly k probes, lowest id first.

    ``configs[i - 1]`` has id i, and ``ids`` is the live ascending list of
    active ids (``ActiveSet.ids``). Each sweep's queue is built from ``ids``
    when the sweep starts; entries pruned meanwhile are skipped. The
    generator ends when ``counts`` does or no id is left.
    """
    for k in counts:
        if not ids:
            return
        queue = [configs[i - 1] for i in ids if len(configs[i - 1].history) == k]
        for cfg in queue:
            if cfg.active:
                yield cfg


def ucb_pick(ranked: Sequence[ConfigurationState]) -> int:
    """Id of the active configuration with the highest upper bound (ties:
    lowest id): the head of ``ranked``, the active set by ``(-upper, id)``."""
    if not ranked:
        raise ValueError("no active configurations")
    return ranked[0].id


def round_robin_pick(sweep: Iterator[ConfigurationState]) -> int:
    """Id of the active configuration with the fewest probes (ties: lowest
    id): the next entry of ``sweep``, a :func:`sweeps` generator started at
    a count no active configuration is below.

    At sweep k every active configuration then has at least k probes, and
    only the sweep's own picks add probes, so the next queue entry is the
    one with the fewest probes and the lowest id.
    """
    cfg = next(sweep, None)
    if cfg is None:
        raise ValueError("no active configurations")
    return cfg.id


def gradient_ci_pick(
    ranked: Sequence[ConfigurationState],
    grads: GradientSum,
    incumbent_id: int,
    incumbent_saturated: bool = False,
) -> int:
    """Pick between the incumbent (the leader) and the runner-up, the top
    other configuration by upper bound: LUCB's pair.

    ``ranked`` holds the active configurations, the incumbent among them, by
    upper bound descending, ties lowest id first, as
    :class:`~abcselect.engine.ActiveSet` keeps them; only its first two
    entries are read. ``grads`` holds the estimate of every active
    configuration. Let g1 be the incumbent's cost per unit of lower-bound
    increase (treated as +inf when its lower bound did not move up), and G
    the exact sum over every other active configuration of its term (see
    :class:`GradientSum`). The incumbent is probed when g1 <= G and it is not
    saturated, otherwise the runner-up is.
    """
    if len(ranked) < 2:
        raise ValueError("gradient scheduling needs at least two active configurations")
    runner_up = ranked[1] if ranked[0].id == incumbent_id else ranked[0]
    if incumbent_saturated:
        return runner_up.id
    if len(grads) != len(ranked):
        raise ValueError(
            f"{len(ranked) - len(grads)} of {len(ranked)} active configurations "
            "lack the two probes required before gradient scheduling"
        )
    lead = grads.get(incumbent_id)
    if lead is None:
        raise ValueError(f"incumbent {incumbent_id} is not active")
    g1 = math.inf if lead.delta_lower <= 0.0 else lead.delta_cost / lead.delta_lower
    return incumbent_id if g1 <= grads.others(incumbent_id) else runner_up.id


def pick_next(
    kind: SchedulerKind,
    ranked: Sequence[ConfigurationState],
    grads: GradientSum,
    incumbent_id: int,
    incumbent_saturated: bool = False,
    sweep: Iterator[ConfigurationState] | None = None,
) -> int:
    """Dispatch to the scheduler variant. Gradient-CI reads ``ranked``,
    ``grads`` and the incumbent, UCB only ``ranked``, round-robin only
    ``sweep``."""
    if kind is SchedulerKind.GRADIENT_CI:
        return gradient_ci_pick(ranked, grads, incumbent_id, incumbent_saturated)
    if kind is SchedulerKind.UCB:
        return ucb_pick(ranked)
    if kind is SchedulerKind.ROUND_ROBIN:
        if sweep is None:
            raise ValueError("round-robin needs its sweep generator")
        return round_robin_pick(sweep)
    raise ValueError(f"unknown scheduler kind: {kind!r}")
