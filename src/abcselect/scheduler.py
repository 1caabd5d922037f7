"""Probe-target selection policies and the geometric sample-size rule.

Three schedulers decide which active configuration to probe next:

* gradient-CI: compare the cost of raising the incumbent's lower bound
  against the summed cost of lowering everyone else's upper bound;
* UCB: always probe the configuration with the highest upper bound;
* round-robin: probe the configuration with the fewest probes so far.

None of them picks a saturated incumbent (one already probed on the full
data, whose interval is the exact point). Gradient-CI skips it; every other
active configuration has fewer probes and an upper bound above that point
by more than epsilon, so UCB and round-robin never rank it first.
Gradient-CI takes its input already ranked by ``(-upper, id)``; UCB and
round-robin break ties by id, so the order of their input does not matter.

Sample sizes grow geometrically by a factor ``c``; for a cost model
``T(s) = s**alpha`` the worst-case-optimal factor is ``2**(1/alpha)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import ConfigurationState

__all__ = [
    "GradientEstimate",
    "SchedulerKind",
    "gradient_ci_pick",
    "next_sample_size",
    "optimal_step_size",
    "pick_next",
    "round_robin_pick",
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
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return 2.0 ** (1.0 / alpha)


def next_sample_size(current: int, c: float, cap: int) -> int:
    """Grow ``current`` by factor ``c``, round to nearest, saturate at ``cap``.

    The increment is at least 1 below the cap so sizes strictly increase;
    at the cap the result is the cap itself (fixed point).
    """
    if current < 1:
        raise ValueError(f"current size must be >= 1, got {current}")
    if c <= 1.0:
        raise ValueError(f"growth factor must be > 1, got {c}")
    if cap < current:
        raise ValueError(f"cap {cap} below current size {current}")
    if current == cap:
        return cap
    grown = int(math.floor(c * current + 0.5))
    return min(cap, max(current + 1, grown))


def ucb_pick(active: Sequence[ConfigurationState]) -> int:
    """Id of the active configuration with the highest upper bound (ties: lowest id)."""
    if not active:
        raise ValueError("no active configurations")
    best = min(active, key=lambda c: (-c.ci.upper, c.id))
    return best.id


def round_robin_pick(active: Sequence[ConfigurationState]) -> int:
    """Id of the active configuration with the fewest probes (ties: lowest id)."""
    if not active:
        raise ValueError("no active configurations")
    best = min(active, key=lambda c: (len(c.history), c.id))
    return best.id


def gradient_ci_pick(
    ranked: Sequence[ConfigurationState],
    grads: Mapping[int, GradientEstimate],
    incumbent_id: int,
    incumbent_saturated: bool = False,
) -> int:
    """Pick between the incumbent (the leader) and the runner-up, the top
    other configuration by upper bound: LUCB's pair.

    ``ranked`` holds the active configurations, the incumbent among them, by
    upper bound descending, ties lowest id first, as
    :class:`~abcselect.engine.ActiveSet` keeps them; the order is not
    checked. Let g1 be the incumbent's cost per unit of lower-bound increase
    (treated as +inf when its lower bound did not move up), and G the sum
    over every other active configuration of |delta_cost / delta_upper| (a
    term is 0 when that upper bound did not move down). The incumbent is
    probed when g1 <= G and it is not saturated, otherwise the runner-up is.
    """
    if len(ranked) < 2:
        raise ValueError("gradient scheduling needs at least two active configurations")
    runner_up = ranked[1] if ranked[0].id == incumbent_id else ranked[0]
    if incumbent_saturated:
        return runner_up.id

    # Left to right in ranked order, on every pick: float addition is not
    # associative, so a running total or sum() (compensated from Python
    # 3.12) could flip g1 <= G near ties.
    total = 0.0
    g_lead = None
    for cfg in ranked:
        g = grads.get(cfg.id)
        if g is None:
            raise ValueError(
                f"config {cfg.id} lacks the two probes required before "
                "gradient scheduling"
            )
        if cfg.id == incumbent_id:
            g_lead = g
        elif g.delta_upper < 0.0:
            total += abs(g.delta_cost / g.delta_upper)
    if g_lead is None:
        raise ValueError(f"incumbent {incumbent_id} is not active")

    if g_lead.delta_lower <= 0.0:
        g1 = math.inf
    else:
        g1 = g_lead.delta_cost / g_lead.delta_lower
    return incumbent_id if g1 <= total else runner_up.id


def pick_next(
    kind: SchedulerKind,
    active: Sequence[ConfigurationState],
    grads: Mapping[int, GradientEstimate],
    incumbent_id: int,
    incumbent_saturated: bool = False,
) -> int:
    """Dispatch to the scheduler variant; only gradient-CI reads the
    incumbent. Gradient-CI needs ``active`` ranked by ``(-upper, id)``."""
    if kind is SchedulerKind.GRADIENT_CI:
        return gradient_ci_pick(active, grads, incumbent_id, incumbent_saturated)
    if kind is SchedulerKind.UCB:
        return ucb_pick(active)
    if kind is SchedulerKind.ROUND_ROBIN:
        return round_robin_pick(active)
    raise ValueError(f"unknown scheduler kind: {kind!r}")
