"""Point-estimate baselines: exhaustive full-data evaluation of every
configuration, and successive halving on a doubling sample schedule."""

from __future__ import annotations

from typing import Sequence

from .core import BackendError, RunTrace, TraceRound, check_run_setting, clamp_interval
from .probes import ProbeBackend
from .scheduler import next_sample_size

__all__ = [
    "full_run",
    "relative_accuracy_loss",
    "successive_halving",
]


def full_run(
    config_ids: Sequence[int], backend: ProbeBackend
) -> tuple[int, dict[int, float], float]:
    """Train every configuration on full data, test on full data, return the
    argmax (ties: lowest id), the accuracy map, and the summed cost."""
    if not config_ids:
        raise ValueError("need at least one configuration")
    accuracies: dict[int, float] = {}
    total_cost = 0.0
    for cid in config_ids:
        try:
            outcome = backend.probe(cid, backend.max_train_size, backend.max_test_size)
        except Exception as exc:  # noqa: BLE001
            raise BackendError(f"full evaluation failed for config {cid}: {exc}") from exc
        accuracies[cid] = outcome.test_accuracy
        total_cost += outcome.cost
    best = min(config_ids, key=lambda i: (-accuracies[i], i))
    return best, accuracies, total_cost


def successive_halving(
    config_ids: Sequence[int],
    backend: ProbeBackend,
    initial_train_size: int,
    initial_test_size: int,
    growth_factor: float = 2.0,
) -> tuple[int, RunTrace]:
    """Repeatedly probe the survivors, keep the top half by sampled test
    accuracy, and grow the sample sizes by ``growth_factor``, from initial
    sizes at most the backend's full sizes; the last survivor is selected.

    Ranking uses the probe's test accuracy (a point estimate); ties keep the
    lower id. Odd survivor counts round up, so ceil(log2 n) rounds happen.
    Trace rows carry the point estimate as a degenerate interval; the row
    that completes a halving round records the eliminated ids.
    """
    if not config_ids:
        raise ValueError("need at least one configuration")
    check_run_setting("initial_train_size", initial_train_size)
    check_run_setting("initial_test_size", initial_test_size)
    check_run_setting("step_factor_c", growth_factor, "growth_factor")
    remaining = sorted(config_ids)
    s_tr, s_te = initial_train_size, initial_test_size
    trace = RunTrace()
    round_index = 0
    best_acc: dict[int, float] = {}

    while len(remaining) > 1:
        sweep_acc: dict[int, float] = {}
        for pos, cid in enumerate(remaining):
            try:
                outcome = backend.probe(cid, s_tr, s_te)
            except Exception as exc:  # noqa: BLE001
                raise BackendError(
                    f"halving probe failed for config {cid} at s_tr={s_tr}: {exc}"
                ) from exc
            round_index += 1
            sweep_acc[cid] = outcome.test_accuracy
            best_acc[cid] = outcome.test_accuracy
            leader = min(best_acc, key=lambda i: (-best_acc[i], i))
            last_in_sweep = pos == len(remaining) - 1
            pruned: tuple[int, ...] = ()
            if last_in_sweep:
                keep = len(remaining) - len(remaining) // 2  # ceil(k/2)
                ranked = sorted(remaining, key=lambda i: (-sweep_acc[i], i))
                survivors = set(ranked[:keep])
                pruned = tuple(i for i in remaining if i not in survivors)
            trace.append(
                TraceRound(
                    round_index=round_index,
                    config_id=cid,
                    outcome=outcome,
                    ci=clamp_interval(outcome.test_accuracy, outcome.test_accuracy),
                    incumbent_id=leader,
                    pruned_ids=pruned,
                    snapshot=bool(pruned),
                )
            )
            if last_in_sweep:
                remaining = [i for i in remaining if i in survivors]
        s_tr = next_sample_size(s_tr, growth_factor, backend.max_train_size)
        s_te = next_sample_size(s_te, growth_factor, backend.max_test_size)

    trace.final_selection = remaining[0]
    return remaining[0], trace


def relative_accuracy_loss(a_best: float, a_selected: float) -> float:
    """|a_best - a_selected| / a_best."""
    if a_best <= 0.0:
        raise ValueError(f"best accuracy must be > 0, got {a_best}")
    return abs(a_best - a_selected) / a_best
