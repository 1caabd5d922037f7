"""Golden runs: the engine must keep writing exactly these traces.

Each case runs one selection and hashes, with SHA-256, the selection, the
flags, the JSONL trace and every configuration's final ``ci``,
``cached_ci`` and ``active`` values. The digests were recorded from the
O(n)-per-round engine loop that the incremental active-set index
replaced; any change to a pick, an interval, a prune or a snapshot changes
them. A change that alters traces on purpose re-records them and says so.
"""

import hashlib
import json

import numpy as np
import pytest

import abcselect.engine as engine
from abcselect.engine import run_abc, select_with_budget
from abcselect.harness import (
    make_plateau_instance,
    make_skewed_cost_instance,
    make_sweep_instance,
)
from abcselect.probes import CurveSpec, SyntheticInstance
from abcselect.scheduler import SchedulerKind

from conftest import fresh_run_inputs

SCHEDULERS = {
    "gradient_ci": SchedulerKind.GRADIENT_CI,
    "ucb": SchedulerKind.UCB,
    "round_robin": SchedulerKind.ROUND_ROBIN,
}
FAMILIES = {
    "plateau": lambda: make_plateau_instance(2, n_fillers=4),
    "sweep": lambda: make_sweep_instance(3, n=8),
    "skewed": lambda: make_skewed_cost_instance(4, n=20),
}
BUDGET = 2e5
# Hit during the second warm-up sweep, with nine survivors.
GUARD_LIMIT = 35


def stratified_uniform_instance(seed: int, n: int) -> SyntheticInstance:
    """n curves whose parameters take the midpoints of n equal strata of
    their ranges, paired by the seed (a Latin hypercube)."""
    rng = np.random.default_rng(seed)
    columns = [
        low + (high - low) * (rng.permutation(n) + 0.5) / n
        for low, high in ((0.6, 0.9), (0.3, 0.5), (0.45, 0.6), (0.15, 0.3), (0.4, 0.6))
    ]
    curves = tuple(
        CurveSpec(a_inf=float(a), b=float(b), beta=float(beta), overfit_gap=float(gap),
                  gamma=float(gamma), kappa=1.0, alpha=1.0)
        for a, b, beta, gap, gamma in zip(*columns)
    )
    return SyntheticInstance(f"uniform-{seed}", curves, 4_000_000, 8_000_000)


def run_digest(instance, scheduler, budget=None, seed=11) -> str:
    states, backend, params = fresh_run_inputs(instance, seed=seed)
    if budget is None:
        selected, trace = run_abc(states, backend, params, scheduler)
    else:
        selected, trace = select_with_budget(states, backend, params, scheduler, budget)
    final = [
        [c.id, c.ci.lower, c.ci.upper, c.cached_ci.lower, c.cached_ci.upper, c.active]
        for c in states
    ]
    blob = json.dumps({"selected": selected, "flags": trace.flags, "states": final})
    return hashlib.sha256((blob + "\n" + trace.to_jsonl()).encode()).hexdigest()


def guard_digest() -> str:
    """A run that hits the round guard with several survivors left, so the
    forced full-data path probes and prunes the remainder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_round_guard_limit", lambda params: GUARD_LIMIT)
        return run_digest(stratified_uniform_instance(5, 30), SchedulerKind.GRADIENT_CI)


def case_digest(case: str) -> str:
    parts = case.split("/")
    if parts[0] == "round_guard":
        return guard_digest()
    if parts[0] == "uniform200":
        return run_digest(stratified_uniform_instance(7, 200), SCHEDULERS[parts[1]])
    family, scheduler, budget = parts
    budget_value = None if budget == "unbudgeted" else BUDGET
    return run_digest(FAMILIES[family](), SCHEDULERS[scheduler], budget_value)


GOLDEN = {
    "uniform200/gradient_ci": "563e7f79536b4bad02042d42b261167f8a9780831a9171314aa6e1def884a544",
    "uniform200/ucb": "6d908e9b5aad7757e6f1c9925655bb01edf0a853660d14997114d133d427c764",
    "uniform200/round_robin": "94bf67c97afcd88f19d99d0f5090298cf726e3d353c9c58092662520ae98cc18",
    "plateau/gradient_ci/unbudgeted": "25fc20385da71750145a2ea7da4c4b2c7010ab138a6370da7dd57c49272d7dc0",
    "plateau/gradient_ci/budget": "7efbc97ffda126e1179491733e65f8b1feb1b12477f98b16a5cf8b1524ef339c",
    "plateau/ucb/unbudgeted": "4017cec9ab9e15f33cf23946b3849c6fe6f42e6a94c78129c366ad3c33f557b5",
    "plateau/ucb/budget": "5d0a6a1646b22d7baedd3fbe694536b5fa1f775022033335c44e2fed0bd0c1f1",
    "plateau/round_robin/unbudgeted": "fa0b0f272a7acbccd0070a1be0e98c36a876af71239cb6efec98d6d0706b1f38",
    "plateau/round_robin/budget": "ffb50b705c8e4a06708e08b585ee00a7879e2ddf119947bc3649f1a2d3ba18cd",
    "sweep/gradient_ci/unbudgeted": "c38be59c1bea38ad3ec5cca499cc8be561a95ce93f380bb5aa177ed7f23c49ef",
    "sweep/gradient_ci/budget": "043f26fc029cd6d9b6690fc5a40c88ee90671d44d9d6280fd85a6ce439a28b40",
    "sweep/ucb/unbudgeted": "823cf41d1cb8b06d3d6446081db9e479429267fa32c77dde7524aec596ff0fa0",
    "sweep/ucb/budget": "4e2181cec09f416e0a6b01dacd7bd8a7b11a599a743b309bd6285fd32564d150",
    "sweep/round_robin/unbudgeted": "8724854eec60fc4ddc566b7db71021d525f28d7186b252551a07467110426fef",
    "sweep/round_robin/budget": "6b6fc401504f59895a03f4b3b1b171ddcd5a5d2b4596c80edcd1e88cc8ddf0b4",
    "skewed/gradient_ci/unbudgeted": "1383714b1bb9af4ef361101da25672f16cdd1e4ab9f95032e96f5c25f41679f0",
    "skewed/gradient_ci/budget": "211cac6ab56262068ee7e4b4a1ba71687dbebf6ae00d49778f02ef5c79431bdd",
    "skewed/ucb/unbudgeted": "351e4920609c0ce893ecc36fbb1e3677aee0bee5fe6490bd989dfb58b7af8dc0",
    "skewed/ucb/budget": "872cb16d3e0a431779a3b42293905498c3e50373f7c4a8c6c4a0b2b884009a15",
    "skewed/round_robin/unbudgeted": "5205eb284156eb7a8a28e7b15be8a97edd0c05fe60206915d7e611d0a56cd215",
    "skewed/round_robin/budget": "872cb16d3e0a431779a3b42293905498c3e50373f7c4a8c6c4a0b2b884009a15",
    "round_guard": "6dfcb87696b03b9b74a77c5a1ccf32001b0dee1fdd25345f0c1e5a8bb3fb4b30",
}


def test_every_case_is_recorded():
    cases = (
        [f"uniform200/{s}" for s in SCHEDULERS]
        + [f"{f}/{s}/{b}" for f in FAMILIES for s in SCHEDULERS
           for b in ("unbudgeted", "budget")]
        + ["round_guard"]
    )
    assert sorted(GOLDEN) == sorted(cases)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_matches_golden(case):
    assert case_digest(case) == GOLDEN[case]


def test_round_guard_case_hits_the_guard():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_round_guard_limit", lambda params: GUARD_LIMIT)
        states, backend, params = fresh_run_inputs(stratified_uniform_instance(5, 30), seed=11)
        _, trace = run_abc(states, backend, params)
    assert any("round guard" in f for f in trace.flags)
    forced = [r for r in trace.rounds if r.round_index > GUARD_LIMIT]
    assert len(forced) >= 2
    assert all(r.ci.width == 0.0 for r in forced)
