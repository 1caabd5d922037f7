"""Golden runs: the engine must keep writing exactly these traces.

Each case runs one selection and hashes, with SHA-256, the selection, the
flags, the JSONL trace and every configuration's final ``ci``,
``cached_ci`` and ``active`` values. The digests were recorded from the
engine whose prune rule never removes the incumbent; any change to a pick,
an interval, a prune or a snapshot changes them. A change that alters
traces on purpose re-records them and says so.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from abcselect.cli import EXIT_OK, main
from abcselect.engine import run_abc, select_with_budget
from abcselect.harness import (
    make_plateau_instance,
    make_skewed_cost_instance,
    make_sweep_instance,
)
from abcselect.probes import CurveSpec, SyntheticInstance
from abcselect.scheduler import SchedulerKind

from conftest import fresh_run_inputs

ROOT = Path(__file__).resolve().parent.parent
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


def case_digest(case: str) -> str:
    parts = case.split("/")
    if parts[0] == "uniform200":
        return run_digest(stratified_uniform_instance(7, 200), SCHEDULERS[parts[1]])
    family, scheduler, budget = parts
    budget_value = None if budget == "unbudgeted" else BUDGET
    return run_digest(FAMILIES[family](), SCHEDULERS[scheduler], budget_value)


GOLDEN = {
    "uniform200/gradient_ci": "d99dc6f89598211a6c919c02d24da73f1596cfa5450bef232f46dd2b51e590fc",
    "uniform200/ucb": "69e129040ef5e899a98ea5bfecc599e80702f4361b2d83b4f083ea4b9f8519ad",
    "uniform200/round_robin": "94bf67c97afcd88f19d99d0f5090298cf726e3d353c9c58092662520ae98cc18",
    "plateau/gradient_ci/unbudgeted": "c6618a128a19e6dfc3d7cc5333255b1c8b2f6de3ef222d70a20761525581650a",
    "plateau/gradient_ci/budget": "906fc982c47521d7abb79aaa67192bc46367c40dae626b5ada85bdab619b36e2",
    "plateau/ucb/unbudgeted": "4017cec9ab9e15f33cf23946b3849c6fe6f42e6a94c78129c366ad3c33f557b5",
    "plateau/ucb/budget": "cdaede15fb38fda46728640be6bf94a9e46f3dce42c472c9397f61930f357a65",
    "plateau/round_robin/unbudgeted": "fa0b0f272a7acbccd0070a1be0e98c36a876af71239cb6efec98d6d0706b1f38",
    "plateau/round_robin/budget": "3e169ca3aa68d27f7e3cc4649ced4a1ef624fda5249ab8e3fda171acd5e8b585",
    "sweep/gradient_ci/unbudgeted": "41bc0f5dcf9c2f3602bbb20b66d21020a9e1d152719b0e312d4c8669ad69a3f8",
    "sweep/gradient_ci/budget": "2f985cf298b0b158f1305ed532f55cae81e7215eec50420d6e58fd6efe7ceaa7",
    "sweep/ucb/unbudgeted": "184c9e40b06d403550431cfb61daaec90786ad0ee75ca13403eaaa211bf0b571",
    "sweep/ucb/budget": "09df03ce45470f02fb01bffa565b731419cf6973ee598bc806833f39f2bcb198",
    "sweep/round_robin/unbudgeted": "fdddcf465ffc827f9cbc8cb417e84c29cf5bb1e4c2cf25a096d24940e84cec43",
    "sweep/round_robin/budget": "f114536af0a682efd00b1ac81b9a43facb94ef63fc57fee5f64fe0fe99460a93",
    "skewed/gradient_ci/unbudgeted": "1383714b1bb9af4ef361101da25672f16cdd1e4ab9f95032e96f5c25f41679f0",
    "skewed/gradient_ci/budget": "e96ead31f6c7d59758076da2836a44226b38eb29587b9bde38ea38e2f61ed6ef",
    "skewed/ucb/unbudgeted": "351e4920609c0ce893ecc36fbb1e3677aee0bee5fe6490bd989dfb58b7af8dc0",
    "skewed/ucb/budget": "3042ccf7fc0490f34f5c6332e852faa7b13074f131d2e21e36f4a9fc7ac82b56",
    "skewed/round_robin/unbudgeted": "5205eb284156eb7a8a28e7b15be8a97edd0c05fe60206915d7e611d0a56cd215",
    "skewed/round_robin/budget": "3042ccf7fc0490f34f5c6332e852faa7b13074f131d2e21e36f4a9fc7ac82b56",
}


def test_every_case_is_recorded():
    cases = (
        [f"uniform200/{s}" for s in SCHEDULERS]
        + [f"{f}/{s}/{b}" for f in FAMILIES for s in SCHEDULERS
           for b in ("unbudgeted", "budget")]
    )
    assert sorted(GOLDEN) == sorted(cases)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_matches_golden(case):
    assert case_digest(case) == GOLDEN[case]


def test_shipped_wide_run_is_the_uniform200_case(tmp_path):
    # configs/run_wide.json runs the shipped instances/uniform_200.json
    # through the CLI: the uniform200/gradient_ci case, over the backend's
    # rung tables.
    instance = SyntheticInstance.load(ROOT / "instances" / "uniform_200.json")
    assert instance == stratified_uniform_instance(7, 200)
    config = json.loads((ROOT / "configs" / "run_wide.json").read_text())
    config["backend"]["synthetic"] = str(ROOT / "instances" / "uniform_200.json")
    config["output"] = {"trace": str(tmp_path / "t.jsonl"), "report": str(tmp_path / "r.json")}
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["run", str(tmp_path / "run.json")]) == EXIT_OK
    states, backend, params = fresh_run_inputs(instance, seed=config["params"]["seed"])
    _, trace = run_abc(states, backend, params, SCHEDULERS[config["scheduler"]])
    assert (tmp_path / "t.jsonl").read_text() == trace.to_jsonl()
