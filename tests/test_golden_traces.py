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
    "uniform200/gradient_ci": "910a349f4c1020c999362a413c767a3517313d4cb21ff677bdca42b0b71f2aee",
    "uniform200/ucb": "d7912a82753dfe3de37ea9fcf2dc1e8881cec9c14de5d24334206c4fd25574be",
    "uniform200/round_robin": "3021da379e63af7fb9c517ea7a15326ca038cfb3f22a9356adc4a3f0dc2a7d11",
    "plateau/gradient_ci/unbudgeted": "ae7a34c8160cc9ba1443081c99c7a0ffe135565cf7b59fa9d5e648fa92573496",
    "plateau/gradient_ci/budget": "d46e73218fa6d7a78b807e1c4ef049b69b7ba0e26f4a4cc0415ad9cb9a4f5dec",
    "plateau/ucb/unbudgeted": "6e135db566bc03f4d2185d9a5c3fa21fdd7ed65d9ab1f69377efa0bb9d2c9f26",
    "plateau/ucb/budget": "ee5152d30e95bcbfa7118170868191607eac48f4a9fc247b445084d255e99d3f",
    "plateau/round_robin/unbudgeted": "b2abe294c84ba3e894f229903fe02349c00176e41ccd5561f09ecbc91eb12f98",
    "plateau/round_robin/budget": "ca3aebd678ba4596d2fc617e08442385bfa82007c064bffa256af4668627e8b0",
    "sweep/gradient_ci/unbudgeted": "46a4535f1d0962ecfe5f5cafc4de88c83697fffdb20444eed68839e3073ffd06",
    "sweep/gradient_ci/budget": "7bd53f9c34bfbd8e9a985f6db66b982192c65dc863abac7a60f8a54504dba116",
    "sweep/ucb/unbudgeted": "ee31c0d2970314de10c3ecdb496f724664e31c1883bdeba797f9853fa0abb299",
    "sweep/ucb/budget": "4c4378282684c06389be4725961dca2c6161f1369cd86c8985fec11572454210",
    "sweep/round_robin/unbudgeted": "91dcf55d612a32473a045d87f11b262774ae4160aceea2ee545662848976796e",
    "sweep/round_robin/budget": "648258f36c0c471bcaca7de770a7d1bda65df9eac69fe74b7d59cfd624ff73b7",
    "skewed/gradient_ci/unbudgeted": "4b1c94a886e1be4f760d6f55757f56aa2e9f3bfefa48f865134c0b7516ef56f4",
    "skewed/gradient_ci/budget": "11fc603dc8aef604e761c030e43b2c70b3b9001abc8c175bd89d4c5b30b64e34",
    "skewed/ucb/unbudgeted": "e8b060381c1825543a24606d7964a0e6a5d796047d89e980aa319d08ff617073",
    "skewed/ucb/budget": "f2b638ed0698380c13b1839c85b19faa07df52a3b05a8554a31d8850ab1488c1",
    "skewed/round_robin/unbudgeted": "79474181aa8d60e4249e9bdf95807f5a637eecc2d93b1cf28e72c20250345999",
    "skewed/round_robin/budget": "f2b638ed0698380c13b1839c85b19faa07df52a3b05a8554a31d8850ab1488c1",
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
    # through the CLI: the uniform200/gradient_ci case.
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
