"""Sweep probes run ahead in worker processes give the in-process run's
trace, report and errors, and leave no child process behind."""

import gc
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from abcselect import engine
from abcselect.core import BackendError, RunParams, initial_states
from abcselect.engine import build_report, run_abc, select_with_budget
from abcselect.harness import (
    ExperimentSpec,
    InstanceSource,
    make_monte_carlo_instance,
    run_experiment,
)
from abcselect.probes import LearnerBackend, LearnerSpec, SyntheticBackend, load_csv_dataset
from abcselect.scheduler import SchedulerKind

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)

LEARNERS = (
    LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.3, epochs=4, batch_size=64),
    LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.0005, epochs=4, batch_size=64),
    LearnerSpec(kind="decision_stump"),
    LearnerSpec(kind="majority_class"),
)
COST_MODEL = [(2e-6, 1.0), (2e-6, 1.0), (1e-6, 1.0), (1e-8, 1.0)]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(6000, 5))
    y = (X @ np.array([1.0, -0.8, 0.6, 0.4, -0.2]) > 0.0).astype(np.int64)
    y[rng.random(6000) < 0.2] ^= 1
    path = tmp_path_factory.mktemp("sweep") / "data.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
    return path


def make_backend(csv_path, cls=LearnerBackend, **kwargs):
    handle = load_csv_dataset(csv_path, holdout=0.3, seed=4)
    return cls(handle, LEARNERS, seed=4, cost_model=COST_MODEL, **kwargs)


def make_params(backend):
    return RunParams(
        epsilon=0.01, delta=0.5, n_configs=backend.n_configs, initial_train_size=200,
        initial_test_size=400, step_factor_c=2.0, alpha_cost_exponent=1.0,
        max_train_size=backend.max_train_size, max_test_size=backend.max_test_size, seed=4,
    )


def select(backend, scheduler, budget=None):
    params = make_params(backend)
    states = initial_states(list(backend.labels), params)
    if budget is None:
        return run_abc(states, backend, params, scheduler)
    return select_with_budget(states, backend, params, scheduler, budget)


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPU count the engine sees; 1 runs every probe in-process."""
    return lambda n: monkeypatch.setattr(engine, "_usable_cpus", lambda: n)


@pytest.fixture()
def worker_rounds(monkeypatch):
    """Records, per round that used the workers, whether its outcome came
    from one."""
    taken = []
    probe = engine._SweepProbes.probe

    def spy(self, keys):
        outcome = probe(self, keys)
        taken.append(outcome is not None)
        return outcome

    monkeypatch.setattr(engine._SweepProbes, "probe", spy)
    return taken


class FailingBackend(LearnerBackend):
    """Raises on one probe; with ``only_in_worker`` there only, and by
    exiting the worker process when ``exit_code`` is set."""

    def __init__(self, *args, fail_key, only_in_worker=False, exit_code=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_key = fail_key
        self.only_in_worker = only_in_worker
        self.exit_code = exit_code

    def probe(self, config_id, s_tr, s_te):
        in_worker = multiprocessing.parent_process() is not None
        if (config_id, s_tr, s_te) == self.fail_key and (in_worker or not self.only_in_worker):
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise ValueError(f"no probe {config_id} at {s_tr}/{s_te}")
        return super().probe(config_id, s_tr, s_te)


def test_workers_start_only_where_they_pay(csv_path, cpus, monkeypatch):
    learner = make_backend(csv_path)
    synthetic = SyntheticBackend(make_monte_carlo_instance(0), seed=1)
    cpus(2)
    assert engine._sweep_workers(synthetic) is None
    workers = engine._sweep_workers(learner)
    assert len(multiprocessing.active_children()) == 2
    workers.close()
    assert multiprocessing.active_children() == []
    # Measured costs would count the slowdown from a probe running beside.
    measured = LearnerBackend(learner.handle, LEARNERS, seed=4)
    assert engine._sweep_workers(measured) is None
    cpus(1)
    assert engine._sweep_workers(learner) is None
    cpus(2)
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert engine._sweep_workers(learner) is None


@pytest.mark.parametrize("scheduler", list(SchedulerKind))
def test_trace_and_report_match_in_process_run(csv_path, cpus, worker_rounds, scheduler):
    backend = make_backend(csv_path)
    runs = {}
    for n in (1, 2):
        cpus(n)
        worker_rounds.clear()
        selected, trace = select(backend, scheduler)
        report = build_report(selected, trace, backend, make_params(backend), "abc")
        runs[n] = (trace.to_jsonl(), json.dumps(report, sort_keys=True), list(worker_rounds))
    assert runs[2][:2] == runs[1][:2]
    assert runs[1][2] == []
    # Every sweep round, and no other, takes its outcome from a worker: the
    # warm-up's two sweeps, or every round of round-robin.
    n_rounds = runs[1][0].count("\n")
    sweep_rounds = n_rounds if scheduler is SchedulerKind.ROUND_ROBIN else 2 * len(LEARNERS)
    assert runs[2][2] == [True] * sweep_rounds
    assert n_rounds > sweep_rounds or scheduler is SchedulerKind.ROUND_ROBIN
    assert multiprocessing.active_children() == []


def test_worker_error_reads_as_in_process_error(csv_path, cpus, worker_rounds):
    # Config 3's first probe, the third round of the first sweep.
    backend = make_backend(csv_path, FailingBackend, fail_key=(3, 200, 400))
    errors = {}
    for n in (1, 2):
        cpus(n)
        worker_rounds.clear()
        with pytest.raises(BackendError) as info:
            select(backend, SchedulerKind.ROUND_ROBIN)
        errors[n] = (str(info.value), str(info.value.__cause__), list(worker_rounds))
        assert multiprocessing.active_children() == []
    assert errors[1][:2] == errors[2][:2]
    assert errors[1][0].startswith("probe failed at round 3 for config 3 (s_tr=200, s_te=400)")
    assert errors[1][2] == [] and errors[2][2] == [True] * 2


@pytest.mark.parametrize("exit_code", [None, 3], ids=["raises", "exits"])
def test_unused_speculative_error_does_not_fail_the_run(
    csv_path, cpus, monkeypatch, caplog, exit_code
):
    # A key the sweeps never probe, handed out second in the first round:
    # its probe raises or kills its worker, and no round reads it.
    bogus = (1, 300, 600)
    sweep_keys = engine._sweep_keys
    rounds = []

    def with_bogus(state, cfg, *args):
        keys = sweep_keys(state, cfg, *args)
        yield next(keys)
        if not rounds:
            yield bogus
        rounds.append(cfg.id)
        yield from keys

    backend = make_backend(
        csv_path, FailingBackend, fail_key=bogus, only_in_worker=True, exit_code=exit_code
    )
    cpus(1)
    expected = select(backend, SchedulerKind.ROUND_ROBIN)[1].to_jsonl()
    cpus(3)
    monkeypatch.setattr(engine, "_sweep_keys", with_bogus)
    with caplog.at_level(logging.WARNING, logger="abcselect"):
        assert select(backend, SchedulerKind.ROUND_ROBIN)[1].to_jsonl() == expected
    assert ("sweep-probe worker died" in caplog.text) == (exit_code is not None)
    assert multiprocessing.active_children() == []


def test_dead_worker_hands_the_run_back_in_process(csv_path, cpus, caplog):
    # The worker running config 2's first probe exits; the run neither
    # hangs on the lost probe nor changes.
    backend = make_backend(
        csv_path, FailingBackend, fail_key=(2, 200, 400), only_in_worker=True, exit_code=3
    )
    cpus(1)
    expected = select(backend, SchedulerKind.ROUND_ROBIN)[1].to_jsonl()
    cpus(2)
    with caplog.at_level(logging.WARNING, logger="abcselect"):
        assert select(backend, SchedulerKind.ROUND_ROBIN)[1].to_jsonl() == expected
    assert "sweep-probe worker died" in caplog.text
    assert multiprocessing.active_children() == []


def test_no_child_process_outlives_a_budget_stop(csv_path, cpus, worker_rounds):
    backend = make_backend(csv_path)
    cpus(2)
    _, trace = select(backend, SchedulerKind.ROUND_ROBIN, budget=0.01)
    assert any(flag.startswith("budget stop") for flag in trace.flags)
    assert trace.n_rounds and all(worker_rounds)
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_their_parent_dies(csv_path):
    # A parent killed before it closes its workers must not leave them
    # waiting on its pipes. Only the first line of the child's output is
    # read: a leftover worker holds the pipe open, so reading to its end
    # would hang.
    script = f"""
import os, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from abcselect import engine
from test_sweep_probes import make_backend
workers = engine._SweepProbes(make_backend({str(csv_path)!r}), 2)
print(*(worker.pid for _, worker in workers._idle), flush=True)
os._exit(0)
"""
    src = str(Path(engine.__file__).parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    pids = []
    try:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert child.wait(timeout=60) == 0 and len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        child.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_run_keeps_no_reference_to_the_backend(csv_path, cpus, worker_rounds):
    backend = make_backend(csv_path)
    ref = weakref.ref(backend)
    cpus(2)
    select(backend, SchedulerKind.ROUND_ROBIN)
    assert any(worker_rounds)
    del backend
    gc.collect()
    assert ref() is None


def test_experiment_workers_give_the_same_rows(csv_path):
    # Learner costs are measured wall time, so only the fields that the
    # round-robin and UCB selections do not take from costs are compared.
    spec = ExperimentSpec(
        sources=(InstanceSource("csv", csv_path=str(csv_path), learners=LEARNERS),),
        methods=("abc_round_robin", "abc_ucb"),
        epsilon_grid=(0.01,), n_configs_grid=(4,), repetitions=2, base_seed=3,
        initial_train_size=200, initial_test_size=400,
    )
    keys = ("method", "instance", "seed", "selected", "acc_selected", "acc_best", "rounds",
            "prunes")
    rows = {
        n: [tuple(r.to_record()[k] for k in keys) for r in run_experiment(spec, None, n)]
        for n in (1, 2)
    }
    assert rows[1] == rows[2]
    assert multiprocessing.active_children() == []


def test_no_resource_warning_under_dev_mode(csv_path):
    script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
from abcselect import engine
from abcselect.scheduler import SchedulerKind
from test_sweep_probes import make_backend, select
engine._usable_cpus = lambda: 2
for scheduler in SchedulerKind:
    select(make_backend({str(csv_path)!r}), scheduler)
"""
    src = str(Path(engine.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert "Warning:" not in result.stderr
