import faulthandler
import logging
import os
import sys

import pytest

from abcselect.core import RunParams, initial_states
from abcselect.probes import SyntheticBackend, SyntheticInstance


# Far above the slowest test (about 2.3 s). A test that hangs, say on a
# sweep-probe worker's pipe that never answers, ends the run after this
# long with every thread's traceback instead of holding it forever.
TEST_TIME_LIMIT_S = 120.0
_terminal_stderr = pytest.StashKey[int]()


def pytest_configure(config):
    # The traceback must reach the terminal, not a test's captured output,
    # which the exit discards: keep a copy of stderr from before the tests.
    config.stash[_terminal_stderr] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_terminal_stderr])


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=pytestconfig.stash[_terminal_stderr]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def quiet_engine_logs():
    # Divergence/anomaly warnings are expected in stress scenarios.
    logging.getLogger("abcselect").setLevel(logging.ERROR)
    yield


def params_for(instance: SyntheticInstance, seed: int, epsilon: float = 0.01,
               delta: float = 0.5, initial_train: int = 1000,
               initial_test: int = 2000, c: float = 2.0) -> RunParams:
    return RunParams(
        epsilon=epsilon,
        delta=delta,
        n_configs=instance.n_configs,
        initial_train_size=initial_train,
        initial_test_size=initial_test,
        step_factor_c=c,
        alpha_cost_exponent=1.0,
        max_train_size=instance.max_train_size,
        max_test_size=instance.max_test_size,
        seed=seed,
    )


def bound_params(n: int = 5, delta: float = 0.5, full_test: int = 100_000) -> RunParams:
    """Run parameters fixing what the bound formulas read from them: the
    number of configurations, delta and the full test set size."""
    return RunParams(0.01, delta, n, 1, 1, 2.0, 1.0, 10**12, full_test, 0)


def fresh_run_inputs(instance: SyntheticInstance, seed: int, **kwargs):
    backend = SyntheticBackend(instance, seed=seed)
    params = params_for(instance, seed, **kwargs)
    states = initial_states(list(backend.labels), params)
    return states, backend, params
