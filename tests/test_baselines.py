import pytest

from abcselect.baselines import full_run, relative_accuracy_loss, successive_halving
from abcselect.core import ProbeOutcome
from abcselect.engine import run_abc
from abcselect.harness import make_plateau_instance, make_two_config_instance
from abcselect.probes import SyntheticBackend
from abcselect.scheduler import SchedulerKind

from conftest import fresh_run_inputs


class RankedBackend:
    """Deterministic point accuracies per configuration, constant over sizes."""

    def __init__(self, accs, max_train=64_000, max_test=64_000):
        self.accs = accs
        self._max_train = max_train
        self._max_test = max_test

    @property
    def n_configs(self):
        return len(self.accs)

    @property
    def labels(self):
        return tuple(f"cfg-{i + 1}" for i in range(len(self.accs)))

    @property
    def max_train_size(self):
        return self._max_train

    @property
    def max_test_size(self):
        return self._max_test

    def probe(self, config_id, s_tr, s_te):
        acc = self.accs[config_id - 1]
        return ProbeOutcome(s_tr, s_te, acc, acc, float(s_tr))

    def estimate_cost(self, config_id, s_tr, s_te):
        return float(s_tr)

    def true_accuracy(self, config_id):
        return None


class TestFullRun:
    def test_argmax_with_tie_break(self):
        backend = RankedBackend([0.80, 0.85, 0.85])
        best, accs, cost = full_run([1, 2, 3], backend)
        assert best == 2
        assert accs == {1: 0.80, 2: 0.85, 3: 0.85}
        assert cost == pytest.approx(3 * 64_000.0)

    def test_single_configuration(self):
        backend = RankedBackend([0.7])
        best, _, _ = full_run([1], backend)
        assert best == 1

    def test_simulator_analytic_argmax(self):
        inst = make_two_config_instance()
        backend = SyntheticBackend(inst, seed=0)
        best, accs, _ = full_run([1, 2], backend)
        analytic = max(
            range(1, 3), key=lambda i: inst.curves[i - 1].true_accuracy(inst.max_train_size)
        )
        assert best == analytic
        assert accs[1] == pytest.approx(0.90, abs=1e-9)


class TestSuccessiveHalving:
    def survivor_counts(self, trace, n):
        counts = [n]
        for row in trace.rounds:
            if row.snapshot:
                counts.append(counts[-1] - len(row.pruned_ids))
        return counts

    def test_power_of_two_schedule(self):
        backend = RankedBackend([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        selected, trace = successive_halving(
            list(range(1, 9)), backend, 1000, 2000
        )
        assert selected == 1
        assert self.survivor_counts(trace, 8) == [8, 4, 2, 1]
        assert trace.n_snapshots == 3
        assert trace.n_rounds == 8 + 4 + 2

    def test_odd_counts_round_up(self):
        backend = RankedBackend([0.9, 0.8, 0.7, 0.6, 0.5])
        selected, trace = successive_halving(
            list(range(1, 6)), backend, 1000, 2000
        )
        assert selected == 1
        assert self.survivor_counts(trace, 5) == [5, 3, 2, 1]
        assert trace.n_rounds == 5 + 3 + 2

    def test_sample_budget_matches_schedule(self):
        backend = RankedBackend([0.9, 0.8, 0.7, 0.6])
        _, trace = successive_halving(
            list(range(1, 5)), backend, 1000, 2000
        )
        # probes: 4 at 1000, then 2 at 2000; unit cost per sample
        assert trace.wall_cost_total == pytest.approx(4 * 1000 + 2 * 2000)

    def test_tie_break_keeps_lower_id(self):
        backend = RankedBackend([0.8, 0.8])
        selected, _ = successive_halving([1, 2], backend, 1000, 2000)
        assert selected == 1

    def test_point_estimates_eliminate_plateau_best_but_intervals_keep_it(self):
        inst = make_plateau_instance(0)
        truths = [c.true_accuracy(inst.max_train_size) for c in inst.curves]
        best_id = max(range(1, len(truths) + 1), key=lambda i: truths[i - 1])
        backend = SyntheticBackend(inst, seed=777)
        sh_sel, _ = successive_halving(
            list(range(1, inst.n_configs + 1)), backend, 1000, 2000
        )
        assert sh_sel != best_id  # misled by the flat stretch of the curve
        states, backend2, params = fresh_run_inputs(inst, seed=777)
        abc_sel, _ = run_abc(states, backend2, params, SchedulerKind.UCB)
        assert abc_sel == best_id


class TestRelativeAccuracyLoss:
    def test_identity(self):
        assert relative_accuracy_loss(0.85, 0.85) == 0.0

    def test_arithmetic(self):
        assert relative_accuracy_loss(0.80, 0.72) == pytest.approx(0.10)

    def test_subpercent_regime(self):
        assert relative_accuracy_loss(0.9066, 0.8994) == pytest.approx(
            0.007941760423560556, abs=1e-15
        )

    def test_rejects_zero_best(self):
        with pytest.raises(ValueError):
            relative_accuracy_loss(0.0, 0.5)
