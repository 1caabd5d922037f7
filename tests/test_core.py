import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abcselect.core import (
    ConfidenceInterval,
    ConfigurationState,
    FULL_INTERVAL,
    ProbeOutcome,
    RunParams,
    RunTrace,
    TraceRound,
    clamp_interval,
    initial_states,
    load_trace_rounds,
)


def make_outcome(s_tr=1000, s_te=2000, a_tr=0.9, a_te=0.85, cost=1.0):
    return ProbeOutcome(s_tr, s_te, a_tr, a_te, cost)


class TestClampInterval:
    def test_clamp_at_zero(self):
        assert clamp_interval(-0.2, 0.9) == ConfidenceInterval(0.0, 0.9)

    def test_clamp_at_one(self):
        assert clamp_interval(0.3, 1.4) == ConfidenceInterval(0.3, 1.0)

    def test_identity(self):
        assert clamp_interval(0.5, 0.5) == ConfidenceInterval(0.5, 0.5)

    def test_crossed_endpoints_collapse_to_midpoint(self):
        ci = clamp_interval(1.5, 1.2)
        assert ci.lower == ci.upper == 1.0
        ci = clamp_interval(-0.5, -0.2)
        assert ci.lower == ci.upper == 0.0

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_always_valid(self, lo, hi):
        ci = clamp_interval(lo, hi)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_preserves_ordered_unit_intervals(self, lo, hi):
        if lo <= hi:
            ci = clamp_interval(lo, hi)
            assert (ci.lower, ci.upper) == (lo, hi)


class TestValidation:
    def test_interval_rejects_disorder(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(0.7, 0.5)
        with pytest.raises(ValueError):
            ConfidenceInterval(-0.1, 0.5)

    def test_run_params_bounds(self):
        good = dict(
            epsilon=0.01, delta=0.5, n_configs=2, initial_train_size=10,
            initial_test_size=10, step_factor_c=2.0, alpha_cost_exponent=1.0,
            max_train_size=100, max_test_size=100, seed=0,
        )
        RunParams(**good)
        for key, bad in [
            ("epsilon", 1.5), ("delta", 0.0), ("delta", 1.0), ("n_configs", 0),
            ("initial_train_size", 101), ("step_factor_c", 1.0),
            ("step_factor_c", float("nan")), ("step_factor_c", float("inf")),
            ("alpha_cost_exponent", 0.0), ("alpha_cost_exponent", float("nan")),
            ("seed", -1),
        ]:
            with pytest.raises(ValueError):
                RunParams(**{**good, key: bad})

    def test_probe_outcome_bounds(self):
        make_outcome()
        with pytest.raises(ValueError):
            make_outcome(s_tr=0)
        with pytest.raises(ValueError):
            make_outcome(a_tr=1.2)
        with pytest.raises(ValueError):
            make_outcome(cost=-1.0)
        with pytest.raises(ValueError):
            make_outcome(cost=float("nan"))


class TestConfigurationState:
    def test_history_must_strictly_increase(self):
        cfg = ConfigurationState(id=1, label="a")
        cfg.append_probe(make_outcome(s_tr=100))
        cfg.append_probe(make_outcome(s_tr=200))
        with pytest.raises(ValueError):
            cfg.append_probe(make_outcome(s_tr=200))

    def test_initial_states_assign_ids_in_order(self):
        params = RunParams(0.01, 0.5, 3, 10, 10, 2.0, 1.0, 100, 100, 0)
        states = initial_states(["a", "b", "c"], params)
        assert [c.id for c in states] == [1, 2, 3]
        assert all(c.ci == FULL_INTERVAL and c.cached_ci == FULL_INTERVAL for c in states)
        with pytest.raises(ValueError):
            initial_states(["a"], params)


class TestTrace:
    def row(self, idx, cid=1, pruned=(), incumbent=1):
        return TraceRound(
            round_index=idx,
            config_id=cid,
            outcome=make_outcome(s_tr=1000 * idx),
            ci=ConfidenceInterval(0.5, 0.9),
            incumbent_id=incumbent,
            pruned_ids=tuple(pruned),
            snapshot=bool(pruned),
        )

    def test_snapshot_flag_tied_to_pruning(self):
        with pytest.raises(ValueError):
            TraceRound(1, 1, make_outcome(), ConfidenceInterval(0, 1), 1, (), True)
        with pytest.raises(ValueError):
            TraceRound(1, 1, make_outcome(), ConfidenceInterval(0, 1), 1, (2,), False)

    def test_each_config_pruned_at_most_once(self):
        trace = RunTrace()
        trace.append(self.row(1, pruned=(2,)))
        with pytest.raises(ValueError):
            trace.append(self.row(2, pruned=(2, 3)))

    def test_jsonl_key_order_and_roundtrip(self, tmp_path):
        trace = RunTrace()
        trace.append(self.row(1))
        trace.append(self.row(2, cid=2, pruned=(3,)))
        text = trace.to_jsonl()
        first = json.loads(text.splitlines()[0])
        assert list(first.keys()) == [
            "round", "config_id", "s_tr", "s_te", "acc_train", "acc_test",
            "cost", "lower", "upper", "incumbent", "pruned", "snapshot",
        ]
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path)
        from abcselect.core import load_trace_rounds

        rounds = load_trace_rounds(path)
        assert rounds == trace.rounds

    def test_infinite_cost_reads_back(self, tmp_path):
        # A trace's cost is the one value whose reader allows Infinity.
        row = TraceRound(1, 1, make_outcome(cost=math.inf), FULL_INTERVAL, 1, (), False)
        trace = RunTrace(rounds=[row])
        trace.write_jsonl(tmp_path / "t.jsonl")
        assert load_trace_rounds(tmp_path / "t.jsonl") == trace.rounds

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10**12), st.integers(1, 10**12),
                st.floats(-0.0, 1.0), st.floats(-0.0, 1.0),
                st.floats(-0.0) | st.just(math.inf), st.floats(-0.0, 1.0), st.floats(-0.0, 1.0),
                st.lists(st.integers(1, 10**6), max_size=4, unique=True),
                st.booleans(),
            ),
            max_size=5,
        )
    )
    def test_jsonl_lines_are_json_dumps_of_records(self, rows):
        trace = RunTrace()
        for i, (s_tr, s_te, a_tr, a_te, cost, lo, hi, pruned, np_acc) in enumerate(rows, 1):
            if np_acc:  # as the synthetic backend's binomial draw gives them
                a_tr, a_te = np.float64(a_tr), np.float64(a_te)
            outcome = ProbeOutcome(s_tr, s_te, a_tr, a_te, cost)
            ci = ConfidenceInterval(min(lo, hi), max(lo, hi))
            trace.rounds.append(TraceRound(i, i, outcome, ci, 7, tuple(pruned), bool(pruned)))
        expected = "".join(json.dumps(r.to_record()) + "\n" for r in trace.rounds)
        assert trace.to_jsonl() == expected

    def test_jsonl_of_int_and_bool_values_is_json_dumps(self):
        # Not what a run records, but a row may hold them.
        rows = [
            TraceRound(1, 2, ProbeOutcome(10, 20, 1, 0, 3), ConfidenceInterval(0, 1), 2, (), False),
            TraceRound(2, 1, ProbeOutcome(10, 20, True, 0.5, 0), FULL_INTERVAL, 1, (2, 3), True),
        ]
        trace = RunTrace(rounds=rows)
        assert trace.to_jsonl() == "".join(json.dumps(r.to_record()) + "\n" for r in rows)

    def test_wall_cost_accumulates(self):
        trace = RunTrace()
        trace.append(self.row(1))
        trace.append(self.row(2, cid=2))
        assert trace.wall_cost_total == 2.0
        assert trace.n_rounds == 2
