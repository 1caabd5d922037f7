import hashlib
import math
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abcselect import harness, probes
from abcselect.core import ProbeOutcome, RunParams, initial_states
from abcselect.engine import run_abc
from abcselect.scheduler import size_ladder
from abcselect.probes import (
    CurveSpec,
    DatasetHandle,
    LearnerBackend,
    LearnerSpec,
    SyntheticBackend,
    SyntheticInstance,
    load_csv_dataset,
    probe_learner,
)


def reference_probe(instance, seed, config_id, s_tr, s_te):
    """The outcome of a synthetic probe, computed from the README's rule."""
    spec = instance.curves[config_id - 1]
    truth = spec.true_accuracy(s_tr)
    test_accuracy = truth
    if s_te < instance.max_test_size:
        key = hashlib.blake2b(f"{seed},{s_tr},{s_te}".encode("ascii"), digest_size=32)
        word = int.from_bytes(key.digest(), "little")
        bits = np.random.PCG64()
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": word % 2**128, "inc": word >> 128 | 1}}
        draws = np.random.Generator(bits)
        for curve in instance.curves[:config_id]:
            count = draws.binomial(s_te, curve.true_accuracy(s_tr))
        test_accuracy = count / s_te
    return ProbeOutcome(s_tr, s_te, spec.train_accuracy(s_tr), test_accuracy, spec.cost(s_tr))


def basic_spec(**overrides):
    fields = dict(a_inf=0.9, b=0.5, beta=0.5, overfit_gap=0.3, gamma=0.5,
                  kappa=1.0, alpha=1.0)
    fields.update(overrides)
    return CurveSpec(**fields)


class TestCurveSpec:
    def test_closed_form_values(self):
        spec = basic_spec()
        assert spec.train_accuracy(10_000) == pytest.approx(0.898, abs=1e-12)
        assert spec.true_accuracy(10_000) == pytest.approx(0.895, abs=1e-12)
        assert spec.cost(10_000) == pytest.approx(10_000.0)

    def test_flat_curve_when_b_zero(self):
        spec = basic_spec(b=0.0)
        for s in (1, 100, 10**6):
            assert spec.true_accuracy(s) == spec.a_inf

    def test_plateau_freezes_value(self):
        spec = basic_spec(plateau=(4000, 64_000))
        frozen = spec.true_accuracy(4000)
        assert spec.true_accuracy(16_000) == frozen
        assert spec.true_accuracy(64_000) == frozen
        assert spec.true_accuracy(128_000) > frozen
        assert spec.true_accuracy(2000) < frozen

    def test_validation(self):
        with pytest.raises(ValueError):
            basic_spec(a_inf=1.2)
        with pytest.raises(ValueError):
            basic_spec(beta=0.0)
        with pytest.raises(ValueError):
            basic_spec(plateau=(10, 5))
        for key in ("b", "beta", "overfit_gap", "gamma", "kappa", "alpha"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{key} must be finite"):
                    basic_spec(**{key: value})
        with pytest.raises(ValueError, match="plateau"):
            basic_spec(plateau=(10, math.inf))

    def test_frozen_value_semantics(self):
        spec = basic_spec(plateau=(10, 20))
        twin = pickle.loads(pickle.dumps(spec))
        assert twin == spec and hash(twin) == hash(spec)
        assert replace(spec, b=0.25) == basic_spec(b=0.25, plateau=(10, 20))
        assert repr(spec).startswith("CurveSpec(a_inf=0.9, b=0.5, beta=0.5,")
        with pytest.raises(FrozenInstanceError):
            spec.b = 0.25
        with pytest.raises(ValueError, match="^a_inf must be in"):
            replace(spec, a_inf=1.5)

    def test_dict_roundtrip(self):
        spec = basic_spec(plateau=(10, 20))
        assert CurveSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            CurveSpec.from_dict({**spec.to_dict(), "bogus": 1})

    @given(
        a_inf=st.floats(0.5, 1.0),
        b=st.floats(0.0, 0.5),
        beta=st.floats(0.1, 1.0),
        gap=st.floats(0.0, 0.5),
        gamma=st.floats(0.1, 1.0),
        s=st.integers(1, 10**7),
    )
    def test_train_accuracy_never_below_true(self, a_inf, b, beta, gap, gamma, s):
        spec = basic_spec(a_inf=a_inf, b=b, beta=beta, overfit_gap=gap, gamma=gamma)
        assert spec.train_accuracy(s) >= spec.true_accuracy(s)

    @given(
        a_inf=st.floats(0.5, 1.0),
        b=st.floats(0.0, 0.5),
        beta=st.floats(0.1, 1.0),
        s=st.integers(1, 10**6),
        factor=st.integers(2, 50),
        plateau=st.none() | st.tuples(st.integers(1, 10**5), st.integers(1, 10**5)),
    )
    def test_true_accuracy_nondecreasing(self, a_inf, b, beta, s, factor, plateau):
        if plateau is not None:
            plateau = (min(plateau), max(plateau))
        spec = basic_spec(a_inf=a_inf, b=b, beta=beta, plateau=plateau)
        assert spec.true_accuracy(s * factor) >= spec.true_accuracy(s) - 1e-12


class TestSyntheticBackend:
    def make_instance(self):
        return SyntheticInstance(
            name="t", curves=(basic_spec(), basic_spec(a_inf=0.8)),
            max_train_size=100_000, max_test_size=200_000,
        )

    def test_purity(self):
        backend = SyntheticBackend(self.make_instance(), seed=9)
        assert backend.probe(1, 1000, 2000) == backend.probe(1, 1000, 2000)

    def test_large_test_sample_concentrates(self):
        spec = basic_spec()
        instance = SyntheticInstance(
            name="t", curves=(spec,), max_train_size=100_000, max_test_size=8_000_000
        )
        out = SyntheticBackend(instance, seed=123).probe(1, 10_000, 4_000_000)
        assert out.test_accuracy == pytest.approx(spec.true_accuracy(10_000), abs=2e-3)

    def test_true_accuracy_at_full_train(self):
        backend = SyntheticBackend(self.make_instance(), seed=9)
        assert backend.true_accuracy(1) == basic_spec().true_accuracy(100_000)

    def test_full_test_evaluation_is_exact(self):
        backend = SyntheticBackend(self.make_instance(), seed=9)
        out = backend.probe(1, 1000, 200_000)
        assert out.test_accuracy == basic_spec().true_accuracy(1000)

    @pytest.mark.parametrize(
        "seed, config_id, s_tr, s_te",
        [
            (9, 1, 1000, 2000),
            (0, 2, 1, 1),
            (2**32 - 1, 2, 99_999, 199_999),
            (2**32 + 5, 1, 1000, 2000),  # a seed of two words
            (2**40, 2, 2**33 + 1, 2**33),  # sizes of two words
            (9, 1, 1000, 2**34),  # the full test set: no draw
            (2**32 + 5, 2, 2**34, 2**34),
            # Seeds of one, two and three words, each on a backend of 2 and
            # of 65 configurations.
            *[
                (seed, config_id, 1000, 2000)
                for seed in (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3)
                for config_id in (2, 65)
            ],
        ],
    )
    def test_probe_matches_list_entropy_seeding(self, seed, config_id, s_tr, s_te):
        # The reference is the rule as the README states it, keyed by the
        # list (seed, s_tr, s_te) and drawn one scalar at a time.
        pair = (basic_spec(), basic_spec(a_inf=0.8))
        instance = SyntheticInstance(
            name="t", curves=tuple(pair[i % 2] for i in range(max(2, config_id))),
            max_train_size=2**34, max_test_size=2**34,
        )
        backend = SyntheticBackend(instance, seed=seed)
        expected = reference_probe(instance, seed, config_id, s_tr, s_te)
        assert backend.probe(config_id, s_tr, s_te) == expected

    @pytest.mark.parametrize(
        "seed, tabled",
        [(0, True), (2**32 - 1, True), (2**32, True), (2**62 + 3, True), (2**63 - 25, True)],
    )
    def test_rung_table_probes_match_per_key_seeding(self, seed, tabled):
        n = 64
        curves = tuple(basic_spec(a_inf=0.6 + 0.3 * i / n) for i in range(n))
        instance = SyntheticInstance("t", curves, max_train_size=2**34, max_test_size=2**33)
        backend = SyntheticBackend(instance, seed=seed)
        # Two rungs, each probed again, a rung whose sizes take two words, and
        # full-test-set keys, which draw nothing.
        keys = [(i, s_tr, s_te) for s_tr, s_te in ((1000, 2000), (2000, 4000))
                for i in (1, n, 7)]
        keys += keys + [(3, 2**32, 2**33 - 1), (5, 1000, 2**33), (n, 2**34, 2**33)]
        for config_id, s_tr, s_te in keys:
            expected = reference_probe(instance, seed, config_id, s_tr, s_te)
            assert backend.probe(config_id, s_tr, s_te) == expected
        rungs = [(1000, 2000), (2000, 4000), (2**32, 2**33 - 1)]
        assert sorted(backend._rung_counts) == (rungs if tabled else [])
        for counts in backend._rung_counts.values():
            assert counts.dtype == np.int64 and counts.shape == (n,)

    def test_outcomes_do_not_depend_on_probe_order(self):
        curves = tuple(basic_spec(a_inf=0.6 + 0.03 * i) for i in range(10))
        instance = SyntheticInstance("t", curves, 100_000, 200_000)
        keys = [(i, s_tr, 2 * s_tr) for i in range(1, 11) for s_tr in (1000, 2000, 4000)]
        outcomes = []
        for order in range(4):
            shuffled = list(keys)
            random.Random(order).shuffle(shuffled)
            backend = SyntheticBackend(instance, seed=2**63 - 25)
            outcomes.append({key: backend.probe(*key) for key in shuffled})
        assert all(out == outcomes[0] for out in outcomes)

    def test_truncated_instance_shares_draws(self):
        curves = tuple(basic_spec(a_inf=0.6 + 0.003 * i, b=0.1 + 0.004 * i) for i in range(100))
        instance = SyntheticInstance("t", curves, 100_000, 200_000)
        whole = SyntheticBackend(instance, seed=12345)
        for n in (1, 7, 99):
            part = SyntheticBackend(instance.truncated(n), seed=12345)
            for s_tr in (1000, 8000):
                for config_id in range(1, n + 1):
                    assert part.probe(config_id, s_tr, 2000) == whole.probe(config_id, s_tr, 2000)

    def test_full_test_set_probe_draws_nothing(self):
        backend = SyntheticBackend(self.make_instance(), seed=9)
        with mock.patch.object(backend, "_draw_rung", side_effect=AssertionError("drew")):
            out = backend.probe(2, 1000, 200_000)
        assert out.test_accuracy == basic_spec(a_inf=0.8).true_accuracy(1000)
        assert backend._rung_counts == {}

    def test_rung_counts_match_binomial_moments(self):
        n, s_tr, s_te = 2000, 1000, 2000
        instance = SyntheticInstance("t", (basic_spec(),) * n, 100_000, 200_000)
        backend = SyntheticBackend(instance, seed=2**64 + 3)
        backend.probe(1, s_tr, s_te)
        counts = backend._rung_counts[s_tr, s_te].astype(float)
        p = basic_spec().true_accuracy(s_tr)
        var = s_te * p * (1 - p)
        # The sample variance's own variance, with the binomial's fourth
        # cumulant var * (1 - 6 p (1 - p)).
        var_of_var = 2 * var**2 / (n - 1) + var * (1 - 6 * p * (1 - p)) / n
        assert abs(counts.mean() - s_te * p) < 4 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt(var_of_var)

    def test_truncation_and_file_roundtrip(self, tmp_path):
        inst = self.make_instance()
        assert inst.truncated(1).n_configs == 1
        path = tmp_path / "inst.json"
        inst.save(path)
        assert SyntheticInstance.load(path) == inst


def ladder_rungs(instance):
    """The size rungs of a run over ``instance`` with the acceptance suite's
    initial sizes and growth."""
    backend = SyntheticBackend(instance, seed=0)
    params = RunParams.for_backend(
        backend, epsilon=0.01, delta=0.5, initial_train_size=1000, initial_test_size=2000,
        step_factor_c=2.0, alpha_cost_exponent=1.0, seed=0,
    )
    return list(size_ladder(params))


class TestSharedTables:
    """An instance's truths tables and truncations, shared by its backends,
    and the one generator per thread."""

    @pytest.mark.parametrize(
        "make",
        [harness.make_sweep_instance, harness.make_plateau_instance,
         harness.make_expensive_decoy_instance],
    )
    def test_table_is_the_scalar_truths_bit_for_bit(self, make):
        instance = make(3)
        rungs = ladder_rungs(instance)
        assert len(rungs) > 5
        for s_tr, _ in rungs:
            table = instance.truths(s_tr)
            assert table.dtype == np.float64 and table.shape == (instance.n_configs,)
            scalars = b"".join(np.float64(c.true_accuracy(s_tr)).tobytes() for c in instance.curves)
            assert table.tobytes() == scalars
            assert instance.truths(s_tr) is table

    def test_truncation_is_memoized_and_draws_as_its_parent(self):
        curves = tuple(basic_spec(a_inf=0.6 + 0.003 * i, b=0.1 + 0.004 * i) for i in range(30))
        instance = SyntheticInstance("t", curves, 100_000, 200_000)
        assert instance.truncated(7) is instance.truncated(7)
        whole = SyntheticBackend(instance, seed=2**63 - 25)
        for s_tr in (1000, 8000):
            whole.probe(30, s_tr, 2000)  # table and draw the parent's rung first
        part = SyntheticBackend(instance.truncated(7), seed=2**63 - 25)
        for s_tr in (1000, 8000):
            for config_id in range(1, 8):
                expected = reference_probe(instance, 2**63 - 25, config_id, s_tr, 2000)
                assert part.probe(config_id, s_tr, 2000) == expected
                assert whole.probe(config_id, s_tr, 2000) == expected

    @staticmethod
    def probe_all(backend, keys):
        return [backend.probe(*key) for key in keys]

    def keys(self, n):
        return [(i, s_tr, 2 * s_tr) for s_tr in (1000, 2000, 4000, 8000) for i in range(1, n + 1)]

    def test_interleaved_backends_draw_as_each_alone(self):
        curves = tuple(basic_spec(a_inf=0.6 + 0.03 * i) for i in range(10))
        instance = SyntheticInstance("t", curves, 100_000, 200_000)
        keys = self.keys(10)
        alone = {
            seed: self.probe_all(SyntheticBackend(replace(instance), seed), keys)
            for seed in (5, 2**40 + 1)
        }
        a, b = SyntheticBackend(instance, 5), SyntheticBackend(instance, 2**40 + 1)
        together = {5: [], 2**40 + 1: []}
        for key in keys:
            together[5].append(a.probe(*key))
            together[2**40 + 1].append(b.probe(*key))
        assert together == alone

    def test_threads_draw_as_each_backend_alone(self):
        # Large rungs: NumPy releases the GIL inside a vector binomial, so a
        # generator shared between threads would be re-keyed mid-draw.
        curves = tuple(basic_spec(a_inf=0.6 + 0.3 * i / 2000) for i in range(2000))
        instance = SyntheticInstance("t", curves, 10**7, 2 * 10**7)
        keys = [(i, 1000 * 2**k, 2000 * 2**k) for k in range(12) for i in (1, 1000, 2000)]
        seeds = (11, 2**62 + 9, 2**40 + 3)  # more threads than a 2-CPU host has
        alone = {seed: self.probe_all(SyntheticBackend(replace(instance), seed), keys)
                 for seed in seeds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as CPython allows
        try:
            for _ in range(5):
                got, start = {}, threading.Barrier(len(seeds))

                def work(seed):
                    start.wait(timeout=60)
                    got[seed] = self.probe_all(SyntheticBackend(instance, seed), keys)

                threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got == alone
        finally:
            sys.setswitchinterval(interval)

    def test_fresh_backend_over_a_used_instance_makes_no_generator_and_no_truths(self):
        curves = tuple(basic_spec(a_inf=0.6 + 0.03 * i) for i in range(10))
        instance = SyntheticInstance("t", curves, 100_000, 200_000)
        keys = self.keys(10)
        expected = self.probe_all(SyntheticBackend(instance, 8), keys)
        costs = mock.patch.object(CurveSpec, "cost", autospec=True, side_effect=CurveSpec.cost)
        with mock.patch("numpy.random.PCG64", side_effect=AssertionError("new PCG64")), \
                mock.patch.object(CurveSpec, "true_accuracy",
                                  side_effect=AssertionError("curve evaluated")), \
                costs as cost:
            assert self.probe_all(SyntheticBackend(instance, 8), keys) == expected
        assert cost.call_count == len(keys)

    def test_an_overflowing_cost_raises_only_for_its_configuration(self):
        huge = CurveSpec(0.8, 0.3, 0.5, 0.1, 0.5, 1.0, 60.0)
        instance = SyntheticInstance("t", (basic_spec(), huge, basic_spec(a_inf=0.8)),
                                     4_000_000, 8_000_000)
        backend = SyntheticBackend(instance, seed=1)
        with pytest.raises(OverflowError):
            huge.cost(4_000_000)
        for config_id in (1, 3):
            expected = reference_probe(instance, 1, config_id, 4_000_000, 4_000_000)
            assert backend.probe(config_id, 4_000_000, 4_000_000) == expected
        with pytest.raises(OverflowError):
            backend.probe(2, 4_000_000, 4_000_000)
        assert backend.probe(2, 1000, 2000).test_accuracy == reference_probe(
            instance, 1, 2, 1000, 2000).test_accuracy

    def test_tables_stay_out_of_pickles_equality_and_repr(self):
        instance = harness.make_sweep_instance(2, n=12)
        before = (pickle.dumps(instance), repr(instance), hash(instance))
        backend = SyntheticBackend(instance.truncated(5), seed=3)
        for s_tr, s_te in ladder_rungs(instance):
            backend.probe(2, s_tr, s_te)
            SyntheticBackend(instance, seed=3).probe(12, s_tr, s_te)
        assert backend.labels == instance.truncated(5).labels == tuple(
            f"curve-{i}" for i in range(1, 6))
        assert (pickle.dumps(instance), repr(instance), hash(instance)) == before
        copy = pickle.loads(before[0])
        assert copy == instance and copy.truncated(5) is not instance.truncated(5)
        assert SyntheticBackend(copy, seed=3).probe(12, 1000, 2000) == SyntheticBackend(
            instance, seed=3).probe(12, 1000, 2000)


def separable_handle(n=6000, seed=3):
    rng = np.random.default_rng(99)
    X = rng.normal(size=(n, 1))
    y = (X[:, 0] > 0).astype(int)
    return DatasetHandle(X, y, holdout=0.3, seed=seed)


class TestDatasetHandle:
    def test_nested_prefix_property(self):
        handle = separable_handle()
        small = handle.sample_nested("train", 100)
        big = handle.sample_nested("train", 500)
        assert np.array_equal(big[:100], small)

    def test_full_prefix_is_whole_part(self):
        handle = separable_handle()
        idx = handle.sample_nested("train", handle.train_size)
        assert len(idx) == handle.train_size
        assert len(set(idx.tolist())) == handle.train_size

    def test_deterministic_per_seed(self):
        a = separable_handle(seed=3).sample_nested("test", 50)
        b = separable_handle(seed=3).sample_nested("test", 50)
        assert np.array_equal(a, b)

    def test_split_is_a_partition(self):
        handle = separable_handle(n=1000)
        train = set(handle.sample_nested("train", handle.train_size).tolist())
        test = set(handle.sample_nested("test", handle.test_size).tolist())
        assert not train & test
        assert len(train) + len(test) == handle.n_rows

    def test_arrays_are_read_only_views_of_the_nested_sample(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(1000, 3))
        y = (X[:, 0] > 0).astype(int)
        handle = DatasetHandle(X, y, holdout=0.3, seed=2)
        for part, arrays in (("train", handle.train_arrays), ("test", handle.test_arrays)):
            idx = handle.sample_nested(part, 200)
            rows, labels = arrays(200)
            assert np.array_equal(rows, X[idx]) and np.array_equal(labels, y[idx])
            assert rows.base is arrays(300)[0].base
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
            size = handle.train_size if part == "train" else handle.test_size
            with pytest.raises(ValueError):
                arrays(size + 1)

    def test_oversized_sample_rejected(self):
        handle = separable_handle(n=1000)
        with pytest.raises(ValueError):
            handle.sample_nested("train", handle.train_size + 1)
        with pytest.raises(ValueError):
            handle.sample_nested("validation", 10)


class TestLearners:
    def test_majority_on_balanced_sample(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4000, 2))
        y = np.tile([0, 1], 2000)
        handle = DatasetHandle(X, y, holdout=0.5, seed=0)
        out = probe_learner(handle, LearnerSpec(kind="majority_class"), 1000, 1000, 0)
        assert out.train_accuracy == pytest.approx(0.5, abs=0.05)
        assert out.test_accuracy == pytest.approx(0.5, abs=0.05)

    def test_stump_separates_one_dimensional_data(self):
        handle = separable_handle()
        out = probe_learner(handle, LearnerSpec(kind="decision_stump"), 500, 500, 0)
        assert out.train_accuracy == 1.0
        assert out.test_accuracy >= 0.99

    def test_sgd_floor_on_separable_data(self):
        # Reference run of this SGD fixes a 0.95 floor (observed ~0.993).
        handle = separable_handle(n=20_000)
        spec = LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=0.1, epochs=20,
            l2=0.0, batch_size=32,
        )
        out = probe_learner(handle, spec, 1000, 2000, 0)
        assert out.test_accuracy >= 0.95

    def test_probe_deterministic(self):
        handle = separable_handle()
        spec = LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.1, epochs=3)
        a = probe_learner(handle, spec, 500, 500, 7)
        b = probe_learner(handle, spec, 500, 500, 7)
        assert (a.train_accuracy, a.test_accuracy) == (b.train_accuracy, b.test_accuracy)

    def test_degenerate_single_class_sample(self):
        X = np.linspace(0, 1, 400).reshape(-1, 1)
        y = np.ones(400, dtype=int)
        handle = DatasetHandle(X, y, holdout=0.5, seed=1)
        out = probe_learner(
            handle, LearnerSpec(kind="logistic_regression_sgd"), 100, 100, 0
        )
        assert out.train_accuracy == 1.0  # constant model on a one-class set

    def test_learner_spec_validation(self):
        with pytest.raises(ValueError):
            LearnerSpec(kind="nonsense")
        with pytest.raises(ValueError):
            LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.0)
        for key in ("learning_rate", "l2"):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                LearnerSpec(kind="logistic_regression_sgd", **{key: math.nan})
        with pytest.raises(ValueError):
            LearnerSpec.from_dict({"kind": "decision_stump", "learning_rate": 0.1})
        with pytest.raises(ValueError):
            LearnerSpec.from_dict({"kind": "logistic_regression_sgd", "lr": 0.1})


def reference_logreg_sgd(X, y, spec, rng):
    """The SGD loop with fresh arrays per minibatch, which the block-gathered
    kernel must reproduce bit for bit."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    lr = spec.learning_rate
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            Xb, yb = X[idx], y[idx]
            z = Xb @ w + b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))
            resid = p - yb
            grad_w = Xb.T @ resid / len(idx) + spec.l2 * w
            grad_b = resid.mean()
            w -= lr * grad_w
            b -= lr * grad_b
    return w, b


def assert_sgd_matches_reference(X, y, spec, seed):
    w, b = reference_logreg_sgd(X, y, spec, np.random.default_rng(seed))
    model = probes._train_logreg_sgd(X, y, spec, np.random.default_rng(seed))
    assert model.weights.tobytes() == w.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()


class TestSgdKernel:
    """The kernel against ``reference_logreg_sgd``, compared in-process:
    BLAS may sum the matrix-vector products differently on another machine,
    so stored digests would not be portable."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 8),
        batch_size=st.integers(1, 70),
        block_rows=st.integers(1, 64),
        epochs=st.integers(1, 3),
        learning_rate=st.sampled_from([1e-3, 0.3, 8.0]),
        l2=st.sampled_from([0.0, 0.01]),
        share_of_ones=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        zero_column=st.booleans(),
        scale=st.sampled_from([1.0, 1e308]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference(
        self, n, d, batch_size, block_rows, epochs, learning_rate, l2,
        share_of_ones, zero_column, scale, seed,
    ):
        # A small block covers n and batch sizes that are not multiples of
        # it, and batches larger than it, at sizes the reference runs fast.
        # Features near the float maximum make the weights overflow.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
        if zero_column:
            X[:, 0] = 0.0
        y = (rng.random(n) < share_of_ones).astype(np.int64)
        spec = LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=learning_rate,
            epochs=epochs, l2=l2, batch_size=batch_size,
        )
        with mock.patch.object(probes, "_SGD_BLOCK_ROWS", block_rows):
            with np.errstate(all="ignore"):
                assert_sgd_matches_reference(X, y, spec, seed)

    def test_zero_l2_term_reaches_an_overflowed_weight(self):
        # The first step overflows the weight to -inf; in the second,
        # 0 * -inf is NaN, so a kernel that skipped the term at l2 = 0
        # would keep -inf.
        spec = LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=8.0, epochs=2,
            l2=0.0, batch_size=1,
        )
        with np.errstate(all="ignore"):
            assert_sgd_matches_reference(np.array([[1e308]]), np.array([0]), spec, 0)

    @pytest.mark.parametrize("batch_size", [64, probes._SGD_BLOCK_ROWS + 3])
    def test_matches_reference_at_the_shipped_block(self, batch_size):
        rng = np.random.default_rng(batch_size)
        n = 2 * probes._SGD_BLOCK_ROWS + 77
        X = rng.uniform(0.0, 1.0, size=(n, 5))
        y = (X @ np.array([1.0, -0.8, 0.6, 0.4, -0.2]) > 0.5).astype(np.int64)
        spec = LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=0.3, epochs=2,
            l2=0.001, batch_size=batch_size,
        )
        assert_sgd_matches_reference(X, y, spec, 5)

    def test_reused_tail_views_across_epochs(self):
        # One full block and a tail of 77 rows, whose second minibatch has
        # 13: the views of both are built once and serve all three epochs.
        rng = np.random.default_rng(77)
        n = probes._SGD_BLOCK_ROWS + 77
        X = rng.uniform(0.0, 1.0, size=(n, 5))
        y = (X @ np.array([1.0, -0.8, 0.6, 0.4, -0.2]) > 0.5).astype(np.int64)
        spec = LearnerSpec(
            kind="logistic_regression_sgd", learning_rate=0.3, epochs=3,
            l2=0.001, batch_size=64,
        )
        assert_sgd_matches_reference(X, y, spec, 9)


# The acceptance suite's criterion-11 grid: four SGD variants, a stump and
# the majority class.
CRITERION_11_LEARNERS = (
    LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.3, epochs=10, batch_size=64),
    LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.2, epochs=8, batch_size=64),
    LearnerSpec(kind="decision_stump"),
    LearnerSpec(kind="logistic_regression_sgd", learning_rate=0.0005, epochs=100, batch_size=64),
    LearnerSpec(
        kind="logistic_regression_sgd", learning_rate=0.0003, epochs=100, l2=0.001,
        batch_size=64,
    ),
    LearnerSpec(kind="majority_class"),
)


def test_learner_trace_matches_reference_kernel(tmp_path):
    # A whole selection on a CSV learner backend writes the same trace with
    # the kernel as with the reference loop. Compared in-process, with no
    # stored digest, for the reason TestSgdKernel gives.
    rng = np.random.default_rng(31)
    X = rng.normal(size=(6000, 5))
    y = (X @ np.array([1.0, -0.8, 0.6, 0.4, -0.2]) > 0.0).astype(np.int64)
    y[rng.random(6000) < 0.3] ^= 1
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
    handle = load_csv_dataset(path, holdout=0.3, seed=4)
    cost_model = [
        (5e-7 * spec.epochs, 1.0) if spec.kind == "logistic_regression_sgd"
        else (1e-6 if spec.kind == "decision_stump" else 1e-8, 1.0)
        for spec in CRITERION_11_LEARNERS
    ]

    def trace():
        backend = LearnerBackend(handle, CRITERION_11_LEARNERS, seed=4, cost_model=cost_model)
        params = RunParams(
            epsilon=0.01, delta=0.5, n_configs=backend.n_configs, initial_train_size=100,
            initial_test_size=200, step_factor_c=2.0, alpha_cost_exponent=1.0,
            max_train_size=backend.max_train_size, max_test_size=backend.max_test_size,
            seed=4,
        )
        states = initial_states(list(backend.labels), params)
        return run_abc(states, backend, params)[1]

    def reference(X, y, spec, rng):
        return probes._LinearModel(*reference_logreg_sgd(X, y, spec, rng))

    kernel_trace = trace()
    with mock.patch.object(probes, "_train_logreg_sgd", reference):
        reference_trace = trace()
    # The SGD learners reach a sample of a full block and a tail.
    sgd_ids = [
        i + 1 for i, spec in enumerate(CRITERION_11_LEARNERS)
        if spec.kind == "logistic_regression_sgd"
    ]
    assert any(
        r.config_id in sgd_ids and r.outcome.train_sample_size > probes._SGD_BLOCK_ROWS
        for r in kernel_trace.rounds
    )
    assert kernel_trace.to_jsonl() == reference_trace.to_jsonl()


class TestFullEvaluate:
    # A configuration's full-data accuracy is its probe at the full sizes.
    def test_majority_matches_class_prior(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3000, 2))
        y = (rng.random(3000) < 0.6).astype(int)
        handle = DatasetHandle(X, y, holdout=0.4, seed=2)
        out = probe_learner(
            handle, LearnerSpec(kind="majority_class"), handle.train_size, handle.test_size, 0
        )
        prior = handle.test_arrays(handle.test_size)[1].mean()
        assert out.test_accuracy == pytest.approx(prior, abs=1e-12)

    def test_identity_with_full_size_probe(self):
        handle = separable_handle(n=2000)
        spec = LearnerSpec(kind="decision_stump")
        backend = LearnerBackend(handle, [spec])
        acc = backend.probe(1, backend.max_train_size, backend.max_test_size).test_accuracy
        out = probe_learner(handle, spec, handle.train_size, handle.test_size, 0)
        assert acc == out.test_accuracy

    def test_stump_on_separable_data_is_perfect(self):
        handle = separable_handle(n=2000)
        backend = LearnerBackend(handle, [LearnerSpec(kind="decision_stump")])
        assert backend.probe(1, handle.train_size, handle.test_size).test_accuracy == 1.0


class TestCsvLoading:
    def write_csv(self, path, header):
        rows = ["1.0,10.0,0", "2.0,20.0,1", "3.0,30.0,0", "4.0,40.0,1"] * 10
        text = ("f1,f2,label\n" if header else "") + "\n".join(rows) + "\n"
        path.write_text(text)

    @pytest.mark.parametrize("header", [False, True])
    def test_loads_with_and_without_header(self, tmp_path, header):
        path = tmp_path / "d.csv"
        self.write_csv(path, header)
        handle = load_csv_dataset(path, header=header, holdout=0.25, seed=0)
        assert handle.n_rows == 40
        assert handle.n_features == 2
        X, _ = handle.train_arrays(handle.train_size)
        assert X.min() >= 0.0 and X.max() <= 1.0  # min-max normalized

    def test_rejects_non_binary_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2\n2.0,3\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path)


class TestLearnerBackend:
    def test_cost_model_override(self):
        handle = separable_handle(n=2000)
        learners = [LearnerSpec(kind="majority_class"), LearnerSpec(kind="decision_stump")]
        backend = LearnerBackend(handle, learners, seed=0, cost_model=[(2.0, 1.0), (3.0, 0.5)])
        out = backend.probe(1, 100, 100)
        assert out.cost == pytest.approx(200.0)
        assert backend.estimate_cost(2, 400, 100) == pytest.approx(60.0)

    @pytest.mark.parametrize(
        "pair", [(math.nan, 1.0), (-1e-6, 1.0), (0.0, 1.0), (math.inf, 1.0), (1.0, math.nan),
                 (1.0, 0.0), (1.0, math.inf)],
        ids=["kappa_nan", "kappa_negative", "kappa_zero", "kappa_inf", "alpha_nan",
             "alpha_zero", "alpha_inf"],
    )
    def test_rejects_cost_model_values(self, pair):
        learners = [LearnerSpec(kind="majority_class"), LearnerSpec(kind="decision_stump")]
        with pytest.raises(ValueError, match="cost_model"):
            LearnerBackend(separable_handle(n=200), learners, cost_model=[(1.0, 1.0), pair])

    def test_wall_time_cost_without_model(self):
        handle = separable_handle(n=2000)
        backend = LearnerBackend(handle, [LearnerSpec(kind="decision_stump")], seed=0)
        assert backend.estimate_cost(1, 100, 100) is None
        assert backend.probe(1, 100, 100).cost > 0.0
        assert backend.true_accuracy(1) is None
