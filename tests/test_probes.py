import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abcselect import probes
from abcselect.core import RunParams, initial_states
from abcselect.engine import run_abc
from abcselect.probes import (
    CurveSpec,
    DatasetHandle,
    LearnerBackend,
    LearnerSpec,
    SyntheticBackend,
    SyntheticInstance,
    load_csv_dataset,
    probe_learner,
    probe_synthetic,
)


def basic_spec(**overrides):
    fields = dict(a_inf=0.9, b=0.5, beta=0.5, overfit_gap=0.3, gamma=0.5,
                  kappa=1.0, alpha=1.0)
    fields.update(overrides)
    return CurveSpec(**fields)


class TestCurveSpec:
    def test_closed_form_values(self):
        spec = basic_spec()
        out = probe_synthetic(spec, 10_000, 2000, seed=0)
        assert out.train_accuracy == pytest.approx(0.898, abs=1e-12)
        assert spec.true_accuracy(10_000) == pytest.approx(0.895, abs=1e-12)
        assert out.cost == pytest.approx(10_000.0)

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
            with pytest.raises(ValueError, match=f"^{key} must be"):
                basic_spec(**{key: math.nan})

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


class TestProbeSynthetic:
    def test_large_test_sample_concentrates(self):
        spec = basic_spec()
        out = probe_synthetic(spec, 10_000, 4_000_000, seed=123)
        assert out.test_accuracy == pytest.approx(spec.true_accuracy(10_000), abs=2e-3)

    def test_population_test_is_exact(self):
        spec = basic_spec()
        out = probe_synthetic(spec, 10_000, 100, seed=5, population_test=True)
        assert out.test_accuracy == spec.true_accuracy(10_000)

    def test_deterministic_per_seed(self):
        spec = basic_spec()
        a = probe_synthetic(spec, 1000, 2000, seed=42)
        b = probe_synthetic(spec, 1000, 2000, seed=42)
        assert a == b


class TestSyntheticBackend:
    def make_instance(self):
        return SyntheticInstance(
            name="t", curves=(basic_spec(), basic_spec(a_inf=0.8)),
            max_train_size=100_000, max_test_size=200_000,
        )

    def test_purity(self):
        backend = SyntheticBackend(self.make_instance(), seed=9)
        assert backend.probe(1, 1000, 2000) == backend.probe(1, 1000, 2000)

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
            (2**32 + 5, 1, 1000, 2000),  # a seed of two words: the list path
            (2**40, 2, 2**33 + 1, 2**33),  # sizes of two words
            (9, 1, 1000, 2**34),  # the full test set: the exact path
            (2**32 + 5, 2, 2**34, 2**34),
        ],
    )
    def test_probe_matches_list_entropy_seeding(self, seed, config_id, s_tr, s_te):
        instance = SyntheticInstance(
            name="t", curves=(basic_spec(), basic_spec(a_inf=0.8)),
            max_train_size=2**34, max_test_size=2**34,
        )
        spec = instance.curves[config_id - 1]
        seed_seq = np.random.SeedSequence([seed, config_id, s_tr, s_te])
        expected = probe_synthetic(
            spec, s_tr, s_te, seed_seq, population_test=s_te >= instance.max_test_size
        )
        backend = SyntheticBackend(instance, seed=seed)
        assert backend.probe(config_id, s_tr, s_te) == expected

    def test_truncation_and_file_roundtrip(self, tmp_path):
        inst = self.make_instance()
        assert inst.truncated(1).n_configs == 1
        path = tmp_path / "inst.json"
        inst.save(path)
        assert SyntheticInstance.load(path) == inst


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
