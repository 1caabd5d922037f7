"""Probe backends.

Two families:

* a synthetic learning-curve simulator with known ground truth, used for
  verification and Monte Carlo experiments;
* lightweight from-scratch learners (SGD logistic regression, decision
  stump, majority class) over CSV datasets with seeded nested sampling.

Both are pure functions of (configuration, sizes, seed) so that parallel
Monte Carlo runs and trace replay are deterministic.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import threading
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .core import DocumentError, ProbeOutcome, read_list, read_object, read_value

__all__ = [
    "CurveSpec",
    "DatasetHandle",
    "LearnerBackend",
    "LearnerSpec",
    "ProbeBackend",
    "SyntheticBackend",
    "SyntheticInstance",
    "load_csv_dataset",
    "probe_learner",
]

logger = logging.getLogger(__name__)

LEARNER_KINDS = ("logistic_regression_sgd", "decision_stump", "majority_class")


@runtime_checkable
class ProbeBackend(Protocol):
    """Anything that can train configuration ``i`` on ``s_tr`` training
    samples and evaluate it on ``s_te`` test samples.

    ``probe`` must be a pure function of (configuration, sizes) for a fixed
    backend: the same call gives the same accuracies, and the same cost
    wherever cost is not measured wall time. The engine relies on this to
    reuse an outcome instead of probing again (see ``verify_selection``).
    """

    @property
    def n_configs(self) -> int: ...

    @property
    def labels(self) -> tuple[str, ...]: ...

    @property
    def max_train_size(self) -> int: ...

    @property
    def max_test_size(self) -> int: ...

    def probe(self, config_id: int, s_tr: int, s_te: int) -> ProbeOutcome: ...

    def estimate_cost(self, config_id: int, s_tr: int, s_te: int) -> float | None:
        """Predicted probe cost, or None when only measurable after the fact."""
        ...

    def true_accuracy(self, config_id: int) -> float | None:
        """Ground-truth real test accuracy when known by construction."""
        ...


# ---------------------------------------------------------------------------
# Synthetic learning-curve simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CurveSpec:
    """Parametric learning curve with a power-law cost model.

    True accuracy at train size s is ``a_inf - b * s**-beta``, optionally
    held flat at its value at ``plateau[0]`` for s inside the plateau range.
    Train accuracy sits above the true curve by ``overfit_gap * s**-gamma``,
    so by construction training accuracy never falls below the true
    accuracy and the true accuracy is nondecreasing in s. Probe cost is
    ``kappa * s**alpha``.
    """

    a_inf: float
    b: float
    beta: float
    overfit_gap: float
    gamma: float
    kappa: float
    alpha: float
    plateau: tuple[int, int] | None = None

    def __init__(self, a_inf, b, beta, overfit_gap, gamma, kappa, alpha, plateau=None):
        # An instance builds thousands of curves. The generated __init__ of
        # a frozen dataclass sets each field through object.__setattr__;
        # the slots' own setters skip that lookup.
        set_a_inf, set_b, set_beta, set_gap, set_gamma, set_kappa, set_alpha, set_plateau = (
            _CURVE_SETTERS
        )
        set_a_inf(self, a_inf)
        set_b(self, b)
        set_beta(self, beta)
        set_gap(self, overfit_gap)
        set_gamma(self, gamma)
        set_kappa(self, kappa)
        set_alpha(self, alpha)
        set_plateau(self, plateau)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Chained comparisons, false for NaN and infinities: an instance
        # builds thousands of curves.
        if not 0.0 <= self.a_inf <= 1.0:
            raise ValueError(f"a_inf must be in [0, 1], got {self.a_inf}")
        if not 0.0 <= self.b < math.inf:
            raise ValueError(f"b must be finite and >= 0, got {self.b}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.overfit_gap < math.inf:
            raise ValueError(f"overfit_gap must be finite and >= 0, got {self.overfit_gap}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.plateau is not None:
            lo, hi = self.plateau
            if not 1 <= lo <= hi < math.inf:
                raise ValueError(f"invalid plateau range {self.plateau}")

    def true_accuracy(self, s: int) -> float:
        """True accuracy of the model trained on s samples (frozen inside the plateau)."""
        if s < 1:
            raise ValueError("sample size must be >= 1")
        if self.plateau is not None:
            lo, hi = self.plateau
            if lo <= s <= hi:
                s = lo
        val = self.a_inf - self.b * float(s) ** (-self.beta)
        return min(1.0, max(0.0, val))

    def train_accuracy(self, s: int, truth: float | None = None) -> float:
        """Train accuracy at s samples, given ``true_accuracy(s)`` if known."""
        truth = self.true_accuracy(s) if truth is None else truth
        return min(1.0, truth + self.overfit_gap * float(s) ** (-self.gamma))

    def cost(self, s: int) -> float:
        return self.kappa * float(s) ** self.alpha

    def to_dict(self) -> dict:
        d = {
            "a_inf": self.a_inf,
            "b": self.b,
            "beta": self.beta,
            "overfit_gap": self.overfit_gap,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "alpha": self.alpha,
        }
        if self.plateau is not None:
            d["plateau"] = list(self.plateau)
        return d

    @classmethod
    def from_dict(cls, d: dict, where: str = "curve") -> "CurveSpec":
        """The curve ``to_dict`` wrote; ``where`` names it in error messages."""
        numbers = ("a_inf", "b", "beta", "overfit_gap", "gamma", "kappa", "alpha")
        read_object(d, where, {*numbers, "plateau"}, numbers)
        plateau = d.get("plateau")
        if plateau is not None:
            name = f"key 'plateau' in {where}"
            plateau = tuple(read_list(plateau, name, int))
            if len(plateau) != 2:
                raise DocumentError(f"{name} must be [lo, hi], got {list(plateau)!r}")
        return cls(plateau=plateau, **{key: read_value(d, key, where) for key in numbers})


_CURVE_SETTERS = tuple(getattr(CurveSpec, f.name).__set__ for f in fields(CurveSpec))


@dataclass(frozen=True)
class SyntheticInstance:
    """A named bundle of curves plus the full data sizes they live over.

    An instance also keeps what every backend over it shares, each built on
    first use: its labels, one float64 array of the curves' true accuracies
    per train size (:meth:`truths`) and one instance per truncation
    (:meth:`truncated`). That state is not a field, so it stays out of
    ``==``, ``hash``, ``repr`` and pickles. Building it is idempotent, so
    threads may share an instance.
    """

    name: str
    curves: tuple[CurveSpec, ...]
    max_train_size: int
    max_test_size: int

    def __post_init__(self) -> None:
        if not self.curves:
            raise ValueError("instance needs at least one curve")
        for key in ("max_train_size", "max_test_size"):
            if not getattr(self, key) >= 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        object.__setattr__(self, "_truths", {})
        object.__setattr__(self, "_truncations", {})

    def __reduce__(self):
        # Pickle the fields alone: a run_experiment worker gets its cells'
        # instances without the tables a process has built.
        return type(self), (self.name, self.curves, self.max_train_size, self.max_test_size)

    @property
    def n_configs(self) -> int:
        return len(self.curves)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"curve-{i + 1}" for i in range(len(self.curves)))

    def truths(self, s_tr: int) -> np.ndarray:
        """Every curve's ``true_accuracy(s_tr)``, in id order, as float64.

        Tabled per train size at first use, from the same scalar calls, so
        each entry is bit-identical to the curve's own value."""
        table = self._truths.get(s_tr)
        if table is None:
            table = np.array([c.true_accuracy(s_tr) for c in self.curves], dtype=np.float64)
            self._truths[s_tr] = table
        return table

    def truncated(self, n: int) -> "SyntheticInstance":
        """Instance restricted to the first n curves: one per n, so that
        its backends share its tables."""
        if not 1 <= n <= len(self.curves):
            raise ValueError(f"cannot truncate {len(self.curves)} curves to {n}")
        part = self._truncations.get(n)
        if part is None:
            part = self._truncations[n] = replace(self, curves=self.curves[:n])
        return part

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_train_size": self.max_train_size,
            "max_test_size": self.max_test_size,
            "curves": [c.to_dict() for c in self.curves],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticInstance":
        keys = ("name", "max_train_size", "max_test_size", "curves")
        read_object(d, "instance", keys, keys)
        curves = read_list(d["curves"], "key 'curves' in instance")
        return cls(
            name=read_value(d, "name", "instance", str),
            curves=tuple(CurveSpec.from_dict(c, f"curves[{i}]") for i, c in enumerate(curves)),
            max_train_size=read_value(d, "max_train_size", "instance", int),
            max_test_size=read_value(d, "max_test_size", "instance", int),
        )

    @classmethod
    def load(cls, path) -> "SyntheticInstance":
        return cls.from_dict(json.loads(Path(path).read_text()))


# One generator per thread, made at the thread's first draw and re-keyed by
# every draw (see SyntheticBackend._draw_rung). It is made then, not at
# import: NumPy imports numpy.random lazily, and importing it along with this
# module raised the peak RSS of every process by about 0.5 MB.
_THREAD_DRAWS = threading.local()


def _keyed_generator(key: bytes) -> np.random.Generator:
    """This thread's generator, its PCG64 state set from a 32-byte key."""
    draws = getattr(_THREAD_DRAWS, "generator", None)
    if draws is None:
        draws = _THREAD_DRAWS.generator = np.random.Generator(np.random.PCG64(0))
    draws.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(key[:16], "little"),
            "inc": int.from_bytes(key[16:], "little") | 1,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }
    return draws


class SyntheticBackend:
    """Probe backend over a synthetic instance; deterministic per (seed, id, sizes).

    A probe's truth is its curve's entry in the instance's truths table
    (:meth:`SyntheticInstance.truths`). A probe below the full test set
    reads its test accuracy from its size rung ``(s_tr, s_te)``. The first
    probe at a rung draws the test-sample successes of every configuration
    at once: ``binomial(s_te, truths)`` from this thread's generator, its
    PCG64 state keyed by ``(seed, s_tr, s_te)`` (see :meth:`_draw_rung`).
    The backend keeps the counts, one int64 per configuration and rung.
    NumPy draws an array's elements in order from one stream, so
    configuration i's draw depends only on the seed, the sizes and curves
    1..i: an instance's ``truncated(n)`` shares its draws. A probe on the
    full test set draws nothing.

    Building a backend does no per-curve work: the labels and truths are
    the instance's, and every backend of an instance shares them. Each
    draw sets the generator's whole state first, and every write to the
    rung cache and the instance's tables stores the value any thread
    would, so threads may share a backend.
    """

    def __init__(self, instance: SyntheticInstance, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self._instance = instance
        self._seed = seed
        self._rung_counts: dict[tuple[int, int], np.ndarray] = {}

    @property
    def instance(self) -> SyntheticInstance:
        return self._instance

    @property
    def n_configs(self) -> int:
        return self._instance.n_configs

    @property
    def labels(self) -> tuple[str, ...]:
        return self._instance.labels

    @property
    def max_train_size(self) -> int:
        return self._instance.max_train_size

    @property
    def max_test_size(self) -> int:
        return self._instance.max_test_size

    def _index(self, config_id: int) -> int:
        if not 1 <= config_id <= len(self._instance.curves):
            raise ValueError(f"config id {config_id} out of range 1..{len(self._instance.curves)}")
        return config_id - 1

    def probe(self, config_id: int, s_tr: int, s_te: int) -> ProbeOutcome:
        i = self._index(config_id)
        spec = self._instance.curves[i]
        if s_tr > self._instance.max_train_size or s_te > self._instance.max_test_size:
            raise ValueError("requested sizes exceed the full data sizes")
        if s_tr < 1 or s_te < 1:
            raise ValueError("sample sizes must be >= 1")
        truth = test_accuracy = self._instance.truths(s_tr).item(i)
        # Evaluating on the entire test set measures the accuracy exactly,
        # with no draw.
        if s_te < self._instance.max_test_size:
            counts = self._rung_counts.get((s_tr, s_te))
            if counts is None:
                counts = self._rung_counts[s_tr, s_te] = self._draw_rung(s_tr, s_te)
            test_accuracy = counts.item(i) / s_te
        return ProbeOutcome(
            train_sample_size=s_tr,
            test_sample_size=s_te,
            train_accuracy=spec.train_accuracy(s_tr, truth),
            test_accuracy=test_accuracy,
            # Per probe, not tabled: a cost can overflow at a rung that
            # other configurations probe.
            cost=spec.cost(s_tr),
        )

    def _draw_rung(self, s_tr: int, s_te: int) -> np.ndarray:
        """Test-sample successes of every configuration at a rung.

        The key is the 32-byte BLAKE2b digest of the ASCII text
        ``"<seed>,<s_tr>,<s_te>"`` (decimal). Read as two little-endian
        128-bit integers, its first 16 bytes are the PCG64 state and its
        last 16 bytes, OR 1, the increment.
        """
        key = hashlib.blake2b(b"%d,%d,%d" % (self._seed, s_tr, s_te), digest_size=32).digest()
        return _keyed_generator(key).binomial(s_te, self._instance.truths(s_tr))

    def estimate_cost(self, config_id: int, s_tr: int, s_te: int) -> float:
        return self._instance.curves[self._index(config_id)].cost(s_tr)

    def true_accuracy(self, config_id: int) -> float:
        return self._instance.truths(self.max_train_size).item(self._index(config_id))


# ---------------------------------------------------------------------------
# CSV datasets with nested sampling
# ---------------------------------------------------------------------------


class DatasetHandle:
    """A holdout split plus seeded nested sampling over a feature matrix.

    The partition is one seeded permutation of the row indices; samples of a
    part at growing sizes are prefixes of that part's permuted order, so
    successive samples nest. Each part's rows and labels are copied once, in
    that order, so a sample is a view of them; the handle keeps no other
    copy of the data.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        holdout: float,
        seed: int,
    ):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be one value per feature row")
        uniq = np.unique(labels)
        if not np.all(np.isin(uniq, (0, 1))):
            raise ValueError("labels must be binary in {0, 1}")
        if not 0.0 < holdout < 1.0:
            raise ValueError(f"holdout ratio must be in (0, 1), got {holdout}")
        n = features.shape[0]
        n_test = min(n - 1, max(1, int(round(holdout * n))))
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        labels = labels.astype(np.int64, copy=False)
        self._test_order = perm[:n_test]
        self._train_order = perm[n_test:]
        self._parts = {}
        for part, order in (("train", self._train_order), ("test", self._test_order)):
            self._parts[part] = (features[order], labels[order])
            for array in self._parts[part]:
                array.setflags(write=False)  # shared by every sample of the part
        self._seed = seed

    @property
    def n_rows(self) -> int:
        return self.train_size + self.test_size

    @property
    def n_features(self) -> int:
        return self._parts["train"][0].shape[1]

    @property
    def train_size(self) -> int:
        return len(self._train_order)

    @property
    def test_size(self) -> int:
        return len(self._test_order)

    @property
    def seed(self) -> int:
        return self._seed

    def sample_nested(self, part: str, size: int) -> np.ndarray:
        """First ``size`` indices of the seeded permutation of a part.

        Samples at growing sizes are nested prefixes; deterministic per
        (seed, part).
        """
        if part == "train":
            order = self._train_order
        elif part == "test":
            order = self._test_order
        else:
            raise ValueError(f"part must be 'train' or 'test', got {part!r}")
        if not 1 <= size <= len(order):
            raise ValueError(f"sample size {size} out of range 1..{len(order)}")
        return order[:size]

    def train_arrays(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        return self._prefix("train", size)

    def test_arrays(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        return self._prefix("test", size)

    def _prefix(self, part: str, size: int) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.sample_nested(part, size))  # checks part and size
        rows, labels = self._parts[part]
        return rows[:n], labels[:n]


def load_csv_dataset(
    path,
    header: bool = False,
    holdout: float = 0.3,
    seed: int = 0,
) -> DatasetHandle:
    """Load a numeric CSV (last column = binary label) with min-max
    normalization applied per feature."""
    data = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("CSV needs at least one feature column plus the label")
    features = data[:, :-1]
    labels = data[:, -1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("label column must contain only 0 and 1")
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    span[span == 0.0] = 1.0  # constant columns map to 0
    features = features - lo
    features /= span
    labels = labels.astype(np.int64)
    del data  # before the handle copies the data into its parts
    return DatasetHandle(features, labels, holdout=holdout, seed=seed)


# ---------------------------------------------------------------------------
# Lightweight learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerSpec:
    """One candidate learner. Hyperparameters apply to the SGD kind only."""

    kind: str
    learning_rate: float = 0.1
    epochs: int = 10
    l2: float = 0.0
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.kind == "logistic_regression_sgd":
            if not self.learning_rate > 0.0:
                raise ValueError("learning_rate must be > 0")
            if self.epochs < 1:
                raise ValueError("epochs must be >= 1")
            if not self.l2 >= 0.0:
                raise ValueError("l2 must be >= 0")
            if self.batch_size < 1:
                raise ValueError("batch_size must be >= 1")

    @property
    def label(self) -> str:
        if self.kind == "logistic_regression_sgd":
            return (
                f"sgd(lr={self.learning_rate:g},epochs={self.epochs},"
                f"l2={self.l2:g})"
            )
        return self.kind

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "logistic_regression_sgd":
            d.update(
                learning_rate=self.learning_rate,
                epochs=self.epochs,
                l2=self.l2,
                batch_size=self.batch_size,
            )
        return d

    @classmethod
    def from_dict(cls, d: dict, where: str = "learner") -> "LearnerSpec":
        """The learner ``to_dict`` wrote; ``where`` names it in error
        messages. Each hyperparameter is a number of its annotated kind."""
        kinds = {f.name: int if f.type == "int" else float for f in fields(cls) if f.name != "kind"}
        read_object(d, where, {"kind", *kinds}, ("kind",))
        if d["kind"] != "logistic_regression_sgd" and len(d) > 1:
            extra = sorted(set(d) - {"kind"})[0]
            raise DocumentError(f"learner kind {d['kind']!r} in {where} takes no key {extra!r}")
        values = {key: read_value(d, key, where, kinds[key]) for key in d if key != "kind"}
        return cls(kind=d["kind"], **values)


class _ConstantModel:
    def __init__(self, label: int):
        self.label = label

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.label, dtype=np.int64)


class _StumpModel:
    def __init__(self, feature: int, threshold: float, polarity: int):
        self.feature = feature
        self.threshold = threshold
        self.polarity = polarity  # +1: predict 1 above threshold, -1: below

    def predict(self, X: np.ndarray) -> np.ndarray:
        above = X[:, self.feature] > self.threshold
        if self.polarity > 0:
            return above.astype(np.int64)
        return (~above).astype(np.int64)


class _LinearModel:
    def __init__(self, weights: np.ndarray, bias: float):
        self.weights = weights
        self.bias = bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (X @ self.weights + self.bias >= 0.0).astype(np.int64)


def _majority_label(y: np.ndarray) -> int:
    ones = int(y.sum())
    zeros = len(y) - ones
    return 1 if ones >= zeros else 0


def _train_stump(X: np.ndarray, y: np.ndarray) -> _StumpModel:
    """Exhaustive best single-feature threshold split (ties: lowest error,
    then lowest feature, lowest threshold, polarity +1 first)."""
    n = len(y)
    total_ones = int(y.sum())
    best: tuple | None = None  # (errors, feature, threshold, -polarity)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        ones_below = np.concatenate(([0], np.cumsum(ys)))
        # Candidate split points between distinct consecutive values, plus
        # the everything-above split at -inf.
        ks = np.concatenate(([0], np.flatnonzero(xs[1:] > xs[:-1]) + 1))
        thresholds = np.where(ks == 0, -np.inf, (xs[ks - 1] + xs[np.minimum(ks, n - 1)]) / 2.0)
        ones_lo = ones_below[ks]
        # polarity +1 predicts 1 for x > threshold; -1 predicts 1 for x <= it
        err_pos = ones_lo + (n - ks - (total_ones - ones_lo))
        err_neg = n - err_pos
        for errs, pol in ((err_pos, 1), (err_neg, -1)):
            i = int(np.argmin(errs))  # first minimum -> lowest threshold
            cand = (int(errs[i]), j, float(thresholds[i]), -pol)
            if best is None or cand < best:
                best = cand
    assert best is not None
    _, feature, threshold, neg_pol = best
    return _StumpModel(feature, threshold, -neg_pol)


_SGD_BLOCK_ROWS = 4096


def _train_logreg_sgd(
    X: np.ndarray, y: np.ndarray, spec: LearnerSpec, rng: np.random.Generator
) -> _LinearModel:
    """Minibatch SGD on the logistic loss, zero-initialized, seeded shuffles.

    Each epoch draws one permutation of the rows and takes the minibatches
    in its order. Per minibatch of ``m`` rows ``Xb, yb``::

        z = Xb @ w + b
        p = 1 / (1 + exp(-clip(z, -35, 35)))
        r = p - yb
        w -= lr * (Xb.T @ r / m + l2 * w)
        b -= lr * (sum(r) / m)

    The weights and the bias are bit-identical to that loop written with
    fresh arrays (``tests/test_probes.py`` keeps it as the reference): every
    floating-point operation has the same operands in the same order, only
    the memory it reads and writes changes. ``l2 * w`` is added even when
    ``l2`` is 0: ``0 * w`` is NaN for an overflowed weight, so skipping the
    term would change the result of a diverging run.

    The permuted rows are gathered a block at a time, a multiple of the batch
    size, into buffers reused for the whole probe, and each minibatch is a
    contiguous slice of its block. Gathering every minibatch on its own costs
    two fancy-index calls per batch; gathering a whole permuted copy of ``X``
    per epoch costs a second copy of the training sample in memory.

    At 64 rows by 5 features a minibatch is a few microseconds of arithmetic
    under many more of Python-to-NumPy calls, so the loop makes as few calls
    as it can. The views of each minibatch (its rows and their transpose,
    its labels, its part of the ``z`` and ``p`` buffers) are built once per
    probe: a full block always has the same length, and so does the tail
    block in every epoch. The matrix-vector products go through
    ``ndarray.dot(..., out=)``, the same BLAS call as ``np.matmul`` with
    about half its dispatch cost. The sign flip stays a separate
    ``negative`` on ``z``: folding it into the features, as
    ``(-X) @ w - b``, flips the sign bit of a NaN weight in a run that
    overflows.
    """
    n, d = X.shape
    bs = spec.batch_size
    lr = spec.learning_rate
    l2 = spec.l2
    block = max(1, _SGD_BLOCK_ROWS // bs) * bs
    X_blk = np.empty((min(block, n), d))
    y_blk = np.empty(min(block, n))
    y = y.astype(np.float64)  # exact for 0/1 labels
    z = np.empty(min(bs, n))
    p = np.empty_like(z)
    grad = np.empty(d)
    decay = np.empty(d)
    w = np.zeros(d)
    b = 0.0

    def batch_views(k: int) -> list[tuple]:
        """Per minibatch of a block of ``k`` rows: ``(Xb.dot, Xb.T.dot, yb,
        z[:m], p[:m], m)``."""
        views = []
        for start in range(0, k, bs):
            Xb = X_blk[start : min(start + bs, k)]
            m = len(Xb)
            views.append((Xb.dot, Xb.T.dot, y_blk[start : start + m], z[:m], p[:m], m))
        return views

    # Blocks hold ``block`` rows, but the last one ``n % block``; a sample
    # smaller than one block is all tail.
    batches = {k: batch_views(k) for k in {min(block, n), n % block} if k}
    take, add, maximum, minimum = np.take, np.add, np.maximum, np.minimum
    negative, exp, divide, subtract = np.negative, np.exp, np.divide, np.subtract
    multiply, add_reduce = np.multiply, np.add.reduce
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, block):
            idx = order[lo : lo + block]
            k = len(idx)
            # mode="clip": under the default "raise", take buffers ``out``.
            take(X, idx, axis=0, out=X_blk[:k], mode="clip")
            take(y, idx, out=y_blk[:k], mode="clip")
            for Xb_dot, XbT_dot, yb, zb, pb, m in batches[k]:
                Xb_dot(w, out=zb)
                add(zb, b, out=zb)
                maximum(zb, -35.0, out=zb)
                minimum(zb, 35.0, out=zb)
                negative(zb, out=zb)
                exp(zb, out=pb)
                add(1.0, pb, out=pb)
                divide(1.0, pb, out=pb)
                subtract(pb, yb, out=pb)
                XbT_dot(pb, out=grad)
                divide(grad, m, out=grad)
                multiply(l2, w, out=decay)
                add(grad, decay, out=grad)
                grad_b = add_reduce(pb) / m
                multiply(lr, grad, out=grad)
                subtract(w, grad, out=w)
                b -= lr * grad_b
    return _LinearModel(w, b)


def _fit(X: np.ndarray, y: np.ndarray, spec: LearnerSpec, rng: np.random.Generator):
    classes = np.unique(y)
    if len(classes) < 2:
        logger.warning(
            "degenerate training sample (single class %d); using constant model",
            int(classes[0]),
        )
        return _ConstantModel(int(classes[0]))
    if spec.kind == "majority_class":
        return _ConstantModel(_majority_label(y))
    if spec.kind == "decision_stump":
        return _train_stump(X, y)
    return _train_logreg_sgd(X, y, spec, rng)


def _accuracy(model, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(model.predict(X) == y))


def probe_learner(
    handle: DatasetHandle,
    learner: LearnerSpec,
    s_tr: int,
    s_te: int,
    seed,
) -> ProbeOutcome:
    """Train on the nested train sample, evaluate on it and on the nested
    test sample; cost is the measured wall time of the whole probe."""
    t0 = time.perf_counter()
    X, y = handle.train_arrays(s_tr)
    rng = np.random.default_rng(seed)
    model = _fit(X, y, learner, rng)
    train_acc = _accuracy(model, X, y)
    X_te, y_te = handle.test_arrays(s_te)
    test_acc = _accuracy(model, X_te, y_te)
    cost = time.perf_counter() - t0
    return ProbeOutcome(
        train_sample_size=s_tr,
        test_sample_size=s_te,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        cost=cost,
    )


class LearnerBackend:
    """Probe backend over a dataset and a list of learner specs.

    ``cost_model`` optionally replaces measured wall time with
    ``kappa * s_tr**alpha`` per configuration, which makes traces
    reproducible across machines.
    """

    def __init__(
        self,
        handle: DatasetHandle,
        learners: Sequence[LearnerSpec],
        seed: int = 0,
        cost_model: Sequence[tuple[float, float]] | None = None,
    ):
        if not learners:
            raise ValueError("need at least one learner")
        if cost_model is not None and [len(p) for p in cost_model] != [2] * len(learners):
            raise ValueError("cost_model must give one (kappa, alpha) pair per learner")
        for kappa, alpha in cost_model or ():
            if not (0.0 < kappa < math.inf and 0.0 < alpha < math.inf):
                raise ValueError(f"cost_model needs finite kappa, alpha > 0, got {kappa}, {alpha}")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self._handle = handle
        self._learners = tuple(learners)
        self._seed = seed
        self._cost_model = tuple(cost_model) if cost_model is not None else None

    @property
    def handle(self) -> DatasetHandle:
        return self._handle

    @property
    def n_configs(self) -> int:
        return len(self._learners)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(spec.label for spec in self._learners)

    @property
    def max_train_size(self) -> int:
        return self._handle.train_size

    @property
    def max_test_size(self) -> int:
        return self._handle.test_size

    def _spec(self, config_id: int) -> LearnerSpec:
        if not 1 <= config_id <= self.n_configs:
            raise ValueError(f"config id {config_id} out of range 1..{self.n_configs}")
        return self._learners[config_id - 1]

    def probe(self, config_id: int, s_tr: int, s_te: int) -> ProbeOutcome:
        spec = self._spec(config_id)
        seed_seq = np.random.SeedSequence([self._seed, config_id, s_tr])
        outcome = probe_learner(self._handle, spec, s_tr, s_te, seed_seq)
        if self._cost_model is not None:
            kappa, alpha = self._cost_model[config_id - 1]
            outcome = replace(outcome, cost=kappa * float(s_tr) ** alpha)
        return outcome

    def estimate_cost(self, config_id: int, s_tr: int, s_te: int) -> float | None:
        if self._cost_model is None:
            return None
        kappa, alpha = self._cost_model[config_id - 1]
        return kappa * float(s_tr) ** alpha

    def true_accuracy(self, config_id: int) -> None:
        return None
