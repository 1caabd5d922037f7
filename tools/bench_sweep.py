"""Scheduler cost sweep, family table, experiment grid and learner probes,
written as a BENCH_<pr>.json record.

    python3 tools/bench_sweep.py --out BENCH_9.json --parent ../parent --repeats 10
    python3 tools/bench_sweep.py --quick --out .bench_out/sweep-quick.json

Run from the root of a checkout; the program is imported from ``src/``.
Each pass, in a fresh process, records:

* the sweep: ``run_abc`` on the uniform synthetic family (n stratified
  curves, a Latin hypercube over the curve parameters with ``a_inf`` on
  [0.6, 0.9]; 4M train rows, 8M test rows, epsilon 0.01, delta 0.5) at
  n = 10 to 10,000 under every scheduler: rounds, µs per round and the
  trace's SHA-256;
* the family table: every shipped adversarial family under every
  scheduler, backend seed 1000 + run: epsilon misses, runs in which a
  round prunes its own incumbent (self-prunes), runs that end with more
  than the selection active (uncertified survivors), runs with a
  "disjoint from snapshot" flag, runs whose selection ends with a
  ``ci.lower`` below the largest ``ci.lower`` of its trace
  (incumbent-lower drift), the median model-cost ratio (the selection's
  ``wall_cost_total`` over the sum of every curve's full-data cost), union
  overruns (runs of more than n² rounds, and the largest rounds / n²), the
  pooled violation rate of ``harness.containment_audit`` over the runs
  beside its delta / n² threshold, and a digest of the runs' traces;
* the experiment: ``run_experiment`` (one worker) on a grid like the
  benchmark's ``grid_small_n`` (four shipped families with 20
  configurations, all five methods, epsilon 0.01 and 0.05, n = 4 and 20,
  20 repetitions), with and without its budget grid: wall seconds and a
  SHA-256 over the sorted metrics rows;
* the learner probes: ``LearnerBackend.probe`` for every learner of the
  acceptance suite's criterion-11 grid at s_tr = 8,000 and 64,000 (test
  sample twice that, capped at the test part) on a seeded in-memory
  dataset of 100k rows by 5 features: seconds per learner kind (each
  probe's median over repeats that fill 0.5 s), µs per SGD minibatch and
  a SHA-256 over each SGD model's weights and bias;
* learner_csv end to end: ``abcselect run --final-train`` in-process on the
  benchmark's ``learner_csv`` input (``abcbench/workloads.py``, 100k rows)
  for seeds 1 to 5: wall seconds and the SHA-256 of the trace and report
  each run writes, and the peak RSS of the pass's reaped child processes
  (``RUSAGE_CHILDREN``: the sweep-probe workers, which the benchmark's
  ``RUSAGE_SELF`` figure does not see);
* wide_synthetic end to end: the benchmark's ``wide_synthetic`` unit
  (``abcbench/workloads.py``: one gradient-CI ``run_abc`` over n = 2000
  curves, the audit of its trace and the trace's SHA-256) for seeds 1 to 5,
  each the median of several units: unit seconds, the trace's SHA-256, and
  on that trace the audit's replay µs per round and ``RunTrace.to_jsonl``
  ms;
* synthetic probes: ``SyntheticBackend.probe`` over a fixed key list, the
  keys a gradient-CI run visits on the sweep's family at n = 10, 100, 2000
  and 10,000, once with the sweep's seed and once with a 63-bit
  ``run_experiment`` cell seed (entries ``<n>-cell``): µs per probe on a
  fresh backend over a fresh copy of the instance (cold: it draws its
  rungs), again on the same backend (warm) and on a fresh backend over
  an instance that another backend has drawn from (experiment cell), and
  a SHA-256 over the cold and the experiment-cell outcomes.

With ``--parent DIR`` the checkout at ``DIR`` is measured too, each repeat
running the two in alternating order, so that both sides see the same
host. µs per round is the median over repeats; the family table is
machine-independent and is taken once per side; the experiment's wall
seconds, the learner timings, the learner_csv wall seconds, the
wide_synthetic unit seconds, audit µs per round and to_jsonl ms (each
summed over the seeds) and the synthetic probe timings are kept per pass,
so that pass i of the two sides is a pair. The record also carries the
machine, the number of traces, experiment metrics rows, SGD weight
digests, learner_csv runs, wide_synthetic traces and synthetic probe
outcome lists that differ between the sides (none may move), and the
gate: µs per round at the largest n over that at the smallest, per
scheduler. ``--quick`` runs a tiny version, as a self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

NS = (10, 100, 1000, 3000, 10000)
QUICK_NS = (10, 100)
# Sizes of the synthetic probe timings: two small n, the benchmark's
# wide_synthetic n and the sweep's largest.
PROBE_NS, QUICK_PROBE_NS = (10, 100, 2000, 10000), (10, 100)
# Family -> runs, as in the acceptance suite's certified-families test.
FAMILY_RUNS = {"plateau": 50, "sweep": 40, "monte_carlo": 40, "skewed": 40, "decoy": 40}
SWEEP_SEED = 3
EPSILON, DELTA = 0.01, 0.5
# The shape of the benchmark's grid_small_n input: family seed, budgets and
# repetitions.
EXPERIMENT_SEED, EXPERIMENT_BUDGETS, EXPERIMENT_REPS = 5, (2.0e5, 2.0e6), 20
# Train sample sizes of the learner probes: one eighth of the benchmark's
# learner_csv train part and nearly all of it. The quick sizes still reach
# past one gathered block of the SGD kernel (4,096 rows).
LEARNER_SIZES, QUICK_LEARNER_SIZES = (8000, 64000), (500, 5000)
LEARNER_ROWS, LEARNER_SEED = 100_000, 12345
# Seeds and rows of the learner_csv runs; the quick rows are the benchmark's
# own quick size.
CSV_SEEDS, QUICK_CSV_SEEDS, CSV_ROWS, QUICK_CSV_ROWS = (1, 2, 3, 4, 5), (1,), 100_000, 3000
# The synthetic probe timings, in µs per probe.
SYNTHETIC_TIMINGS = ("cold_us_per_probe", "warm_us_per_probe", "experiment_cell_us_per_probe")
# Seeds and units per seed of the wide_synthetic runs; the quick ones run
# the benchmark's own quick size (n = 60).
WIDE_SEEDS, QUICK_WIDE_SEEDS, WIDE_UNITS = (1, 2, 3, 4, 5), (1,), 5


def _worker(
    src: str, ns: tuple[int, ...], family_runs: int, min_seconds: float, experiment_reps: int,
    learner_sizes: tuple[int, ...], csv_seeds: tuple[int, ...], csv_rows: int,
    wide_seeds: tuple[int, ...], wide_units: int, probe_ns: tuple[int, ...],
) -> dict:
    """One pass over the program under ``src``, with up to ``family_runs``
    runs per family and scheduler, ``experiment_reps`` repetitions per
    experiment cell (0: no experiment), learner probes at ``learner_sizes``,
    learner_csv runs for ``csv_seeds`` on ``csv_rows`` rows and
    ``wide_units`` wide_synthetic units per seed of ``wide_seeds`` (the
    quick size when ``wide_units`` is 1) and synthetic probes at
    ``probe_ns``; returns the measurements."""
    sys.path.insert(0, src)
    import dataclasses
    import logging

    import numpy as np

    from abcselect import harness
    from abcselect.core import RunParams, initial_states
    from abcselect.engine import run_abc
    from abcselect.probes import CurveSpec, SyntheticBackend, SyntheticInstance
    from abcselect.scheduler import SchedulerKind

    logging.getLogger("abcselect").setLevel(logging.ERROR)

    def uniform(n: int) -> SyntheticInstance:
        rng = np.random.default_rng(SWEEP_SEED)
        columns = [
            low + (high - low) * (rng.permutation(n) + 0.5) / n
            for low, high in ((0.6, 0.9), (0.3, 0.5), (0.45, 0.6), (0.15, 0.3), (0.4, 0.6))
        ]
        curves = tuple(
            CurveSpec(a_inf=float(a), b=float(b), beta=float(beta), overfit_gap=float(gap),
                      gamma=float(gamma), kappa=1.0, alpha=1.0)
            for a, b, beta, gap, gamma in zip(*columns)
        )
        return SyntheticInstance(f"uniform-{SWEEP_SEED}-{n}", curves, 4_000_000, 8_000_000)

    def run(instance: SyntheticInstance, seed: int, kind):
        backend = SyntheticBackend(instance, seed=seed)
        params = RunParams(EPSILON, DELTA, instance.n_configs, 1000, 2000, 2.0, 1.0,
                           instance.max_train_size, instance.max_test_size, seed)
        states = initial_states(list(backend.labels), params)
        start = time.perf_counter()
        selected, trace = run_abc(states, backend, params, kind)
        return time.perf_counter() - start, selected, trace, states, params

    kinds = list(SchedulerKind)
    for kind in kinds:  # warm caches and imports before timing
        run(uniform(10), SWEEP_SEED, kind)

    sweep: dict[str, dict] = {}
    for n in ns:
        instance = uniform(n)
        for kind in kinds:
            per_round, spent = [], 0.0
            while not per_round or spent < min_seconds:
                seconds, _, trace, _, _ = run(instance, SWEEP_SEED, kind)
                per_round.append(seconds / trace.n_rounds * 1e6)
                spent += seconds
            sweep.setdefault(kind.value, {})[str(n)] = {
                "us_per_round": statistics.median(per_round),
                "runs": len(per_round),
                "rounds": trace.n_rounds,
                "trace_sha256": hashlib.sha256(trace.to_jsonl().encode()).hexdigest(),
            }

    synthetic: dict[str, dict] = {}
    for n, cell in ((n, cell) for n in probe_ns for cell in (False, True)):
        instance = uniform(n)
        seed = (harness.cell_seed(EXPERIMENT_SEED, "abc_gradient_ci", instance.name, n, EPSILON, 0)
                if cell else SWEEP_SEED)
        backend = SyntheticBackend(instance, seed=seed)
        keys, probe = [], backend.probe

        def recording_probe(*key):
            keys.append(key)
            return probe(*key)

        backend.probe = recording_probe
        params = RunParams(EPSILON, DELTA, n, 1000, 2000, 2.0, 1.0,
                           instance.max_train_size, instance.max_test_size, seed)
        run_abc(initial_states(list(backend.labels), params), backend, params,
                SchedulerKind.GRADIENT_CI)
        # cold: a fresh backend over a fresh copy of the instance; warm: the
        # same backend again; experiment cell: a fresh backend over the
        # instance that the recorded run has drawn from.
        samples, outcomes, spent = {key: [] for key in SYNTHETIC_TIMINGS}, {}, 0.0
        while not outcomes or spent < min_seconds:
            fresh = SyntheticBackend(dataclasses.replace(instance), seed=seed)
            backends = (fresh, fresh, SyntheticBackend(instance, seed=seed))
            for name, backend in zip(SYNTHETIC_TIMINGS, backends):
                start = time.perf_counter()
                outcomes[name] = [backend.probe(*key) for key in keys]
                seconds = time.perf_counter() - start
                samples[name].append(seconds / len(keys) * 1e6)
                spent += seconds
        cold, _, cell_case = (repr(outcomes[name]).encode() for name in SYNTHETIC_TIMINGS)
        synthetic[f"{n}-cell" if cell else str(n)] = {
            "seed": seed,
            "keys": len(keys),
            "rungs": len(set(key[1:] for key in keys)),
            **{name: statistics.median(values) for name, values in samples.items()},
            "outcomes_sha256": hashlib.sha256(cold).hexdigest(),
            "experiment_cell_outcomes_sha256": hashlib.sha256(cell_case).hexdigest(),
        }

    families: dict[str, dict] = {}
    makers = {
        "plateau": harness.make_plateau_instance,
        "sweep": harness.make_sweep_instance,
        "monte_carlo": harness.make_monte_carlo_instance,
        "skewed": harness.make_skewed_cost_instance,
        "decoy": harness.make_expensive_decoy_instance,
    }
    for family, runs in FAMILY_RUNS.items() if family_runs else ():
        for kind in kinds:
            row = {"runs": 0, "epsilon_misses": 0, "self_prunes": 0,
                   "uncertified_survivors": 0, "snapshot_disjoint_runs": 0,
                   "incumbent_lower_drift_runs": 0, "union_overrun_runs": 0,
                   "run_digests": []}
            cost_ratios, rounds_over_n2, traces = [], [], []
            for seed in range(min(runs, family_runs)):
                instance = makers[family](seed)
                _, selected, trace, states, params = run(instance, 1000 + seed, kind)
                truths = trace.true_accuracies
                full_cost = sum(c.cost(instance.max_train_size) for c in instance.curves)
                final_lower = next(c.ci.lower for c in states if c.id == selected)
                row["runs"] += 1
                row["epsilon_misses"] += max(truths.values()) - truths[selected] > EPSILON
                row["self_prunes"] += any(r.incumbent_id in r.pruned_ids for r in trace.rounds)
                row["uncertified_survivors"] += [c.id for c in states if c.active] != [selected]
                row["snapshot_disjoint_runs"] += any(
                    "disjoint from snapshot" in flag for flag in trace.flags)
                row["incumbent_lower_drift_runs"] += final_lower < max(
                    r.ci.lower for r in trace.rounds)
                row["run_digests"].append(hashlib.sha256(trace.to_jsonl().encode()).hexdigest())
                cost_ratios.append(trace.wall_cost_total / full_cost)
                rounds_over_n2.append(trace.n_rounds / instance.n_configs**2)
                row["union_overrun_runs"] += trace.n_rounds > instance.n_configs**2
                traces.append(trace)
            row["cost_ratio_median"] = statistics.median(cost_ratios)
            row["rounds_over_n2_max"] = round(max(rounds_over_n2), 4)
            containment = harness.containment_audit(traces)
            row["containment_probes"] = containment.pooled_probes
            row["containment_violations"] = containment.pooled_violations
            row["containment_rate"] = round(containment.pooled_rate, 6)
            row["containment_threshold"] = round(containment.threshold, 6)
            families.setdefault(family, {})[kind.value] = row

    def experiment_spec(reps: int):
        seed = EXPERIMENT_SEED
        return harness.ExperimentSpec(
            sources=(
                harness.InstanceSource(
                    "plateau", synthetic=harness.make_plateau_instance(seed, n_fillers=18)),
                harness.InstanceSource(
                    "expensive-decoy",
                    synthetic=harness.make_expensive_decoy_instance(seed, n_fillers=18)),
                harness.InstanceSource(
                    "skewed-cost", synthetic=harness.make_skewed_cost_instance(seed, n=20)),
                harness.InstanceSource(
                    "sweep", synthetic=harness.make_sweep_instance(seed, n=20)),
            ),
            methods=harness.METHODS,
            epsilon_grid=(0.01, 0.05),
            n_configs_grid=(4, 20),
            repetitions=reps,
            base_seed=seed,
            budget_grid=EXPERIMENT_BUDGETS,
            delta=DELTA,
        )

    experiment: dict[str, dict] = {}
    if experiment_reps:
        harness.run_experiment(experiment_spec(1))  # warm caches and imports
        spec = experiment_spec(experiment_reps)
        for name, variant in (("budget_grid", spec),
                              ("no_budget_grid", dataclasses.replace(spec, budget_grid=()))):
            start = time.perf_counter()
            rows = harness.run_experiment(variant, workers=1)
            seconds = time.perf_counter() - start
            records = {
                f"{r.method}|{r.instance}|{r.epsilon!r}|{r.seed}":
                    json.dumps(r.to_record(), sort_keys=True)
                for r in rows
            }
            experiment[name] = {
                "wall_s": seconds,
                "rows": len(rows),
                "rows_sha256": hashlib.sha256(
                    "\n".join(sorted(records.values())).encode()).hexdigest(),
                "row_digests": {
                    key: hashlib.sha256(rec.encode()).hexdigest()[:16]
                    for key, rec in records.items()
                },
            }
    learner = _learner_probes(learner_sizes, min_seconds) if learner_sizes else {}
    learner_csv = _learner_csv(Path(src).parent, csv_seeds, csv_rows) if csv_seeds else {}
    wide = _wide(Path(src).parent, wide_seeds, wide_units) if wide_seeds else {}
    return {"sweep": sweep, "families": families, "experiment": experiment, "learner": learner,
            "learner_csv": learner_csv, "wide": wide, "synthetic": synthetic}


# The acceptance suite's criterion-11 grid: four SGD variants, a stump and the
# majority class.
LEARNERS = (
    {"kind": "logistic_regression_sgd", "learning_rate": 0.3, "epochs": 10, "batch_size": 64},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.2, "epochs": 8, "batch_size": 64},
    {"kind": "decision_stump"},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.0005, "epochs": 100, "batch_size": 64},
    {"kind": "logistic_regression_sgd", "learning_rate": 0.0003, "epochs": 100, "l2": 0.001,
     "batch_size": 64},
    {"kind": "majority_class"},
)


def _learner_probes(sizes: tuple[int, ...], min_seconds: float) -> dict:
    """Time ``LearnerBackend.probe`` per learner and train size: the median
    of as many probes as fill ``min_seconds``, at least one.

    The SGD models' weights are read by wrapping ``probes._train_logreg_sgd``,
    which ``probes`` looks up on every fit, so no model is trained twice."""
    import numpy as np

    from abcselect import probes

    rng = np.random.default_rng(LEARNER_SEED)
    features = rng.normal(size=(LEARNER_ROWS, 5))
    labels = (features @ rng.normal(size=5) > 0).astype(int)
    handle = probes.DatasetHandle(features, labels, holdout=0.3, seed=7)
    specs = [probes.LearnerSpec.from_dict(d) for d in LEARNERS]
    backend = probes.LearnerBackend(handle, specs, seed=7)

    models = []
    train = probes._train_logreg_sgd

    def recording_train(X, y, spec, rng):
        model = train(X, y, spec, rng)
        models.append(model)
        return model

    probes._train_logreg_sgd = recording_train
    try:
        for config_id in range(1, len(specs) + 1):  # warm caches before timing
            backend.probe(config_id, 200, 200)
        out = {}
        for s_tr in sizes:
            s_te = min(2 * s_tr, backend.max_test_size)
            seconds = dict.fromkeys(sorted({spec.kind for spec in specs}), 0.0)
            minibatches, digests = 0, {}
            for config_id, spec in enumerate(specs, start=1):
                models.clear()
                runs = []
                while not runs or sum(runs) < min_seconds:
                    start = time.perf_counter()
                    backend.probe(config_id, s_tr, s_te)
                    runs.append(time.perf_counter() - start)
                seconds[spec.kind] += statistics.median(runs)
                if spec.kind == "logistic_regression_sgd":
                    minibatches += spec.epochs * -(-s_tr // spec.batch_size)
                    model = models[0]
                    weights = model.weights.tobytes() + np.float64(model.bias).tobytes()
                    digests[spec.label] = hashlib.sha256(weights).hexdigest()
            out[str(s_tr)] = {
                "seconds_per_kind": seconds,
                "sgd_minibatches": minibatches,
                "sgd_us_per_minibatch": seconds["logistic_regression_sgd"] / minibatches * 1e6,
                "sgd_weights_sha256": digests,
            }
    finally:
        probes._train_logreg_sgd = train
    return out


def _learner_csv(root: Path, seeds: tuple[int, ...], rows: int) -> dict:
    """``abcselect run --final-train``, timed, on the benchmark's learner_csv
    input of each seed, written by the checkout's own ``abcbench``."""
    import contextlib
    import io
    import resource
    import tempfile

    sys.path.insert(0, str(root / "abcbench"))
    import workloads

    from abcselect import cli

    runs, wall_s = {}, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            inp = workloads.learner_setup(seed, rows, Path(tmp) / str(seed))
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(["run", str(inp.config), "--final-train"])
                wall_s += time.perf_counter() - start
            if code != cli.EXIT_OK:
                raise SystemExit(f"learner_csv seed {seed}: abcselect run exited {code}")
            runs[str(seed)] = {
                f"{name}_sha256": hashlib.sha256((inp.directory / file).read_bytes()).hexdigest()
                for name, file in (("trace", "trace.jsonl"), ("report", "report.json"))
            }
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"runs": runs, "wall_s": wall_s, "children_peak_rss_mb": children}


def _wide(root: Path, seeds: tuple[int, ...], units: int) -> dict:
    """The benchmark's wide_synthetic unit, written by the checkout's own
    ``abcbench``, ``units`` times per seed: per seed the median unit
    seconds, rounds and trace SHA-256, and the medians of the audit's replay
    and ``to_jsonl`` timed apart on the unit's trace; per pass their sums
    over the seeds (audit time over rounds)."""
    import gc

    sys.path.insert(0, str(root / "abcbench"))
    import workloads

    from abcselect import harness

    runs, unit_s, audit_s, jsonl_s, rounds = {}, 0.0, 0.0, 0.0, 0
    for seed in seeds:
        inp = workloads.wide_setup(seed, quick=units == 1)
        walls, audits, jsonls = [], [], []
        for _ in range(units):
            gc.collect()  # as the benchmark does before each unit
            start = time.perf_counter()
            out = workloads.wide_unit(inp)
            walls.append(time.perf_counter() - start)
            trace = out["trace"]
            start = time.perf_counter()
            harness.structural_audit(trace.rounds, inp.params)
            audits.append(time.perf_counter() - start)
            start = time.perf_counter()
            trace.to_jsonl()
            jsonls.append(time.perf_counter() - start)
        runs[str(seed)] = {"rounds": trace.n_rounds, "trace_sha256": out["digest"]}
        unit_s += statistics.median(walls)
        audit_s += statistics.median(audits)
        jsonl_s += statistics.median(jsonls)
        rounds += trace.n_rounds
    return {"runs": runs, "unit_s": unit_s, "audit_us_per_round": audit_s / rounds * 1e6,
            "jsonl_ms": jsonl_s * 1e3}


def _machine() -> dict:
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _pass(root: Path, ns, family_runs: int, min_seconds: float, experiment_reps: int,
          learner_sizes, csv_seeds, csv_rows: int, wide_seeds, wide_units: int,
          probe_ns) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root / "src"),
           "--ns", ",".join(map(str, ns)), "--family-runs", str(family_runs),
           "--min-seconds", str(min_seconds), "--experiment-reps", str(experiment_reps),
           "--learner-sizes", ",".join(map(str, learner_sizes)),
           "--csv-seeds", ",".join(map(str, csv_seeds)), "--csv-rows", str(csv_rows),
           "--wide-seeds", ",".join(map(str, wide_seeds)), "--wide-units", str(wide_units),
           "--probe-ns", ",".join(map(str, probe_ns))]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _side(passes: list[dict]) -> dict:
    """Median µs per round, experiment wall seconds, learner timings and
    learner_csv wall seconds over the passes; digests must agree."""
    sweep = {}
    for kind, cells in passes[0]["sweep"].items():
        sweep[kind] = {}
        for n, cell in cells.items():
            samples = [p["sweep"][kind][n] for p in passes]
            if len({s["trace_sha256"] for s in samples}) != 1:
                raise SystemExit(f"{kind} n={n}: traces differ between passes")
            sweep[kind][n] = {
                "us_per_round": round(statistics.median(s["us_per_round"] for s in samples), 2),
                "us_per_round_passes": [round(s["us_per_round"], 2) for s in samples],
                "rounds": cell["rounds"],
                "trace_sha256": cell["trace_sha256"],
            }
    families = {
        family: {
            kind: {
                **{k: v for k, v in row.items() if k != "run_digests"},
                "traces_sha256": hashlib.sha256("".join(row["run_digests"]).encode()).hexdigest(),
            }
            for kind, row in rows.items()
        }
        for family, rows in passes[0]["families"].items()
    }
    experiment = {}
    for name, first in passes[0]["experiment"].items():
        samples = [p["experiment"][name] for p in passes]
        if len({s["rows_sha256"] for s in samples}) != 1:
            raise SystemExit(f"experiment {name}: rows differ between passes")
        walls = [s["wall_s"] for s in samples]
        experiment[name] = {
            "wall_s": round(statistics.median(walls), 3),
            "wall_s_passes": [round(w, 3) for w in walls],
            "rows": first["rows"],
            "rows_sha256": first["rows_sha256"],
        }
    learner = {}
    for size, first in passes[0]["learner"].items():
        samples = [p["learner"][size] for p in passes]
        if any(s["sgd_weights_sha256"] != first["sgd_weights_sha256"] for s in samples):
            raise SystemExit(f"learner s_tr={size}: SGD weights differ between passes")
        us = [s["sgd_us_per_minibatch"] for s in samples]
        learner[size] = {
            "seconds_per_kind": {
                kind: round(statistics.median(s["seconds_per_kind"][kind] for s in samples), 4)
                for kind in first["seconds_per_kind"]
            },
            "sgd_minibatches": first["sgd_minibatches"],
            "sgd_us_per_minibatch": round(statistics.median(us), 2),
            "sgd_us_per_minibatch_passes": [round(u, 2) for u in us],
            "sgd_weights_sha256": first["sgd_weights_sha256"],
        }
    learner_csv = {}
    if passes[0]["learner_csv"]:
        samples = [p["learner_csv"] for p in passes]
        if any(s["runs"] != samples[0]["runs"] for s in samples):
            raise SystemExit("learner_csv: traces or reports differ between passes")
        walls = [s["wall_s"] for s in samples]
        learner_csv = {
            "wall_s": round(statistics.median(walls), 3),
            "wall_s_passes": [round(w, 3) for w in walls],
            "children_peak_rss_mb_passes": [round(s["children_peak_rss_mb"], 2) for s in samples],
            "runs": samples[0]["runs"],
        }
    wide = {}
    if passes[0]["wide"]:
        samples = [p["wide"] for p in passes]
        if any(s["runs"] != samples[0]["runs"] for s in samples):
            raise SystemExit("wide_synthetic: traces differ between passes")
        wide = {"runs": samples[0]["runs"]}
        for key, digits in (("unit_s", 4), ("audit_us_per_round", 2), ("jsonl_ms", 2)):
            values = [s[key] for s in samples]
            wide[key] = round(statistics.median(values), digits)
            wide[f"{key}_passes"] = [round(v, digits) for v in values]
    synthetic = {}
    for n, first in passes[0]["synthetic"].items():
        samples = [p["synthetic"][n] for p in passes]
        if len({(s["outcomes_sha256"], s["experiment_cell_outcomes_sha256"])
                for s in samples}) != 1:
            raise SystemExit(f"synthetic probes n={n}: outcomes differ between passes")
        synthetic[n] = {k: first[k] for k in ("seed", "keys", "rungs", "outcomes_sha256",
                                              "experiment_cell_outcomes_sha256")}
        for key in SYNTHETIC_TIMINGS:
            values = [s[key] for s in samples]
            synthetic[n][key] = round(statistics.median(values), 2)
            synthetic[n][f"{key}_passes"] = [round(v, 2) for v in values]
    gate = {}
    for kind, cells in sweep.items():
        ns = sorted(cells, key=int)
        ratio = cells[ns[-1]]["us_per_round"] / cells[ns[0]]["us_per_round"]
        gate[kind] = {"ratio": round(ratio, 2), "within_2x": ratio <= 2.0,
                      "n": [int(ns[0]), int(ns[-1])]}
    return {"sweep": sweep, "families": families, "experiment": experiment,
            "learner": learner, "learner_csv": learner_csv, "wide": wide,
            "synthetic": synthetic, "gate": gate}


def _moved(parent: dict, change: dict) -> dict:
    """Traces that differ between the two sides' first passes."""
    sweep_cells = [(k, n) for k, cells in change["sweep"].items() for n in cells]
    moved_sweep = [
        f"{k} n={n}" for k, n in sweep_cells
        if parent["sweep"][k][n]["trace_sha256"] != change["sweep"][k][n]["trace_sha256"]
    ]
    runs = moved_runs = 0
    for family, rows in change["families"].items():
        for kind, row in rows.items():
            old = parent["families"][family][kind]["run_digests"]
            runs += len(row["run_digests"])
            moved_runs += sum(a != b for a, b in zip(old, row["run_digests"]))
    rows = moved_rows = 0
    for name, side in change["experiment"].items():
        old, new = parent["experiment"][name]["row_digests"], side["row_digests"]
        rows += len(new)
        moved_rows += sum(old.get(key) != digest for key, digest in new.items())
        moved_rows += sum(key not in new for key in old)
    weights = moved_weights = 0
    for size, side in change["learner"].items():
        old = parent["learner"][size]["sgd_weights_sha256"]
        weights += len(side["sgd_weights_sha256"])
        moved_weights += sum(old.get(k) != v for k, v in side["sgd_weights_sha256"].items())
    old_csv = parent["learner_csv"].get("runs", {})
    new_csv = change["learner_csv"].get("runs", {})
    moved_csv = sum(old_csv.get(seed) != run for seed, run in new_csv.items())
    old_wide = parent["wide"].get("runs", {})
    new_wide = change["wide"].get("runs", {})
    moved_wide = sum(old_wide.get(seed) != run for seed, run in new_wide.items())
    moved_probes = sum(
        any(parent["synthetic"].get(n, {}).get(key) != side[key]
            for key in ("outcomes_sha256", "experiment_cell_outcomes_sha256"))
        for n, side in change["synthetic"].items()
    )
    return {"sweep_cells": len(sweep_cells), "moved_sweep_cells": moved_sweep,
            "family_runs": runs, "moved_family_runs": moved_runs,
            "experiment_rows": rows, "moved_experiment_rows": moved_rows,
            "sgd_weights": weights, "moved_sgd_weights": moved_weights,
            "learner_csv_runs": len(new_csv), "moved_learner_csv_runs": moved_csv,
            "wide_traces": len(new_wide), "moved_wide_traces": moved_wide,
            "synthetic_probe_lists": len(change["synthetic"]),
            "moved_synthetic_probe_lists": moved_probes}


def _pair(old: list[float], new: list[float], unit: str, digits: int) -> dict:
    """Pass i of each side is a pair: wins of the change, medians and the
    parent's interquartile range."""
    quartiles = statistics.quantiles(old, n=4) if len(old) > 1 else [old[0]] * 3
    return {
        "pairs": len(new),
        "change_faster": sum(b < a for a, b in zip(old, new)),
        f"parent_median_{unit}": round(statistics.median(old), digits),
        f"change_median_{unit}": round(statistics.median(new), digits),
        f"parent_iqr_{unit}": round(quartiles[2] - quartiles[0], digits),
    }


def _pairs(parent: list[dict], change: list[dict]) -> dict:
    """Per experiment variant, wall seconds."""
    return {
        name: _pair([p["experiment"][name]["wall_s"] for p in parent],
                    [p["experiment"][name]["wall_s"] for p in change], "s", 3)
        for name in change[0]["experiment"]
    }


def _learner_pairs(parent: list[dict], change: list[dict]) -> dict:
    """Per train size, µs per SGD minibatch and seconds per learner kind."""
    out = {}
    for size, first in change[0]["learner"].items():
        old = [p["learner"][size] for p in parent]
        new = [p["learner"][size] for p in change]
        out[size] = {
            "sgd_us_per_minibatch": _pair([c["sgd_us_per_minibatch"] for c in old],
                                          [c["sgd_us_per_minibatch"] for c in new], "us", 2),
            "seconds_per_kind": {
                kind: _pair([c["seconds_per_kind"][kind] for c in old],
                            [c["seconds_per_kind"][kind] for c in new], "s", 4)
                for kind in first["seconds_per_kind"]
            },
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file to write; standard output when absent")
    parser.add_argument("--parent", help="root of a second checkout to measure alternately")
    parser.add_argument("--repeats", type=int, default=3, help="passes per side")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--ns", help=argparse.SUPPRESS)
    parser.add_argument("--family-runs", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--min-seconds", type=float, default=0.5, help=argparse.SUPPRESS)
    parser.add_argument("--experiment-reps", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--learner-sizes", default="", help=argparse.SUPPRESS)
    parser.add_argument("--csv-seeds", default="", help=argparse.SUPPRESS)
    parser.add_argument("--csv-rows", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--wide-seeds", default="", help=argparse.SUPPRESS)
    parser.add_argument("--wide-units", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--probe-ns", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        ns = tuple(int(n) for n in args.ns.split(","))
        learner_sizes = tuple(int(s) for s in args.learner_sizes.split(",") if s)
        csv_seeds = tuple(int(s) for s in args.csv_seeds.split(",") if s)
        wide_seeds = tuple(int(s) for s in args.wide_seeds.split(",") if s)
        probe_ns = tuple(int(n) for n in args.probe_ns.split(",") if n)
        result = _worker(args.worker, ns, args.family_runs, args.min_seconds,
                         args.experiment_reps, learner_sizes, csv_seeds, args.csv_rows,
                         wide_seeds, args.wide_units, probe_ns)
        print(json.dumps(result))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    ns, family_runs, min_seconds, repeats = NS, max(FAMILY_RUNS.values()), 0.5, args.repeats
    experiment_reps, learner_sizes = EXPERIMENT_REPS, LEARNER_SIZES
    csv_seeds, csv_rows = CSV_SEEDS, CSV_ROWS
    wide_seeds, wide_units, probe_ns = WIDE_SEEDS, WIDE_UNITS, PROBE_NS
    if args.quick:
        ns, family_runs, min_seconds, repeats = QUICK_NS, 2, 0.01, 1
        experiment_reps, learner_sizes = 1, QUICK_LEARNER_SIZES
        csv_seeds, csv_rows = QUICK_CSV_SEEDS, QUICK_CSV_ROWS
        wide_seeds, wide_units, probe_ns = QUICK_WIDE_SEEDS, 1, QUICK_PROBE_NS
    roots = {"change": Path.cwd()}
    if args.parent:
        roots["parent"] = Path(args.parent).resolve()
    for name, root in roots.items():
        if not (root / "src" / "abcselect" / "__init__.py").is_file():
            parser.error(f"no abcselect package under {root / 'src'} ({name})")

    passes: dict[str, list[dict]] = {name: [] for name in roots}
    started = time.perf_counter()
    for rep in range(repeats):
        order = list(roots) if rep % 2 == 0 else list(roots)[::-1]
        for name in order:
            passes[name].append(
                _pass(roots[name], ns, family_runs if rep == 0 else 0, min_seconds,
                      experiment_reps, learner_sizes, csv_seeds, csv_rows, wide_seeds,
                      wide_units, probe_ns)
            )
            print(f"pass {rep + 1}/{repeats} {name} done at "
                  f"{time.perf_counter() - started:.0f} s", file=sys.stderr)

    record = {
        "tool": "tools/bench_sweep.py",
        "machine": _machine(),
        "repeats": repeats,
        "quick": args.quick,
        "sides": {name: _side(p) for name, p in passes.items()},
    }
    if "parent" in passes:
        record["moved"] = _moved(passes["parent"][0], passes["change"][0])
        record["experiment_pairs"] = _pairs(passes["parent"], passes["change"])
        record["learner_pairs"] = _learner_pairs(passes["parent"], passes["change"])
        record["learner_csv_pairs"] = _pair(
            [p["learner_csv"]["wall_s"] for p in passes["parent"]],
            [p["learner_csv"]["wall_s"] for p in passes["change"]], "s", 3)
        record["wide_pairs"] = {
            key: _pair([p["wide"][key] for p in passes["parent"]],
                       [p["wide"][key] for p in passes["change"]], unit, digits)
            for key, unit, digits in (("unit_s", "s", 4), ("audit_us_per_round", "us", 2),
                                      ("jsonl_ms", "ms", 2))
        }
        record["synthetic_probe_pairs"] = {
            n: {
                key: _pair([p["synthetic"][n][key] for p in passes["parent"]],
                           [p["synthetic"][n][key] for p in passes["change"]], "us", 2)
                for key in SYNTHETIC_TIMINGS
            }
            for n in passes["change"][0]["synthetic"]
        }
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
