"""Scheduler cost sweep, family table and experiment grid, written as a
BENCH_<pr>.json record.

    python3 tools/bench_sweep.py --out BENCH_8.json --parent ../parent --repeats 10
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
  than the selection active (uncertified survivors), and a digest of the
  runs' traces;
* the experiment: ``run_experiment`` (one worker) on a grid like the
  benchmark's ``grid_small_n`` (four shipped families with 20
  configurations, all five methods, epsilon 0.01 and 0.05, n = 4 and 20,
  20 repetitions), with and without its budget grid: wall seconds and a
  SHA-256 over the sorted metrics rows.

With ``--parent DIR`` the checkout at ``DIR`` is measured too, each repeat
running the two in alternating order, so that both sides see the same
host. µs per round is the median over repeats; the family table is
machine-independent and is taken once per side; the experiment's wall
seconds are kept per pass, so that pass i of the two sides is a pair. The
record also carries the machine, the number of traces and of experiment
metrics rows that differ between the sides (rows must not move), and the
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
# Family -> runs, as in the acceptance suite's certified-families test.
FAMILY_RUNS = {"plateau": 50, "sweep": 40, "monte_carlo": 40, "skewed": 40, "decoy": 40}
SWEEP_SEED = 3
EPSILON, DELTA = 0.01, 0.5
# The shape of the benchmark's grid_small_n input: family seed, budgets and
# repetitions.
EXPERIMENT_SEED, EXPERIMENT_BUDGETS, EXPERIMENT_REPS = 5, (2.0e5, 2.0e6), 20


def _worker(
    src: str, ns: tuple[int, ...], family_runs: int, min_seconds: float, experiment_reps: int
) -> dict:
    """One pass over the program under ``src``, with up to ``family_runs``
    runs per family and scheduler and ``experiment_reps`` repetitions per
    experiment cell (0: no experiment); returns the measurements."""
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
                   "uncertified_survivors": 0, "run_digests": []}
            for seed in range(min(runs, family_runs)):
                _, selected, trace, states, params = run(
                    makers[family](seed), 1000 + seed, kind
                )
                truths = trace.true_accuracies
                row["runs"] += 1
                row["epsilon_misses"] += max(truths.values()) - truths[selected] > EPSILON
                row["self_prunes"] += any(r.incumbent_id in r.pruned_ids for r in trace.rounds)
                row["uncertified_survivors"] += [c.id for c in states if c.active] != [selected]
                row["run_digests"].append(hashlib.sha256(trace.to_jsonl().encode()).hexdigest())
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
    return {"sweep": sweep, "families": families, "experiment": experiment}


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


def _pass(root: Path, ns, family_runs: int, min_seconds: float, experiment_reps: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root / "src"),
           "--ns", ",".join(map(str, ns)), "--family-runs", str(family_runs),
           "--min-seconds", str(min_seconds), "--experiment-reps", str(experiment_reps)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _side(passes: list[dict]) -> dict:
    """Median µs per round and experiment wall seconds over the passes;
    digests must agree."""
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
    gate = {}
    for kind, cells in sweep.items():
        ns = sorted(cells, key=int)
        ratio = cells[ns[-1]]["us_per_round"] / cells[ns[0]]["us_per_round"]
        gate[kind] = {"ratio": round(ratio, 2), "within_2x": ratio <= 2.0,
                      "n": [int(ns[0]), int(ns[-1])]}
    return {"sweep": sweep, "families": families, "experiment": experiment, "gate": gate}


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
    return {"sweep_cells": len(sweep_cells), "moved_sweep_cells": moved_sweep,
            "family_runs": runs, "moved_family_runs": moved_runs,
            "experiment_rows": rows, "moved_experiment_rows": moved_rows}


def _pairs(parent: list[dict], change: list[dict]) -> dict:
    """Per experiment variant: pass i of each side is a pair of wall times."""
    out = {}
    for name in change[0]["experiment"]:
        old = [p["experiment"][name]["wall_s"] for p in parent]
        new = [p["experiment"][name]["wall_s"] for p in change]
        quartiles = statistics.quantiles(old, n=4) if len(old) > 1 else [old[0]] * 3
        out[name] = {
            "pairs": len(new),
            "change_faster": sum(b < a for a, b in zip(old, new)),
            "parent_median_s": round(statistics.median(old), 3),
            "change_median_s": round(statistics.median(new), 3),
            "parent_iqr_s": round(quartiles[2] - quartiles[0], 3),
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
    args = parser.parse_args()
    if args.worker:
        ns = tuple(int(n) for n in args.ns.split(","))
        result = _worker(args.worker, ns, args.family_runs, args.min_seconds,
                         args.experiment_reps)
        print(json.dumps(result))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    ns, family_runs, min_seconds, repeats = NS, max(FAMILY_RUNS.values()), 0.5, args.repeats
    experiment_reps = EXPERIMENT_REPS
    if args.quick:
        ns, family_runs, min_seconds, repeats = QUICK_NS, 2, 0.01, 1
        experiment_reps = 1
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
                      experiment_reps)
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
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
