"""Scheduler cost sweep and family table, written as a BENCH_<pr>.json record.

    python3 tools/bench_sweep.py --out BENCH_7.json --parent ../parent --repeats 3
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
  runs' traces.

With ``--parent DIR`` the checkout at ``DIR`` is measured too, each repeat
running the two in alternating order, so that both sides see the same
host. µs per round is the median over repeats; the family table is
machine-independent and is taken once per side. The record also carries
the machine, the number of traces that differ between the sides, and the
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


def _worker(src: str, ns: tuple[int, ...], family_runs: int, min_seconds: float) -> dict:
    """One pass over the program under ``src``, with up to ``family_runs``
    runs per family and scheduler; returns the measurements."""
    sys.path.insert(0, src)
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
    return {"sweep": sweep, "families": families}


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


def _pass(root: Path, ns, family_runs: int, min_seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root / "src"),
           "--ns", ",".join(map(str, ns)), "--family-runs", str(family_runs),
           "--min-seconds", str(min_seconds)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _side(passes: list[dict]) -> dict:
    """Median µs per round over the passes; digests must agree."""
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
    gate = {}
    for kind, cells in sweep.items():
        ns = sorted(cells, key=int)
        ratio = cells[ns[-1]]["us_per_round"] / cells[ns[0]]["us_per_round"]
        gate[kind] = {"ratio": round(ratio, 2), "within_2x": ratio <= 2.0,
                      "n": [int(ns[0]), int(ns[-1])]}
    return {"sweep": sweep, "families": families, "gate": gate}


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
    return {"sweep_cells": len(sweep_cells), "moved_sweep_cells": moved_sweep,
            "family_runs": runs, "moved_family_runs": moved_runs}


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
    args = parser.parse_args()
    if args.worker:
        ns = tuple(int(n) for n in args.ns.split(","))
        result = _worker(args.worker, ns, args.family_runs, args.min_seconds)
        print(json.dumps(result))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    ns, family_runs, min_seconds, repeats = NS, max(FAMILY_RUNS.values()), 0.5, args.repeats
    if args.quick:
        ns, family_runs, min_seconds, repeats = QUICK_NS, 2, 0.01, 1
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
                _pass(roots[name], ns, family_runs if rep == 0 else 0, min_seconds)
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
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
