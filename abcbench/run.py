"""abcselect benchmark: one workload, timed for a fixed time, checked.

    python3 abcbench/run.py --workload wide_synthetic --seed 1 --seconds 30 --trace 0
    python3 abcbench/run.py --quick

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
from spans recorded around the program's public functions, and the spans are
written to ``.bench_out/``. ``--quick`` is the self-test: every workload at
a tiny size, in both modes, must emit every metric named in
``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def _import_program():
    """Import abcselect from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "abcselect" / "__init__.py").is_file():
        sys.exit(f"error: no abcselect package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import abcselect

    if Path(abcselect.__file__).resolve().parent != (SRC / "abcselect").resolve():
        sys.exit(f"error: abcselect was imported from {abcselect.__file__}, not {SRC}")


_import_program()
import workloads  # noqa: E402 - needs the program on sys.path
from tracing import SELECTIONS, Tracer, summarize, write_spans  # noqa: E402

IMPORT_S = time.perf_counter() - _START

# (name, unit) of every metric, in output order. The end-to-end metrics
# gated by BENCHMARK.json come first. The rest are printed by name only:
# import time is read once per process, p99 has too few samples outside
# grid_small_n, and the last three are fixed by the seed's inputs, not by
# the code's speed.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("selection_s_p50", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
REPORTED = (
    ("import_s", "s"),
    ("selection_s_p99", "s"),
    ("cost_ratio", "ratio"),
    ("epsilon_miss_rate", "share"),
    ("failed_share", "share"),
)
KINDS = workloads.LEARNER_KINDS
PER_LAYER = (
    ("engine.self_us_per_round", "us/round"),
    ("engine.active_configs_calls", "count"),
    ("engine.active_configs_us", "us/call"),
    ("engine.rounds", "count"),
    ("engine.prunes", "count"),
    ("engine.snapshots", "count"),
    ("engine.budget_stops", "count"),
    ("scheduler.pick_calls", "count"),
    ("scheduler.pick_us", "us/call"),
    ("ci_estimator.bound_calls", "count"),
    ("ci_estimator.bound_us", "us/call"),
    ("core.trace_append_us", "us/call"),
    ("core.trace_jsonl_ms", "ms"),
    ("probes.synthetic_calls", "count"),
    ("probes.synthetic_us", "us/call"),
    *((f"probes.learner_calls.{k}", "count") for k in KINDS),
    *((f"probes.learner_s.{k}", "s") for k in KINDS),
    ("probes.sgd_us_per_krow_epoch", "us/krow-epoch"),
    ("probes.csv_load_s", "s/call"),
    ("probes.final_train_s", "s/call"),
    ("baselines.halving_calls", "count"),
    ("baselines.halving_ms", "ms/call"),
    ("baselines.full_run_ms", "ms/call"),
    ("harness.self_ms_per_cell", "ms/cell"),
    ("harness.audit_us_per_round", "us/round"),
    ("cli.self_ms", "ms/call"),
    ("tracing.overhead_s", "s"),
)
ENGINE_SPANS = ("run_abc", "select_with_budget", "EngineState.active_configs")


def _engine_counts(runs: list[workloads.AbcRun]) -> dict[str, int]:
    """Rounds, prunes, snapshots and budget stops of a unit's abc runs."""
    return {
        "rounds": sum(r.rounds for r in runs),
        "prunes": sum(r.prunes for r in runs),
        "snapshots": sum(r.snapshots for r in runs),
        "budget_stops": sum(r.budget_stop for r in runs),
    }


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(table, traced_units, rounds, first_counts, walls, cells) -> dict[str, float]:
    """Per-layer metrics from the span table of the traced units, which ran
    ``rounds`` engine rounds in all. The engine's round, prune, snapshot and
    budget-stop counts are the first unit's. Other counts are per unit; ``*_us``/``*_ms`` per call unless the name says
    otherwise; self times are span time minus the time of child spans.
    """

    def calls(*names):
        return sum(table.get(n, (0,))[0] for n in names)

    def incl(*names):
        return sum(table.get(n, (0, 0.0))[1] for n in names)

    def own(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    bounds = ("lower_bound", "upper_bound", "clamp_to_cached")
    jsonl = own("RunTrace.write_jsonl") + incl("RunTrace.to_jsonl")
    probe = {k: f"LearnerBackend.probe:{k}" for k in KINDS}
    sgd = table.get(probe["logistic_regression_sgd"], (0, 0.0, 0.0, 0.0))
    untraced = [w for traced, w in walls if not traced]
    traced = [w for traced, w in walls if traced]
    m = {
        "engine.self_us_per_round": per_call(own(*ENGINE_SPANS), rounds, 1e6),
        "engine.active_configs_calls": calls("EngineState.active_configs") / traced_units,
        "engine.active_configs_us": per_call(
            incl("EngineState.active_configs"), calls("EngineState.active_configs"), 1e6
        ),
        **{f"engine.{k}": v for k, v in first_counts.items()},
        "scheduler.pick_calls": calls("pick_next") / traced_units,
        "scheduler.pick_us": per_call(incl("pick_next"), calls("pick_next"), 1e6),
        "ci_estimator.bound_calls": calls(*bounds) / traced_units,
        "ci_estimator.bound_us": per_call(incl(*bounds), calls(*bounds), 1e6),
        "core.trace_append_us": per_call(incl("RunTrace.append"), calls("RunTrace.append"), 1e6),
        "core.trace_jsonl_ms": jsonl / traced_units * 1e3,
        "probes.synthetic_calls": calls("SyntheticBackend.probe") / traced_units,
        "probes.synthetic_us": per_call(
            incl("SyntheticBackend.probe"), calls("SyntheticBackend.probe"), 1e6
        ),
        **{f"probes.learner_calls.{k}": calls(probe[k]) / traced_units for k in KINDS},
        **{f"probes.learner_s.{k}": incl(probe[k]) / traced_units for k in KINDS},
        "probes.sgd_us_per_krow_epoch": per_call(sgd[1], sgd[3], 1e6),
        "probes.csv_load_s": per_call(incl("load_csv_dataset"), calls("load_csv_dataset"), 1),
        "probes.final_train_s": per_call(incl("verify_selection"), calls("verify_selection"), 1),
        "baselines.halving_calls": calls("successive_halving") / traced_units,
        "baselines.halving_ms": per_call(
            incl("successive_halving"), calls("successive_halving"), 1e3
        ),
        "baselines.full_run_ms": per_call(incl("full_run"), calls("full_run"), 1e3),
        "harness.self_ms_per_cell": per_call(
            own("run_experiment"), cells * traced_units if calls("run_experiment") else 0, 1e3
        ),
        "harness.audit_us_per_round": per_call(
            incl("structural_audit"), rounds if calls("structural_audit") else 0, 1e6
        ),
        "cli.self_ms": per_call(own("cli.main"), calls("cli.main"), 1e3),
        "tracing.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Set up, run units until ``seconds`` have passed, check, and return
    the result object the benchmark prints."""
    workload = workloads.WORKLOADS[name]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{name}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer()
    walls: list[tuple[bool, float]] = []
    selection_s: list[float] = []
    abc_s = 0.0
    abc_rounds = 0
    traced_rounds = 0
    unit_rounds: list[int] = []
    checks = []
    table: dict[str, list[float]] = {}
    first_counts = None
    kept_spans = None
    try:
        inp, setup_times = workload.prepare(seed, quick, workdir)
        started = time.perf_counter()
        while True:
            traced = trace and len(walls) % 2 == 1
            tracer.install(
                workload.selection(not walls)
                + (workload.traced + workloads.COMMON_TARGETS if traced else ())
            )
            # Every unit starts from the same heap: garbage of the previous
            # unit is not collected inside this one.
            gc.collect()
            unit_start = time.perf_counter()
            try:
                output = workload.unit(inp)
            finally:
                unit_s = time.perf_counter() - unit_start
                tracer.uninstall()
            # Reducing return values (and the first unit's audit) is the
            # benchmark's work, not the unit's.
            walls.append((traced, unit_s - tracer.hook_seconds()))
            runs = list(tracer.results.values())
            checks.append(workload.check(inp, output, runs))
            del output
            counts = _engine_counts(runs)
            if first_counts is None:
                first_counts = counts
            unit_rounds.append(counts["rounds"])
            abc_rounds += counts["rounds"]
            for span in tracer.spans:
                if span[0] in SELECTIONS:
                    selection_s.append(span[2] - span[1])
                    if span[0] in ("run_abc", "select_with_budget"):
                        abc_s += span[2] - span[1]
            if traced:
                traced_rounds += counts["rounds"]
                for key, row in summarize(tracer.spans).items():
                    acc = table.setdefault(key, [0, 0.0, 0.0, 0.0])
                    for i, v in enumerate(row):
                        acc[i] += v
                if kept_spans is None:
                    kept_spans = list(tracer.spans)
            tracer.clear()
            done = time.perf_counter() - started >= seconds
            if done and (not trace or len(walls) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The epsilon check's full run is printed with the end-to-end
        # metrics only.
        reference = workload.reference(inp) if workload.reference and not trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    digests = [c.digests for c in checks]
    if any(d != digests[0] for d in digests):
        problems.append("trace digests differ between units")
    abc_selections = sum(c.abc_selections for c in checks)
    misses = sum(c.epsilon_misses for c in checks)
    if reference is not None:
        # Every unit made the same selection.
        abc_selections = len(checks)
        misses = abc_selections * int(reference)
    untraced = [w for t, w in walls if not t]

    lines = [f"workload {name} seed {seed} trace {int(trace)}: {len(walls)} units, "
             f"{len(selection_s)} selection calls, {attempted} attempted, {failed} failed"]
    lines.append("  unit_s " + " ".join(f"{'t' if t else ''}{w:.4f}" for t, w in walls))
    lines.append("  unit_rounds " + " ".join(str(r) for r in unit_rounds))
    lines += [f"  note: {n}" for n in checks[0].notes]
    lines += [f"  trace_sha256 {d}" for d in digests[0]]
    lines += [f"  problem: {p}" for p in problems[:20]]
    lines += [f"  not traced, no such binding: {m}" for m in sorted(tracer.missing)]
    if trace:
        cells = getattr(inp, "cells", 0)
        values = _layer_metrics(
            table, len(walls) - len(untraced), traced_rounds, first_counts, walls, cells
        )
        specs = PER_LAYER
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.csv.gz"
        write_spans(spans_path, kept_spans)
        lines.append(f"  spans of the first traced unit: {spans_path}")
    else:
        full = sum(c.full_cost for c in checks)
        values = {
            "setup_s": statistics.median(setup_times),
            "import_s": IMPORT_S,
            "wall_s": statistics.median(untraced),
            "selection_s_p50": statistics.median(selection_s),
            "selection_s_p99": _percentile(selection_s, 99),
            "rounds_per_s": abc_rounds / abc_s,
            "peak_rss_mb": peak_rss_mb,
            "cost_ratio": sum(c.selection_cost for c in checks) / full,
            "epsilon_miss_rate": misses / abc_selections,
            "failed_share": failed / attempted,
        }
        specs = END_TO_END
        for metric, unit in END_TO_END + REPORTED:
            lines.append(f"  {metric:<20} {values[metric]:.6g} {unit}")
        lines.append(f"  selection samples {len(selection_s)}, epsilon checks {abc_selections}")
    for line in lines:
        print(line)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in specs},
    }


def self_test(seed: int) -> int:
    """Every workload at a tiny size in both modes emits every metric named
    in BENCHMARK.json, with its unit, and passes its checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = measure(name, seed, 0.0, bool(trace), quick=True)
            if not result["correct"]:
                bad.append(f"{name} trace {trace}: checks failed")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    bad.append(f"{name} trace {trace}: {metric['name']} missing or wrong unit")
    for line in bad:
        print(f"self-test: {line}")
    print("self-test " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run the self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # The program's warnings (self-pruning, snapshot anomalies) would flood
    # stderr; the checks report what matters.
    logging.getLogger("abcselect").setLevel(logging.ERROR)
    os.environ.pop("ABC_SEED", None)
    if args.quick:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
