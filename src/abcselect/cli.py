"""Command-line front door: run a selection, run experiment suites, audit
traces, print reports.

Exit codes: 0 success, 1 invalid configuration (the message names the
offending key), 2 backend or data error, 3 audit invariant violation.
The environment variable ABC_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .baselines import full_run, successive_halving
from .core import (
    BackendError, DocumentError, RunParams, RunTrace, initial_states, load_trace_rounds,
    read_list, read_object, read_value,
)
from .engine import build_report, run_abc, select_with_budget, verify_selection
from .harness import (
    _RUN_SETTINGS,
    ABC_METHODS,
    ExperimentSpec,
    InstanceSource,
    containment_audit,
    run_experiment,
    structural_audit,
)
from .probes import LearnerBackend, LearnerSpec, SyntheticBackend, SyntheticInstance, load_csv_dataset
from .scheduler import SchedulerKind, optimal_step_size

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_AUDIT = 3

METHODS = ("abc", "full_run", "successive_halving")

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Invalid configuration file; message names the offending key."""


def _load_json(path: str | Path, what: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DocumentError(f"{what} file {p} must hold a JSON object")
    return data


def _resolve(path_str: str, base_dir: Path) -> Path:
    path = Path(path_str)
    return path if path.is_absolute() else base_dir / path


def _parse_source(
    conf: dict, base_dir: Path, where: str, caller_keys: set[str]
) -> InstanceSource:
    """The one instance source described by ``conf``, named ``where``: a
    synthetic instance file or a CSV dataset with a learner grid. Relative
    paths resolve against ``base_dir``; every file must exist. ``conf`` may
    also hold ``caller_keys``, which the caller reads itself."""
    read_object(
        conf,
        where,
        {"synthetic", "csv", "header", "holdout", "learners", "split_seed", *caller_keys},
    )
    if ("synthetic" in conf) == ("csv" in conf):
        raise ConfigError(f"{where} needs exactly one of 'synthetic' or 'csv'")
    if "synthetic" in conf:
        path = _resolve(read_value(conf, "synthetic", where, str), base_dir)
        if not path.exists():
            raise FileNotFoundError(f"synthetic instance file not found: {path}")
        try:
            return InstanceSource(name=where, synthetic=SyntheticInstance.load(path))
        except ValueError as exc:
            raise ConfigError(f"invalid synthetic instance {path}: {exc}") from exc
    csv_path = _resolve(read_value(conf, "csv", where, str), base_dir)
    if not csv_path.exists():
        raise FileNotFoundError(f"dataset file not found: {csv_path}")
    grid = read_list(conf.get("learners", []), f"key 'learners' in {where}")
    try:
        learners = tuple(LearnerSpec.from_dict(d, f"learners[{i}]") for i, d in enumerate(grid))
    except ValueError as exc:
        raise ConfigError(f"invalid learners in {where}: {exc}") from exc
    if not learners:
        raise ConfigError(f"{where} key 'learners' must list at least one learner")
    return InstanceSource(
        name=where,
        csv_path=str(csv_path),
        learners=learners,
        holdout=read_value(conf, "holdout", where, default=0.3),
        header=read_value(conf, "header", where, bool, False),
        split_seed=read_value(conf, "split_seed", where, int, 0),
    )


def _run_settings(conf: dict, where: str) -> dict:
    """The ``_RUN_SETTINGS`` that a run config's ``params`` and an
    experiment spec share, read from ``conf`` (named ``where``) with their
    defaults. Without a ``step_factor_c``, the factor is the optimal one for
    ``alpha_cost_exponent``."""
    alpha = read_value(conf, "alpha_cost_exponent", where, default=1.0)
    if "step_factor_c" in conf:
        c = read_value(conf, "step_factor_c", where)
    else:
        c = optimal_step_size(alpha)
    return {
        "delta": read_value(conf, "delta", where, default=0.5),
        "initial_train_size": read_value(conf, "initial_train_size", where, int, 1000),
        "initial_test_size": read_value(conf, "initial_test_size", where, int, 2000),
        "step_factor_c": c,
        "alpha_cost_exponent": alpha,
    }


def _resolve_seed(conf_params: dict) -> int:
    """The run's seed: ABC_SEED when set, else the params key 'seed' (0 by
    default); either must be an integer in [0, 2**64)."""
    env = os.environ.get("ABC_SEED")
    if env is None:
        where, seed = "key 'seed' in params", read_value(conf_params, "seed", "params", int, 0)
    else:
        where = "ABC_SEED"
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{where} must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where} must be in [0, 2**64), got {seed}")
    return seed


def cmd_run(args: argparse.Namespace) -> int:
    conf = _load_json(args.config, "run config")
    read_object(
        conf, "run config", {"backend", "params", "scheduler", "method", "budget", "output"}
    )
    params_conf = conf.get("params", {})
    read_object(params_conf, "params", {"epsilon", "seed", *_RUN_SETTINGS})
    seed = _resolve_seed(params_conf)
    backend_conf = conf.get("backend", {})
    source = _parse_source(
        backend_conf, Path(args.config).resolve().parent, "backend", {"cost_model"}
    )
    if source.synthetic is not None:
        backend = SyntheticBackend(source.synthetic, seed=seed)
    else:
        cost_model = backend_conf.get("cost_model")
        what = "key 'cost_model' in backend"
        if cost_model is not None:
            cost_model = [read_list(p, what, float) for p in read_list(cost_model, what, list)]
        handle = load_csv_dataset(
            source.csv_path, header=source.header, holdout=source.holdout,
            seed=source.split_seed,
        )
        try:
            backend = LearnerBackend(handle, source.learners, seed=seed, cost_model=cost_model)
        except ValueError as exc:  # the cost model's sizes and range, which the backend checks
            raise ConfigError(f"invalid {what}: {exc}") from exc
    try:
        params = RunParams.for_backend(
            backend, epsilon=read_value(params_conf, "epsilon", "params", default=0.01),
            seed=seed, **_run_settings(params_conf, "params"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc

    method = args.method or conf.get("method", "abc")
    if method not in METHODS:
        raise ConfigError(f"unknown key 'method' value {method!r} in run config")
    sched_name = args.scheduler or conf.get("scheduler", "gradient_ci")
    try:
        scheduler = SchedulerKind(sched_name)
    except ValueError as exc:
        raise ConfigError(f"unknown key 'scheduler' value {sched_name!r}") from exc
    budget = args.budget
    if budget is None and "budget" in conf:
        budget = read_value(conf, "budget", "run config")
    if budget is not None and not budget > 0:
        raise ConfigError(f"key 'budget' must be a number > 0, got {budget!r}")

    out_conf = read_object(conf.get("output", {}), "output", {"trace", "report"})
    trace_path = Path(read_value(out_conf, "trace", "output", str, "out/trace.jsonl"))
    report_path = Path(read_value(out_conf, "report", "output", str, "out/report.json"))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.parent.mkdir(parents=True, exist_ok=True)

    ids = list(range(1, backend.n_configs + 1))
    if method == "full_run":
        best, accuracies, total_cost = full_run(ids, backend)
        report = {
            "method": "full_run",
            "selected": best,
            "selected_label": backend.labels[best - 1],
            "real_accuracy": accuracies[best],
            "total_cost_scenario_i": total_cost,
            "total_cost_scenario_ii": total_cost,
            "rounds": len(ids),
            "prunes": [],
            "params": params.to_dict(),
            "flags": [],
            "accuracies": {str(i): accuracies[i] for i in ids},
        }
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"full_run selected configuration {best} ({backend.labels[best - 1]})")
        print("per-configuration accuracies:")
        for i in ids:
            print(f"  {i:3d}  {backend.labels[i - 1]:<40s} {accuracies[i]:.6f}")
        print(f"total cost: {total_cost:g}")
        return EXIT_OK

    if method == "successive_halving":
        selected, trace = successive_halving(
            ids, backend, params.initial_train_size, params.initial_test_size,
            params.step_factor_c,
        )
        trace.params = params
        trace.write_jsonl(trace_path)
        report = build_report(selected, trace, backend, params, method="successive_halving")
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"successive_halving selected configuration {selected} "
              f"({backend.labels[selected - 1]}) after {trace.n_rounds} probes, "
              f"cost {trace.wall_cost_total:g}")
        return EXIT_OK

    states = initial_states(list(backend.labels), params)
    if budget is not None:
        selected, trace = select_with_budget(states, backend, params, scheduler, float(budget))
        method_name = f"abc_{scheduler.value}_budget"
    else:
        selected, trace = run_abc(states, backend, params, scheduler)
        method_name = f"abc_{scheduler.value}"
    final_eval = None
    if args.final_train and backend.true_accuracy(selected) is None:
        final_eval = verify_selection(backend, states, selected)
        if final_eval.full_below_sampled:
            trace.flags.append(
                "full-data accuracy fell below the sampled model; reporting the "
                "sampled model as the deliverable"
            )
    trace.write_jsonl(trace_path)
    report = build_report(selected, trace, backend, params, method_name, final_eval)
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    cfg = states[selected - 1]
    print(f"selected configuration {selected} ({backend.labels[selected - 1]})")
    print(f"  bounds [{cfg.ci.lower:.6f}, {cfg.ci.upper:.6f}] after {trace.n_rounds} rounds")
    if report["real_accuracy"] is not None:
        print(f"  real accuracy {report['real_accuracy']:.6f}")
    print(f"  cost: selection {report['total_cost_scenario_i']:g}", end="")
    if report["total_cost_scenario_ii"] is not None:
        print(f", with final training {report['total_cost_scenario_ii']:g}")
    else:
        print()
    for flag in trace.flags:
        print(f"  note: {flag}")
    print(f"trace: {trace_path}\nreport: {report_path}")
    return EXIT_OK


def _parse_experiment(conf: dict, base_dir: Path) -> tuple[ExperimentSpec, Path]:
    where = "experiment spec"
    # A spec sets ExperimentSpec's fields, with instances in place of sources.
    keys = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"sources"}
    read_object(conf, where, {"name", "instances", "output_dir", *keys})

    def spec_list(key: str, kind: type | None = None) -> tuple:
        return tuple(read_list(conf.get(key, []), f"key {key!r} in {where}", kind))

    sources = []
    for i, inst in enumerate(spec_list("instances")):
        source = _parse_source(inst, base_dir, f"instances[{i}]", {"name"})
        name = read_value(inst, "name", f"instances[{i}]", str, f"instance-{i}")
        sources.append(dataclasses.replace(source, name=name))
    try:
        spec = ExperimentSpec(
            sources=tuple(sources),
            methods=spec_list("methods"),
            epsilon_grid=spec_list("epsilon_grid", float),
            n_configs_grid=spec_list("n_configs_grid", int),
            repetitions=read_value(conf, "repetitions", where, int, 100),
            base_seed=read_value(conf, "base_seed", where, int, 0),
            budget_grid=spec_list("budget_grid", float),
            **_run_settings(conf, where),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    out_dir = Path(read_value(conf, "output_dir", where, str, "out/experiment"))
    return spec, out_dir


def cmd_experiment(args: argparse.Namespace) -> int:
    conf = _load_json(args.spec, "experiment spec")
    spec, out_dir = _parse_experiment(conf, Path(args.spec).resolve().parent)
    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    rows = run_experiment(spec, out_dir=out_dir, workers=workers)
    print(f"{len(rows)} metric rows written under {out_dir}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    rounds = load_trace_rounds(args.trace)
    report = _load_json(args.report, "report")
    if "params" not in report:
        raise DocumentError("report file lacks the 'params' key")
    params = RunParams.from_dict(report["params"])
    # Only an abc run writes a trace the audit can replay, and a run that
    # writes no trace (full_run) leaves an earlier run's trace in place.
    method = read_value(report, "method", "report", str)
    if method.removesuffix("_budget") not in ABC_METHODS:
        raise DocumentError(f"key 'method' in report is {method!r}, not an abc method")
    if read_value(report, "rounds", "report", int) != len(rounds):
        raise DocumentError(
            f"key 'rounds' in report is {report['rounds']!r}, but the trace has "
            f"{len(rounds)} rows"
        )

    issues = structural_audit(rounds, params)
    if issues:
        print(f"structural audit FAILED with {len(issues)} issue(s):")
        for issue in issues:
            print(f"  {issue}")
        return EXIT_AUDIT
    print(f"structural audit passed over {len(rounds)} rounds "
          f"({sum(1 for r in rounds if r.snapshot)} snapshots)")

    if args.structural_only:
        return EXIT_OK
    truths = report.get("true_accuracies")
    if not truths:
        raise BackendError(
            "report lacks ground-truth accuracies; rerun with --structural-only"
        )
    where = "key 'true_accuracies' in report"
    ids = [str(i + 1) for i in range(params.n_configs)]
    read_object(truths, where, ids, ids)
    trace = RunTrace(
        rounds=list(rounds),
        params=params,
        true_accuracies={int(k): read_value(truths, k, where) for k in truths},
    )
    containment = containment_audit([trace])
    print(f"containment threshold delta/n^2 = {containment.threshold:g}")
    for cid in sorted(containment.probes):
        rate = containment.rates[cid]
        print(
            f"  config {cid}: {containment.violations[cid]}/{containment.probes[cid]} "
            f"violations (rate {rate:.4f})"
        )
    if containment.flagged:
        print(f"flagged configurations: {list(containment.flagged)}")
        return EXIT_AUDIT
    print("containment audit passed")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    report = _load_json(args.report, "report")
    print(f"method:     {report.get('method', '?')}")
    label = report.get("selected_label", "")
    print(f"selected:   {report.get('selected', '?')} {f'({label})' if label else ''}")
    if report.get("real_accuracy") is not None:
        print(f"accuracy:   {report['real_accuracy']:.6f}")
    print(f"cost (i):   {report.get('total_cost_scenario_i', float('nan')):g}")
    if report.get("total_cost_scenario_ii") is not None:
        print(f"cost (ii):  {report['total_cost_scenario_ii']:g}")
    print(f"rounds:     {report.get('rounds', '?')}")
    print(f"pruned:     {report.get('prunes', [])}")
    for flag in report.get("flags", []):
        print(f"note:       {flag}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcselect",
        description="Select an approximately best ML configuration with "
        "confidence-interval based progressive sampling and pruning.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a selection described by a config file")
    p_run.add_argument("config", help="path to the run config JSON")
    p_run.add_argument("--method", choices=METHODS)
    p_run.add_argument("--scheduler", choices=[k.value for k in SchedulerKind])
    p_run.add_argument("--budget", type=float, help="cost budget for an anytime run")
    p_run.add_argument(
        "--final-train",
        action="store_true",
        help="fully train the selection afterwards (real backends)",
    )
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="run an experiment suite")
    p_exp.add_argument("spec", help="path to the experiment spec JSON")
    p_exp.add_argument("--workers", type=int, default=None, help="worker processes")
    p_exp.set_defaults(func=cmd_experiment)

    p_audit = sub.add_parser("audit", help="check a trace against all invariants")
    p_audit.add_argument("--trace", required=True, help="trace JSONL path")
    p_audit.add_argument("--report", required=True, help="matching report JSON path")
    p_audit.add_argument(
        "--structural-only",
        action="store_true",
        help="skip the containment audit (no ground truth needed)",
    )
    p_audit.set_defaults(func=cmd_audit)

    p_rep = sub.add_parser("report", help="print a report summary")
    p_rep.add_argument("report", help="report JSON path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # The trace and report that audit and report read are a run's
        # output: data, not configuration.
        data = isinstance(exc, DocumentError) and args.command in ("audit", "report")
        return EXIT_DATA if data else EXIT_CONFIG
    except (FileNotFoundError, OSError, BackendError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
