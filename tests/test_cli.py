import json
import math

import numpy as np
import pytest

from abcselect.cli import EXIT_AUDIT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from abcselect.harness import make_monte_carlo_instance


@pytest.fixture()
def synthetic_setup(tmp_path):
    instance = make_monte_carlo_instance(0).truncated(4)
    inst_path = tmp_path / "instance.json"
    instance.save(inst_path)
    config = {
        "backend": {"synthetic": str(inst_path)},
        "params": {"epsilon": 0.01, "delta": 0.5, "seed": 11},
        "scheduler": "gradient_ci",
        "output": {
            "trace": str(tmp_path / "trace.jsonl"),
            "report": str(tmp_path / "report.json"),
        },
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def test_run_happy_path(synthetic_setup, capsys):
    tmp_path, config_path, _ = synthetic_setup
    assert main(["run", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selected configuration" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["selected"] >= 1
    assert (tmp_path / "trace.jsonl").exists()


def test_run_missing_dataset_exits_2(tmp_path, capsys):
    config = {
        "backend": {"csv": str(tmp_path / "nope.csv"), "learners": [{"kind": "majority_class"}]},
        "output": {"trace": str(tmp_path / "t.jsonl"), "report": str(tmp_path / "r.json")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_DATA
    assert "nope.csv" in capsys.readouterr().err


def test_run_unknown_key_exits_1(synthetic_setup, capsys):
    tmp_path, _, config = synthetic_setup
    config["verbosity"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "verbosity" in capsys.readouterr().err


def test_run_full_run_method_prints_accuracy_table(synthetic_setup, capsys):
    tmp_path, config_path, _ = synthetic_setup
    assert main(["run", str(config_path), "--method", "full_run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "per-configuration accuracies" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["accuracies"]) == {"1", "2", "3", "4"}


def test_run_budget_flag(synthetic_setup):
    tmp_path, config_path, _ = synthetic_setup
    assert main(["run", str(config_path), "--budget", "50000"]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["total_cost_scenario_i"] <= 50_000


def test_env_seed_override(synthetic_setup, monkeypatch):
    tmp_path, config_path, _ = synthetic_setup
    monkeypatch.setenv("ABC_SEED", "999")
    assert main(["run", str(config_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["params"]["seed"] == 999


def test_experiment_one_cell(tmp_path):
    instance = make_monte_carlo_instance(0).truncated(3)
    inst_path = tmp_path / "inst.json"
    instance.save(inst_path)
    spec = {
        "instances": [{"name": "demo", "synthetic": "inst.json"}],
        "methods": ["full_run"],
        "epsilon_grid": [0.01],
        "n_configs_grid": [3],
        "repetitions": 1,
        "base_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_OK
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus exactly one row


def test_experiment_empty_epsilon_grid_exits_1(tmp_path, capsys):
    instance = make_monte_carlo_instance(0).truncated(3)
    (tmp_path / "inst.json").write_text(json.dumps(instance.to_dict()))
    spec = {
        "instances": [{"name": "demo", "synthetic": "inst.json"}],
        "methods": ["full_run"],
        "epsilon_grid": [],
        "n_configs_grid": [3],
        "repetitions": 1,
        "base_seed": 5,
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path)]) == EXIT_CONFIG
    assert "epsilon_grid" in capsys.readouterr().err


class TestAudit:
    def run_once(self, synthetic_setup):
        tmp_path, config_path, _ = synthetic_setup
        assert main(["run", str(config_path)]) == EXIT_OK
        return tmp_path / "trace.jsonl", tmp_path / "report.json"

    def test_clean_trace_passes(self, synthetic_setup, capsys):
        trace, report = self.run_once(synthetic_setup)
        assert main(["audit", "--trace", str(trace), "--report", str(report)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "structural audit passed" in out
        assert "containment" in out

    def test_corrupted_trace_exits_3_naming_round(self, synthetic_setup, capsys):
        trace, report = self.run_once(synthetic_setup)
        lines = trace.read_text().splitlines()
        record = json.loads(lines[2])
        record["lower"] = max(0.0, record["lower"] - 0.05)  # widen the interval
        lines[2] = json.dumps(record)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["audit", "--trace", str(trace), "--report", str(report)]) == EXIT_AUDIT
        out = capsys.readouterr().out
        assert f"round {record['round']}" in out

    def test_structural_only_without_truth(self, synthetic_setup, capsys):
        trace, report = self.run_once(synthetic_setup)
        data = json.loads(report.read_text())
        data.pop("true_accuracies", None)
        report.write_text(json.dumps(data))
        assert main(
            ["audit", "--trace", str(trace), "--report", str(report)]
        ) == EXIT_DATA
        assert main(
            ["audit", "--trace", str(trace), "--report", str(report), "--structural-only"]
        ) == EXIT_OK

    def test_oversized_test_sample_exits_2(self, synthetic_setup, capsys):
        trace, report = self.run_once(synthetic_setup)
        full_test = json.loads(report.read_text())["params"]["max_test_size"]
        lines = trace.read_text().splitlines()
        record = json.loads(lines[0])
        record["s_te"] = full_test + 1
        lines[0] = json.dumps(record)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["audit", "--trace", str(trace), "--report", str(report)]) == EXIT_DATA
        assert "test sample size" in capsys.readouterr().err


def test_report_summary(synthetic_setup, capsys):
    tmp_path, config_path, _ = synthetic_setup
    main(["run", str(config_path)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "report.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selected" in out and "cost (i)" in out


def test_csv_backend_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 2))
    y = (X[:, 0] > 0).astype(int)
    rows = "\n".join(f"{a:.6f},{b:.6f},{c}" for (a, b), c in zip(X, y))
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(rows + "\n")
    config = {
        "backend": {
            "csv": str(csv_path),
            "holdout": 0.3,
            "learners": [
                {"kind": "majority_class"},
                {"kind": "decision_stump"},
            ],
        },
        "params": {"initial_train_size": 100, "initial_test_size": 200, "seed": 1},
        "output": {
            "trace": str(tmp_path / "t.jsonl"),
            "report": str(tmp_path / "r.json"),
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--final-train"]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["selected"] == 2  # the stump separates this data
    assert report["final_evaluation"]["accuracy"] > 0.9


@pytest.mark.parametrize(
    "instance, key",
    [
        ({"csv": "data.csv"}, "learners"),
        ({"synthetic": "inst.json", "csv": "data.csv"}, "exactly one of 'synthetic' or 'csv'"),
    ],
    ids=["csv_without_learners", "synthetic_and_csv"],
)
def test_experiment_bad_source_exits_1(tmp_path, capsys, instance, key):
    make_monte_carlo_instance(0).truncated(3).save(tmp_path / "inst.json")
    (tmp_path / "data.csv").write_text("0.1,0\n0.9,1\n")
    spec = {
        "instances": [{"name": "demo", **instance}],
        "methods": ["full_run"],
        "epsilon_grid": [0.01],
        "n_configs_grid": [1],
        "repetitions": 1,
        "output_dir": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "instances[0]" in err and key in err


@pytest.mark.parametrize(
    "conf_budget, flag",
    [("abc", []), (-1, []), (0, []), (True, []), (None, ["--budget", "-1"])],
)
def test_run_invalid_budget_exits_1(synthetic_setup, capsys, conf_budget, flag):
    tmp_path, _, config = synthetic_setup
    if conf_budget is not None:
        config["budget"] = conf_budget
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), *flag]) == EXIT_CONFIG
    assert "'budget'" in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize("key", ["backend", "params", "output"])
def test_run_section_not_an_object_exits_1(synthetic_setup, capsys, key):
    tmp_path, _, config = synthetic_setup
    config[key] = 5
    path = tmp_path / "section.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"{key} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


def test_experiment_instance_not_an_object_exits_1(tmp_path, capsys):
    spec = {
        "instances": [5],
        "methods": ["full_run"],
        "epsilon_grid": [0.01],
        "n_configs_grid": [1],
        "repetitions": 1,
        "output_dir": str(tmp_path / "out"),
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    assert "instances[0] must be a JSON object" in capsys.readouterr().err


def experiment_spec(tmp_path, **changes):
    make_monte_carlo_instance(0).truncated(3).save(tmp_path / "inst.json")
    spec = {
        "instances": [{"name": "demo", "synthetic": "inst.json"}],
        "methods": ["full_run"],
        "epsilon_grid": [0.01],
        "n_configs_grid": [1],
        "repetitions": 1,
        "output_dir": str(tmp_path / "out"),
        **changes,
    }
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


@pytest.mark.parametrize(
    "key", ["instances", "methods", "epsilon_grid", "n_configs_grid", "budget_grid"]
)
def test_experiment_key_not_a_list_exits_1(tmp_path, capsys, key):
    spec_path = experiment_spec(tmp_path, **{key: 5})
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    assert f"key '{key}' in experiment spec must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, grid",
    [("epsilon_grid", ["a"]), ("n_configs_grid", ["1"]), ("n_configs_grid", [1.0]),
     ("budget_grid", ["a"]), ("budget_grid", [True])],
)
def test_experiment_non_numeric_grid_entry_exits_1(tmp_path, capsys, key, grid):
    spec_path = experiment_spec(tmp_path, **{key: grid})
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    assert f"key '{key}' in experiment spec must list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cost_model",
    [
        5, [5, 5], [[1.0, 1.0]], [[1.0, 1.0], [1.0]], [[1.0, 1.0], [1.0, "a"]],
        [[math.nan, 1.0], [1.0, 1.0]], [[-1e-6, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 0]],
        [[1.0, math.inf], [1.0, 1.0]],
    ],
    ids=[
        "number", "flat_list", "too_few_pairs", "short_pair", "non_numeric",
        "kappa_nan", "kappa_negative", "alpha_zero", "alpha_infinite",
    ],
)
def test_run_bad_cost_model_exits_1(tmp_path, capsys, cost_model):
    (tmp_path / "data.csv").write_text("0.1,0\n0.9,1\n0.2,0\n0.8,1\n")
    config = {
        "backend": {
            "csv": "data.csv",
            "learners": [{"kind": "majority_class"}, {"kind": "decision_stump"}],
            "cost_model": cost_model,
        },
        "output": {
            "trace": str(tmp_path / "t.jsonl"),
            "report": str(tmp_path / "r.json"),
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "key 'cost_model' in backend" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "params, env_seed, key",
    [
        ({"alpha_cost_exponent": "x"}, None, "alpha_cost_exponent"),
        ({"step_factor_c": "x"}, None, "step_factor_c"),
        ({"seed": "x"}, None, "'seed'"),
        ({"seed": -1}, None, "'seed'"),
        ({}, "-1", "ABC_SEED"),
        ({"alpha_cost_exponent": 0}, None, "alpha_cost_exponent"),
        ({"alpha_cost_exponent": -2.0}, None, "alpha_cost_exponent"),
        ({"epsilon": "x"}, None, "'epsilon'"),
        ({"delta": [0.5]}, None, "'delta'"),
        ({"initial_train_size": "1e3"}, None, "initial_train_size"),
        # JSON's NaN and Infinity literals: the first used to exit 2, the
        # second to raise OverflowError and the third to exit 0.
        ({"step_factor_c": float("nan")}, None, "key 'step_factor_c' in params must be finite"),
        ({"step_factor_c": float("inf")}, None, "key 'step_factor_c' in params must be finite"),
        ({"alpha_cost_exponent": float("nan")}, None,
         "key 'alpha_cost_exponent' in params must be finite"),
        # The ranges test_experiment_run_param_out_of_range_exits_1 checks.
        ({"delta": 1.5}, None, "delta"),
        ({"delta": 0}, None, "delta"),
        ({"epsilon": 1.5}, None, "epsilon"),
        ({"epsilon": -0.1}, None, "epsilon"),
        ({"initial_train_size": 0}, None, "initial_train_size"),
        ({"initial_test_size": -3}, None, "initial_test_size"),
        ({"step_factor_c": 1.0}, None, "step_factor_c"),
    ],
)
def test_run_bad_params_value_exits_1(synthetic_setup, capsys, monkeypatch, params, env_seed, key):
    tmp_path, _, config = synthetic_setup
    config["params"].update(params)
    if env_seed is not None:
        monkeypatch.setenv("ABC_SEED", env_seed)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


def test_run_instance_nan_curve_value_exits_1(synthetic_setup, capsys):
    # JSON's NaN literal passed the curve's range checks; the run then
    # exited 2 on the NaN probe cost, in a message naming no instance key.
    tmp_path, config_path, _ = synthetic_setup
    instance = json.loads((tmp_path / "instance.json").read_text())
    instance["curves"][0]["kappa"] = math.nan
    (tmp_path / "instance.json").write_text(json.dumps(instance))
    assert main(["run", str(config_path)]) == EXIT_CONFIG
    assert "kappa" in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize(
    "key, value",
    [("holdout", "x"), ("holdout", [0.3]), ("split_seed", "x"), ("header", "false")],
)
def test_run_bad_csv_source_number_exits_1(tmp_path, capsys, key, value):
    csv = tmp_path / "d.csv"
    csv.write_text("a,y\n1,0\n2,1\n3,0\n4,1\n")
    config = {
        "backend": {"csv": str(csv), "header": True, key: value,
                    "learners": [{"kind": "majority_class"}]},
        "output": {"trace": str(tmp_path / "t.jsonl"), "report": str(tmp_path / "r.json")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"key '{key}' in backend" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, key",
    [
        ({"initial_train_size": 1500.7}, "initial_train_size"),
        ({"initial_test_size": True}, "initial_test_size"),
        ({"seed": 4.9}, "seed"),
        ({"seed": True}, "seed"),
        ({"epsilon": True}, "epsilon"),
        ({"delta": "0.5"}, "delta"),
        ({"epsilon": 10**400}, "epsilon"),
    ],
    ids=["train_size_fraction", "test_size_bool", "seed_fraction", "seed_bool",
         "epsilon_bool", "delta_string", "epsilon_beyond_float"],
)
def test_run_param_not_a_json_number_of_its_kind_exits_1(synthetic_setup, capsys, params, key):
    tmp_path, _, config = synthetic_setup
    config["params"].update(params)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"key '{key}' in params " in capsys.readouterr().err
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize(
    "key, value",
    [("repetitions", [2]), ("repetitions", 2.5), ("base_seed", True), ("base_seed", 1.5),
     ("delta", "x"), ("initial_train_size", 1000.5), ("step_factor_c", True),
     ("step_factor_c", float("inf")), ("alpha_cost_exponent", float("nan"))],
    ids=["repetitions_list", "repetitions_fraction", "base_seed_bool", "base_seed_fraction",
         "delta_string", "train_size_fraction", "step_factor_bool", "step_factor_infinity",
         "alpha_nan"],
)
def test_experiment_bad_number_exits_1(tmp_path, capsys, key, value):
    spec_path = experiment_spec(tmp_path, **{key: value})
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    assert f"key '{key}' in experiment spec must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("delta", 1.5), ("delta", 0), ("epsilon_grid", [0.01, 1.5]), ("epsilon_grid", [-0.1]),
     ("initial_train_size", 0), ("initial_test_size", -3), ("step_factor_c", 1.0),
     ("alpha_cost_exponent", 0)],
)
def test_experiment_run_param_out_of_range_exits_1(tmp_path, capsys, key, value):
    # Every cell's RunParams would reject the value; the spec must, before
    # any cell runs or the output directory exists.
    spec_path = experiment_spec(tmp_path, **{key: value})
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid experiment spec" in err and key in err
    assert not (tmp_path / "out").exists()


def test_experiment_integral_float_is_an_integer(tmp_path):
    spec_path = experiment_spec(tmp_path, repetitions=2.0, base_seed=3.0)
    assert main(["experiment", str(spec_path), "--workers", "1"]) == EXIT_OK
    assert len((tmp_path / "out" / "metrics.jsonl").read_text().splitlines()) == 2
