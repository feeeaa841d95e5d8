import json

import numpy as np
import pytest

from stablepac import (
    build_reference_generator,
    load_model,
    load_trajectory,
    rnn_constants,
    save_model,
)
from stablepac.cli import main
from stablepac.dynsys import RnnSystem, activation
from helpers import random_contractive_system


@pytest.fixture()
def generator_path(tmp_path):
    path = tmp_path / "generator.json"
    save_model(build_reference_generator(), str(path))
    return str(path)


@pytest.fixture()
def unstable_path(tmp_path):
    sys = RnnSystem(
        a=1.5 * np.eye(2),
        b=np.ones((2, 1)),
        b_s=np.zeros(2),
        c=np.ones((1, 2)),
        d=np.ones((1, 1)),
        b_y=np.zeros(1),
        sigma_f=activation("identity"),
        sigma_g=activation("tanh"),
    )
    path = tmp_path / "unstable.json"
    save_model(sys, str(path))
    return str(path)


class TestConstantsCommand:
    def test_prints_certificate_json(self, generator_path, capsys):
        assert main(["constants", "--model", generator_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c"] == 1.0
        assert doc["tau"] == pytest.approx(0.568595, abs=1e-6)

    def test_unstable_model_reports_error(self, unstable_path, capsys):
        assert main(["constants", "--model", unstable_path]) == 2
        assert "error" in capsys.readouterr().err


def _system_path(tmp_path, sys, name="model.json"):
    path = tmp_path / name
    save_model(sys, str(path))
    return str(path)


class TestCheckStability:
    def test_stable_exit_zero(self, generator_path):
        assert main(["check-stability", "--model", generator_path]) == 0

    def test_unstable_exit_nonzero(self, unstable_path, capsys):
        assert main(["check-stability", "--model", unstable_path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["tau"] > 1.0

    def test_reference_generator_passes(self, generator_path, capsys):
        assert main(["check-stability", "--model", generator_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["tau"] == pytest.approx(0.56859475903318, rel=1e-10)

    def test_boundary_excluded(self, tmp_path, capsys):
        sys = RnnSystem(
            a=np.eye(2),
            b=np.ones((2, 1)),
            b_s=np.zeros(2),
            c=np.ones((1, 2)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("relu"),
            sigma_g=activation("tanh"),
        )
        assert main(["check-stability", "--model", _system_path(tmp_path, sys)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["tau"] == pytest.approx(1.0, rel=1e-10)

    def test_tau_agrees_with_rnn_constants(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        for k in range(30):
            sys = random_contractive_system(rng)
            path = _system_path(tmp_path, sys, f"model{k}.json")
            assert main(["check-stability", "--model", path]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"ok": True, "tau": rnn_constants(load_model(path)).tau}


class TestDataConstants:
    def test_prints_constants(self, generator_path, capsys):
        assert main(
            ["data-constants", "--model", generator_path, "--e-inf", "1.27"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_q"] == pytest.approx(1.40605, abs=1e-4)
        assert doc["theta_bar"] == pytest.approx(1.98823, abs=1e-4)
        assert doc["saturation_bound"] == pytest.approx(2.0**0.5, rel=1e-9)


class TestTrajectoryCommands:
    def test_simulate_writes_csv(self, generator_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(
            ["simulate", "--model", generator_path, "--seed", "3", "--n", "25",
             "--out", str(out)]
        ) == 0
        traj = load_trajectory(str(out))
        assert traj.length == 25
        assert traj.inputs.shape == (25, 2) and traj.outputs.shape == (25, 2)

    def test_generate_data_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate-data", "--seed", "0", "--n", "40", "--out", str(out)]) == 0
        traj = load_trajectory(str(out))
        assert traj.length == 40
        assert traj.inputs.shape == (40, 1)

    def test_generate_data_matches_library(self, tmp_path):
        from stablepac import generate_dataset

        out = tmp_path / "data.csv"
        main(["generate-data", "--seed", "5", "--n", "30", "--out", str(out)])
        traj = load_trajectory(str(out))
        ref = generate_dataset(5, 30)
        assert np.array_equal(traj.inputs, ref.inputs)
        assert np.array_equal(traj.outputs, ref.outputs)


class TestBoundCommand:
    def test_single_cell_json(self, tmp_path, capsys):
        cfg = {
            "n_grid": [10],
            "n_seeds": 1,
            "n_f": 80,
            "chain": {"proposal_std": 0.05, "burn_in": 30, "thin": 1, "base_seed": 0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(
            ["bound", "--config", str(cfg_path), "--n", "10", "--seed", "1",
             "--delta", "0.1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 10 and doc["seed"] == 1
        assert doc["delta"] == 0.1
        assert doc["total"] == pytest.approx(doc["post_emp_loss"] + doc["r_n"], rel=1e-12)

    def test_out_writes_single_row_csv(self, tmp_path, capsys):
        cfg = {
            "n_grid": [10],
            "n_seeds": 1,
            "n_f": 50,
            "chain": {"proposal_std": 0.05, "burn_in": 20, "thin": 1, "base_seed": 0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "single"
        assert main(
            ["bound", "--config", str(cfg_path), "--n", "10", "--seed", "0",
             "--out", str(out_dir)]
        ) == 0
        rows = (out_dir / "bound_reports.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("10,0,")

    def test_nonpositive_n_fails_before_sampling(self, capsys):
        assert main(["bound", "--n", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: n_grid")


    def test_bad_lambda_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "5", "--lambda", "abc"])
        assert exc.value.code == 2
        assert "error: argument --lambda" in capsys.readouterr().err

    def test_nonpositive_lambda_fails_before_sampling(self, capsys):
        assert main(["bound", "--n", "5", "--lambda", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: fixed lambda")


@pytest.mark.parametrize("command", ["bound", "generate-data", "simulate"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_seed_is_usage_error(command, seed, generator_path, tmp_path, capsys):
    argv = [command, "--n", "5", "--seed", seed]
    if command != "bound":
        argv += ["--out", str(tmp_path / "out.csv")]
    if command == "simulate":
        argv += ["--model", generator_path]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("generate-data", "--n", "0"),
        ("generate-data", "--n", "-3"),
        ("generate-data", "--n", "2.5"),
        ("generate-data", "--e-inf", "-1"),
        ("generate-data", "--e-std", "0"),
        ("generate-data", "--e-std", "nan"),
        ("simulate", "--n", "0"),
        ("simulate", "--e-inf", "0"),
        ("simulate", "--e-std", "-1"),
        ("data-constants", "--e-inf", "0"),
        ("data-constants", "--e-inf", "inf"),
    ],
)
def test_nonpositive_number_is_usage_error(
    command, option, value, generator_path, tmp_path, capsys
):
    argv = [command]
    if command != "data-constants":
        argv += ["--out", str(tmp_path / "out.csv")]
    if command != "generate-data":
        argv += ["--model", generator_path]
    if option != "--n" and command != "data-constants":
        argv += ["--n", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert f"error: argument {option}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


class TestExperimentCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        cfg = {
            "n_grid": [5, 10],
            "n_seeds": 2,
            "n_f": 60,
            "chain": {"proposal_std": 0.05, "burn_in": 20, "thin": 1, "base_seed": 0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir)]
        ) == 0
        reports = (out_dir / "bound_reports.csv").read_text().splitlines()
        assert len(reports) == 1 + 4
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2

    def test_unsupported_loss_fails_before_sampling(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"loss": {"kind": "softmax_xent", "classes": 3}}))
        out_dir = tmp_path / "out"
        assert main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'loss'" in err
        assert not out_dir.exists()

    def test_non_numeric_value_fails_before_sampling(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prior_sigma2": "abc"}))
        out_dir = tmp_path / "out"
        assert main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir)]
        ) == 2
        assert capsys.readouterr().err.startswith(
            "error: prior_sigma2 must be a finite number"
        )
        assert not out_dir.exists()

    def test_non_integral_count_fails_before_sampling(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_seeds": 1.5}))
        out_dir = tmp_path / "out"
        assert main(
            ["experiment", "--config", str(cfg_path), "--out", str(out_dir)]
        ) == 2
        assert capsys.readouterr().err.startswith("error: n_seeds must be an integer")
        assert not out_dir.exists()
