import argparse
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from stablepac import (
    ExperimentConfig,
    build_reference_generator,
    generate_dataset,
    generator_data_constants,
    load_model,
    rnn_constants,
    save_model,
)
from stablepac.bound import BoundReport
from stablepac.cli import _build_parser, main
from stablepac.dynsys import RnnSystem, activation
from stablepac.errors import GainOverflowError, NotStableError
from helpers import doubling_system, random_contractive_system, read_trajectory


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

    @pytest.mark.parametrize("scale", [1e78, 1e155, 1e300])
    def test_huge_a_is_not_certified(self, tmp_path, capsys, scale):
        # An overflowing power iteration certifies [[1e78]] with tau 0.0 and
        # gives [[1e155]] a NaN tau.
        sys = RnnSystem(
            a=np.array([[scale]]),
            b=np.ones((1, 1)),
            b_s=np.zeros(1),
            c=np.ones((1, 1)),
            d=np.ones((1, 1)),
            b_y=np.zeros(1),
            sigma_f=activation("relu"),
            sigma_g=activation("tanh"),
        )
        path = _system_path(tmp_path, sys)
        with pytest.raises(NotStableError):
            rnn_constants(load_model(path))
        assert main(["check-stability", "--model", path]) == 1
        assert json.loads(capsys.readouterr().out) == {"ok": False, "tau": scale}

    @pytest.mark.parametrize("block", ["b", "c", "d"])
    def test_overflowing_gain_is_a_typed_error(self, tmp_path, capsys, block):
        # B = [[1.5e308, 1.5e308]] has ||B||_2 = sqrt(2) * 1.5e308, beyond the
        # largest float; so have C = B.T and D = [[1.5e308, 1.5e308], [0, 0]].
        weights = {"b": np.ones((1, 2)), "c": np.ones((2, 1)), "d": np.zeros((2, 2))}
        weights[block] = np.zeros(weights[block].shape)
        weights[block].flat[:2] = 1.5e308
        sys = RnnSystem(
            a=np.array([[0.5]]),
            b_s=np.zeros(1),
            b_y=np.zeros(2),
            sigma_f=activation("relu"),
            sigma_g=activation("tanh"),
            **weights,
        )
        path = _system_path(tmp_path, sys)
        name = f"||{block.upper()}||_2"
        with pytest.raises(GainOverflowError, match=re.escape(name)):
            rnn_constants(load_model(path))
        assert main(["check-stability", "--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"{name} exceeds the largest float: no finite certificate gain"
        assert captured.err == f"error: {message}\n"

    def test_tau_agrees_with_rnn_constants(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        for k in range(30):
            sys = random_contractive_system(rng)
            path = _system_path(tmp_path, sys, f"model{k}.json")
            assert main(["check-stability", "--model", path]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"ok": True, "tau": rnn_constants(load_model(path)).tau}


class TestDataConstants:
    @pytest.mark.parametrize("capped", [True, False])
    def test_effective_b_q_matches_generator_data_constants(
        self, tmp_path, capsys, capped
    ):
        # At e_inf = 2 the reference generator's b_q exceeds its sqrt(2) tanh
        # cap; an identity output has no cap.
        sys = build_reference_generator()
        if not capped:
            sys = dataclasses.replace(sys, sigma_g=activation("identity"))
        path = _system_path(tmp_path, sys)
        assert main(["data-constants", "--model", path, "--e-inf", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = generator_data_constants(load_model(path), 2.0).b_q
        assert doc["b_q_effective"] == expected
        if capped:
            assert doc["saturation_bound"] == expected < doc["b_q"]
        else:
            assert doc["saturation_bound"] is None and expected == doc["b_q"]

    def test_certifies_the_model_once(self, generator_path, capsys, monkeypatch):
        import stablepac.cli
        import stablepac.mixing

        calls = []

        def counted(sys):
            calls.append(sys)
            return rnn_constants(sys)

        for module in (stablepac.cli, stablepac.mixing):
            monkeypatch.setattr(module, "rnn_constants", counted)
        assert main(["data-constants", "--model", generator_path]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_q_effective"] == doc["b_q"] < doc["saturation_bound"]

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
        traj = read_trajectory(out)
        assert traj.length == 25
        assert traj.inputs.shape == (25, 2) and traj.outputs.shape == (25, 2)

    def test_simulate_overflow_is_a_typed_error(self, tmp_path, capsys):
        # The states overflow before step 2000.
        out = tmp_path / "sim.csv"
        assert main(
            ["simulate", "--model", _system_path(tmp_path, doubling_system()), "--n", "2000",
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err == "error: outputs overflow within 2000 steps: the states diverge\n"
        assert not out.exists()

    def test_generate_data_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate-data", "--seed", "0", "--n", "40", "--out", str(out)]) == 0
        traj = read_trajectory(out)
        assert traj.length == 40
        assert traj.inputs.shape == (40, 1)

    def test_generate_data_matches_library(self, tmp_path):
        from stablepac import generate_dataset

        out = tmp_path / "data.csv"
        main(["generate-data", "--seed", "5", "--n", "30", "--out", str(out)])
        traj = read_trajectory(out)
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

    def test_matches_the_experiment_row(self, tmp_path, capsys):
        # A seed's prior cloud does not depend on the grid, so one cell run
        # alone equals that cell of the whole experiment, field for field.
        from stablepac.experiment import REPORT_COLUMNS

        cfg = {"n_grid": [5, 50, 120], "n_seeds": 2, "n_f": 60, "chain": {"burn_in": 20}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["bound", "--config", str(cfg_path), "--seed", "1", "--n", "50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        lines = (out_dir / "bound_reports.csv").read_text().splitlines()
        assert lines[0].split(",") == REPORT_COLUMNS
        (row,) = [r.split(",") for r in lines[1:] if r.startswith("50,1,")]
        keys = [f.name for f in dataclasses.fields(BoundReport)]
        assert sorted(doc) == sorted(keys)
        for key, text in zip(keys, row, strict=True):
            # an int field is written as digits, which int() alone reads
            assert doc[key] == type(doc[key])(text)

    def test_nonpositive_n_fails_before_sampling(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "stablepac bound: error: argument --n: n must be > 0, got 0"

    @pytest.mark.parametrize("command", ["bound", "experiment"])
    def test_overflowing_lambda_is_a_typed_error(self, command, tmp_path, capsys):
        # lambda^2 overflows psi1's exponent; no RuntimeWarning, no traceback.
        cfg = {"n_grid": [20], "n_seeds": 1, "n_f": 50, "lambda_rule": 1e200,
               "chain": {"burn_in": 20}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--n", "20"] if command == "bound" else [])) == 2
        err = capsys.readouterr().err
        assert err == "error: lambda = 1e+200 overflows the bound's exponents at n = 20\n"

    def test_underflowing_weights_exit_0(self, tmp_path, capsys):
        from stablepac.cloudloss import prefix_losses
        from stablepac.experiment import _prior_cloud

        cfg = {"n_f": 50, "chain": {"burn_in": 20}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(
            ["bound", "--config", str(cfg_path), "--n", "20", "--lambda", "1e5"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        # the cell's own cloud: exp(-1e5 * loss) underflows to 0 on all of it
        cell = ExperimentConfig.from_dict({**cfg, "n_grid": [20], "lambda_rule": 1e5})
        data = generate_dataset(0, 20, cell.e_std, cell.e_inf)
        (losses,) = prefix_losses(
            _prior_cloud(cell, 0), data.inputs, data.outputs, [20]
        )
        assert np.all(np.exp(-1e5 * losses) == 0.0)
        assert doc["kl"] >= 0.0
        assert float(np.min(losses)) <= doc["post_emp_loss"] <= float(np.max(losses))
        assert math.isfinite(doc["r_n"]) and math.isfinite(doc["total"])
        assert doc["z_hat"] > 0.0 and not math.isnan(doc["z_hat"])

    def test_sqrt_n_lambda_is_the_default(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_f": 50, "chain": {"burn_in": 20}}))
        argv = ["bound", "--config", str(cfg_path), "--n", "20"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--lambda", "sqrt_n"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["lambda_"] == math.sqrt(20)

    def test_bad_lambda_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "5", "--lambda", "abc"])
        assert exc.value.code == 2
        assert "error: argument --lambda" in capsys.readouterr().err

    def test_nonpositive_lambda_fails_before_sampling(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--n", "5", "--lambda", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "stablepac bound: error: argument --lambda: lambda_rule must be > 0, got 0.0"


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
    # The rule's message, not int()'s "invalid literal".
    assert "error: argument --seed: seed must be " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# (command, option, value, the name the usage error gives)
BAD_NUMBERS = [
    ("generate-data", "--n", "0", "n"),
    ("generate-data", "--n", "-3", "n"),
    ("generate-data", "--n", "2.5", "n"),
    ("generate-data", "--e-inf", "-1", "e_inf"),
    ("generate-data", "--e-std", "0", "e_std"),
    ("generate-data", "--e-std", "nan", "e_std"),
    ("generate-data", "--e-std", "abc", "e_std"),
    ("simulate", "--n", "0", "n"),
    ("simulate", "--e-inf", "0", "e_inf"),
    ("simulate", "--e-std", "-1", "e_std"),
    ("data-constants", "--e-inf", "0", "e_inf"),
    ("data-constants", "--e-inf", "inf", "e_inf"),
    ("bound", "--n", "2.5", "n"),
    ("bound", "--delta", "abc", "delta"),
    ("bound", "--delta", "0.6", "delta"),
    ("bound", "--lambda", "abc", "lambda_rule"),
    ("bound", "--lambda", "nan", "lambda_rule"),
]


@pytest.mark.parametrize(
    "command,option,value,name", BAD_NUMBERS, ids=["-".join(c[:3]) for c in BAD_NUMBERS]
)
def test_nonpositive_number_is_usage_error(
    command, option, value, name, generator_path, tmp_path, capsys
):
    argv = [command]
    if command not in ("data-constants", "bound"):
        argv += ["--out", str(tmp_path / "out.csv")]
    if command not in ("generate-data", "bound"):
        argv += ["--model", generator_path]
    if option != "--n" and command != "data-constants":
        argv += ["--n", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    assert exc.value.code == 2
    assert f"error: argument {option}: {name} must be " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_no_option_parses_with_a_bare_int_or_float():
    # A bare type lets through what the option's rule rejects (nan, inf, 0):
    # every number is read by an errors.check rule instead.
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [
        f"{command} {action.option_strings[0]}"
        for command, p in sub.choices.items()
        for action in p._actions
        if action.type in (int, float)
    ]
    assert not bare, f"options parsed by a bare int or float: {bare}"


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["constants", "--model"], None, "No such file"),
        (["constants", "--model"], {"B": None}, "no key 'B'"),
        (["constants", "--model"], {"A": [[0.5, 0.1, 0.0], [0.1, 0.2, 0.0]]},
         "a must have shape (2, 2), got (2, 3)"),
        (["constants", "--model"], {"b_s": ["a", "b"]}, "b_s must be an array of numbers"),
        (["constants", "--model"], "[1, 2]", "model must be an object, got [1, 2]"),
        (["check-stability", "--model"], {"sigma_f": "gelu"}, "activation"),
        (["data-constants", "--model"], "{", "Expecting"),
        (["experiment", "--config"], None, "No such file"),
        (["experiment", "--config"], "{", "is not JSON"),
    ],
    ids=["missing", "no-B", "non-square", "non-numeric-b_s", "not-an-object", "gelu",
         "not-json", "missing-config", "not-json-config"],
)
def test_bad_input_file_is_usage_error(
    argv, content, message, generator_path, tmp_path, capsys
):
    # content: None writes no file, a dict edits the reference generator's
    # model (a None value drops the key), a string is the file's text.
    path = tmp_path / "input.json"
    if isinstance(content, dict):
        with open(generator_path) as fh:
            doc = {**json.load(fh), **content}
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    elif content is not None:
        path.write_text(content)
    out = ["--out", str(tmp_path / "out")] if argv[0] == "experiment" else []
    assert main(argv + [str(path)] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err
    assert not (tmp_path / "out").exists()


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
        assert err == "error: loss is not a config key\n"
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


@pytest.mark.parametrize(
    "command,out",
    [
        ("simulate", "missing/t.csv"),
        ("generate-data", "missing/t.csv"),
        ("simulate", "file/t.csv"),
        ("generate-data", "file/t.csv"),
        ("bound", "file/x"),
        ("experiment", "file/x"),
    ],
)
def test_unwritable_output_is_error_exit(
    command, out, generator_path, tmp_path, monkeypatch, capsys
):
    # "missing" is no directory and "file" is a regular file.  bound and
    # experiment make their output directory before any sampling.
    import stablepac.cli

    def no_run(*args, **kwargs):
        raise AssertionError("sampling ran before the output directory failed")

    monkeypatch.setattr(stablepac.cli, "run_experiment", no_run)
    monkeypatch.setattr(stablepac.cli, "run_seed", no_run)
    (tmp_path / "file").write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [10], "n_seeds": 1, "n_f": 20}))
    args = {
        "simulate": ["--model", generator_path, "--n", "5"],
        "generate-data": ["--n", "5"],
        "bound": ["--config", str(cfg_path), "--n", "10"],
        "experiment": ["--config", str(cfg_path)],
    }[command]
    path = str(tmp_path / out)
    assert main([command, *args, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
