"""End-to-end coverage of the partid command line: exit codes, artifacts,
seed overrides, output formats."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partid
from partid.cli import main
from partid.errors import NumericalError

EXPERIMENT_DOC = {
    "arms": [
        {"family": "gaussian", "variance": 1.0},
        {"family": "gaussian", "variance": 1.0},
    ],
    "true_means": [2.0, 0.0],
    "partition": {"type": "threshold", "u": 1.0},
    "deltas": [0.2],
    "replications": 3,
    "seed": 7,
    "max_steps": 20000,
}

RISK_DOC = {
    "n_outer": 6,
    "horizon": 3,
    "u": 1.0,
    "inner_delta": 0.1,
    "factor_model": {"volatility": 1.0},
    "payoff": "identity",
    "seed": 5,
    "max_steps": 5000,
}


@pytest.fixture
def experiment_config(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(EXPERIMENT_DOC))
    return str(path)


@pytest.fixture
def risk_config(tmp_path):
    path = tmp_path / "risk.json"
    path.write_text(json.dumps(RISK_DOC))
    return str(path)


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PARTID_SEED", raising=False)


class TestLb:

    def test_text_output_and_artifact(self, experiment_config, tmp_path,
                                      capsys):
        out = tmp_path / "artifacts"
        assert main(["lb", experiment_config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "c_star" in stdout and "0.5" in stdout
        saved = json.loads((out / "lb.json").read_text())
        assert saved["t_star"] == pytest.approx(2.0, rel=1e-12)
        assert saved["w_star"] == [1.0, 0.0]

    def test_json_format_prints_the_payload(self, experiment_config,
                                            tmp_path, capsys):
        code = main(["lb", experiment_config, "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_star"] == pytest.approx(0.5, rel=1e-12)
        assert "kkt_residuals" in payload

    def test_json_format_prints_the_saved_artifact(self, experiment_config,
                                                   tmp_path, capsys):
        # one writer: lb.json is the printed payload and a newline
        main(["lb", experiment_config, "--out", str(tmp_path),
              "--format", "json"])
        assert capsys.readouterr().out == \
            (tmp_path / "lb.json").read_text(encoding="utf-8")


class TestRun:

    def test_single_run_writes_csv(self, experiment_config, tmp_path,
                                   capsys):
        code = main(["run", experiment_config, "--out", str(tmp_path),
                     "--delta", "0.1"])
        assert code == 0
        assert "declared" in capsys.readouterr().out
        with open(tmp_path / "run.csv", newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) == 2
        assert records[1][0] == "0.1"

    def test_delta_out_of_range_is_a_config_error(self, experiment_config,
                                                  tmp_path, capsys):
        code = main(["run", experiment_config, "--out", str(tmp_path),
                     "--delta", "1.5"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def run_seed(self, config, tmp_path, capsys, extra=()):
        code = main(["run", config, "--out", str(tmp_path),
                     "--delta", "0.2", "--format", "json", *extra])
        assert code == 0
        return json.loads(capsys.readouterr().out)["seed"]

    def test_seed_precedence(self, experiment_config, tmp_path, capsys,
                             monkeypatch):
        base = self.run_seed(experiment_config, tmp_path, capsys)
        monkeypatch.setenv("PARTID_SEED", "123")
        env_seed = self.run_seed(experiment_config, tmp_path, capsys)
        assert env_seed != base
        # --seed outranks the environment
        flag_seed = self.run_seed(experiment_config, tmp_path, capsys,
                                  extra=("--seed", "7"))
        assert flag_seed == base

    def test_non_integer_env_seed_fails_cleanly(self, experiment_config,
                                                tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("PARTID_SEED", "lucky")
        code = main(["run", experiment_config, "--out", str(tmp_path),
                     "--delta", "0.2"])
        assert code == 2
        assert "PARTID_SEED" in capsys.readouterr().err


class TestMc:

    def test_artifacts_and_parallelism_flag(self, experiment_config,
                                            tmp_path, capsys):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["mc", experiment_config, "--out", str(out1),
                     "--parallelism", "1"]) == 0
        assert main(["mc", experiment_config, "--out", str(out2),
                     "--parallelism", "2"]) == 0
        capsys.readouterr()
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["summaries"][0]["completed"] == 3

    def test_json_format(self, experiment_config, tmp_path, capsys):
        code = main(["mc", experiment_config, "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summaries"][0]["delta"] == 0.2


class TestRiskDemo:

    def test_artifacts(self, risk_config, tmp_path, capsys):
        code = main(["risk-demo", risk_config, "--out", str(tmp_path)])
        assert code == 0
        assert "gamma_hat" in capsys.readouterr().out
        with open(tmp_path / "risk_paths.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 7
        summary = json.loads((tmp_path / "risk_summary.json").read_text())
        assert summary["summary"]["n_outer"] == 6

    def test_rejects_experiment_config(self, experiment_config, tmp_path,
                                       capsys):
        code = main(["risk-demo", experiment_config, "--out",
                     str(tmp_path)])
        assert code == 2
        assert "risk-demo config" in capsys.readouterr().err


class TestErrorPaths:

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["lb", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**EXPERIMENT_DOC, "mystery": 1}))
        assert main(["lb", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_lb_rejects_risk_config(self, risk_config, tmp_path, capsys):
        code = main(["lb", risk_config, "--out", str(tmp_path)])
        assert code == 2
        assert "experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mc", "risk-demo"])
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_parallelism_below_one_is_a_config_error(
            self, experiment_config, risk_config, tmp_path, capsys, command,
            workers):
        config = risk_config if command == "risk-demo" else experiment_config
        code = main([command, config, "--out", str(tmp_path),
                     "--parallelism", workers])
        assert code == 2
        assert "--parallelism" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["lb", "run"])
    def test_parallelism_is_not_a_flag_of_serial_commands(
            self, experiment_config, tmp_path, capsys, command):
        argv = [command, experiment_config, "--out", str(tmp_path),
                "--parallelism", "2"]
        if command == "run":
            argv += ["--delta", "0.2"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--parallelism" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_3(self, experiment_config,
                                              tmp_path, capsys,
                                              monkeypatch):
        import partid.cli as cli_mod

        def explode(*_args, **_kwargs):
            raise NumericalError("no bracket for target")

        monkeypatch.setattr(cli_mod, "solve", explode)
        code = main(["lb", experiment_config, "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--delta", "0.1"], ["mc"]])
@pytest.mark.parametrize("partition", [
    {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
    {"type": "union_halfspaces",
     "halfspaces": [{"a": [1.0, 0.0], "b": -1.0},
                    {"a": [0.0, 1.0], "b": -1.0}]},
], ids=["ball", "union"])
def test_truth_on_an_uncovered_side_exits_2(partition, command, tmp_path,
                                            capsys):
    path = tmp_path / "uncovered.json"
    # a short max_steps bounds the runs should the check ever go missing
    path.write_text(json.dumps({**EXPERIMENT_DOC, "true_means": [0.0, 0.0],
                                "partition": partition, "replications": 1,
                                "max_steps": 5}))
    code = main([command[0], str(path), "--out", str(tmp_path)]
                + command[1:])
    assert code == 2
    assert "which solvers do not cover" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_console_script_is_wired(experiment_config, tmp_path):
    # the child imports the same partid as this process, installed or not
    src = str(Path(partid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "partid.cli", "lb", experiment_config,
         "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "c_star" in proc.stdout
