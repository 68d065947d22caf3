import json

import pytest

from swapsim import cli
from swapsim.cli import ConfigError


def test_parse_config_text():
    text = """
    # comment
    experiment.mode = ideal
    experiment.trials = 123
    experiment.master_seed = 99
    experiment.alice_bases = z, x
    budget.eom_on_time = 200
    """
    cfg = cli.parse_config_text(text)
    assert cfg.mode == "ideal"
    assert cfg.trials == 123
    assert cfg.master_seed == 99
    assert cfg.alice_bases == ("z", "x")
    assert cfg.budget.eom_on_time == 200
    assert isinstance(cfg.budget.eom_on_time, float)
    assert cli.parse_config_text("experiment.alice_bases = z").alice_bases == ("z",)


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError):
        cli.parse_config_text("experiment.nonsense = 1")
    with pytest.raises(ConfigError):
        cli.parse_config_text("physics.tau = 0.1")
    with pytest.raises(ConfigError):
        cli.parse_config_text("trials = 10")
    with pytest.raises(ConfigError):
        cli.parse_config_text("experiment.trials 10")
    with pytest.raises(ConfigError):
        cli.parse_config_text("experiment.budget = 3")
    with pytest.raises(ConfigError):
        cli.parse_config_text("experiment.budget = 3\nbudget.eom_on_time = 200")
    with pytest.raises(ConfigError):
        cli.parse_config_text("budget.eom_on_time = 200\nexperiment.budget = 3")


def test_invalid_value_is_config_error():
    for line in (
        "experiment.duty_cycle = 1.7",
        "experiment.trials = 1.5",
        "experiment.master_seed = 1e3",
        "experiment.tau = true",
        "experiment.n_max = 2.5",
        "experiment.bogus = 1",
    ):
        with pytest.raises(ConfigError):
            cli.parse_config_text(line)


def test_simulate_rejects_ill_typed_config(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("experiment.mode = ideal\nexperiment.trials = 1.5\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: experiment.trials must be an integer" in capsys.readouterr().err


def test_verify_all_passes(capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "choice window" in out


def test_simulate_and_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "simulate", "--mode", "ideal", "--trials", "3000", "--seed", "17",
        "--out", str(out),
    ])
    assert rc == 0
    log_path = out / "trials.jsonl"
    assert log_path.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 17
    assert "trials.jsonl" in manifest["outputs"]

    rc = cli.main(["analyze", str(log_path), "--report", "table1", "--out", str(out)])
    assert rc == 0
    assert (out / "table1.csv").exists()
    rc = cli.main(["analyze", str(log_path), "--report", "fig3", "--out", str(out)])
    assert rc == 0
    rc = cli.main(["analyze", str(log_path), "--report", "pooled", "--out", str(out)])
    assert rc == 0


def test_simulate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = cli.main([
            "simulate", "--mode", "ideal", "--trials", "1000", "--seed", "4",
            "--out", str(out),
        ])
        assert rc == 0
    assert (a / "trials.jsonl").read_bytes() == (b / "trials.jsonl").read_bytes()


def test_simulate_zero_trials_fails(tmp_path, capsys):
    rc = cli.main([
        "simulate", "--mode", "ideal", "--trials", "0", "--out", str(tmp_path / "x"),
    ])
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_analyze_pooled_on_ssm_only_log_fails(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "simulate", "--mode", "ideal", "--trials", "2000", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    # Strip the Bell-measurement records from the log to force the error.
    log_path = out / "trials.jsonl"
    lines = log_path.read_text().splitlines()
    kept = [lines[0]] + [
        ln for ln in lines[1:] if json.loads(ln)["victor_choice"] != "BSM"
    ]
    ssm_log = tmp_path / "ssm.jsonl"
    ssm_log.write_text("\n".join(kept) + "\n")
    rc = cli.main(["analyze", str(ssm_log), "--report", "pooled", "--out", str(out)])
    assert rc != 0


def test_analyze_missing_log_fails(tmp_path, capsys):
    rc = cli.main(["analyze", str(tmp_path / "none.jsonl"), "--out", str(tmp_path)])
    assert rc != 0


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("experiment.mode = ideal\nexperiment.trials = 50\n")
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert rc == 0
    lines = (out / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 51  # header plus one record per trial
