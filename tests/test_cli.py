import json

import pytest

from swapsim import cli, experiment
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
    with pytest.raises(ConfigError, match="unknown config section physics"):
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
    with pytest.raises(ConfigError, match="line 2: experiment.tau is set twice"):
        cli.parse_config_text("experiment.tau = 0.1\nexperiment.tau = 0.7")
    with pytest.raises(ConfigError, match="line 3: budget.eom_on_time is set twice"):
        cli.parse_config_text("budget.eom_on_time = 200\n\nbudget.eom_on_time = 250")


def test_invalid_value_is_config_error():
    for line in (
        "experiment.duty_cycle = 1.7",
        "experiment.trials = 1.5",
        "experiment.master_seed = 1e3",
        "experiment.tau = true",
        "experiment.n_max = 2.5",
        "experiment.bogus = 1",
        "experiment.master_seed = -5",
        f"experiment.master_seed = {2**128}",
        "experiment.tau = 0",
        "experiment.n_max = -3",
        "experiment.spdc_order = 4",
    ):
        with pytest.raises(ConfigError):
            cli.parse_config_text(line)


def test_simulate_rejects_ill_typed_config(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text("experiment.mode = ideal\nexperiment.trials = 1.5\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: experiment.trials must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "experiment.mode = fock\nexperiment.tau = nan\n",
    "budget.fiber_length_ab = inf\n",
], ids=["nan_tau", "inf_fiber_length"])
def test_simulate_rejects_non_finite_config(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "experiment.trials = 20\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trials.jsonl").exists()


@pytest.mark.parametrize("bases", [",", "x,x"], ids=["empty", "repeated"])
@pytest.mark.parametrize("party", ["alice", "bob"])
def test_simulate_rejects_bad_basis_list(tmp_path, capsys, party, bases):
    path = tmp_path / "cfg.txt"
    path.write_text(f"experiment.{party}_bases = {bases}\nexperiment.trials = 20\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {party}_bases must name at least one basis" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trials.jsonl").exists()


def test_verify_all_passes(capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "choice window" in out


def test_parser_is_built_once_and_serves_every_call(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["simulate", "--trials", "200", "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["verify", "timing"]) == 0
    assert "choice window" in capsys.readouterr().out


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


def test_log_identical_for_any_workers_and_chunk_size(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "experiment.mode = fock\n"
        "experiment.qrng_source = physical\n"
        "experiment.fiber_polarization_fidelity = 1.0\n"
        "experiment.trials = 2500\n"
    )
    logs = set()
    for chunk in (1000, 700):
        monkeypatch.setattr(experiment, "CHUNK_TRIALS", chunk)
        for workers in (1, 2, 3):
            out = tmp_path / f"chunk{chunk}-workers{workers}"
            rc = cli.main(["simulate", "--config", str(path), "--workers", str(workers),
                           "--out", str(out)])
            assert rc == 0
            logs.add((out / "trials.jsonl").read_bytes())
    assert len(logs) == 1
    # Reading and writing back, a chunk at a time, changes no byte.
    log = experiment.read_log(out / "trials.jsonl")
    assert len(log) == 2500
    experiment.write_log(tmp_path / "again.jsonl", log)
    assert (tmp_path / "again.jsonl").read_bytes() in logs


@pytest.mark.parametrize("flags, error", [
    (["--workers", "-2"], "error: workers must be at least 1, got -2"),
    (["--seed", "-5"], "error: master_seed must lie in [0, 2**128), got -5"),
], ids=["workers", "seed"])
def test_simulate_bad_flag_fails_before_building(tmp_path, capsys, monkeypatch, flags, error):
    def no_build(config):
        raise AssertionError("engine built")

    monkeypatch.setattr(experiment, "build_engine", no_build)
    rc = cli.main(["simulate", "--trials", "20", *flags, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out" / "trials.jsonl").exists()


@pytest.mark.parametrize("flags, text, error", [
    (["--workers", "0"], "", "error: workers must be at least 1, got 0"),
    ([], "experiment.mode = fock\nexperiment.n_max = 1\n",
     "error: spdc_order must not exceed n_max (1), got 2"),
    (["--trials", "10"], "budget.fiber_length_v = 1\n",
     "error: delay budget yields a negative choice window"),
], ids=["workers", "photon_cap", "negative_choice_window"])
def test_failed_simulate_leaves_no_output_directory(tmp_path, capsys, flags, text, error):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "experiment.trials = 20\n")
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(path), *flags, "--out", str(out)])
    assert rc == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


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
    # Strip the Bell-measurement records from the log to force the error,
    # renumbering the rest so the log stays a complete run.
    log_path = out / "trials.jsonl"
    header, *lines = log_path.read_text().splitlines()
    header = json.loads(header)
    choice = header["columns"].index("victor_choice")
    rows = [row for row in map(json.loads, lines) if row[choice] != "BSM"]
    for k, row in enumerate(rows):
        row[0] = k
    header["config"]["trials"] = len(rows)
    ssm_log = tmp_path / "ssm.jsonl"
    ssm_log.write_text("\n".join(map(json.dumps, [header, *rows])) + "\n")
    capsys.readouterr()
    rc = cli.main(["analyze", str(ssm_log), "--report", "pooled", "--out", str(out)])
    assert rc != 0
    assert "no coincidences in the bsm_pooled group" in capsys.readouterr().err


def test_failed_analyze_leaves_no_output_directory(tmp_path, capsys):
    # table1 needs all three bases, so a z-only log fails before any output.
    path = tmp_path / "z.cfg"
    path.write_text("experiment.alice_bases = z\nexperiment.bob_bases = z\n"
                    "experiment.trials = 2000\n")
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out", str(run)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main(["analyze", str(run / "trials.jsonl"), "--report", "table1", "--out", str(out)])
    assert rc == 1
    assert "table1 needs all three bases" in capsys.readouterr().err
    assert not out.exists()


BAD_ROWS = {
    "short_row": ('[1,"z",1,"x",-1,"BSM"]',
                  "error: line 3: expected an array of the 8 values trial_index, alice_basis, "
                  "alice_outcome, bob_basis, bob_outcome, victor_choice, victor_outcome, kept\n"),
    "bad_basis": ('[1,"q",1,"x",-1,"BSM","phi-23",true]',
                  'error: line 3: alice_basis "q" is not one of "z", "x", "y"\n'),
    "bad_outcome": ('[1,"z",1,"x",true,"BSM","phi-23",true]',
                    "error: line 3: bob_outcome true is not one of 1, -1, null\n"),
    "renumbered": ('[5,"z",1,"x",-1,"BSM","phi-23",true]',
                   "error: line 3: trial_index 5, expected 1\n"),
    "int_kept": ('[1,"z",1,"x",-1,"BSM","phi-23",1]',
                 "error: line 3: kept 1 is not one of false, true\n"),
    "float_outcome": ('[1,"z",1.0,"x",-1,"BSM","phi-23",true]',
                      "error: line 3: alice_outcome 1.0 is not one of 1, -1, null\n"),
    "bool_index": ('[true,"z",1,"x",-1,"BSM","phi-23",true]',
                   "error: line 3: trial_index true is not a trial index\n"),
    "negative_index": ('[-1,"z",1,"x",-1,"BSM","phi-23",true]',
                       "error: line 3: trial_index -1 is not a trial index\n"),
}


# Each row also in default json.dumps spacing: the same message.
@pytest.mark.parametrize("row, error", [
    *(pytest.param(row, error, id=name) for name, (row, error) in BAD_ROWS.items()),
    *(pytest.param(json.dumps(json.loads(row)), error, id=f"{name}-spaced")
      for name, (row, error) in BAD_ROWS.items()),
])
def test_analyze_rejects_bad_row(tmp_path, capsys, row, error):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--mode", "ideal", "--trials", "20", "--out", str(out)]) == 0
    log_path = out / "trials.jsonl"
    lines = log_path.read_text().splitlines()
    lines[2] = row
    log_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["analyze", str(log_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == error


@pytest.mark.parametrize("edit, error", [
    (lambda rows: rows[:399], "error: 399 trial rows, but config.trials is 1000"),
    (lambda rows: rows + rows, "error: line 1002: trial_index 0, expected 1000"),
], ids=["truncated", "duplicated"])
def test_analyze_rejects_missing_or_extra_rows(tmp_path, capsys, edit, error):
    out = tmp_path / "run"
    assert cli.main(["simulate", "--mode", "ideal", "--trials", "1000", "--out", str(out)]) == 0
    log_path = out / "trials.jsonl"
    header, *rows = log_path.read_text().splitlines()
    log_path.write_text("\n".join([header, *edit(rows)]) + "\n")
    capsys.readouterr()
    rc = cli.main(["analyze", str(log_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(error)


def test_reproduce_writes_its_reports(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["reproduce", "--trials", "20000", "--seed", "11", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trials.jsonl", "fig3.csv", "table1.csv", "pooled.csv",
                                   "summary.json"]
    again = tmp_path / "again"
    rc = cli.main(["analyze", str(out / "trials.jsonl"), "--report", "table1", "--out", str(again)])
    assert rc == 0
    assert (again / "table1.csv").read_bytes() == (out / "table1.csv").read_bytes()
    header, *lines = (out / "fig3.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    fig3 = {r["basis"]: r for r in rows if r["group"] == "bsm_phi_minus"}
    for basis, expected in (("z", 1.0), ("x", -1.0), ("y", 1.0)):
        value, sigma = float(fig3[basis]["value"]), float(fig3[basis]["sigma"])
        assert abs(value - expected) <= 5 * sigma


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
