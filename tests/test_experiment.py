import itertools
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from swapsim import experiment as ex
from swapsim import fock, states
from swapsim.analysis import coincidence_counts
from swapsim.bisa import VICTOR_DETECTORS, BisaOutcome, BisaSetting, classify
from swapsim.qrng import QrngConfig, QrngSimulator
from swapsim.timeline import event_times
from step_oracle import VICTOR_BANK, VICTOR_BANK_TAGGED, analyzer_pass, click_patterns


def small_config(**kw):
    base = dict(mode="ideal", trials=4000, master_seed=101, duty_cycle=1.0)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def assert_same_trials(a, b):
    for name in ex.COLUMNS:
        assert a.columns[name].dtype == b.columns[name].dtype
        assert np.array_equal(a.columns[name], b.columns[name])


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(mode="nope")
    with pytest.raises(ValueError):
        ex.ExperimentConfig(duty_cycle=1.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(alice_bases=("z", "q"))
    for tau in (-0.1, 0.0):
        with pytest.raises(ValueError, match="tau must be positive"):
            ex.ExperimentConfig(tau=tau)
    for seed in (-5, 2**128):
        with pytest.raises(ValueError, match="master_seed must lie in"):
            ex.ExperimentConfig(master_seed=seed)
    ex.ExperimentConfig(master_seed=2**128 - 1)
    for order in (0, -1):
        with pytest.raises(ValueError, match="spdc_order must be at least 1"):
            ex.ExperimentConfig(mode="fock", spdc_order=order)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            ex.ExperimentConfig(n_max=cap)
    with pytest.raises(ValueError, match=r"spdc_order must not exceed n_max \(3\), got 4"):
        ex.ExperimentConfig(mode="fock", spdc_order=4)
    with pytest.raises(ValueError, match=r"spdc_order must not exceed n_max \(1\), got 2"):
        ex.ExperimentConfig(mode="fock", n_max=1)
    ex.ExperimentConfig(mode="fock", spdc_order=1, n_max=1)


def test_run_trials_positive():
    with pytest.raises(ValueError):
        ex.run_trials(ex.ExperimentConfig(trials=0))


def test_kept_fractions_ideal():
    # Half of the Bell-measurement trials land on psi+- and are discarded;
    # half of the separable-measurement trials land on HV/VH. Either way the
    # kept fraction is 1/2 at full duty cycle.
    log = ex.run_trials(small_config(trials=20_000))
    choice, kept_col = log.columns["victor_choice"], log.columns["kept"]
    for bit in (1, 0):  # BSM, SSM
        group = choice == bit
        n = np.count_nonzero(group)
        kept = np.count_nonzero(kept_col & group)
        sigma = np.sqrt(n * 0.25)
        assert abs(kept - 0.5 * n) < 5 * sigma


def test_duty_cycle_drops_victor_stage():
    log = ex.run_trials(small_config(duty_cycle=0.4, trials=10_000))
    cols = log.columns
    dropped = cols["victor_outcome"] == ex.VICTOR_OUTCOMES.index(None)
    n = len(log)
    sigma = np.sqrt(n * 0.4 * 0.6)
    assert abs(np.count_nonzero(dropped) - 0.6 * n) < 5 * sigma
    # Alice and Bob still measured on dropped trials.
    assert np.all(np.abs(cols["alice_outcome"][dropped]) == 1)
    assert np.all(np.abs(cols["bob_outcome"][dropped]) == 1)
    assert not np.any(cols["kept"][dropped])


def test_determinism_across_workers(monkeypatch):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 300)
    cfg = small_config(trials=2000)
    serial = ex.run_trials(cfg, workers=1)
    parallel = ex.run_trials(cfg, workers=4)
    assert_same_trials(serial, parallel)


@pytest.mark.parametrize("workers", [1, 3])
def test_engine_built_once_for_any_workers(tmp_path, monkeypatch, workers):
    """The engine is built in the calling process only, whatever the worker
    count; the workers sample the tables built there."""
    pids = tmp_path / "pids"
    build = ex.build_engine

    def recording_build(config):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(config)

    monkeypatch.setattr(ex, "build_engine", recording_build)
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 500)
    ex.run_trials(small_config(trials=2000), workers=workers)
    assert pids.read_text().splitlines() == [str(os.getpid())]


def test_run_trials_rejects_workers_below_one_before_building(monkeypatch):
    def no_build(config):
        raise AssertionError("engine built")

    monkeypatch.setattr(ex, "build_engine", no_build)
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        ex.run_trials(small_config(), workers=0)


def test_physical_qrng_choice_source():
    cfg = small_config(trials=2000, qrng_source="physical")
    log = ex.run_trials(cfg)
    choice = log.columns["victor_choice"]
    n_bsm = np.count_nonzero(choice == 1)
    sigma = np.sqrt(len(log) * 0.25)
    assert abs(n_bsm - 0.5 * len(log)) < 5 * sigma
    # The choice bits are one telegraph stream, sampled once per trial.
    seed = np.random.SeedSequence([cfg.master_seed, 0x51])
    bits = QrngSimulator(QrngConfig(seed=seed)).bits(cfg.trials)
    assert np.array_equal(choice, bits)


def test_coincidence_counts_sort_kept_trials():
    # The coincidence map sorts every kept, basis-matched fourfold trial
    # into exactly one of the four outcome classes of its commanded setting.
    cfg = small_config(trials=5000)
    log = ex.run_trials(cfg)
    cols = log.columns
    counts = coincidence_counts(log)
    matched = (np.array(cfg.alice_bases)[cols["alice_basis"]]
               == np.array(cfg.bob_bases)[cols["bob_basis"]])
    fourfold = (cols["alice_outcome"] != 0) & (cols["bob_outcome"] != 0)
    assert sum(counts.values()) == np.count_nonzero(cols["kept"] & matched & fourfold)
    assert all(outcome in ex.KEPT_OUTCOMES[setting] for setting, outcome, *_ in counts)


def test_conditional_states_bsm():
    rho = ex.conditional_state(BisaSetting.BSM, BisaOutcome.PHI_MINUS_23, (1, 4))
    assert abs(states.fidelity(rho, states.bell_state("phi-")) - 1.0) < 1e-12
    rho = ex.conditional_state(BisaSetting.BSM, BisaOutcome.PHI_PLUS_23, (1, 4))
    assert abs(states.fidelity(rho, states.bell_state("phi+")) - 1.0) < 1e-12
    rho = ex.conditional_state(BisaSetting.BSM, BisaOutcome.PHI_MINUS_23, (1, 2))
    assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)
    assert abs(states.fidelity(rho, states.bell_state("psi-")) - 0.25) < 1e-12


def test_conditional_states_ssm():
    rho = ex.conditional_state(BisaSetting.SSM, BisaOutcome.HH_23, (1, 4))
    assert abs(states.fidelity(rho, states.ket("VV")) - 1.0) < 1e-12
    rho = ex.conditional_state(BisaSetting.SSM, None, (1, 2))
    assert abs(states.fidelity(rho, states.bell_state("psi-")) - 1.0) < 1e-12
    rho = ex.conditional_state(BisaSetting.SSM, None, (3, 4))
    assert abs(states.fidelity(rho, states.bell_state("psi-")) - 1.0) < 1e-12
    # Pooled separable outcomes on (1,4): the HH/VV mixture.
    rho = ex.conditional_state(BisaSetting.SSM, None, (1, 4))
    mix = 0.5 * (
        states.ket("HH").density_matrix().matrix + states.ket("VV").density_matrix().matrix
    )
    assert np.allclose(rho.matrix, mix, atol=1e-12)


def test_conditional_state_errors():
    with pytest.raises(ValueError):
        ex.conditional_state(BisaSetting.BSM, BisaOutcome.HH_23, (1, 4))
    with pytest.raises(ValueError):
        ex.conditional_state(BisaSetting.SSM, BisaOutcome.PHI_MINUS_23, (1, 2))
    with pytest.raises(ValueError):
        ex.conditional_state(BisaSetting.BSM, None, (2, 4))


def test_ordering_indifference():
    for setting in BisaSetting:
        for ab in ("z", "x", "y"):
            for bb in ("z", "y"):
                j1 = ex.ordering_joint(ab, bb, setting, "alice_bob_first")
                j2 = ex.ordering_joint(ab, bb, setting, "victor_first")
                keys = set(j1) | set(j2)
                for k in keys:
                    assert abs(j1.get(k, 0.0) - j2.get(k, 0.0)) < 1e-12
                assert abs(sum(j1.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("kw", [
    {},
    dict(alice_bases=("x", "z"), bob_bases=("y",)),
], ids=["all_bases", "basis_subset"])
def test_ideal_engine_equals_ordering_joint(kw):
    engine = ex.IdealEngine(ex.ExperimentConfig(**kw))
    keys = [(ab, bb, setting) for setting in BisaSetting
            for ab in engine.config.alice_bases for bb in engine.config.bob_bases]
    assert list(engine._dist) == keys
    for ab, bb, setting in keys:
        a, b, classes = (c.tolist() for c in engine.columns[setting])
        outcomes = [outcome for outcome, _ in ex._victor_projections(setting)]
        first = ex.ordering_joint(ab, bb, setting, "alice_bob_first")
        cats = [(x, y, ex.VICTOR_OUTCOMES[v]) for x, y, v in zip(a, b, classes[0])]
        assert cats == [(a, b, outcomes[label]) for a, b, label in first]
        # No switching error: both choice bits read Victor's own outcome.
        assert classes[1] == classes[0]
        probs = dict(zip(first, engine._dist[(ab, bb, setting)]))
        for joint in (first, ex.ordering_joint(ab, bb, setting, "victor_first")):
            assert set(joint) == set(probs)
            assert max(abs(joint[k] - p) for k, p in probs.items()) < 1e-15
    # The sampler's tables hold only the categories of positive probability
    # (the default's tables have zeros, which a clamped searchsorted index
    # could otherwise land on), each ending within 1e-15 of 1.
    tables = ex._sampling_tables(engine, engine.config)
    groups = itertools.product(engine.config.alice_bases, engine.config.bob_bases, (0, 1))
    for (ab, bb, bit), (cum, a_out, b_out, victor) in zip(groups, tables, strict=True):
        setting = BisaSetting.from_bit(bit)
        present = engine._dist[(ab, bb, setting)] > 0.0
        assert np.all(np.diff(cum, prepend=0.0) > 0.0)
        assert abs(cum[-1] - 1.0) < 1e-15
        for got, column in zip((a_out, b_out, victor), engine.columns[setting]):
            assert np.array_equal(got, column[..., present])
    if not kw:
        assert sum((p == 0.0).sum() for p in engine._dist.values()) == 68


def test_rate_budget():
    budget = ex.rate_budget(ex.ExperimentConfig())
    assert budget.fraction == pytest.approx(0.21**2 * 0.25 * 0.5 * 0.6)
    assert abs(budget.fraction - 0.0033) < 1e-4
    assert abs(budget.fourfold_rate - 0.016) < 1e-3


def test_rate_budget_degenerate_factors():
    cfg = ex.ExperimentConfig(input_transmission=1.0, duty_cycle=1.0)
    assert ex.rate_budget(cfg).fraction == pytest.approx(0.125)
    cfg = ex.ExperimentConfig(input_transmission=0.0)
    assert ex.rate_budget(cfg).fourfold_rate == 0.0


def test_imperfection_product():
    assert abs(ex.imperfection_product((0.674, 0.964, 0.94, 0.99)) - 0.605) < 1e-3
    assert abs(ex.imperfection_product((0.95, 0.99)) - 0.94) < 1e-3
    assert ex.imperfection_product(()) == 1.0
    with pytest.raises(ValueError):
        ex.imperfection_product((1.2,))


def test_calibrate_tau_roundtrip():
    tau = 0.35
    p = {1: 0.0, 2: 0.0}
    for occ, a in fock.spdc_source(tau, 2, normalize=False).amp.items():
        pairs = sum(occ) // 2
        if pairs in p:
            p[pairs] += abs(a) ** 2
    back = ex.calibrate_tau(p[2] / p[1])
    assert abs(back - tau) < 1e-12
    with pytest.raises(ValueError):
        ex.calibrate_tau(-0.1)
    with pytest.raises(ValueError, match="outside the calibrated range"):
        ex.calibrate_tau(2.0)  # tau 1.63


def test_log_roundtrip(tmp_path):
    cfg = small_config(trials=300)
    log = ex.run_trials(cfg)
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    back = ex.read_log(path)
    assert back.config == cfg
    assert_same_trials(back, log)


# The fock-trials benchmark config: null outcomes, discards and the
# physical QRNG's choice bits.
FOCK_TRIALS = dict(mode="fock", qrng_source="physical", input_transmission=1.0,
                   detector_efficiency=1.0, fiber_polarization_fidelity=1.0)


def _log_rows(log):
    """The rows of ``log`` as lists of log values."""
    values = {name: {code: value for value, code in lut.items()}
              for name, lut in ex._column_codes(log.config).items()}
    columns = [log.columns[name].tolist() for name in ex.COLUMNS]
    return [[col if name not in values else values[name][col]
             for name, col in zip(ex.COLUMNS, row)] for row in zip(*columns)]


@pytest.mark.parametrize("trials", [1, ex.CHUNK_TRIALS, ex.CHUNK_TRIALS + 1])
@pytest.mark.parametrize("kw", [
    dict(mode="ideal"),
    FOCK_TRIALS,
    dict(mode="ideal", alice_bases=("z",), bob_bases=("x", "y")),
], ids=["ideal", "fock_trials", "basis_subset"])
def test_write_log_equals_its_definition(tmp_path, kw, trials):
    cfg = ex.ExperimentConfig(trials=trials, **kw)
    log = ex.run_trials(cfg)
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    header = {
        "kind": "swapsim-trial-log",
        "version": ex.LOG_VERSION,
        "config": asdict(cfg),
        "event_times": asdict(event_times(cfg.budget)),
        "columns": list(ex.COLUMNS),
    }
    expected = [json.dumps(header, sort_keys=True)]
    expected += [json.dumps(row, separators=(",", ":")) for row in _log_rows(log)]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_log_roundtrip_across_chunks_with_new_tails(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 64)
    log = ex.run_trials(ex.ExperimentConfig(trials=2 * 64 + 1, master_seed=8, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    # The second chunk brings row tails the first did not have; the last
    # row's tail is one of the first chunk's.
    tails = [line.split(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    assert set(tails[64:128]) - set(tails[:64])
    assert tails[128] in tails[:64]
    assert_same_trials(ex.read_log(path), log)


def _spaced(line: str) -> str:
    """The log line ``line`` in default JSON spacing."""
    return json.dumps(json.loads(line)) + "\n"


@pytest.mark.parametrize("edit", [
    lambda lines: list(map(_spaced, lines)),
    lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
    lambda lines: lines[:1002] + [_spaced(lines[1002])] + lines[1003:],
], ids=["spaced", "no_final_newline", "row_1001_spaced"])
@pytest.mark.parametrize("chunk", [500, ex.CHUNK_TRIALS])
def test_read_log_accepts_any_json_spacing(tmp_path, monkeypatch, edit, chunk):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", chunk)
    log = ex.run_trials(ex.ExperimentConfig(trials=2000, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    assert_same_trials(ex.read_log(path), log)


@pytest.mark.parametrize("edit, error", [
    (lambda rows: {9: rows[9].rstrip() + "," + rows[10]},
     "line 11: expected an array of the 8 values"),
    (lambda rows: {9: "[09" + rows[9][2:]}, "line 11: expected an array of the 8 values"),
    (lambda rows: {9: "[9.0" + rows[9][2:]}, "line 11: trial_index 9.0 is not a trial index"),
    (lambda rows: {9: rows[9][2:]}, "line 11: expected an array of the 8 values"),
    # As rows "[0" + tail the two tails join into valid JSON: [0,...,[0,[0,true]].
    (lambda rows: {9: rows[9][:rows[9].rindex(",") + 1] + "[0\n",
                   10: "[10," + rows[9][rows[9].rindex(",") + 1:-2] + "]]\n"},
     "line 11: expected an array of the 8 values"),
    # Rows 1 and 2 re-split: line 3 ends in the first three values of row 2.
    (lambda rows: {1: rows[1].rstrip() + "," + ",".join(rows[2].split(",")[:3]) + "\n",
                   2: ",".join(rows[2].split(",")[3:])},
     "line 3: expected an array of the 8 values"),
], ids=["two_arrays", "leading_zero", "float_index", "no_head", "tails_join", "rows_resplit"])
def test_read_log_rejects_bad_rows_as_decode_rows_does(tmp_path, monkeypatch, edit, error):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 8)
    log = ex.run_trials(ex.ExperimentConfig(trials=20, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    header, *rows = path.read_text().splitlines(keepends=True)
    for k, line in edit(rows).items():
        rows[k] = line
    path.write_text("".join([header, *rows]))
    with pytest.raises(ValueError) as decoded:
        ex._decode_rows(rows, 2, ex._column_codes(log.config))
    assert str(decoded.value).startswith(error)
    with pytest.raises(ValueError) as read:
        ex.read_log(path)
    assert str(read.value) == str(decoded.value)


@pytest.mark.parametrize("edit, message", [
    (lambda header: header.update(version=1), "version 1"),
    (lambda header: header.update(version=99), "version 99"),
    (lambda header: header["config"].update(bogus=1), "experiment.bogus"),
    (lambda header: header["config"].update(trials=1.5), "experiment.trials"),
    (lambda header: header["config"]["budget"].update(eom_on_time=True), "budget.eom_on_time"),
    (lambda header: header["event_times"].update(m_alice=40.0), "event_times"),
], ids=["version_1", "version_99", "unknown_key", "float_trials", "bool_budget_value",
        "event_times_off_budget"])
def test_read_log_rejects_bad_header(tmp_path, edit, message):
    path = tmp_path / "log.jsonl"
    ex.write_log(path, ex.run_trials(small_config(trials=10)))
    header, *records = path.read_text().splitlines()
    header = json.loads(header)
    edit(header)
    path.write_text("\n".join([json.dumps(header), *records]) + "\n")
    with pytest.raises(ValueError, match=message):
        ex.read_log(path)


def test_run_summary_contents():
    cfg = small_config(trials=500)
    log = ex.run_trials(cfg)
    summary = ex.run_summary(log)
    assert summary["timeline"]["satisfied"]
    assert summary["counts"]["trials"] == 500
    assert summary["rate_budget"]["fraction"] > 0


@pytest.fixture(scope="module")
def clean_fock_engine():
    # Fock engine with no imperfections: should reproduce the ideal physics.
    cfg = ex.ExperimentConfig(
        mode="fock", tau=0.05, input_transmission=1.0, detector_efficiency=1.0,
        mzi_visibility=1.0, gvm_overlap=1.0, switching_fidelity=1.0,
        fiber_polarization_fidelity=1.0,
    )
    return ex.build_engine(cfg)


def test_fock_engine_matches_ideal_in_clean_limit(clean_fock_engine):
    eng = clean_fock_engine
    e_z = eng.expected_correlation(BisaSetting.BSM, [BisaOutcome.PHI_MINUS_23], "z")
    e_x = eng.expected_correlation(BisaSetting.BSM, [BisaOutcome.PHI_MINUS_23], "x")
    e_y = eng.expected_correlation(BisaSetting.BSM, [BisaOutcome.PHI_MINUS_23], "y")
    # Residual deviation is the tau^2 double-pair contamination.
    assert abs(e_z - 1.0) < 0.01
    assert abs(e_x + 1.0) < 0.01
    assert abs(e_y - 1.0) < 0.01
    pooled = [
        eng.expected_correlation(BisaSetting.SSM, list(ex.KEPT_OUTCOMES[BisaSetting.SSM]), b)
        for b in ("z", "x", "y")
    ]
    assert abs(pooled[0] - 1.0) < 0.01
    assert abs(pooled[1]) < 0.01
    assert abs(pooled[2]) < 0.01


def test_fock_trial_sampler_consistent_with_distribution():
    # tau large enough that a few thousand trials contain many fourfolds.
    cfg = ex.ExperimentConfig(
        mode="fock", trials=4000, master_seed=77, duty_cycle=1.0, tau=0.5,
        input_transmission=1.0, detector_efficiency=1.0, mzi_visibility=1.0,
        gvm_overlap=1.0, switching_fidelity=1.0, fiber_polarization_fidelity=1.0,
        alice_bases=("z",), bob_bases=("z",),
    )
    cols = ex.run_trials(cfg).columns
    # Conditioned on the phi- outcome, photons 1 and 4 agree in the z basis.
    phi_minus = ex.VICTOR_OUTCOMES.index(BisaOutcome.PHI_MINUS_23)
    bsm = cols["kept"] & (cols["victor_outcome"] == phi_minus)
    agree = np.count_nonzero((cols["alice_outcome"] == cols["bob_outcome"])[bsm])
    assert np.count_nonzero(bsm) > 20
    assert agree / np.count_nonzero(bsm) > 0.97


def test_simulate_counts_fast_path():
    cfg = ex.ExperimentConfig(mode="fock", trials=200_000, master_seed=5,
                              tau=0.5, input_transmission=1.0,
                              detector_efficiency=1.0, mzi_visibility=1.0,
                              gvm_overlap=1.0, switching_fidelity=1.0,
                              fiber_polarization_fidelity=1.0)
    counts = ex.simulate_counts(cfg, trials=2_000_000, seed=9)
    zz = {
        k: v for k, v in counts.items()
        if k[0] is BisaSetting.BSM and k[1] is BisaOutcome.PHI_MINUS_23 and k[2] == "z"
    }
    same = sum(v for k, v in zz.items() if k[3] == k[4])
    diff = sum(v for k, v in zz.items() if k[3] != k[4])
    assert same + diff > 100
    assert same / (same + diff) > 0.97


def test_simulate_counts_rejects_ideal_mode_before_building(monkeypatch):
    def no_build(config):
        raise AssertionError("engine built")

    monkeypatch.setattr(ex, "build_engine", no_build)
    with pytest.raises(ValueError, match="requires fock mode"):
        ex.simulate_counts(ex.ExperimentConfig(mode="ideal"), trials=1000, seed=1)


def _reference_joint(engine, ab, bb, commanded):
    """joint_distribution by its definition: each setting's positive entries
    as a dict, merged key by key with the switching weights."""
    flip = 1.0 - engine.config.switching_fidelity
    other = BisaSetting.SSM if commanded is BisaSetting.BSM else BisaSetting.BSM
    combined = {}
    for setting, w in ((commanded, 1.0 - flip), (other, flip)):
        probs = engine._dist[(ab, bb, setting)]
        present = np.flatnonzero(probs > 0.0)
        for key, p in zip([ex._CATEGORY_KEYS[c] for c in present], probs[present]):
            combined[key] = combined.get(key, 0.0) + w * p
    return combined


def _reference_correlation(engine, commanded, outcomes, basis):
    """expected_correlation by its definition, classifying key by key."""
    outcomes = set(outcomes)
    num = den = 0.0
    for (a, b, victor), p in _reference_joint(engine, basis, basis, commanded).items():
        if a == 0 or b == 0:
            continue
        if classify(victor, commanded) not in outcomes:
            continue
        num += a * b * p
        den += p
    if den == 0.0:
        raise ValueError("no fourfold events in the requested subensemble")
    return num / den


def _reference_counts(engine, trials, seed):
    """simulate_counts by its definition: one multinomial per commanded
    setting and basis pair over the sorted keys of the joint distribution."""
    config = engine.config
    rng = np.random.default_rng(seed)
    n_basis = len(config.alice_bases) * len(config.bob_bases)
    counts = {}
    for commanded in BisaSetting:
        for ab in config.alice_bases:
            for bb in config.bob_bases:
                dist = _reference_joint(engine, ab, bb, commanded)
                keys = sorted(dist)
                probs = np.array([dist[k] for k in keys])
                probs = probs / probs.sum()
                share = trials * config.duty_cycle * 0.5 / n_basis
                draw = rng.multinomial(rng.poisson(share), probs)
                if ab != bb:
                    continue
                for (a, b, victor), n in zip(keys, draw):
                    outcome = classify(victor, commanded)
                    if n == 0 or a == 0 or b == 0 or outcome is BisaOutcome.DISCARD:
                        continue
                    ck = (commanded, outcome, ab, a, b)
                    counts[ck] = counts.get(ck, 0) + int(n)
    return counts


# (config, zero-valued keys over all joint distributions): at switching
# fidelity 1 the other setting's categories stay in with weight 0.
EXACT_STATISTICS_CASES = {
    "default": (dict(), 0),
    "clean": (None, 625),
    "basis_subset": (dict(alice_bases=("x", "z"), bob_bases=("z",)), 0),
    "order1": (dict(spdc_order=1, n_max=2, mzi_visibility=1.0, gvm_overlap=1.0,
                    switching_fidelity=1.0), 324),
}


@pytest.mark.parametrize("case", list(EXACT_STATISTICS_CASES))
def test_fock_exact_statistics_equal_their_definitions(request, case):
    kw, zeros = EXACT_STATISTICS_CASES[case]
    engine = (request.getfixturevalue("clean_fock_engine") if kw is None
              else ex.build_engine(ex.ExperimentConfig(mode="fock", **kw)))
    cfg = engine.config
    found = 0
    for commanded, ab, bb in itertools.product(BisaSetting, cfg.alice_bases, cfg.bob_bases):
        got = engine.joint_distribution(ab, bb, commanded)
        expected = _reference_joint(engine, ab, bb, commanded)
        assert list(got) == sorted(expected)
        assert [v.hex() for v in got.values()] == [expected[k].hex() for k in got]
        found += sum(v == 0.0 for v in got.values())
    assert found == zeros
    for seed in (1, 20123):
        assert ex.simulate_counts(cfg, 2_000_000_000, seed) == _reference_counts(
            engine, 2_000_000_000, seed)
    for commanded in BisaSetting:
        kept = ex.KEPT_OUTCOMES[commanded]
        # The other setting's classes never occur: an empty subensemble.
        other = ex.KEPT_OUTCOMES[BisaSetting.SSM if commanded is BisaSetting.BSM
                                 else BisaSetting.BSM]
        for basis in set(cfg.alice_bases) & set(cfg.bob_bases):
            for outcomes in (kept, kept[:1], kept[1:], other):
                try:
                    expected = _reference_correlation(engine, commanded, outcomes, basis)
                except ValueError:
                    with pytest.raises(ValueError, match="no fourfold events"):
                        engine.expected_correlation(commanded, outcomes, basis)
                    continue
                got = engine.expected_correlation(commanded, iter(outcomes), basis)
                assert abs(got - expected) <= 1e-15
            with pytest.raises(ValueError, match="no fourfold events"):
                engine.expected_correlation(commanded, [], basis)
    # The sampler's columns are each positive entry's key, its pattern
    # classified under each commanded setting.
    tables = ex._sampling_tables(engine, cfg)
    groups = itertools.product(cfg.alice_bases, cfg.bob_bases, (0, 1))
    for (ab, bb, bit), (cum, a_out, b_out, victor) in zip(groups, tables, strict=True):
        probs = engine._dist[(ab, bb, BisaSetting.from_bit(bit))]
        keys = [ex._CATEGORY_KEYS[c] for c in np.flatnonzero(probs > 0.0)]
        assert a_out.tolist() == [a for a, _, _ in keys]
        assert b_out.tolist() == [b for _, b, _ in keys]
        for choice in (0, 1):
            assert victor[choice].tolist() == [
                ex.VICTOR_OUTCOMES.index(classify(v, BisaSetting.from_bit(choice)))
                for _, _, v in keys]
        assert np.array_equal(cum, np.cumsum(probs[probs > 0.0] / probs[probs > 0.0].sum()))


PARTY_BANK = {
    "aliceP": (("1", "H"),),
    "aliceM": (("1", "V"),),
    "bobP": (("4", "H"),),
    "bobM": (("4", "V"),),
}


def _pattern_category(pattern: frozenset):
    """(alice outcome, bob outcome, victor clicks) of one click pattern: a
    party's outcome is the sign of its one clicked detector, else 0."""
    def party(plus, minus):
        return {frozenset({plus}): +1, frozenset({minus}): -1}.get(pattern & {plus, minus}, 0)

    victor = tuple(sorted(pattern & set(VICTOR_DETECTORS)))
    return party("aliceP", "aliceM"), party("bobP", "bobM"), victor


def _noise_branches(cfg):
    """The two sources' ensemble after fiber depolarization, as all 16 Pauli
    branches on the delay fibers b and c, and input loss."""
    src1 = fock.spdc_source(cfg.tau, cfg.spdc_order, ("1", "b"), cfg.n_max)
    src2 = fock.spdc_source(cfg.tau, cfg.spdc_order, ("c", "4"), cfg.n_max)
    branches = [src1.tensor(src2)]
    p = 1.0 - cfg.fiber_polarization_fidelity
    if p > 0.0:
        for spatial in ("b", "c"):
            nxt = []
            for b in branches:
                nxt.append(b.scaled(np.sqrt(1.0 - p)))
                for pauli in ("x", "y", "z"):
                    flipped = fock.wave_plate(b, spatial, states.PAULI[pauli])
                    nxt.append(flipped.scaled(np.sqrt(p / 3.0)))
            branches = nxt
    for mode in (("b", "H"), ("b", "V"), ("c", "H"), ("c", "V")):
        branches = fock.attenuate_ensemble(branches, mode, cfg.input_transmission)
    return [b for b in branches if b.norm_sq() > 1e-18]


def _enumerated_tables(engine, pairs):
    """Category tables by enumerating every noise branch: the analyzer pass
    step by step, rotation of photons 1 and 4 into the bases, threshold
    detection."""
    cfg = engine.config
    branches = _noise_branches(cfg)
    v = cfg.visibility
    tables = {}
    for setting in BisaSetting:
        passes = [
            (weight, [analyzer_pass(b, setting, distinguishable) for b in branches], bank)
            for distinguishable, bank, weight in (
                (False, VICTOR_BANK, v),
                (True, VICTOR_BANK_TAGGED, 1.0 - v),
            )
            if weight > 0.0
        ]
        for ab, bb in pairs:
            cat = {}
            for weight, passed, bank in passes:
                rotated = [
                    fock.wave_plate(
                        fock.wave_plate(b, "1", ex._axis_rotation(ab)),
                        "4", ex._axis_rotation(bb),
                    )
                    for b in passed
                ]
                dist = click_patterns(rotated, {**PARTY_BANK, **bank}, cfg.detector_efficiency)
                for pattern, p in dist.items():
                    key = _pattern_category(pattern)
                    cat[key] = cat.get(key, 0.0) + weight * p
            tables[(ab, bb, setting)] = cat
    return tables


ALL_BASIS_PAIRS = [(ab, bb) for ab in states.PAULI_AXES for bb in states.PAULI_AXES]


def _assert_tables_match(engine, pairs):
    for key, expected in _enumerated_tables(engine, pairs).items():
        got = {k: p for k, p in zip(ex._CATEGORY_KEYS, engine._dist[key]) if p > 0.0}
        assert set(got) == set(expected), key
        assert max(abs(got[k] - expected[k]) for k in expected) <= 1e-12, key


def test_fock_engine_equals_branch_enumeration_default():
    # A miswiring of the tagged twins to Victor's detectors (H and V of the
    # twins swapped) moves the default tables only where Bob measures z.
    engine = ex.build_engine(ex.ExperimentConfig(mode="fock"))
    _assert_tables_match(engine, [("x", "y"), ("z", "z")])


def test_fock_engine_equals_branch_enumeration_clean(clean_fock_engine):
    _assert_tables_match(clean_fock_engine, ALL_BASIS_PAIRS)


def test_fock_engine_depolarization_equals_pauli_branches():
    # Every basis pair: at (x, y) alone Alice's marginal is symmetric, so a
    # wrong outcome-flip probability would go unseen.
    cfg = ex.ExperimentConfig(mode="fock", spdc_order=1, n_max=2, fiber_polarization_fidelity=0.7)
    _assert_tables_match(ex.build_engine(cfg), ALL_BASIS_PAIRS)


@pytest.mark.parametrize("block", [ex._POVM_BLOCK, 60, 1])
def test_povm_equals_its_definition(monkeypatch, block):
    # Small blocks split the outputs into several outer-product blocks.
    monkeypatch.setattr(ex, "_POVM_BLOCK", block)
    rng = np.random.default_rng(14)

    def matrix(rows, cols, complex_):
        m = rng.normal(size=(rows, cols))
        return m + 1j * rng.normal(size=(rows, cols)) if complex_ else abs(m)

    # (outputs, left columns, right columns, complex): the engine's complex
    # maps and real magnitudes, one output, rectangular shapes.
    for j, i, l, complex_ in ((100, 9, 9, True), (80, 12, 12, False), (1, 4, 4, True),
                              (1, 3, 3, False), (30, 5, 7, True), (30, 7, 3, False)):
        left, right = matrix(j, i, complex_), matrix(j, l, complex_)
        weights = rng.random((j, 16))
        # The engine passes transposed (column-major) maps too.
        for args in ((left, weights, right), (np.asfortranarray(left), weights, right.conj())):
            got = ex._povm(*args)
            expected = np.einsum("ji,jk,jl->kil", *args)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert abs(got - expected).max() <= 1e-13 * abs(expected).max()


def test_rotation_lift_is_a_fresh_lift_and_read_only():
    for axis in states.PAULI_AXES:
        for n in range(5):
            cached = ex._rotation_lift(axis, n)
            assert cached is ex._rotation_lift(axis, n)
            assert np.array_equal(cached, fock.lift(ex._axis_rotation(axis), n))
            with pytest.raises(ValueError):
                cached[0, 0] = 0.0
