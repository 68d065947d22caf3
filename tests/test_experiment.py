import itertools
import json
import math
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from swapsim import analysis, bisa, cli, fock, states, timeline
from swapsim import experiment as ex
from swapsim.analysis import coincidence_counts
from swapsim.bisa import VICTOR_DETECTORS, BisaOutcome, BisaSetting, classify
from swapsim.qrng import QrngConfig, QrngSimulator
from swapsim.timeline import event_times
import fock_reference as ref
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
    # An int is a valid float.
    ex.ExperimentConfig(tau=1, duty_cycle=1)


@pytest.mark.parametrize("kw, message", [
    # A string is no tuple of bases: "zx" would run as z and x.
    (dict(alice_bases="zx"), "alice_bases must be a tuple of strings, got 'zx'"),
    (dict(bob_bases=["z"]), "bob_bases must be a tuple of strings"),
    (dict(bob_bases=("z", 1)), "bob_bases must be a tuple of strings"),
    (dict(trials=2.5), "trials must be an integer, got 2.5"),
    (dict(trials=True), "trials must be an integer, got True"),
    (dict(master_seed=1.0), "master_seed must be an integer"),
    (dict(tau="0.5"), "tau must be a number, got '0.5'"),
    (dict(detector_efficiency=False), "detector_efficiency must be a number"),
    (dict(mode=1), "mode must be a string"),
    (dict(budget=None), "budget must be a DelayBudget"),
], ids=["bases-str", "bases-list", "bases-int", "trials-float", "trials-bool", "seed-float",
        "tau-str", "efficiency-bool", "mode-int", "budget-none"])
def test_config_validation_of_field_types(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ex.ExperimentConfig(**kw)


def test_an_int_in_a_float_field_is_stored_as_a_float(tmp_path):
    # Configs that compare equal write the same log: the header would write
    # an int 1 as "1" and the float 1.0 as "1.0".
    logs = []
    for number in (int, float):
        cfg = ex.ExperimentConfig(trials=100, duty_cycle=number(1),
                                  budget=timeline.DelayBudget(cable_delay=number(20)))
        assert type(cfg.duty_cycle) is float and type(cfg.budget.cable_delay) is float
        assert type(cfg.trials) is int
        path = tmp_path / f"{number.__name__}.jsonl"
        ex.write_log(path, ex.run_trials(cfg))
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


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
    for occ, a in ref.spdc_source(tau, 2, normalize=False).amp.items():
        pairs = sum(occ) // 2
        if pairs in p:
            p[pairs] += abs(a) ** 2
    back = ex.calibrate_tau(p[2] / p[1])
    assert abs(back - tau) < 1e-12
    # The same ratio from the engine's closed form, one source's pairs
    # counted by the photons of its mode 1.
    sectors = ex._source_sectors(tau, 2)
    weight = {n1: (sectors[(n1, 0)][1] ** 2).sum() for n1 in (1, 2)}
    assert abs(ex.calibrate_tau(weight[2] / weight[1]) - tau) < 1e-12
    with pytest.raises(ValueError):
        ex.calibrate_tau(-0.1)
    with pytest.raises(ValueError, match="outside the calibrated range"):
        ex.calibrate_tau(2.0)  # tau 1.63


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [1e-4, 0.1, 0.5])
def test_source_sectors_match_the_creation_operator_source(tau, order):
    # The closed form against the two sources built with creation operators,
    # regrouped by (n1, n4), the index a of the (H, V) occupations of modes 1
    # and 4, and the analyzer input occupation.  FockVector.add prunes
    # amplitudes at or below PRUNE_TOL, which the closed form keeps, so a
    # term missing on either side counts as 0.
    state = ref.spdc_source(tau, order, ("1", "b"), order).tensor(
        ref.spdc_source(tau, order, ("c", "4"), order))
    assert [s for s, _ in state.modes] == ["1", "1", "b", "b", "c", "c", "4", "4"]
    reference = {}
    for (h1, v1, b_h, b_v, c_h, c_v, h4, v4), amp in state.amp.items():
        reference[(h1 + v1, h4 + v4, h1 * (h4 + v4 + 1) + h4, (b_h, b_v, c_h, c_v))] = amp
    sectors = ex._source_sectors(tau, order)
    closed = {(n1, n4, a, occ): x for (n1, n4), (occs, amp) in sectors.items()
              for a, (occ, x) in enumerate(zip(occs, amp, strict=True))}
    assert len(closed) == sum((n1 + 1) * (n4 + 1) for n1, n4 in sectors)
    for key in reference.keys() | closed.keys():
        assert abs(closed.get(key, 0.0) - reference.get(key, 0.0)) <= 1e-15
    # Normalized, up to the rounding of (tau / sqrt2)^8.
    assert abs(math.fsum(x * x for x in closed.values()) - 1.0) <= 1e-14
    # Loss leaves only emitted occupations.
    emitted = {occ for _, _, _, occ in closed}
    for occ in emitted:
        assert set(itertools.product(*(range(x + 1) for x in occ))) <= emitted


def test_expected_correlation_outside_the_configured_bases():
    engine = ex.build_engine(ex.ExperimentConfig(mode="fock", alice_bases=("x", "z"),
                                                 bob_bases=("z",)))
    phi = [BisaOutcome.PHI_MINUS_23]
    assert math.isfinite(engine.expected_correlation(BisaSetting.BSM, phi, "z"))
    for basis in ("x", "y"):
        with pytest.raises(ValueError, match=r"outside the configured alice_bases x,z and bob_bases z"):
            engine.expected_correlation(BisaSetting.BSM, phi, basis)
    with pytest.raises(ValueError, match=r"bases \('z', 'x'\) outside"):
        engine.joint_distribution("z", "x", BisaSetting.SSM)


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


# (config keywords, rows) of the logs with one row per combination of
# column codes.
EVERY_CODE_CASES = {
    "full_bases": (dict(), 1944),
    "basis_subset": (dict(alice_bases=("z",), bob_bases=("x", "z")), 432),
}


def _every_code_log(cfg):
    """A log of ``cfg`` with one row per combination of column codes, the
    outcome code -1 and Victor's void stage 0 among them."""
    codes = ex._column_codes(cfg)
    combos = np.array(list(itertools.product(*(list(lut.values()) for lut in codes.values()))))
    assert len(combos) == cfg.trials
    columns = {"trial_index": np.arange(cfg.trials, dtype=np.int64)}
    columns.update({name: combos[:, k].astype(ex.COLUMNS[name]) for k, name in enumerate(codes)})
    return ex.TrialLog(cfg, columns)


RUN_CASES = {
    "ideal": dict(mode="ideal"),
    "fock_trials": FOCK_TRIALS,
    "basis_subset": dict(mode="ideal", alice_bases=("z",), bob_bases=("x", "y")),
}


@pytest.mark.parametrize("make, kw, trials", [
    *(pytest.param(ex.run_trials, kw, trials, id=f"{name}-{trials}")
      for name, kw in RUN_CASES.items() for trials in (1, ex.CHUNK_TRIALS, ex.CHUNK_TRIALS + 1)),
    # Every tail the writer can render.
    *(pytest.param(_every_code_log, kw, rows, id=f"every_code-{name}")
      for name, (kw, rows) in EVERY_CODE_CASES.items()),
])
def test_write_log_equals_its_definition(tmp_path, make, kw, trials):
    cfg = ex.ExperimentConfig(trials=trials, **kw)
    log = make(cfg)
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


def test_log_roundtrip_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 64)
    log = ex.run_trials(ex.ExperimentConfig(trials=2 * 64 + 1, master_seed=8, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    # The second chunk holds row tails the first lacks and the last row a
    # tail of the first chunk; every chunk is read from the same one table.
    tails = [line.split(",", 1)[1] for line in path.read_text().splitlines()[1:]]
    assert set(tails[64:128]) - set(tails[:64])
    assert tails[128] in tails[:64]
    assert_same_trials(ex.read_log(path), log)


@pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no_final_newline"])
@pytest.mark.parametrize("kw, rows", list(EVERY_CODE_CASES.values()), ids=list(EVERY_CODE_CASES))
def test_every_tail_is_read_from_the_table(tmp_path, monkeypatch, kw, rows, final_newline):
    log = _every_code_log(ex.ExperimentConfig(trials=rows, **kw))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    if not final_newline:
        path.write_text(path.read_text()[:-1])

    def no_decode(*args):
        raise AssertionError("a row was decoded as JSON")

    monkeypatch.setattr(ex, "_row_key", no_decode)
    assert_same_trials(ex.read_log(path), log)


def _spaced(line: str) -> str:
    """The log line ``line`` in default JSON spacing."""
    return json.dumps(json.loads(line)) + "\n"


# Each edit with the trials whose rows read_log renders again.
@pytest.mark.parametrize("edit, rendered", [
    (lambda lines: list(map(_spaced, lines)), range(2000)),
    (lambda lines: lines[:-1] + [lines[-1].rstrip("\n")], []),
    (lambda lines: lines[:1002] + [_spaced(lines[1002])] + lines[1003:], [1001]),
], ids=["spaced", "no_final_newline", "row_1001_spaced"])
@pytest.mark.parametrize("chunk", [500, ex.CHUNK_TRIALS])
def test_read_log_accepts_any_json_spacing(tmp_path, monkeypatch, edit, rendered, chunk):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", chunk)
    log = ex.run_trials(ex.ExperimentConfig(trials=2000, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    calls = []
    row_key = ex._row_key

    def counted(line, trial, *args):
        calls.append(trial)
        return row_key(line, trial, *args)

    monkeypatch.setattr(ex, "_row_key", counted)
    assert_same_trials(ex.read_log(path), log)
    assert calls == list(rendered)


NOT_AN_ARRAY = ("expected an array of the 8 values trial_index, alice_basis, alice_outcome, "
                "bob_basis, bob_outcome, victor_choice, victor_outcome, kept")


@pytest.mark.parametrize("edit, error", [
    (lambda rows: {9: rows[9].rstrip() + "," + rows[10]}, f"line 11: {NOT_AN_ARRAY}"),
    (lambda rows: {9: "[09" + rows[9][2:]}, f"line 11: {NOT_AN_ARRAY}"),
    (lambda rows: {9: "[9.0" + rows[9][2:]}, "line 11: trial_index 9.0 is not a trial index"),
    (lambda rows: {9: rows[9][2:]}, f"line 11: {NOT_AN_ARRAY}"),
    # As rows "[0" + tail the two tails join into valid JSON: [0,...,[0,[0,true]].
    (lambda rows: {9: rows[9][:rows[9].rindex(",") + 1] + "[0\n",
                   10: "[10," + rows[9][rows[9].rindex(",") + 1:-2] + "]]\n"},
     f"line 11: {NOT_AN_ARRAY}"),
    # Rows 1 and 2 re-split: line 3 ends in the first three values of row 2.
    (lambda rows: {1: rows[1].rstrip() + "," + ",".join(rows[2].split(",")[:3]) + "\n",
                   2: ",".join(rows[2].split(",")[3:])},
     f"line 3: {NOT_AN_ARRAY}"),
], ids=["two_arrays", "leading_zero", "float_index", "no_head", "tails_join", "rows_resplit"])
def test_read_log_rejects_bad_rows(tmp_path, monkeypatch, edit, error):
    monkeypatch.setattr(ex, "CHUNK_TRIALS", 8)
    log = ex.run_trials(ex.ExperimentConfig(trials=20, **FOCK_TRIALS))
    path = tmp_path / "log.jsonl"
    ex.write_log(path, log)
    header, *rows = path.read_text().splitlines(keepends=True)
    for k, line in edit(rows).items():
        rows[k] = line
    path.write_text("".join([header, *rows]))
    with pytest.raises(ValueError) as read:
        ex.read_log(path)
    assert str(read.value) == error


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


@pytest.mark.parametrize("text", [
    lambda log: "",
    lambda log: "not a log\n",
    lambda log: "\n" + log,
    lambda log: "[]\n" + log.split("\n", 1)[1],
], ids=["empty", "text_line", "blank_first_line", "json_array_header"])
def test_read_log_rejects_a_header_that_is_not_a_json_object(tmp_path, capsys, text):
    path = tmp_path / "log.jsonl"
    ex.write_log(path, ex.run_trials(small_config(trials=10)))
    path.write_text(text(path.read_text()))
    with pytest.raises(ValueError) as read:
        ex.read_log(path)
    assert str(read.value) == "not a swapsim trial log"
    out = tmp_path / "out"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: not a swapsim trial log\n"
    assert not out.exists()


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
    setting and basis both parties measure, in alice_bases order, over the
    sorted keys of the joint distribution, with the share of one basis pair."""
    config = engine.config
    rng = np.random.default_rng(seed)
    n_basis = len(config.alice_bases) * len(config.bob_bases)
    counts = {}
    for commanded in BisaSetting:
        for basis in config.alice_bases:
            if basis not in config.bob_bases:
                continue
            dist = _reference_joint(engine, basis, basis, commanded)
            keys = sorted(dist)
            probs = np.array([dist[k] for k in keys])
            probs = probs / probs.sum()
            share = trials * config.duty_cycle * 0.5 / n_basis
            draw = rng.multinomial(rng.poisson(share), probs)
            for (a, b, victor), n in zip(keys, draw):
                outcome = classify(victor, commanded)
                if n == 0 or a == 0 or b == 0 or outcome is BisaOutcome.DISCARD:
                    continue
                ck = (commanded, outcome, basis, a, b)
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
    src1 = ref.spdc_source(cfg.tau, cfg.spdc_order, ("1", "b"), cfg.n_max)
    src2 = ref.spdc_source(cfg.tau, cfg.spdc_order, ("c", "4"), cfg.n_max)
    branches = [src1.tensor(src2)]
    p = 1.0 - cfg.fiber_polarization_fidelity
    if p > 0.0:
        for spatial in ("b", "c"):
            nxt = []
            for b in branches:
                nxt.append(b.scaled(np.sqrt(1.0 - p)))
                for pauli in ("x", "y", "z"):
                    flipped = ref.wave_plate(b, spatial, states.PAULI[pauli])
                    nxt.append(flipped.scaled(np.sqrt(p / 3.0)))
            branches = nxt
    for mode in (("b", "H"), ("b", "V"), ("c", "H"), ("c", "V")):
        branches = [lost for b in branches for lost in ref.attenuate(b, mode, cfg.input_transmission)]
        branches = [b for b in branches if b.norm_sq() > 1e-24]
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
                    ref.wave_plate(
                        ref.wave_plate(b, "1", ex._axis_rotation(ab)),
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


def test_fock_engine_equals_branch_enumeration_where_the_cap_binds():
    # At cap 2 a pair of order 2 on each input fills the analyzer past the
    # cap, which it drops after the loss: Victor's POVM, the loss inside,
    # must keep it.
    cfg = ex.ExperimentConfig(mode="fock", spdc_order=2, n_max=2, input_transmission=0.5)
    _assert_tables_match(ex.build_engine(cfg), [("z", "x")])


def test_fock_engine_equals_branch_enumeration_at_cap_one():
    # Order 1 at cap 1: the coherent BSM pass of the two-photon inputs,
    # no photon lost, reaches no output within the cap.
    cfg = ex.ExperimentConfig(mode="fock", spdc_order=1, n_max=1)
    _assert_tables_match(ex.build_engine(cfg), ALL_BASIS_PAIRS)


def test_fock_engine_depolarization_equals_pauli_branches():
    # Every basis pair: at (x, y) alone Alice's marginal is symmetric, so a
    # wrong outcome-flip probability would go unseen.
    cfg = ex.ExperimentConfig(mode="fock", spdc_order=1, n_max=2, fiber_polarization_fidelity=0.7)
    _assert_tables_match(ex.build_engine(cfg), ALL_BASIS_PAIRS)


@pytest.mark.parametrize("block", [bisa._POVM_BLOCK, 60, 1])
def test_povm_equals_its_definition(monkeypatch, block):
    # fock.detector_povm, the one contraction of every detector's POVM,
    # against its definition E[k] = sum_c clicks[c, k] outers[c]; and the
    # outers of Victor's POVM, bisa._povm_parts, against theirs: for a row
    # (part, lost, counts c), the sum over the losses k with |k| = lost of
    # C_k[x] C_k[x'] T[x - k, j] conj(T[x' - k, j]) over the outputs j of
    # _detector_view with counts c, C_k[x] = sqrt(prod_i C(x_i, k_i)), one
    # sorted row for each (part, lost, counts) that an output has at either
    # setting.  The inputs are a source sector, the inputs of one photon
    # number and inputs of mixed photon number.  Small blocks split the
    # outputs into several outer-product blocks.
    monkeypatch.setattr(bisa, "_POVM_BLOCK", block)
    bisa._povm_parts.cache_clear()
    try:
        cfg = ex.ExperimentConfig(mode="fock", spdc_order=2, n_max=3)
        sectors = ex._source_sectors(cfg.tau, cfg.spdc_order)
        inputs = sorted(occ for occs, _ in sectors.values() for occ in occs)
        for occs in (sectors[(1, 2)][0], [occ for occ in inputs if sum(occ) == 4],
                     [occ for occ in inputs if sum(occ) <= 2]):
            occs = tuple(map(tuple, occs))
            parts, lost, counts, outers, outers_mag = bisa._povm_parts(occs, cfg.n_max)
            rows = [(part, k, tuple(c)) for part, k, c in zip(parts, lost, counts)]
            assert rows == sorted(set(rows))
            ks = list(np.ndindex(*np.max(occs, axis=0) + 1))
            reduced = sorted({tuple(np.subtract(x, k).tolist()) for x in occs for k in ks
                              if min(np.subtract(x, k)) >= 0})
            expected = {}
            for part, (s, setting) in itertools.product((0, 1), enumerate(BisaSetting)):
                t, out_counts = bisa._detector_view(setting, tuple(reduced), cfg.n_max, bool(part))
                for k in ks:
                    # A_k[x, j] = C_k[x] T[x - k, j], zero where x cannot lose k.
                    a = np.zeros((len(occs), t.shape[1]), t.dtype)
                    for i, x in enumerate(occs):
                        left = np.subtract(x, k)
                        if min(left) >= 0:
                            a[i] = math.sqrt(math.prod(map(math.comb, x, k))) * t[
                                reduced.index(tuple(left.tolist()))]
                    for c in np.unique(out_counts[a.any(axis=0)], axis=0):
                        j = (out_counts == c).all(axis=1)
                        o, o_mag = expected.setdefault((part, sum(k), tuple(c)), np.zeros(
                            (2, len(BisaSetting), len(occs), len(occs)), complex))
                        o[s] += np.einsum("ij,lj->il", a[:, j], a[:, j].conj())
                        o_mag[s] += np.einsum("ij,lj->il", abs(a[:, j]), abs(a[:, j]))
            assert set(expected) == set(rows)
            for row, o, o_mag in zip(rows, outers, outers_mag):
                want, want_mag = expected[row]
                assert abs(o - want).max() <= 1e-13 * max(1.0, abs(want).max())
                assert abs(o_mag - want_mag).max() <= 1e-13 * max(1.0, abs(want_mag).max())
    finally:
        bisa._povm_parts.cache_clear()
    rng = np.random.default_rng(14)
    # (count vectors, trailing shape, complex): Victor's complex and real
    # sums, the parties' products, one count vector, rectangular shapes.
    for c, shape, complex_ in ((100, (2, 9, 9), True), (80, (2, 12, 12), False),
                               (1, (4, 4), True), (1, (3, 3), False), (30, (5, 7), True),
                               (30, (7, 3), False)):
        outers = rng.normal(size=(c, *shape))
        if complex_:
            outers = outers + 1j * rng.normal(size=(c, *shape))
        clicks = rng.random((c, 16))
        got = fock.detector_povm(clicks, outers)
        expected = np.einsum("kp,k...->p...", clicks, outers)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert abs(got - expected).max() <= 1e-13 * abs(expected).max()


@pytest.mark.parametrize("block", [bisa._POVM_BLOCK, 100])
@pytest.mark.parametrize("order, cap", [(2, 3), (2, 2), (3, 4)])
def test_victor_povm_equals_the_povm_of_each_output(monkeypatch, order, cap, block):
    # The per-count sums of bisa._povm_parts, weighted by the clicks, against
    # Victor's POVM summed output by output from each analyzer part's
    # bisa._detector_view and bisa.pattern_probabilities, on the inputs of
    # each n that a build reads; small blocks split a fill.
    monkeypatch.setattr(bisa, "_POVM_BLOCK", block)
    bisa._povm_parts.cache_clear()
    cfg = ex.ExperimentConfig(mode="fock", spdc_order=order, n_max=cap)
    eta, visibility = cfg.detector_efficiency, cfg.visibility
    sectors = ex._source_sectors(cfg.tau, order)
    inputs = sorted(occ for occs, _ in sectors.values() for occ in occs)
    try:
        for n in range(2 * order + 1):
            occs = [occ for occ in inputs if sum(occ) == n]
            povm, povm_mag = bisa.victor_povm(occs, cap, visibility, eta, 1.0)
            assert povm.shape == povm_mag.shape == (2, len(bisa.PATTERNS), len(occs), len(occs))
            for e, e_mag, setting in zip(povm, povm_mag, BisaSetting):
                expected = expected_mag = 0.0
                for distinguishable, weight in ((False, visibility), (True, 1.0 - visibility)):
                    t, counts = bisa._detector_view(setting, tuple(occs), cap, distinguishable)
                    clicks = weight * bisa.pattern_probabilities(counts, eta)
                    expected = expected + np.einsum("ij,jk,lj->kil", t, clicks, t.conj())
                    expected_mag = expected_mag + np.einsum("ij,jk,lj->kil", abs(t), clicks, abs(t))
                assert abs(e - expected).max() <= 1e-15
                assert abs(e_mag - expected_mag).max() <= 1e-15
    finally:
        bisa._povm_parts.cache_clear()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_pair_index_holds_each_pair_of_each_sector_once(order):
    pos, ia, ib = ex._pair_index(order)
    expected, lo, pair_lo = [], 0, 0
    for occs, _ in ex._source_sectors(1.0, order).values():
        size = len(occs)
        expected += [(pair_lo + a * size + b, lo + a, lo + b)
                     for a in range(size) for b in range(size)]
        lo, pair_lo = lo + size, pair_lo + size * size
    assert sorted(zip(pos, ia, ib)) == expected


def test_rotation_lift_is_a_fresh_lift_and_read_only():
    # The cache holds, per axis of the bases, the outer products of the rows
    # of a fresh lift and of its magnitudes, read-only.
    for bases in (states.PAULI_AXES, ("x", "z"), ("z",)):
        for n in range(5):
            cached = ex._bases_outers(bases, n)
            assert cached is ex._bases_outers(bases, n)
            for x, axis in enumerate(bases):
                lifted = fock.lift(ex._axis_rotation(axis), n)
                for outer, rows in zip(cached, (lifted, abs(lifted)), strict=True):
                    assert np.array_equal(outer[:, x], np.einsum("ji,jk->jik", rows.conj(), rows))
            for outer in cached:
                with pytest.raises(ValueError):
                    outer[0, 0, 0, 0] = 0.0


def _per_process_caches():
    """Every functools cache of the package, with the modules that name it."""
    modules = (analysis, bisa, cli, ex, fock, states, timeline)
    caches = {}
    for mod in modules:
        for name, value in vars(mod).items():
            if hasattr(value, "cache_clear"):
                caches.setdefault(value, []).append((mod, name))
    return caches


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_build_caches_hold_structure_only(monkeypatch):
    # A config of the default structure with every number the caches must
    # not keep changed, visibility 1 dropping the tagged part, between two
    # default builds: both equal each other and a build from empty caches.
    default = ex.ExperimentConfig(mode="fock")
    other = ex.ExperimentConfig(mode="fock", tau=0.3, detector_efficiency=0.6,
                                mzi_visibility=1.0, gvm_overlap=1.0, input_transmission=0.7,
                                fiber_polarization_fidelity=0.9)
    caches = _per_process_caches()
    results = []

    def recorded(cached):
        def call(*args, **kwargs):
            out = cached(*args, **kwargs)
            results.append(out)
            return out
        return call

    for cached, names in caches.items():
        for mod, name in names:
            monkeypatch.setattr(mod, name, recorded(cached))
    first = ex.build_engine(default)._dist
    sizes = [cached.cache_info().currsize for cached in caches]
    mid = ex.build_engine(other)._dist
    # Keyed by structure alone, no cache grows for the second config.
    assert [cached.cache_info().currsize for cached in caches] == sizes
    again = ex.build_engine(default)._dist
    for cached in caches:
        cached.cache_clear()
    fresh = ex.build_engine(default)._dist
    for cached in caches:
        cached.cache_clear()
    fresh_mid = ex.build_engine(other)._dist
    for dist in (again, fresh):
        assert dist.keys() == first.keys()
        assert all(np.array_equal(dist[k], first[k]) for k in first)
    assert all(np.array_equal(fresh_mid[k], mid[k]) for k in mid)
    assert any(not np.array_equal(mid[k], first[k]) for k in mid)
    # Every array a cache hands out is read-only.
    arrays = [a for out in results for a in _arrays(out)]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("kw", [dict(), dict(spdc_order=2, n_max=2, input_transmission=0.5)])
def test_magnitude_gram_bounds_the_gram(monkeypatch, kw):
    # The cancellation cut compares each entry with the same contraction on
    # magnitudes.  The engine forms Victor's E and its magnitudes E_mag, the
    # input loss inside, on each sector; E_mag is real, nonnegative and
    # bounds |E| entry by entry, so |amp| E_mag |amp| bounds the Gram amp E amp.
    calls = []
    povm = ex.victor_povm
    monkeypatch.setattr(ex, "victor_povm", lambda *a: calls.append(povm(*a)) or calls[-1])
    cfg = ex.ExperimentConfig(mode="fock", **kw)
    ex.build_engine(cfg)
    sectors = ex._source_sectors(cfg.tau, cfg.spdc_order)
    assert len(calls) == len(sectors)
    for (e, e_mag), (occs, _) in zip(calls, sectors.values()):
        assert e.shape == e_mag.shape == (2, len(bisa.PATTERNS), len(occs), len(occs))
        assert e_mag.dtype == float and (e_mag >= 0.0).all()
        assert (abs(e) <= e_mag * (1.0 + 1e-12)).all()


def _build_through(monkeypatch, view, cfg):
    """The tables of ``cfg`` built with ``view`` in place of
    bisa._detector_view.  Every package cache is emptied before the build,
    so the caches built on the analyzer's passes read ``view``, and after it,
    so no later build reads what ``view`` left there."""
    caches = _per_process_caches()
    for cached in caches:
        cached.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(bisa, "_detector_view", view)
            return ex.build_engine(cfg)._dist
    finally:
        for cached in caches:
            cached.cache_clear()


@pytest.mark.parametrize("kw", [dict(), dict(spdc_order=2, n_max=2, input_transmission=0.5)])
def test_tables_ignore_the_phases_of_victors_outputs(monkeypatch, kw):
    # E_p = T diag(P) T^dagger keeps no phase of an output of T.  The
    # analyzer's T happens to be real, so only outputs that carry random unit
    # phases show that the engine conjugates T where E_p needs it.
    cfg = ex.ExperimentConfig(mode="fock", **kw)
    expected = ex.build_engine(cfg)._dist
    rng = np.random.default_rng(21)
    view = bisa._detector_view

    def phased(*args):
        transfer, counts = view(*args)
        return transfer * np.exp(2j * np.pi * rng.random(transfer.shape[1])), counts

    got = _build_through(monkeypatch, phased, cfg)
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key] > 0.0, expected[key] > 0.0)
        assert np.abs(got[key] - expected[key]).max() <= 1e-15


@pytest.mark.parametrize("kw", [dict(), dict(spdc_order=2, n_max=2, input_transmission=0.5)])
def test_a_phase_on_input_bv_turns_alices_x_into_y(monkeypatch, kw):
    # The sources pair every bV photon with a 1H photon, so a phase i per bV
    # photon at the analyzer input is the same phase on Alice's H mode: her
    # z counts stay, her x measurement becomes y, and her y becomes -x.
    # Unlike a phase on an output of T, a phase on an input row stays in
    # E_p = T diag(P) T^dagger, so a T conjugated on the wrong side shows.
    cfg = ex.ExperimentConfig(mode="fock", **kw)
    plain = ex.build_engine(cfg)._dist
    view = bisa._detector_view

    def phased(setting, inputs, *args):
        transfer, counts = view(setting, inputs, *args)
        return transfer * np.array([1j ** occ[1] for occ in inputs])[:, None], counts

    got = _build_through(monkeypatch, phased, cfg)
    negated = [ex._CATEGORY_KEYS.index((-a, b, p)) for a, b, p in ex._CATEGORY_KEYS]
    for bb, setting in itertools.product(cfg.bob_bases, BisaSetting):
        for ab, expected in (("z", plain[("z", bb, setting)]), ("x", plain[("y", bb, setting)]),
                             ("y", plain[("x", bb, setting)][negated])):
            table = got[(ab, bb, setting)]
            assert np.array_equal(table > 0.0, expected > 0.0)
            assert np.abs(table - expected).max() <= 1e-15


def _einsum_tables(cfg, povms, povms_mag):
    """The tables of ``cfg`` from Victor's POVMs on each sector ``povms`` and
    their magnitude form ``povms_mag``, traced with two-operand np.einsum
    calls: the parties' POVMs per basis from their clicks, the flip folded
    in, and the trace, Bob's side then Alice's."""
    sectors = ex._source_sectors(cfg.tau, cfg.spdc_order)
    amp = np.concatenate([a for _, a in sectors.values()])
    pos, ia, ib = ex._pair_index(cfg.spdc_order)
    q = 2.0 * (1.0 - cfg.fiber_polarization_fidelity) / 3.0
    flip = np.array([[1.0 - q, q, 0.0], [q, 1.0 - q, 0.0], [0.0, 0.0, 1.0]])
    clicks = [np.einsum("io,op->ip", ex._party_clicks(n, cfg.detector_efficiency), flip)
              for n in range(cfg.spdc_order + 1)]

    def parties(bases, form):
        # [X, o, q] over q1 or q4, as FockEngine lays a party's POVMs out.
        return np.concatenate([
            np.einsum("jo,jXik->Xoik", c, ex._bases_outers(bases, n)[form]).reshape(
                len(bases), c.shape[1], -1) for n, c in enumerate(clicks)], axis=2)

    def trace(amp, victor, form):
        alice, bob = parties(cfg.alice_bases, form), parties(cfg.bob_bases, form)
        gram = np.concatenate([e.reshape(-1, e.shape[-1] ** 2).T for e in victor])[pos]
        gram *= (amp[ia] * amp[ib])[:, None]
        traced = np.einsum("Ybq,qr->Ybr", bob, gram.reshape(bob.shape[2], -1))
        return np.einsum("Xaq,Ybqsp->sXYabp", alice, traced.reshape(
            *traced.shape[:2], alice.shape[2], len(BisaSetting), len(bisa.PATTERNS)))

    cat = trace(amp, povms, 0).real
    cat[cat <= ex.CANCELLATION_TOL * trace(abs(amp), povms_mag, 1)] = 0.0
    dist = {}
    for setting, tables in zip(BisaSetting, cat):
        keys = itertools.product(cfg.alice_bases, cfg.bob_bases, [setting])
        dist.update(zip(keys, tables.reshape(-1, len(ex._CATEGORIES))[:, ex._CATEGORY_ORDER]))
    return dist


@pytest.mark.parametrize("kw, phases", [(dict(), False),
                                        (dict(alice_bases=("x", "z"), bob_bases=("z",)), False),
                                        (dict(), True)], ids=["default", "xz-z", "phased"])
def test_tables_equal_an_einsum_trace(monkeypatch, kw, phases):
    # The engine's matmul trace against the same trace in np.einsum, on
    # Victor's POVMs the build formed; random unit phases on the analyzer's
    # outputs make T, and so Victor's POVM and the Gram entries, complex.
    calls = []
    povm = ex.victor_povm
    monkeypatch.setattr(ex, "victor_povm", lambda *a: calls.append(povm(*a)) or calls[-1])
    cfg = ex.ExperimentConfig(mode="fock", **kw)
    if phases:
        rng = np.random.default_rng(28)
        view = bisa._detector_view

        def phased(*args):
            transfer, counts = view(*args)
            return transfer * np.exp(2j * np.pi * rng.random(transfer.shape[1])), counts

        got = _build_through(monkeypatch, phased, cfg)
        assert any(e.dtype == complex and e.imag.any() for e, _ in calls)
    else:
        got = ex.build_engine(cfg)._dist
    expected = _einsum_tables(cfg, *zip(*calls))
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key] > 0.0, expected[key] > 0.0)
        assert np.abs(got[key] - expected[key]).max() <= 1e-15
