import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import analysis, experiment, states
from swapsim.analysis import CoincidenceCounts
from swapsim.bisa import BisaOutcome, BisaSetting


def test_perfect_correlation():
    r = analysis.correlation(CoincidenceCounts("z", 50, 50, 0, 0))
    assert r.value == 1.0
    assert r.sigma == 0.0
    r = analysis.correlation(CoincidenceCounts("z", 0, 0, 50, 50))
    assert r.value == -1.0


def test_correlation_value_and_sigma():
    r = analysis.correlation(CoincidenceCounts("x", 40, 40, 10, 10))
    assert r.value == 0.6
    assert r.sigma == pytest.approx(0.08)
    assert r.total == 100
    assert not r.low_statistics


def test_correlation_sigma_against_poisson_resampling():
    # Monte Carlo oracle: resample each cell as an independent Poisson
    # variable and take the standard deviation of the recomputed E.
    counts = (40, 40, 10, 10)
    rng = np.random.default_rng(8)
    draws = rng.poisson(counts, size=(200_000, 4))
    totals = draws.sum(axis=1)
    good = totals > 0
    e = (draws[good, 0] + draws[good, 1] - draws[good, 2] - draws[good, 3]) / totals[good]
    mc_sigma = e.std()
    r = analysis.correlation(CoincidenceCounts("z", *counts))
    assert abs(r.sigma - mc_sigma) / mc_sigma < 0.05


def test_correlation_zero_total():
    with pytest.raises(ValueError):
        analysis.correlation(CoincidenceCounts("z", 0, 0, 0, 0))


def test_correlation_low_statistics_flag():
    r = analysis.correlation(CoincidenceCounts("z", 5, 5, 4, 5))
    assert r.low_statistics


def test_correlation_scale_invariance():
    base = CoincidenceCounts("z", 12, 30, 7, 3)
    r1 = analysis.correlation(base)
    r2 = analysis.correlation(CoincidenceCounts("z", 120, 300, 70, 30))
    assert Fraction(r1.value) == Fraction(r2.value)
    assert r2.sigma == pytest.approx(r1.sigma / np.sqrt(10))


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=500)] * 4))
def test_correlation_bounds(cells):
    if sum(cells) == 0:
        return
    r = analysis.correlation(CoincidenceCounts("y", *cells))
    assert -1.0 <= r.value <= 1.0
    assert r.sigma >= 0.0


def test_fidelity_from_published_correlations():
    f = analysis.fidelity_from_correlations(0.511, -0.611, 0.603, "phi-")
    assert abs(f - 0.681) < 1e-3
    f = analysis.fidelity_from_correlations(0.589, 0.59, -0.561, "phi+")
    assert abs(f - 0.685) < 1e-3
    assert analysis.fidelity_from_correlations(1.0, -1.0, 1.0, "phi-") == 1.0


def test_fidelity_from_correlations_validation():
    with pytest.raises(ValueError):
        analysis.fidelity_from_correlations(1.2, 0.0, 0.0, "phi-")
    with pytest.raises(ValueError):
        analysis.fidelity_from_correlations(0.0, 0.0, 0.0, "sigma")


def test_witness_identity_exact():
    # W = 1/2 - F in exact arithmetic; the published rows follow.
    assert analysis.witness_from_fidelity(Fraction(1, 4)) == Fraction(1, 4)
    assert abs(analysis.witness_from_fidelity(0.681) + 0.181) < 1e-12
    assert abs(analysis.witness_from_fidelity(0.645) + 0.145) < 1e-12


def test_decomposition_consistent_with_direct_trace():
    rng = np.random.default_rng(3)
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = states.QubitRegisterState(amp / np.linalg.norm(amp)).density_matrix()
    e = {a: states.pauli_correlation(rho, a) for a in ("z", "x", "y")}
    for target in analysis.BELL_TARGETS:
        f1 = analysis.fidelity_from_correlations(e["z"], e["x"], e["y"], target)
        f2 = states.fidelity(rho, states.bell_state(target))
        assert abs(f1 - f2) < 1e-10


@pytest.fixture(scope="module")
def ideal_counts():
    cfg = experiment.ExperimentConfig(mode="ideal", trials=100_000, master_seed=2012)
    return analysis.coincidence_counts(experiment.run_trials(cfg))


def test_coincidence_counts_match_log_rows(tmp_path):
    # Bob's bases in another order than Alice's: only equal basis names,
    # not equal basis indices, make a coincidence.
    cfg = experiment.ExperimentConfig(mode="ideal", trials=20_000, master_seed=7,
                                      bob_bases=("y", "z", "x"))
    log = experiment.run_trials(cfg)
    path = tmp_path / "trials.jsonl"
    experiment.write_log(path, log)
    header, *lines = path.read_text().splitlines()
    columns = json.loads(header)["columns"]
    expected = Counter()
    for line in lines:
        row = dict(zip(columns, json.loads(line)))
        if (row["kept"] and row["alice_outcome"] is not None and row["bob_outcome"] is not None
                and row["alice_basis"] == row["bob_basis"]):
            expected[(BisaSetting(row["victor_choice"]), BisaOutcome(row["victor_outcome"]),
                      row["alice_basis"], row["alice_outcome"], row["bob_outcome"])] += 1
    counts = analysis.coincidence_counts(log)
    assert counts == dict(expected)
    assert len(counts) > 20

    # The same key and value types as the count-level simulator's map.
    fock_cfg = experiment.ExperimentConfig(mode="fock")
    simulated = experiment.simulate_counts(fock_cfg, 10**8, seed=1)
    assert simulated

    def types(count_map):
        return {(tuple(map(type, key)), type(n)) for key, n in count_map.items()}

    assert types(counts) == types(simulated) == {((BisaSetting, BisaOutcome, str, int, int), int)}


def test_report_fig3_ideal(ideal_counts):
    report = analysis.report_fig3(ideal_counts)
    phi_minus = report["bsm_phi_minus"]
    for basis, expect in (("z", 1.0), ("x", -1.0), ("y", 1.0)):
        r = phi_minus[basis]
        assert abs(r.value - expect) <= 5 * max(r.sigma, 1e-9)
    ssm = report["ssm_pooled"]
    assert abs(ssm["z"].value - 1.0) <= 5 * max(ssm["z"].sigma, 1e-9)
    for basis in ("x", "y"):
        assert abs(ssm[basis].value) <= 5 * ssm[basis].sigma


def test_absolute_sum_signature(ideal_counts):
    report = analysis.report_fig3(ideal_counts)
    assert analysis.absolute_sum(report["bsm_phi_minus"]) > 1.0
    ssm = report["ssm_pooled"]
    sigma = np.sqrt(sum(r.sigma**2 for r in ssm.values()))
    assert analysis.absolute_sum(ssm) <= 1.0 + 3 * sigma


def test_pooled_bsm_ideal(ideal_counts):
    pooled = analysis.pooled_bsm_analysis(ideal_counts)
    assert abs(pooled["z"].value - 1.0) <= 5 * max(pooled["z"].sigma, 1e-9)
    for basis in ("x", "y"):
        assert abs(pooled[basis].value) <= 5 * pooled[basis].sigma


def test_pooled_equals_unpooled_when_single_outcome(ideal_counts):
    phi_minus = {k: n for k, n in ideal_counts.items() if k[1] is BisaOutcome.PHI_MINUS_23}
    pooled = analysis.pooled_bsm_analysis(phi_minus)
    direct = analysis.report_fig3(ideal_counts)["bsm_phi_minus"]
    assert pooled == direct


def test_pooled_requires_bsm_records(ideal_counts):
    ssm = {k: n for k, n in ideal_counts.items()
           if k[1] in (BisaOutcome.HH_23, BisaOutcome.VV_23)}
    assert ssm
    with pytest.raises(ValueError):
        analysis.pooled_bsm_analysis(ssm)


def test_report_table1_ideal(ideal_counts):
    rows = analysis.report_table1(ideal_counts)
    by_key = {(r.pair, r.choice): r for r in rows}
    assert len(rows) == 8

    r = by_key[((1, 4), "BSM")]
    assert r.source == "count-derived"
    assert abs(r.fidelity - 1.0) < 0.05
    assert r.witness < 0

    r = by_key[((1, 4), "SSM")]
    assert abs(r.fidelity - 0.5) < 0.05

    assert by_key[((1, 2), "BSM")].fidelity == pytest.approx(0.25, abs=1e-12)
    assert by_key[((1, 2), "SSM")].fidelity == pytest.approx(1.0, abs=1e-12)
    assert by_key[((3, 4), "BSM")].fidelity == pytest.approx(0.25, abs=1e-12)
    assert by_key[((3, 4), "SSM")].fidelity == pytest.approx(1.0, abs=1e-12)
    assert by_key[((2, 3), "BSM")].fidelity == pytest.approx(1.0, abs=1e-12)
    assert by_key[((2, 3), "SSM")].fidelity == pytest.approx(0.5, abs=1e-12)

    for row in rows:
        assert row.witness == analysis.witness_from_fidelity(row.fidelity)
        if row.pair != (1, 4):
            assert row.source == "state-derived"


def test_empty_subensemble_errors():
    with pytest.raises(ValueError):
        analysis.report_fig3({})
    with pytest.raises(ValueError):
        analysis.pooled_bsm_analysis({})


@pytest.mark.parametrize("alice, bob, measured, missing", [
    (("z",), ("z",), ["z"], "x, y"),
    (("z", "x"), ("x",), ["x"], "z, y"),
], ids=["z_z", "zx_x"])
def test_basis_subset_reports_the_measured_bases(alice, bob, measured, missing):
    cfg = experiment.ExperimentConfig(mode="ideal", trials=20_000, master_seed=5,
                                      alice_bases=alice, bob_bases=bob)
    counts = analysis.coincidence_counts(experiment.run_trials(cfg))
    for group in analysis.report_fig3(counts).values():
        assert list(group) == measured
    assert list(analysis.pooled_bsm_analysis(counts)) == measured
    error = f"no coincidences in basis {missing} of the bsm_phi_minus group"
    with pytest.raises(ValueError, match=error):
        analysis.report_table1(counts)


def test_basis_subset_keeps_the_full_run_correlations(ideal_counts):
    # The correlations of the bases with coincidences do not depend on the
    # bases without.
    full = analysis.correlation_results_from_counts(ideal_counts)
    z_only = analysis.correlation_results_from_counts(
        {k: n for k, n in ideal_counts.items() if k[2] == "z"})
    assert z_only == {label: {"z": by_basis["z"]} for label, by_basis in full.items()}


def test_csv_emission(ideal_counts):
    rows = analysis.report_table1(ideal_counts)
    text = analysis.rows_to_csv(rows)
    assert text.startswith("pair,target,choice")
    assert len(text.strip().splitlines()) == 9
    report = analysis.report_fig3(ideal_counts)
    text = analysis.correlations_to_csv(report)
    assert "bsm_phi_minus,z" in text
