"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from swapsim import analysis, experiment, fock, qrng, states, timeline
from swapsim.analysis import CoincidenceCounts
from swapsim.bisa import BisaOutcome, BisaSetting, verify_evolution
from swapsim.experiment import ExperimentConfig, KEPT_OUTCOMES


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def ideal_log():
    cfg = ExperimentConfig(mode="ideal", trials=100_000, master_seed=424242)
    start = time.perf_counter()
    log = experiment.run_trials(cfg)
    return log, time.perf_counter() - start


@pytest.fixture(scope="module")
def fock_engine():
    return experiment.build_engine(ExperimentConfig(mode="fock"))


def test_criterion_1_bell_decomposition():
    start = time.perf_counter()
    coeffs = states.bell_decompose_14_23(states.source_state())
    elapsed = time.perf_counter() - start
    expected = np.diag([0.5, -0.5, -0.5, 0.5]).astype(complex)
    ok = np.allclose(coeffs, expected, atol=1e-12) and elapsed < 1.0
    diag = tuple(float(round(coeffs[i, i].real, 6)) for i in range(4))
    report(1, ok, f"diagonal coefficients {diag}, off-diagonal max "
                  f"{np.max(np.abs(coeffs - expected)):.2e}, {elapsed:.3f} s")


def test_criterion_2_bisa_evolutions():
    start = time.perf_counter()
    d_plus = verify_evolution("phi+", BisaSetting.BSM)
    d_minus = verify_evolution("phi-", BisaSetting.BSM)
    p_plus = d_plus.get(BisaOutcome.PHI_PLUS_23, 0.0)
    p_minus = d_minus.get(BisaOutcome.PHI_MINUS_23, 0.0)
    discards = [
        verify_evolution(kind, BisaSetting.BSM).get(BisaOutcome.DISCARD, 0.0)
        for kind in ("psi-", "psi+")
    ]
    elapsed = time.perf_counter() - start
    ok = (
        abs(p_plus - 1.0) < 1e-9
        and abs(p_minus - 1.0) < 1e-9
        and all(abs(p - 1.0) < 1e-9 for p in discards)
        and elapsed < 1.0
    )
    report(2, ok, f"P(phi+ class)={p_plus:.9f}, P(phi- class)={p_minus:.9f}, "
                  f"P(discard|psi-)={discards[0]:.9f}, P(discard|psi+)={discards[1]:.9f}, "
                  f"{elapsed:.3f} s")


def test_criterion_3_fidelity_from_published_correlations():
    f1 = analysis.fidelity_from_correlations(0.511, -0.611, 0.603, "phi-")
    f2 = analysis.fidelity_from_correlations(0.589, 0.59, -0.561, "phi+")
    ok = abs(f1 - 0.681) < 1e-3 and abs(f2 - 0.685) < 1e-3
    report(3, ok, f"phi- inputs -> {f1:.4f} (expected 0.681), "
                  f"phi+ inputs -> {f2:.4f} (expected 0.685)")


def test_criterion_4_witness_identity():
    exact = analysis.witness_from_fidelity(Fraction(3, 8)) == Fraction(1, 8)
    w1 = analysis.witness_from_fidelity(0.645)
    w2 = analysis.witness_from_fidelity(0.681)
    w3 = analysis.witness_from_fidelity(0.421)
    ok = (
        exact
        and abs(w1 + 0.145) < 1e-3
        and abs(w2 + 0.181) < 1e-3
        and abs(w3 - 0.078) < 2e-3
    )
    report(4, ok, f"W = 1/2 - F exact; 0.645 -> {w1:+.3f}, 0.681 -> {w2:+.3f}, "
                  f"0.421 -> {w3:+.3f} (rounding tolerance)")


def test_criterion_5_timing():
    times = timeline.event_times(timeline.DelayBudget())
    rep = timeline.check_delayed_choice(times)
    ok = (
        (times.choice_lower, times.choice_upper) == (49.0, 348.0)
        and rep.choice_margin == (14.0, 313.0)
        and rep.measurement_margin == 485.0
    )
    report(5, ok, f"window [{times.choice_lower:g}, {times.choice_upper:g}] ns, "
                  f"margins [{rep.choice_margin[0]:g}, {rep.choice_margin[1]:g}] ns, "
                  f"measurement margin {rep.measurement_margin:g} ns")


def test_criterion_6_rate_budget():
    budget = experiment.rate_budget(ExperimentConfig())
    prod1 = experiment.imperfection_product((0.674, 0.964, 0.94, 0.99))
    prod2 = experiment.imperfection_product((0.95, 0.99))
    ok = (
        abs(budget.fraction - 0.0033) < 1e-4
        and abs(budget.fourfold_rate - 0.016) < 1e-3
        and abs(prod1 - 0.605) < 1e-3
        and abs(prod2 - 0.94) < 1e-3
    )
    report(6, ok, f"fraction {budget.fraction:.5f}, rate {budget.fourfold_rate:.4f} Hz, "
                  f"products {prod1:.4f} / {prod2:.4f}")


def test_criterion_7_ideal_end_to_end(ideal_log):
    log, elapsed = ideal_log
    fig3 = analysis.report_fig3(analysis.coincidence_counts(log))
    phi_minus = fig3["bsm_phi_minus"]
    ssm = fig3["ssm_pooled"]
    checks = []
    for basis, expect in (("z", 1.0), ("y", 1.0), ("x", -1.0)):
        r = phi_minus[basis]
        checks.append(abs(r.value - expect) <= 5 * max(r.sigma, 1e-9))
    checks.append(abs(ssm["z"].value - 1.0) <= 5 * max(ssm["z"].sigma, 1e-9))
    checks.append(abs(ssm["x"].value) <= 5 * ssm["x"].sigma)
    checks.append(abs(ssm["y"].value) <= 5 * ssm["y"].sigma)
    sum_bsm = analysis.absolute_sum(phi_minus)
    sum_ssm = analysis.absolute_sum(ssm)
    # The separable-side sum saturates at exactly 1; allow its Monte Carlo error.
    sigma_ssm = np.sqrt(sum(r.sigma**2 for r in ssm.values()))
    checks.append(sum_bsm > 1.0)
    checks.append(sum_ssm <= 1.0 + 3 * sigma_ssm)
    checks.append(elapsed < 60.0)
    ok = all(checks)
    vals = tuple(round(phi_minus[b].value, 3) for b in ("z", "y", "x"))
    svals = tuple(round(ssm[b].value, 3) for b in ("z", "y", "x"))
    report(7, ok, f"10^5 trials in {elapsed:.1f} s; BSM/phi- (E_HV,E_RL,E_+-)={vals}, "
                  f"|sum|={sum_bsm:.3f} > 1; SSM {svals}, |sum|={sum_ssm:.3f} <= 1")


def test_criterion_8_ordering_indifference():
    worst = 0.0
    for setting in BisaSetting:
        for ab in states.PAULI_AXES:
            for bb in states.PAULI_AXES:
                j1 = experiment.ordering_joint(ab, bb, setting, "alice_bob_first")
                j2 = experiment.ordering_joint(ab, bb, setting, "victor_first")
                for key in set(j1) | set(j2):
                    worst = max(worst, abs(j1.get(key, 0.0) - j2.get(key, 0.0)))
    ok = worst < 1e-12
    report(8, ok, f"max element-wise deviation {worst:.2e} over all bases and settings")


def test_criterion_9_monogamy_and_noise_budget(fock_engine):
    f14 = states.fidelity(
        experiment.conditional_state(BisaSetting.BSM, BisaOutcome.PHI_MINUS_23, (1, 4)),
        states.bell_state("phi-"),
    )
    f12_bsm = states.fidelity(
        experiment.conditional_state(BisaSetting.BSM, BisaOutcome.PHI_MINUS_23, (1, 2)),
        states.bell_state("psi-"),
    )
    f12_ssm = states.fidelity(
        experiment.conditional_state(BisaSetting.SSM, None, (1, 2)),
        states.bell_state("psi-"),
    )
    exact_ok = (
        abs(f14 - 1.0) < 1e-12 and abs(f12_bsm - 0.25) < 1e-12 and abs(f12_ssm - 1.0) < 1e-12
    )

    mags = [
        abs(fock_engine.expected_correlation(BisaSetting.BSM, [BisaOutcome.PHI_MINUS_23], b))
        for b in states.PAULI_AXES
    ]
    budget_ok = all(abs(m - 0.605) <= 0.05 for m in mags)

    cfg = ExperimentConfig(mode="fock")
    counts = experiment.simulate_counts(cfg, trials=2_000_000_000, seed=20123)
    pooled = analysis.correlation_results_from_counts(counts)["bsm_pooled"]
    z = pooled["z"]
    pattern_ok = (
        abs(z.value) > 3 * z.sigma
        and abs(pooled["x"].value) <= 3 * pooled["x"].sigma
        and abs(pooled["y"].value) <= 3 * pooled["y"].sigma
    )
    ok = exact_ok and budget_ok and pattern_ok
    report(9, ok, f"exact F: {f14:.12f}/{f12_bsm:.12f}/{f12_ssm:.12f}; "
                  f"fock |E| (z,x,y)=({mags[0]:.3f},{mags[1]:.3f},{mags[2]:.3f}) in 0.605+-0.05; "
                  f"pooled z={z.value:.3f}+-{z.sigma:.3f} significant, "
                  f"x={pooled['x'].value:+.3f}, y={pooled['y'].value:+.3f} ~ 0")


def test_criterion_10_property_suites(tmp_path):
    # Unitarity and normalization of the linear optics pipeline.
    rng = np.random.default_rng(1)
    modes = (("a", "H"), ("a", "V"), ("b", "H"), ("b", "V"))
    s = fock.FockVector.vacuum(modes, 3).create(("a", "H")).create(("b", "V"))
    out = fock.beam_splitter(s, "a", "b", 0.5)
    out = fock.wave_plate(out, "a", "qwp+45")
    unitary_ok = abs(out.norm_sq() - s.norm_sq()) < 1e-9

    # Hong-Ou-Mandel null.
    pair = fock.FockVector.vacuum((("a", "H"), ("b", "H")), 3)
    pair = pair.create(("a", "H")).create(("b", "H"))
    split = fock.beam_splitter(pair, ("a", "H"), ("b", "H"), 0.5)
    hom_ok = abs(split.amp.get((1, 1), 0.0)) < 1e-12

    # Attenuation: sampling path agrees with the exact ensemble, 3 sigma.
    state = fock.FockVector.vacuum((("a", "H"),), 3).create(("a", "H")).create(("a", "H"))
    state = state.normalized()
    branches = fock.attenuate(state, ("a", "H"), 0.6)
    weights = {next(iter(b.amp)): b.norm_sq() for b in branches}
    n = 100_000
    hits = dict.fromkeys(weights, 0)
    for _ in range(n):
        picked = fock.attenuate_sample(state, ("a", "H"), 0.6, rng)
        hits[next(iter(picked.amp))] += 1
    atten_ok = all(
        abs(hits[occ] - n * w) < 3 * np.sqrt(n * w * (1 - w)) + 1e-9
        for occ, w in weights.items()
    )

    # QRNG bias at one million bits.
    stream = qrng.QrngSimulator(qrng.QrngConfig(seed=77)).bits(1_000_000)
    p, sigma = qrng.bias(stream)
    qrng_ok = abs(p - 0.5) < 5 * sigma

    # Deterministic replay across worker counts, byte identical.
    cfg = ExperimentConfig(mode="ideal", trials=1500, master_seed=31)
    log1 = experiment.run_trials(cfg, workers=1)
    log3 = experiment.run_trials(cfg, workers=3)
    path1, path3 = tmp_path / "workers1.jsonl", tmp_path / "workers3.jsonl"
    experiment.write_log(path1, log1)
    experiment.write_log(path3, log3)
    replay_ok = path1.read_bytes() == path3.read_bytes()

    ok = unitary_ok and hom_ok and atten_ok and qrng_ok and replay_ok
    report(10, ok, f"unitarity {unitary_ok}, HOM null {hom_ok}, attenuation 3sigma {atten_ok}, "
                   f"QRNG bias {p:.4f}+-{sigma:.4f}, replay byte-identical {replay_ok}")
