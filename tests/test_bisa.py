import itertools

import numpy as np
import pytest

from swapsim import bisa, fock, states
from swapsim.bisa import BisaOutcome, BisaSetting
from step_oracle import VICTOR_BANK, VICTOR_BANK_TAGGED, analyzer_pass, click_patterns


def test_setting_from_bit():
    assert BisaSetting.from_bit(1) is BisaSetting.BSM
    assert BisaSetting.from_bit(0) is BisaSetting.SSM


SINGLE_PHOTONS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def _bell_output(kind, setting):
    """Output amplitudes of the coherent pass of a Bell state of one photon
    on each of b and c, by output occupation."""
    inputs = [(1 - p, p, 1 - q, q) for p in (0, 1) for q in (0, 1)]
    outputs, transfer = bisa.transfer_map(setting, inputs, 3)
    return dict(zip(outputs, states.bell_state(kind).amplitudes @ transfer))


def test_ssm_acts_as_mirror():
    # Every photon entering input b exits output b'' (up to a sign).
    outputs, transfer = bisa.transfer_map(BisaSetting.SSM, SINGLE_PHOTONS[:3], 3)
    for row, out_occ in zip(transfer, SINGLE_PHOTONS[:3]):
        amps = dict(zip(outputs, row))
        assert abs(abs(amps.pop(out_occ)) - 1.0) < 1e-12
        assert all(abs(a) < 1e-12 for a in amps.values())


def test_bsm_phi_plus_evolution():
    # phi+ exits as both polarizations on one output (bunched HV pairs).
    out = _bell_output("phi+", BisaSetting.BSM)
    expected = {(1, 1, 0, 0), (0, 0, 1, 1)}
    support = {occ for occ, a in out.items() if abs(a) > 1e-9}
    assert support == expected
    mags = sorted(abs(a) for a in out.values() if abs(a) > 1e-9)
    assert np.allclose(mags, [1 / np.sqrt(2)] * 2, atol=1e-9)


def test_bsm_phi_minus_evolution():
    # phi- exits as one photon per output with equal polarization.
    out = _bell_output("phi-", BisaSetting.BSM)
    support = {occ for occ, a in out.items() if abs(a) > 1e-9}
    assert support == {(1, 0, 1, 0), (0, 1, 0, 1)}


def test_bsm_psi_states_bunch():
    # psi+ and psi- produce only doubled-up modes: never a valid 2-detector
    # pattern, so they classify as Discard with probability 1.
    for kind in ("psi+", "psi-"):
        dist = bisa.verify_evolution(kind, BisaSetting.BSM)
        assert abs(dist.get(BisaOutcome.DISCARD, 0.0) - 1.0) < 1e-9


def test_bsm_single_photon_transfer_matrix_oracle():
    # Hand-built 4x4 transfer matrix (bH,bV,cH,cV) for the BSM setting:
    # BS1, qwp+45 on b, qwp-45 on c, pi on b, BS2, all in the symmetric
    # convention. Compare against the Fock pipeline on single photons.
    bs = np.array([[1, 0, 1j, 0], [0, 1, 0, 1j], [1j, 0, 1, 0], [0, 1j, 0, 1]]) / np.sqrt(2)
    qwp = np.zeros((4, 4), dtype=complex)
    qwp[:2, :2] = fock.JONES_QWP_P45
    qwp[2:, 2:] = fock.JONES_QWP_M45
    lock = np.diag([-1.0, -1.0, 1.0, 1.0])
    transfer = bs @ lock @ qwp @ bs

    outputs, got = bisa.transfer_map(BisaSetting.BSM, SINGLE_PHOTONS, 3)
    assert outputs == sorted(SINGLE_PHOTONS)
    # got[i, j]: the amplitude of output occupation j for input photon i.
    rows = [outputs.index(occ) for occ in SINGLE_PHOTONS]
    assert np.allclose(got[:, rows], transfer.T, atol=1e-12)


def test_classification_tables():
    assert bisa.classify({"b2H", "b2V"}, BisaSetting.BSM) is BisaOutcome.PHI_PLUS_23
    assert bisa.classify({"c2H", "c2V"}, BisaSetting.BSM) is BisaOutcome.PHI_PLUS_23
    assert bisa.classify({"b2H", "c2H"}, BisaSetting.BSM) is BisaOutcome.PHI_MINUS_23
    assert bisa.classify({"b2V", "c2V"}, BisaSetting.BSM) is BisaOutcome.PHI_MINUS_23
    assert bisa.classify({"b2H", "c2V"}, BisaSetting.BSM) is BisaOutcome.DISCARD
    assert bisa.classify({"b2H", "c2H"}, BisaSetting.SSM) is BisaOutcome.HH_23
    assert bisa.classify({"b2V", "c2V"}, BisaSetting.SSM) is BisaOutcome.VV_23
    assert bisa.classify({"b2H", "c2V"}, BisaSetting.SSM) is BisaOutcome.DISCARD
    # Click counts other than two are always discarded.
    assert bisa.classify({"b2H"}, BisaSetting.BSM) is BisaOutcome.DISCARD
    assert bisa.classify({"b2H", "b2V", "c2H"}, BisaSetting.SSM) is BisaOutcome.DISCARD
    assert bisa.classify(set(), BisaSetting.BSM) is BisaOutcome.DISCARD


def test_ssm_outcome_distribution():
    # A phi- input under SSM gives HH and VV with probability 1/2 each.
    dist = bisa.verify_evolution("phi-", BisaSetting.SSM)
    assert abs(dist.get(BisaOutcome.HH_23, 0.0) - 0.5) < 1e-9
    assert abs(dist.get(BisaOutcome.VV_23, 0.0) - 0.5) < 1e-9


def test_unitarity_of_analyzer():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        for setting in BisaSetting:
            out = _bell_output(kind, setting)
            assert abs(sum(abs(a) ** 2 for a in out.values()) - 1.0) < 1e-9


def test_visibility_mixing():
    # At visibility v, the phi- BSM distribution mixes the coherent result
    # with the distinguishable one; the phi- class probability interpolates
    # linearly between 1 and its distinguishable value.
    full = bisa.verify_evolution("phi-", BisaSetting.BSM, visibility=1.0)
    none = bisa.verify_evolution("phi-", BisaSetting.BSM, visibility=0.0)
    v = 0.7
    mixed = bisa.verify_evolution("phi-", BisaSetting.BSM, visibility=v)
    for outcome in set(full) | set(none):
        expect = v * full.get(outcome, 0.0) + (1 - v) * none.get(outcome, 0.0)
        assert abs(mixed.get(outcome, 0.0) - expect) < 1e-9


def test_distinguishable_phi_minus_leaks_into_phi_plus():
    # With no two-photon interference, a phi- input feeds the phi+ outcome
    # class as often as the phi- one: the Bell discrimination is lost.
    dist = bisa.verify_evolution("phi-", BisaSetting.BSM, visibility=0.0)
    p_minus = dist.get(BisaOutcome.PHI_MINUS_23, 0.0)
    p_plus = dist.get(BisaOutcome.PHI_PLUS_23, 0.0)
    assert p_plus > 1e-6
    assert abs(p_plus - p_minus) < 1e-9
    # Fully coherent, the leak vanishes.
    full = bisa.verify_evolution("phi-", BisaSetting.BSM, visibility=1.0)
    assert full.get(BisaOutcome.PHI_PLUS_23, 0.0) < 1e-9


def test_apply_requires_inputs():
    with pytest.raises(ValueError, match="unknown Bell state"):
        bisa.verify_evolution("nope", BisaSetting.BSM)


# --- the analyzer's transfer maps against its optics step by step ---------


def _engine_inputs(order):
    """Every analyzer input occupation the fock engine meets at spdc_order
    ``order``: up to ``order`` photons on each of b and c, after loss."""
    split = [(h, n - h) for n in range(order + 1) for h in range(n + 1)]
    return [b + c for b in split for c in split]


# The oracle's tagged output x of the distinguishable pass is the coherent
# output (x0, x1, x4, x5) of the b photons and (x6, x7, x2, x3) of the c photons.
def _untagged(x):
    return (x[0], x[1], x[4], x[5]), (x[6], x[7], x[2], x[3])


@pytest.mark.parametrize("distinguishable", [False, True], ids=["coherent", "tagged"])
@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_transfer_map_equals_step_oracle(n_max, setting, distinguishable):
    # Each pass as Victor's detectors see it, column by column, against the
    # oracle's outputs and its detector banks.
    inputs = _engine_inputs(min(3, n_max))
    transfer, counts = bisa._detector_view(setting, tuple(inputs), n_max, distinguishable)
    passed = [analyzer_pass(fock.FockVector(bisa.INPUT_REGISTER, n_max, {occ: 1.0}),
                           setting, distinguishable) for occ in inputs]
    bank = VICTOR_BANK_TAGGED if distinguishable else VICTOR_BANK
    assert list(bank) == list(bisa.VICTOR_DETECTORS)
    watched = [[passed[0].mode_index(m) for m in modes] for modes in bank.values()]
    if distinguishable:
        label = _untagged
        # Columns (j_b, j_c) in row-major order over the coherent outputs of
        # the b photons alone and of the c photons alone.
        halves = [bisa.transfer_map(setting, [part(occ) for occ in inputs], n_max)[0]
                  for part in (lambda occ: occ[:2] + (0, 0), lambda occ: (0, 0) + occ[2:])]
        columns = list(itertools.product(*halves))
    else:
        assert passed[0].modes == bisa.OUTPUT_REGISTER
        label = tuple
        columns, coherent = bisa.transfer_map(setting, inputs, n_max)
        assert columns == sorted(columns) and np.array_equal(coherent, transfer)
    expected, seen = {}, {}
    for i, out in enumerate(passed):
        for occ, a in out.amp.items():
            expected.setdefault(label(occ), np.zeros(len(inputs), dtype=complex))[i] = a
            seen[label(occ)] = [sum(occ[m] for m in idx) for idx in watched]
    columns = [c for c in columns if c in expected]
    assert set(columns) == set(expected) and transfer.shape == (len(inputs), len(columns))
    assert np.array_equal(counts, [seen[c] for c in columns])
    assert np.abs(transfer - np.array([expected[c] for c in columns]).T).max() <= 1e-14
    # The weight each input loses to the photon cap.
    lost = 1.0 - (np.abs(transfer) ** 2).sum(axis=1)
    assert np.abs(lost - np.array([1.0 - out.norm_sq() for out in passed])).max() <= 1e-14


@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
def test_transfer_map_truncates_at_the_cap(setting):
    # Two H photons on each input bunch into one mode at the first splitter
    # (Hong-Ou-Mandel), and the cap of 3 drops the 4-photon terms.
    inputs = [(2, 0, 2, 0)]
    _, transfer = bisa.transfer_map(setting, inputs, 3)
    state = fock.FockVector(bisa.INPUT_REGISTER, 3, {inputs[0]: 1.0})
    oracle = analyzer_pass(state, setting, False)
    lost = 1.0 - (np.abs(transfer) ** 2).sum()
    assert lost > 0.1
    assert abs(lost - (1.0 - oracle.norm_sq())) <= 1e-14
    # Below the cap nothing is lost.
    _, transfer = bisa.transfer_map(setting, inputs, 4)
    assert abs((np.abs(transfer) ** 2).sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n_max", [2, 4])
@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
def test_victor_povm_equals_step_oracle(setting, n_max):
    # psi^dagger E[s, k] psi of random states of up to 4 photons against the
    # visibility-weighted click patterns of the oracle's coherent and tagged
    # passes: at cap 2 the analyzer drops what bunches past it, at cap 4
    # nothing.
    rng = np.random.default_rng(26)
    inputs = [occ for occ in np.ndindex(*(n_max + 1,) * 4) if sum(occ) <= 4]
    s = list(BisaSetting).index(setting)
    for _ in range(2):
        psi = rng.normal(size=len(inputs)) + 1j * rng.normal(size=len(inputs))
        psi /= np.linalg.norm(psi)
        state = fock.FockVector(bisa.INPUT_REGISTER, n_max, dict(zip(inputs, psi)))
        passes = [analyzer_pass(state, setting, tagged) for tagged in (False, True)]
        for visibility, eta in itertools.product((0.0, 0.7, 1.0), (0.6, 1.0)):
            povm, _ = bisa.victor_povm(inputs, n_max, visibility, eta, 1.0)
            got = np.einsum("i,kij,j->k", psi.conj(), povm[s], psi)
            expected = np.zeros(len(bisa.PATTERNS))
            for out, bank, weight in zip(passes, (VICTOR_BANK, VICTOR_BANK_TAGGED),
                                         (visibility, 1.0 - visibility)):
                for clicked, p in click_patterns([out], bank, eta).items():
                    k = bisa.PATTERNS.index(tuple(d for d in bisa.VICTOR_DETECTORS if d in clicked))
                    expected[k] += weight * p
            assert np.abs(got - expected).max() <= 1e-13


@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
def test_lifted_steps_are_fresh_lifts_and_read_only(setting):
    steps = [bisa._SPLITTERS, bisa._PLATES, bisa._CLOSING]
    if setting is BisaSetting.SSM:
        del steps[1]
    for n in range(7):
        cached = bisa._lifted_steps(setting, n)
        assert cached is bisa._lifted_steps(setting, n)
        assert np.array_equal(cached, fock.lift(np.stack(steps), n))
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 0.0
