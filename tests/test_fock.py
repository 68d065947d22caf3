import numpy as np
import pytest
from scipy.linalg import expm

from swapsim import bisa, fock
from swapsim.bisa import BisaSetting
from swapsim.experiment import _axis_rotation

import fock_reference as ref


def single_photon(mode, modes=(("a", "H"), ("a", "V"), ("b", "H"), ("b", "V")), n_max=3):
    return ref.FockVector.vacuum(modes, n_max).create(mode)


def test_vacuum_norm():
    vac = ref.FockVector.vacuum((("a", "H"),), 3)
    assert abs(vac.norm() - 1.0) < 1e-14


def test_create_and_truncate():
    vac = ref.FockVector.vacuum((("a", "H"),), 2)
    s = vac.create(("a", "H")).create(("a", "H"))
    assert abs(s.norm_sq() - 2.0) < 1e-12  # sqrt(1)*sqrt(2) amplitude
    capped = s.create(("a", "H"))
    assert capped.norm_sq() == 0.0


def test_beam_splitter_unitarity():
    s = single_photon(("a", "H"))
    out = ref.beam_splitter(s, "a", "b", 0.5)
    assert abs(out.norm_sq() - s.norm_sq()) < 1e-12


def test_beam_splitter_single_photon_amplitudes():
    # Symmetric convention: transmit amplitude sqrt(T), reflect i sqrt(1-T).
    s = single_photon(("a", "H"))
    out = ref.beam_splitter(s, ("a", "H"), ("b", "H"), 0.5)
    amps = {occ: a for occ, a in out.amp.items()}
    t = amps[(1, 0, 0, 0)]
    r = amps[(0, 0, 1, 0)]
    assert abs(t - 1 / np.sqrt(2)) < 1e-12
    assert abs(r - 1j / np.sqrt(2)) < 1e-12


def test_hom_null():
    # Two indistinguishable photons on a 50:50 splitter never exit separately.
    modes = (("a", "H"), ("b", "H"))
    s = ref.FockVector.vacuum(modes, 3).create(("a", "H")).create(("b", "H"))
    out = ref.beam_splitter(s, ("a", "H"), ("b", "H"), 0.5)
    assert abs(out.amp.get((1, 1), 0.0)) < 1e-12
    assert abs(out.norm_sq() - s.norm_sq()) < 1e-12


def test_mz_closure_is_mirror_up_to_sign():
    # BS, pi phase on one arm, BS again: diag(-1, 1) on (a, b), i.e. the
    # identity routing up to a path-dependent sign.
    for mode, target, sign in (
        ((("a", "H"), (1, 0, 0, 0)), (1, 0, 0, 0), -1.0),
        ((("b", "H"), (0, 0, 1, 0)), (0, 0, 1, 0), 1.0),
    ):
        s = single_photon(mode[0])
        out = ref.beam_splitter(s, "a", "b", 0.5)
        out = ref.phase_shift(out, "a", np.pi)
        out = ref.beam_splitter(out, "a", "b", 0.5)
        amps = dict(out.amp)
        assert abs(amps.pop(target) - sign) < 1e-12
        assert all(abs(a) < 1e-12 for a in amps.values())


def test_wave_plate_acts_as_single_photon_jones():
    s = single_photon(("a", "H"))
    out = ref.wave_plate(s, "a", "qwp+45")
    h = out.amp.get((1, 0, 0, 0), 0.0)
    v = out.amp.get((0, 1, 0, 0), 0.0)
    assert np.allclose([h, v], fock.JONES_QWP_P45[:, 0], atol=1e-12)


def test_spdc_one_pair_term_is_singlet():
    tau = 0.1
    s = ref.spdc_source(tau, order=1, spatial=("a", "b"), normalize=False)
    # Occupations ordered (aH, aV, bH, bV).
    hv = s.amp[(1, 0, 0, 1)]
    vh = s.amp[(0, 1, 1, 0)]
    assert abs(hv - tau / np.sqrt(2)) < 1e-12
    assert abs(vh + tau / np.sqrt(2)) < 1e-12


def pair_probabilities(state):
    p = {}
    for occ, a in state.amp.items():
        k = sum(occ) // 2
        p[k] = p.get(k, 0.0) + abs(a) ** 2
    return p


def test_spdc_pair_ratio():
    tau = 0.2
    s = ref.spdc_source(tau, order=2, normalize=False)
    p = pair_probabilities(s)
    assert abs(p[2] / p[1] - 3 * tau**2 / 4) < 1e-10


def test_spdc_against_exponential_oracle():
    # Independent oracle: matrix exponential of the interaction generator in
    # the truncated number basis, modes ordered (aH, aV, bH, bV), cap 3.
    tau = 0.3
    n_max = 3
    dims = [n_max + 1] * 4
    size = int(np.prod(dims))

    def index(occ):
        i = 0
        for n, d in zip(occ, dims):
            i = i * d + n
        return i

    gen = np.zeros((size, size))
    for occ in np.ndindex(*dims):
        i = index(occ)
        ah, av, bh, bv = occ
        if ah < n_max and bv < n_max:
            j = index((ah + 1, av, bh, bv + 1))
            gen[j, i] += np.sqrt((ah + 1) * (bv + 1)) / np.sqrt(2)
        if av < n_max and bh < n_max:
            j = index((ah, av + 1, bh + 1, bv))
            gen[j, i] -= np.sqrt((av + 1) * (bh + 1)) / np.sqrt(2)
    vec = np.zeros(size)
    vec[0] = 1.0
    oracle = expm(tau * gen) @ vec

    s = ref.spdc_source(tau, order=3, normalize=False)
    for occ, a in s.amp.items():
        # The series construction truncates at 3 pairs; the exponential also
        # contains them, so low orders must agree closely.
        if sum(occ) <= 4:
            assert abs(a - oracle[index(occ)]) < 5e-4


def test_attenuate_preserves_weight():
    s = ref.spdc_source(0.3, order=2)
    branches = ref.attenuate(s, ("b", "H"), 0.4)
    total = sum(b.norm_sq() for b in branches)
    assert abs(total - s.norm_sq()) < 1e-12


def _random_state(modes, occs, n_max, rng):
    amp = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    return ref.FockVector(modes, n_max, zip(occs, amp / np.linalg.norm(amp)))


def _lossy_trace(state, lossy, eta, blocks):
    """Tr[rho' E]: the ensemble that attenuate leaves of ``state`` on the
    modes ``lossy`` against E, the direct sum of ``blocks`` (zero elsewhere)."""
    branches = [state]
    for mode in lossy:
        branches = [lost for b in branches for lost in ref.attenuate(b, mode, eta)]
    total = 0.0
    for occs, ops in blocks:
        psi = np.array([[b.amp.get(occ, 0.0) for occ in occs] for b in branches])
        total = total + np.einsum("bi,...ij,bj->...", psi.conj(), ops, psi)
    return total


def _trace(state, occs, ops):
    """Tr[rho E] for the pure ``state`` and E[..., i, i'] on the occupations ``occs``."""
    psi = np.array([state.amp.get(occ, 0.0) for occ in occs])
    return np.einsum("i,...ij,j->...", psi.conj(), ops, psi)


# Up to 2 photons per analyzer input mode and 4 in all, of mixed photon
# number: closed under loss.
CAPPED4 = [occ for occ in np.ndindex(3, 3, 3, 3) if sum(occ) <= 4]


@pytest.mark.parametrize("eta", [0.0, 0.21, 0.5, 1.0])
@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
def test_input_loss_of_victor_povm_where_the_cap_binds(eta, setting):
    # Victor's POVM with the input loss inside, on inputs of mixed photon
    # number, against the ensemble that attenuate leaves on each input mode
    # measured by his lossless POVM, a direct sum over the photon number n
    # at the inputs: at a cap of 2 the analyzer drops every output with 3 or
    # 4 photons in one mode.
    rng = np.random.default_rng(81)
    by_n = [[occ for occ in CAPPED4 if sum(occ) == n] for n in range(5)]
    s = list(BisaSetting).index(setting)
    blocks = [(occs, bisa.victor_povm(occs, 2, 0.7, 0.6, 1.0)[0][s]) for occs in by_n]
    # The cap drops weight: E summed over the patterns is not the identity.
    assert max(abs(ops.sum(axis=0) - np.eye(len(occs))).max() for occs, ops in blocks) > 0.1
    lossy = bisa.victor_povm(CAPPED4, 2, 0.7, 0.6, eta)[0][s]
    for _ in range(3):
        state = _random_state(bisa.INPUT_REGISTER, CAPPED4, 2, rng)
        expected = _lossy_trace(state, bisa.INPUT_REGISTER, eta, blocks)
        got = _trace(state, CAPPED4, lossy)
        assert np.abs(got - expected).max() <= 1e-14
        assert (got.real >= -1e-15).all() and got.sum().real <= 1.0 + 1e-14


def test_input_losses_of_victor_povm_compose():
    # Transmission t2 before Victor's POVM at transmission t1 is his POVM at
    # t1 * t2.
    rng = np.random.default_rng(7)
    for t1, t2 in ((0.21, 0.5), (0.5, 0.9), (0.3, 0.0)):
        once = bisa.victor_povm(CAPPED4, 2, 0.7, 0.6, t1)[0]
        direct = bisa.victor_povm(CAPPED4, 2, 0.7, 0.6, t1 * t2)[0]
        state = _random_state(bisa.INPUT_REGISTER, CAPPED4, 2, rng)
        twice = _lossy_trace(state, bisa.INPUT_REGISTER, t2, [(CAPPED4, once)])
        assert np.abs(twice - _trace(state, CAPPED4, direct)).max() <= 1e-14


def test_victor_povm_rejects_bad_transmission():
    with pytest.raises(ValueError, match="transmission"):
        bisa.victor_povm(CAPPED4, 2, 0.7, 0.6, 1.5)


def test_pattern_distribution_normalized():
    # Victor's pattern distribution of a pair source on the analyzer inputs,
    # psi^dagger E_p psi through the input loss and both parts of the
    # analyzer mixture, keeps the source's weight.
    s = ref.spdc_source(0.4, order=2, spatial=("b", "c"))
    assert s.modes == bisa.INPUT_REGISTER
    inputs = list(s.amp)
    psi = np.array([s.amp[occ] for occ in inputs])
    for t in (0.0, 0.21, 0.5, 1.0):
        # A cap of 4 keeps every output of the two pairs.
        povm, _ = bisa.victor_povm(inputs, 4, 0.7, 0.6, t)
        for e in povm:
            dist = np.einsum("i,kij,j->k", psi.conj(), e, psi).real
            assert abs(dist.sum() - s.norm_sq()) < 1e-12
            assert (dist >= 0).all()


@pytest.mark.parametrize("eta", [0.25, 1.0])
@pytest.mark.parametrize("setting", list(BisaSetting), ids=lambda s: s.value)
def test_victor_clicks_sum_to_part_weight(setting, eta):
    # Every output occupation makes exactly one click pattern, so each row
    # of a part's clicks sums to 1, and Victor's POVM summed over the
    # patterns is each part's T T^dagger times the part's weight.
    split = [(h, n - h) for n in range(3) for h in range(n + 1)]
    inputs = [b + c for b in split for c in split]
    povm, _ = bisa.victor_povm(inputs, 3, 0.7, eta, 1.0)
    expected = 0.0
    for distinguishable, weight in ((False, 0.7), (True, 0.3)):
        transfer, counts = bisa._detector_view(setting, tuple(inputs), 3, distinguishable)
        clicks = bisa.pattern_probabilities(counts, eta)
        assert clicks.shape == (transfer.shape[1], len(bisa.PATTERNS))
        assert (clicks >= 0).all()
        assert np.abs(clicks.sum(axis=1) - 1.0).max() < 1e-12
        expected = expected + weight * transfer @ transfer.conj().T
    total = povm[list(BisaSetting).index(setting)].sum(axis=0)
    assert np.abs(total - expected).max() < 1e-12


def test_threshold_efficiency():
    # Two photons on one detector with efficiency eta click with 1-(1-eta)^2.
    eta = 0.3
    silent, click = fock.click_probability(2, eta)
    assert abs(click - (1 - (1 - eta) ** 2)) < 1e-12
    assert abs(silent + click - 1.0) < 1e-12


def test_relabel_and_tensor():
    s = single_photon(("a", "H"), modes=(("a", "H"), ("a", "V")))
    t = s.relabel({"a": "c"})
    assert t.modes == (("c", "H"), ("c", "V"))
    u = s.tensor(ref.FockVector.vacuum((("b", "H"),), 3))
    assert u.modes == (("a", "H"), ("a", "V"), ("b", "H"))
    assert abs(u.norm_sq() - 1.0) < 1e-14


def random_unitary(m, rng):
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diag(r) / abs(np.diag(r)))


def test_occupations_are_sorted_and_complete():
    for m, n in ((1, 3), (2, 4), (4, 3)):
        expected = [o for o in np.ndindex(*(n + 1,) * m) if sum(o) == n]
        assert fock.occupations(m, n) == tuple(expected)


def test_lift_is_unitary():
    u = random_unitary(4, np.random.default_rng(11))
    for n in range(7):
        block = fock.lift(u, n)
        assert block.shape == (len(fock.occupations(4, n)),) * 2
        assert abs(block.conj().T @ block - np.eye(len(block))).max() < 1e-13


def test_lift_of_product_is_product_of_lifts():
    rng = np.random.default_rng(12)
    a, b = random_unitary(4, rng), random_unitary(4, rng)
    for n in range(7):
        assert abs(fock.lift(a @ b, n) - fock.lift(a, n) @ fock.lift(b, n)).max() < 1e-13
        stacked = np.stack((fock.lift(a, n), fock.lift(b, n)))
        assert abs(fock.lift(np.stack((a, b)), n) - stacked).max() < 1e-15


def test_lift_of_axis_rotation_equals_wave_plate():
    # The m = 2 block agrees with the Fock primitive on every basis state.
    modes = (("p", "H"), ("p", "V"))
    for axis in ("x", "y", "z"):
        jones = _axis_rotation(axis)
        for n in range(4):
            occs = fock.occupations(2, n)
            block = fock.lift(jones, n)
            for i, occ in enumerate(occs):
                out = ref.wave_plate(ref.FockVector(modes, 3, {occ: 1.0}), "p", jones)
                column = np.array([out.amp.get(o, 0.0) for o in occs])
                assert set(out.amp) <= set(occs)
                assert abs(block[:, i] - column).max() < 1e-14
