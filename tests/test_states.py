import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import states


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return states.QubitRegisterState(amp / np.linalg.norm(amp))


def test_ket_labels():
    hv = states.ket("HV")
    assert np.allclose(hv.amplitudes, [0, 1, 0, 0])
    plus = states.ket("+")
    assert np.allclose(plus.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_bell_states_are_orthonormal():
    vecs = [states.bell_state(k).amplitudes for k in states.BELL_KINDS]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(4), atol=1e-14)


def test_axis_eigenvectors():
    for axis, (plus, minus) in states.AXIS_EIGENVECTORS.items():
        pauli = states.PAULI[axis]
        assert np.allclose(pauli @ plus, plus)
        assert np.allclose(pauli @ minus, -minus)


def test_source_state_decomposition():
    # The two-singlet state rewritten in the Bell(1,4) x Bell(2,3) basis:
    # (+1/2, -1/2, -1/2, +1/2) on (psi+ psi+, psi- psi-, phi+ phi+, phi- phi-).
    coeffs = states.bell_decompose_14_23(states.source_state())
    expected = np.diag([0.5, -0.5, -0.5, 0.5])
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_decompose_recompose_roundtrip():
    psi = random_state(4, seed=7)
    coeffs = states.bell_decompose_14_23(psi)
    # Unitarity of the basis change.
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12


def test_project_probabilities_sum_to_one():
    psi = random_state(4, seed=3)
    total = 0.0
    for kind in states.BELL_KINDS:
        _, p = states.project(psi, (1, 2), states.bell_state(kind))
        total += p
    assert abs(total - 1.0) < 1e-12


def test_project_impossible_branch():
    psi = states.ket("HH")
    remaining, prob = states.project(psi, (0,), states.QubitRegisterState(states.KET_V))
    assert remaining is None
    assert prob == 0.0


def test_project_remaining_state():
    psi = states.source_state()
    remaining, prob = states.project(psi, (1, 2), states.bell_state("phi-"))
    assert abs(prob - 0.25) < 1e-12
    f = states.fidelity(remaining.density_matrix(), states.bell_state("phi-"))
    assert abs(f - 1.0) < 1e-12


def test_partial_trace_against_brute_force():
    psi = random_state(4, seed=11)
    rho = psi.density_matrix()
    reduced = states.partial_trace(rho, (0, 3))
    # Brute force with explicit index arithmetic.
    expected = np.zeros((4, 4), dtype=complex)
    amp = psi.amplitudes
    for a in range(2):
        for d in range(2):
            for ap in range(2):
                for dp in range(2):
                    val = 0.0
                    for b in range(2):
                        for c in range(2):
                            i = a * 8 + b * 4 + c * 2 + d
                            j = ap * 8 + b * 4 + c * 2 + dp
                            val += amp[i] * np.conj(amp[j])
                    expected[a * 2 + d, ap * 2 + dp] = val
    assert np.allclose(reduced.matrix, expected, atol=1e-12)


def test_partial_trace_of_singlet_pair():
    rho = states.partial_trace(states.source_state().density_matrix(), (0, 1))
    assert np.allclose(rho.matrix, states.bell_state("psi-").density_matrix().matrix, atol=1e-12)


def test_pauli_correlations_of_bell_states():
    # (e_zz, e_xx, e_yy) signatures of the four Bell states.
    expected = {
        "phi+": (1, 1, -1),
        "phi-": (1, -1, 1),
        "psi+": (-1, 1, 1),
        "psi-": (-1, -1, -1),
    }
    for kind, (ez, ex, ey) in expected.items():
        rho = states.bell_state(kind).density_matrix()
        assert abs(states.pauli_correlation(rho, "z") - ez) < 1e-12
        assert abs(states.pauli_correlation(rho, "x") - ex) < 1e-12
        assert abs(states.pauli_correlation(rho, "y") - ey) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        states.DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        states.DensityMatrix(np.eye(2))  # trace 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fidelity_bounds(seed):
    rho = random_state(2, seed).density_matrix()
    target = states.bell_state("phi+")
    f = states.fidelity(rho, target)
    assert -1e-12 <= f <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_decomposition_is_unitary(seed):
    psi = random_state(4, seed)
    coeffs = states.bell_decompose_14_23(psi)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-9
