"""Dense state vectors and density matrices for up to four polarization qubits.

Basis convention: |H> maps to 0, |V> maps to 1, qubit 1 is the most
significant bit of the computational-basis index.  All states are plain
numpy arrays wrapped in thin value classes; everything here is immutable
by convention and pure, so it is safe to share across threads.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 4

# Single-qubit kets in the H/V basis.
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
KET_L = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)

SINGLE_KETS = {
    "H": KET_H,
    "V": KET_V,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "R": KET_R,
    "L": KET_L,
}

PAULI = {
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
}

PAULI_AXES = ("z", "x", "y")

# +1 / -1 eigenvectors of each Pauli axis.  |R> is the +1 eigenvector of y.
AXIS_EIGENVECTORS = {
    "z": (KET_H, KET_V),
    "x": (KET_PLUS, KET_MINUS),
    "y": (KET_R, KET_L),
}

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")


class QubitRegisterState:
    """Pure state of ``n`` polarization qubits as a dense amplitude vector."""

    __slots__ = ("amplitudes", "n")

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(amp.size))
        if 2**n != amp.size:
            raise ValueError(f"amplitude length {amp.size} is not a power of 2")
        if n > MAX_QUBITS:
            raise ValueError(f"qubit count {n} exceeds cap {MAX_QUBITS}")
        self.amplitudes = amp
        self.n = n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self):
        return f"QubitRegisterState(n={self.n}, amplitudes={self.amplitudes!r})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on ``n`` qubits."""

    __slots__ = ("matrix", "n")

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        n = int(np.log2(mat.shape[0]))
        if 2**n != mat.shape[0]:
            raise ValueError("dimension is not a power of 2")
        if not np.allclose(mat, mat.conj().T, atol=1e-12):
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-12:
            raise ValueError("trace is not 1")
        if np.linalg.eigvalsh(mat).min() < -1e-10:
            raise ValueError("matrix has a significantly negative eigenvalue")
        self.matrix = mat
        self.n = n

    def __repr__(self):
        return f"DensityMatrix(n={self.n})"


def ket(labels: str) -> QubitRegisterState:
    """Product state from single-photon labels, e.g. ``ket("HV")``."""
    amp = np.array([1.0], dtype=complex)
    for ch in labels:
        amp = np.kron(amp, SINGLE_KETS[ch])
    return QubitRegisterState(amp)


def bell_state(kind: str) -> QubitRegisterState:
    """Two-qubit Bell state with the standard sign conventions.

    psi-: (|HV> - |VH>)/sqrt2, psi+: (|HV> + |VH>)/sqrt2,
    phi-: (|HH> - |VV>)/sqrt2, phi+: (|HH> + |VV>)/sqrt2.
    """
    s = 1.0 / np.sqrt(2.0)
    table = {
        "psi-": [0.0, s, -s, 0.0],
        "psi+": [0.0, s, s, 0.0],
        "phi-": [s, 0.0, 0.0, -s],
        "phi+": [s, 0.0, 0.0, s],
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}")
    return QubitRegisterState(table[kind])


def tensor(a: QubitRegisterState, b: QubitRegisterState) -> QubitRegisterState:
    if a.n + b.n > MAX_QUBITS:
        raise ValueError(f"combined qubit count {a.n + b.n} exceeds cap {MAX_QUBITS}")
    return QubitRegisterState(np.kron(a.amplitudes, b.amplitudes))


def project(
    state: QubitRegisterState, qubits, projector: QubitRegisterState
) -> tuple[QubitRegisterState | None, float]:
    """Project the listed qubits (0-based) onto ``projector``.

    Returns the renormalized state of the remaining qubits and the outcome
    probability.  A zero-probability outcome returns ``(None, 0.0)`` so
    samplers can treat it as an impossible branch.
    """
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("projection qubits must be distinct")
    if any(q < 0 or q >= state.n for q in qubits):
        raise ValueError("projection qubit index out of range")
    if projector.n != len(qubits):
        raise ValueError("projector qubit count does not match index list")

    psi = state.amplitudes.reshape((2,) * state.n)
    proj = projector.amplitudes.reshape((2,) * projector.n)
    # <proj| contraction over the selected axes, in the listed order.
    remaining = np.tensordot(proj.conj(), psi, axes=(range(len(qubits)), qubits))
    prob = float(np.sum(np.abs(remaining) ** 2))
    if prob < 1e-28:
        return None, 0.0
    # tensordot puts dummy scalar axes first when everything was contracted.
    remaining = remaining.reshape(-1)
    return QubitRegisterState(remaining / np.sqrt(prob)), prob


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    keep = list(keep)
    if not keep:
        raise ValueError("keep list must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError("keep indices must be distinct")
    if any(q < 0 or q >= rho.n for q in keep):
        raise ValueError("keep index out of range")
    n = rho.n
    traced = [q for q in range(n) if q not in keep]
    # Axes: row qubits 0..n-1, column qubits n..2n-1.
    mat = rho.matrix.reshape((2,) * (2 * n))
    perm = keep + traced + [q + n for q in keep] + [q + n for q in traced]
    mat = np.transpose(mat, perm)
    k = len(keep)
    t = len(traced)
    mat = mat.reshape(2**k, 2**t, 2**k, 2**t)
    reduced = np.einsum("aibi->ab", mat)
    return DensityMatrix(reduced)


def pauli_correlation(rho: DensityMatrix, axis: str) -> float:
    """Tr(rho sigma_axis x sigma_axis) for a two-qubit density matrix."""
    if rho.n != 2:
        raise ValueError("pauli_correlation requires a 2-qubit density matrix")
    if axis not in PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    op = np.kron(PAULI[axis], PAULI[axis])
    val = np.trace(rho.matrix @ op)
    if abs(val.imag) > 1e-10:
        raise ValueError("correlation has a non-negligible imaginary part")
    return float(val.real)


def fidelity(rho: DensityMatrix, target: QubitRegisterState) -> float:
    """<target|rho|target>."""
    if rho.n != target.n:
        raise ValueError("dimension mismatch between state and density matrix")
    t = target.amplitudes
    val = np.vdot(t, rho.matrix @ t)
    if abs(val.imag) > 1e-10:
        raise ValueError("fidelity has a non-negligible imaginary part")
    return float(val.real)


def bell_decompose_14_23(state: QubitRegisterState) -> np.ndarray:
    """Coefficients of a 4-qubit state in the Bell(1,4) x Bell(2,3) basis.

    Returned as a 4x4 complex array indexed by (kind14, kind23) in the
    order ``BELL_KINDS`` = (psi+, psi-, phi+, phi-).
    """
    if state.n != 4:
        raise ValueError("bell_decompose_14_23 requires a 4-qubit state")
    bra = np.array([bell_state(kind).amplitudes.conj().reshape(2, 2) for kind in BELL_KINDS])
    return np.einsum("iad,jbc,abcd->ij", bra, bra, state.amplitudes.reshape(2, 2, 2, 2))


def source_state() -> QubitRegisterState:
    """The four-photon state psi-(1,2) x psi-(3,4)."""
    return tensor(bell_state("psi-"), bell_state("psi-"))
