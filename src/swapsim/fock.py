"""Truncated bosonic Fock space over labeled (spatial, polarization) modes.

States are sparse maps from occupation tuples to complex amplitudes.  The
per-mode photon cap ``n_max`` implements the truncation of the numerical
noise model; amplitudes pushed past the cap are dropped.

Mixed states (after loss channels) are represented as lists of
unnormalized FockVectors; the weight of a branch is its squared norm.
Linear optics on n photons is the n-photon block of its mode matrix
(:func:`lift`); threshold detectors click with :func:`click_probability`
given the photons they see, and every detector's POVM is those click
probabilities against outer-product sums of the optics
(:func:`detector_povm`).

The engines use only those matrix forms, with :func:`occupations`;
``experiment._source_sectors`` writes the sources' state in closed form,
and ``bisa.victor_povm`` takes the input loss into Victor's POVM.  The FockVector layer (creation operators,
:func:`spdc_source`, :func:`attenuate`, beam splitters and wave plates) is
the reference the tests build states with, criterion 10's property suites
and the fock engine's branch-enumeration oracle among them.
"""

from __future__ import annotations

import functools
from math import comb, factorial, sqrt

import numpy as np

Mode = tuple[str, str]  # (spatial label, polarization "H" or "V")

PRUNE_TOL = 1e-14

# Jones matrices.  qwp at +45 deg sends |H> to (|H> + i|V>)/sqrt2 (= |R> up
# to phase), qwp at -45 deg sends |H> to (|H> - i|V>)/sqrt2.
JONES_QWP_P45 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / sqrt(2.0)
JONES_QWP_M45 = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / sqrt(2.0)


class FockVector:
    """Sparse amplitude map over occupation tuples of an ordered mode register."""

    __slots__ = ("modes", "n_max", "amp", "_index")

    def __init__(self, modes, n_max: int, amp=None):
        self.modes: tuple[Mode, ...] = tuple(modes)
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate mode labels in register")
        self.n_max = int(n_max)
        self.amp: dict[tuple[int, ...], complex] = dict(amp) if amp else {}
        self._index = {m: i for i, m in enumerate(self.modes)}

    @classmethod
    def vacuum(cls, modes, n_max: int) -> "FockVector":
        state = cls(modes, n_max)
        state.amp[(0,) * len(state.modes)] = 1.0
        return state

    def mode_index(self, mode: Mode) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}") from None

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amp.values()))

    def norm(self) -> float:
        return sqrt(self.norm_sq())

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "FockVector":
        return FockVector(self.modes, self.n_max, {occ: a * factor for occ, a in self.amp.items()})

    def add(self, other: "FockVector", scale: complex = 1.0) -> "FockVector":
        if other.modes != self.modes:
            raise ValueError("mode registers differ")
        amp = dict(self.amp)
        for occ, a in other.amp.items():
            amp[occ] = amp.get(occ, 0.0) + scale * a
        out = FockVector(self.modes, self.n_max)
        out.amp = {occ: a for occ, a in amp.items() if abs(a) > PRUNE_TOL}
        return out

    def create(self, mode: Mode) -> "FockVector":
        """Apply the creation operator; occupations at ``n_max`` are truncated."""
        i = self.mode_index(mode)
        out = FockVector(self.modes, self.n_max)
        for occ, a in self.amp.items():
            n = occ[i]
            if n >= self.n_max:
                continue
            new = occ[:i] + (n + 1,) + occ[i + 1 :]
            out.amp[new] = out.amp.get(new, 0.0) + a * sqrt(n + 1)
        return out

    def relabel(self, mapping: dict[str, str]) -> "FockVector":
        """Rename spatial labels; occupations are untouched."""
        new_modes = tuple((mapping.get(s, s), p) for s, p in self.modes)
        return FockVector(new_modes, self.n_max, self.amp)

    def tensor(self, other: "FockVector") -> "FockVector":
        if self.n_max != other.n_max:
            raise ValueError("photon caps differ")
        modes = self.modes + other.modes
        out = FockVector(modes, self.n_max)
        for occ1, a1 in self.amp.items():
            for occ2, a2 in other.amp.items():
                out.amp[occ1 + occ2] = a1 * a2
        return out

    def extended(self, modes) -> "FockVector":
        """Embed into a larger register; the new modes start in vacuum."""
        extra = tuple(m for m in modes if m not in self._index)
        if not extra:
            return self
        return self.tensor(FockVector.vacuum(extra, self.n_max))

    def __repr__(self):
        return f"FockVector(modes={len(self.modes)}, terms={len(self.amp)})"


def _pair_indices(state: FockVector, m1, m2) -> list[tuple[int, int]]:
    """Resolve two mode arguments that may be ModeLabels or bare spatial labels."""
    if isinstance(m1, tuple) and isinstance(m2, tuple):
        return [(state.mode_index(m1), state.mode_index(m2))]
    pairs = []
    for pol in ("H", "V"):
        a, b = (m1, pol), (m2, pol)
        if a in state._index and b in state._index:
            pairs.append((state.mode_index(a), state.mode_index(b)))
    if not pairs:
        raise ValueError(f"no matching mode pairs for {m1!r}, {m2!r}")
    return pairs


def apply_pair_matrix(state: FockVector, i1: int, i2: int, mat: np.ndarray) -> FockVector:
    """Linear-optics lift of a 2x2 mode-transformation matrix.

    Creation operators transform as a_i -> sum_j mat[j, i] a_j, which for a
    Jones matrix J coincides with the single-photon ket map |p> -> J|p>.
    """
    n_max = state.n_max
    out = FockVector(state.modes, n_max)
    amp_out = out.amp
    for occ, a in state.amp.items():
        n1, n2 = occ[i1], occ[i2]
        base = a / sqrt(factorial(n1) * factorial(n2))
        # (m00 x + m10 y)^n1 (m01 x + m11 y)^n2, with x, y the output ops.
        for k1 in range(n1 + 1):
            c1 = comb(n1, k1) * mat[0, 0] ** k1 * mat[1, 0] ** (n1 - k1)
            if c1 == 0:
                continue
            for k2 in range(n2 + 1):
                c2 = comb(n2, k2) * mat[0, 1] ** k2 * mat[1, 1] ** (n2 - k2)
                if c2 == 0:
                    continue
                x = k1 + k2
                y = n1 + n2 - x
                coeff = base * c1 * c2 * sqrt(factorial(x) * factorial(y))
                if x > n_max or y > n_max:
                    continue
                new = list(occ)
                new[i1], new[i2] = x, y
                new = tuple(new)
                amp_out[new] = amp_out.get(new, 0.0) + coeff
    out.amp = {occ: v for occ, v in amp_out.items() if abs(v) > PRUNE_TOL}
    return out


@functools.cache  # a few (m, n) per process, shared by every lift
def occupations(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The occupations of ``m`` modes holding ``n`` photons in all, sorted."""
    if m == 1:
        return ((n,),)
    return tuple((k, *rest) for k in range(n + 1) for rest in occupations(m - 1, n - k))


def lift(mat: np.ndarray, n: int) -> np.ndarray:
    """The ``n``-photon block of the linear optics with ``m`` x ``m`` mode
    matrix ``mat``, as a matrix ``L[o, i]`` on ``occupations(m, n)``: the
    amplitude of occupation o for the input occupation i, with no photon
    cap.  Creation operators transform as in :func:`apply_pair_matrix`.  A
    stack of mode matrices ``mat[..., :, :]`` gives the stack of blocks.

    The block is built up one photon at a time.  An input i is
    a_k+ |i - e_k> / sqrt(i_k), k its first occupied mode, so column i of
    L_n is sum_j mat[j, k] a_j+ L_{n-1}[:, i - e_k] / sqrt(i_k).
    """
    mat = np.asarray(mat, dtype=complex)
    m = mat.shape[-1]
    block = np.ones((*mat.shape[:-2], 1, 1), dtype=complex)
    prev = occupations(m, 0)
    for photons in range(1, n + 1):
        occs = occupations(m, photons)
        row = {occ: r for r, occ in enumerate(occs)}
        col = {occ: c for c, occ in enumerate(prev)}
        first = [next(k for k, x in enumerate(occ) if x) for occ in occs]
        removed = [col[occ[:k] + (occ[k] - 1,) + occ[k + 1 :]] for occ, k in zip(occs, first)]
        scale = mat[..., first] / np.sqrt([occ[k] for occ, k in zip(occs, first)])
        # lower[..., j, o, i] = mat[j, k] L_{n-1}[o, i - e_k] / sqrt(i_k)
        lower = block[..., None, :, removed] * scale[..., :, None, :]
        block = np.zeros((*mat.shape[:-2], len(occs), len(occs)), dtype=complex)
        for j in range(m):
            up = [row[occ[:j] + (occ[j] + 1,) + occ[j + 1 :]] for occ in prev]
            norm = np.sqrt([occ[j] + 1.0 for occ in prev])
            block[..., up, :] += norm[:, None] * lower[..., j, :, :]
        prev = occs
    return block


def beam_splitter(state: FockVector, m1, m2, transmissivity: float) -> FockVector:
    """Symmetric beam splitter (factor i on reflection) between two modes.

    ``m1``/``m2`` may be ModeLabels or bare spatial labels; spatial labels
    act pairwise on the H and V components.
    """
    if m1 == m2:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t = sqrt(transmissivity)
    r = sqrt(1.0 - transmissivity)
    mat = np.array([[t, 1.0j * r], [1.0j * r, t]], dtype=complex)
    for i1, i2 in _pair_indices(state, m1, m2):
        state = apply_pair_matrix(state, i1, i2, mat)
    return state


def phase_shift(state: FockVector, target, phi: float) -> FockVector:
    """Phase e^{i phi} per photon in a mode (or both polarizations of a spatial label)."""
    if isinstance(target, tuple):
        idxs = [state.mode_index(target)]
    else:
        idxs = [i for i, (s, _) in enumerate(state.modes) if s == target]
        if not idxs:
            raise ValueError(f"unknown spatial label {target!r}")
    ph = np.exp(1.0j * phi)
    out = FockVector(state.modes, state.n_max)
    for occ, a in state.amp.items():
        n = sum(occ[i] for i in idxs)
        out.amp[occ] = a * ph**n
    return out


WAVE_PLATE_ELEMENTS = {
    "qwp+45": JONES_QWP_P45,
    "qwp-45": JONES_QWP_M45,
}


def wave_plate(state: FockVector, spatial: str, element) -> FockVector:
    """Apply a polarization Jones unitary to the H/V pair of a spatial mode.

    ``element`` is one of the named plates in ``WAVE_PLATE_ELEMENTS`` or an
    explicit 2x2 Jones matrix.
    """
    if isinstance(element, str):
        try:
            mat = WAVE_PLATE_ELEMENTS[element]
        except KeyError:
            raise ValueError(f"unknown wave plate element {element!r}") from None
    else:
        mat = np.asarray(element, dtype=complex)
    h, v = (spatial, "H"), (spatial, "V")
    if h not in state._index or v not in state._index:
        raise ValueError(f"spatial label {spatial!r} needs both polarizations")
    return apply_pair_matrix(state, state.mode_index(h), state.mode_index(v), mat)


def spdc_source(
    tau: float,
    order: int,
    spatial: tuple[str, str] = ("a", "b"),
    n_max: int = 3,
    normalize: bool = True,
) -> FockVector:
    """Two-mode-squeezed singlet source, truncated at ``order`` photon pairs.

    Expansion of exp[tau (aH+ bV+ - aV+ bH+)/sqrt2] |vac>; the one-pair
    term is exactly tau |psi->.  The interaction is singlet-normalized so
    that P(2 pairs)/P(1 pair) = 3 tau^2 / 4 exactly, for order >= 2.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if order > n_max:
        raise ValueError("order exceeds the per-mode photon cap")
    s1, s2 = spatial
    modes = ((s1, "H"), (s1, "V"), (s2, "H"), (s2, "V"))
    vac = FockVector.vacuum(modes, n_max)

    def pair_op(v: FockVector) -> FockVector:
        plus = v.create((s1, "H")).create((s2, "V"))
        minus = v.create((s1, "V")).create((s2, "H"))
        return plus.add(minus, scale=-1.0).scaled(1.0 / sqrt(2.0))

    total = vac
    term = vac
    for k in range(1, order + 1):
        term = pair_op(term)
        total = total.add(term, scale=tau**k / factorial(k))
    return total.normalized() if normalize else total


def attenuate(state: FockVector, mode: Mode, eta: float) -> list[FockVector]:
    """Exact loss channel: returns the unnormalized ensemble over photons lost.

    Branch ``k`` is the (pure) conditional state given that k photons of
    ``mode`` leaked into the environment; its weight is its squared norm.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    i = state.mode_index(mode)
    max_n = max((occ[i] for occ in state.amp), default=0)
    branches = []
    for k in range(max_n + 1):
        branch = FockVector(state.modes, state.n_max)
        for occ, a in state.amp.items():
            n = occ[i]
            if n < k:
                continue
            w = sqrt(comb(n, k)) * eta ** ((n - k) / 2.0) * (1.0 - eta) ** (k / 2.0)
            if w == 0.0:
                continue
            new = occ[:i] + (n - k,) + occ[i + 1 :]
            branch.amp[new] = branch.amp.get(new, 0.0) + a * w
        if branch.amp:
            branches.append(branch)
    return branches


def attenuate_sample(state: FockVector, mode: Mode, eta: float, rng: np.random.Generator) -> FockVector:
    """Sampling form of :func:`attenuate`: pick one loss branch by its weight."""
    branches = attenuate(state, mode, eta)
    weights = np.array([b.norm_sq() for b in branches])
    total = weights.sum()
    pick = rng.choice(len(branches), p=weights / total)
    return branches[pick].normalized()


def click_probability(n, eta):
    """(P(silent), P(click)) of a threshold detector that sees ``n`` photons,
    each detected independently with efficiency ``eta``: silent with
    (1 - eta)^n.  ``n`` may be a numpy array."""
    p_silent = (1.0 - eta) ** n
    return p_silent, 1.0 - p_silent


def detector_povm(clicks: np.ndarray, outers: np.ndarray) -> np.ndarray:
    """A detector's POVM E[k] = sum_c clicks[c, k] outers[c]: the real
    probabilities of outcome k given photon counts c against ``outers[c]``,
    the sum of T[:, j] T[:, j]^dagger over the outputs j of the optics with
    counts c (real or complex, any trailing shape).  A complex sum is
    contracted as its real and imaginary parts in one real np.matmul (see
    the BLAS note in experiment.py)."""
    flat = outers.reshape(len(outers), -1).view(float)
    summed = clicks.T @ flat
    return summed.view(outers.dtype).reshape(clicks.shape[1], *outers.shape[1:])
