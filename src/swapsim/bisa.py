"""Victor's high-speed tunable bipartite state analyzer.

A Mach-Zehnder interferometer with two symmetric 50:50 beam splitters and
a switchable quarter-wave stage in each arm.  Random bit 1 selects the
Bell-state measurement (interferometer phase pi/2, acts as a 50/50
splitter); bit 0 selects the separable-state measurement (phase 0, acts
as a 0/100 mirror).  The phase-lock reference is the point where every
photon entering input b exits output b''.

Spatial labels: inputs "b"/"c", outputs "b2"/"c2" (for b'' and c'').

The analyzer's optics are its transfer maps on input occupations
(:func:`transfer_map`), and its four threshold detectors are read out by
one click model (:func:`victor_detection`), which both the fock engine and
:func:`verify_evolution` use.
"""

from __future__ import annotations

import enum
import functools
import itertools
from math import sqrt

import numpy as np

from . import states
from .fock import JONES_QWP_M45, JONES_QWP_P45, PRUNE_TOL, click_probability, lift, occupations


class BisaSetting(enum.Enum):
    BSM = "BSM"
    SSM = "SSM"

    @property
    def phase(self) -> float:
        return np.pi / 2 if self is BisaSetting.BSM else 0.0

    @classmethod
    def from_bit(cls, bit: int) -> "BisaSetting":
        # Random bit 1 -> pi/2 phase (BSM), bit 0 -> no phase change (SSM).
        return cls.BSM if bit else cls.SSM


class BisaOutcome(enum.Enum):
    PHI_PLUS_23 = "phi+23"
    PHI_MINUS_23 = "phi-23"
    HH_23 = "hh23"
    VV_23 = "vv23"
    DISCARD = "discard"


# The analyzer's registers: its inputs, the outputs of the coherent pass,
# and those of the distinguishable pass, whose tagged population leaves on
# the twins b2~ and c2~ (the input c becomes c2~ in place; c2 and b2~ follow).
INPUT_REGISTER = (("b", "H"), ("b", "V"), ("c", "H"), ("c", "V"))
OUTPUT_REGISTER = (("b2", "H"), ("b2", "V"), ("c2", "H"), ("c2", "V"))
TAGGED_REGISTER = (("b2", "H"), ("b2", "V"), ("c2~", "H"), ("c2~", "V"),
                   ("c2", "H"), ("c2", "V"), ("b2~", "H"), ("b2~", "V"))

# Victor's detectors, and the output modes each one watches in the coherent
# pass ("b2H" watches ("b2", "H")) and in the distinguishable one (the
# untagged output and its twin, ("b2~", "H")).
VICTOR_DETECTORS = ("b2H", "b2V", "c2H", "c2V")
DETECTOR_BANK = {d: ((d[:2], d[2]),) for d in VICTOR_DETECTORS}
DETECTOR_BANK_TAGGED = {d: ((d[:2], d[2]), (d[:2] + "~", d[2])) for d in VICTOR_DETECTORS}
# Victor's click patterns: which of VICTOR_DETECTORS click, one row of
# _MASKS each, and the detectors that click, one tuple of PATTERNS each.
_MASKS = np.array(list(itertools.product((False, True), repeat=len(VICTOR_DETECTORS))))
PATTERNS = tuple(tuple(d for d, bit in zip(VICTOR_DETECTORS, mask) if bit) for mask in _MASKS)

# The analyzer's steps as mode matrices on INPUT_REGISTER order: the
# symmetric 50:50 splitter (factor i on reflection, as fock.beam_splitter
# builds it) between b and c on the H pair and on the V pair, the +EV/-EV
# drive as quarter-wave plates at +-45 degrees on b and c, and the second
# splitter after the locking phase pi on b.  With symmetric splitters the
# locking phase closes the interferometer into the b -> b'' mirror at SSM.
_SPLITTERS = np.kron(np.array([[1.0, 1.0j], [1.0j, 1.0]]) * sqrt(0.5), np.eye(2))
_PLATES = np.block([[JONES_QWP_P45, np.zeros((2, 2))], [np.zeros((2, 2)), JONES_QWP_M45]])
_CLOSING = _SPLITTERS * np.array([-1.0, -1.0, 1.0, 1.0])


@functools.cache  # two settings and a few n per process, shared by every build
def _lifted_steps(setting: BisaSetting, n: int) -> np.ndarray:
    """The analyzer's steps at ``setting``, in order, lifted to ``n`` photons
    (a read-only stack): the first splitter, at BSM the plates, and the
    locking phase with the second splitter."""
    steps = lift(np.stack((_SPLITTERS, _PLATES, _CLOSING) if setting is BisaSetting.BSM
                          else (_SPLITTERS, _CLOSING)), n)
    steps.flags.writeable = False
    return steps


def _capped_pass(setting: BisaSetting, n: int, n_max: int):
    """The coherent pass of every occupation of INPUT_REGISTER with ``n``
    photons: ``(outputs, T)``, the output occupations of OUTPUT_REGISTER
    with no mode above ``n_max``, and ``T[i, j]``, the amplitude of
    ``outputs[j]`` for ``occupations(4, n)[i]``, not pruned.  Builds read
    it through :func:`_detector_view`, which keeps the passes they use.

    The optics keep the photon number n, so the pass is the n-photon lifts
    of the steps (:func:`_lifted_steps`).  Every step drops the occupations
    with a mode above ``n_max``: the H and V splitters, and the two plates,
    act on disjoint modes and the cap is per mode, so this is the cap after
    each 2x2 step of fock.apply_pair_matrix.  The products are np.einsum
    calls (see the BLAS note in experiment.py).
    """
    occs = occupations(4, n)
    capped = (np.array(occs) > n_max).any(axis=1)
    psi = np.eye(len(occs), dtype=complex)
    for step in _lifted_steps(setting, n):
        psi = np.einsum("ij,jk->ik", step, psi)
        psi[capped] = 0.0
    transfer = np.ascontiguousarray(psi[~capped].T)
    return [occ for occ, drop in zip(occs, capped) if not drop], transfer


def _coherent_pass(setting: BisaSetting, inputs: list, n_max: int):
    """The coherent pass of the basis states ``inputs`` of INPUT_REGISTER, at
    most ``n_max`` each: ``(outputs, T)``, the output occupations of
    :func:`_capped_pass` for the photon numbers of the inputs, and
    ``T[i, j]``, the amplitude of ``outputs[j]`` for ``inputs[i]``."""
    outputs: list = []
    blocks = [np.zeros((len(inputs), 0), dtype=complex)]
    for n in sorted({sum(occ) for occ in inputs}):
        occs = occupations(4, n)
        outs, transfer = _capped_pass(setting, n, n_max)
        rows = [r for r, occ in enumerate(inputs) if sum(occ) == n]
        block = np.zeros((len(inputs), len(outs)), dtype=complex)
        block[rows] = transfer[[occs.index(inputs[r]) for r in rows]]
        blocks.append(block)
        outputs += outs
    return outputs, np.concatenate(blocks, axis=1)


def transfer_map(setting: BisaSetting, inputs, n_max: int, distinguishable: bool = False):
    """Dense transfer map of one analyzer pass on input occupations.

    ``inputs`` are occupations of INPUT_REGISTER, at most ``n_max`` each.
    Returns ``(modes, outputs, T)``: the output register (OUTPUT_REGISTER,
    or TAGGED_REGISTER for the distinguishable pass), the output occupations
    reached, sorted, and ``T[i, j]``, the amplitude of ``outputs[j]`` for
    ``inputs[i]``; amplitudes of at most PRUNE_TOL count as unreached.  By
    linearity, a state sum_i psi_i |inputs[i]> (spectators included) leaves
    as sum_ij psi_i T[i, j] |outputs[j]>.
    """
    inputs = [tuple(occ) for occ in inputs]
    if not distinguishable:
        modes = OUTPUT_REGISTER
        outputs, transfer = _coherent_pass(setting, inputs, n_max)
    else:
        # The two populations pass tagged copies of the analyzer, so the map
        # is the product of the coherent passes of the b population alone and
        # of the c population alone.  Every amplitude is at most 1, so an
        # output of one factor that no amplitude reaches above PRUNE_TOL stays
        # below it in the product, and is dropped first.
        factors = []
        for part in (lambda occ: occ[:2] + (0, 0), lambda occ: (0, 0) + occ[2:]):
            outs, psi = _coherent_pass(setting, [part(occ) for occ in inputs], n_max)
            cols = np.flatnonzero((abs(psi) > PRUNE_TOL).any(axis=0))
            factors.append((psi[:, cols], [outs[j] for j in cols]))
        (t_b, out_b), (t_c, out_c) = factors
        modes = TAGGED_REGISTER
        outputs = [(x[0], x[1], y[2], y[3], x[2], x[3], y[0], y[1]) for x in out_b for y in out_c]
        transfer = np.einsum("ij,ik->ijk", t_b, t_c).reshape(len(inputs), len(outputs))
    transfer[abs(transfer) <= PRUNE_TOL] = 0.0
    reached = sorted(np.flatnonzero(transfer.any(axis=0)), key=outputs.__getitem__)
    return modes, [outputs[j] for j in reached], transfer[:, reached]


_BSM_TABLE = {
    frozenset({"b2H", "b2V"}): BisaOutcome.PHI_PLUS_23,
    frozenset({"c2H", "c2V"}): BisaOutcome.PHI_PLUS_23,
    frozenset({"b2H", "c2H"}): BisaOutcome.PHI_MINUS_23,
    frozenset({"b2V", "c2V"}): BisaOutcome.PHI_MINUS_23,
}

_SSM_TABLE = {
    frozenset({"b2H", "c2H"}): BisaOutcome.HH_23,
    frozenset({"b2V", "c2V"}): BisaOutcome.VV_23,
}


def classify(pattern, setting: BisaSetting) -> BisaOutcome:
    """Map a detector click pattern to an outcome class.

    BSM: both detectors of one output firing -> phi+; one photon in each
    output with the same polarization -> phi-.  SSM: same-polarization
    cross coincidences -> HH or VV.  Cross-polarization coincidences and
    every pattern with a click count other than two are discarded.
    """
    clicked = frozenset(pattern)
    table = _BSM_TABLE if setting is BisaSetting.BSM else _SSM_TABLE
    return table.get(clicked, BisaOutcome.DISCARD)


def analyzer_mixture(visibility: float):
    """The analyzer at finite two-photon visibility, as a weighted mixture of
    passes: ``(distinguishable, weight)`` for the coherent pass (weight
    ``visibility``) and the distinguishable one (``1 - visibility``).  Parts
    of zero weight are left out."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return [part for part in ((False, visibility), (True, 1.0 - visibility)) if part[1] > 0.0]


@functools.cache  # structure only: two settings, a few input lists and caps per process
def _detector_view(setting: BisaSetting, inputs: tuple, n_max: int, distinguishable: bool):
    """One analyzer pass of ``inputs`` as Victor's detectors see it:
    ``(T, counts)``, the pass's transfer map (:func:`transfer_map`) and
    ``counts[j, d]``, the photons detector d of VICTOR_DETECTORS sees in
    output occupation j of ``T``, both read-only.  It holds no detection
    probability, so every efficiency and visibility shares it."""
    modes, outputs, transfer = transfer_map(setting, inputs, n_max, distinguishable)
    bank = DETECTOR_BANK_TAGGED if distinguishable else DETECTOR_BANK
    watched = np.array([[modes.index(m) for m in bank[d]] for d in VICTOR_DETECTORS])
    counts = np.array(outputs, dtype=int).reshape(-1, len(modes))[:, watched].sum(axis=-1)
    transfer.flags.writeable = counts.flags.writeable = False
    return transfer, counts


def victor_detection(setting: BisaSetting, inputs, n_max: int, visibility: float, eta: float):
    """Victor's detection of the analyzer inputs ``inputs`` (occupations of
    INPUT_REGISTER): one ``(T, clicks)`` per part of the analyzer mixture at
    ``visibility``, with ``T`` the part's transfer map (read-only) and
    ``clicks[j, k]`` the part's weight times the probability of click
    pattern PATTERNS[k] given output occupation j of ``T``.  Each detector
    is a threshold detector of efficiency ``eta`` on the photons of the
    modes it watches.  The passes are built once per process
    (:func:`_detector_view`); the clicks on every call.
    """
    inputs = tuple(map(tuple, inputs))
    parts = []
    for distinguishable, weight in analyzer_mixture(visibility):
        transfer, counts = _detector_view(setting, inputs, n_max, distinguishable)
        silent, click = click_probability(counts, eta)
        clicks = weight * np.where(_MASKS, click[:, None], silent[:, None]).prod(axis=-1)
        parts.append((transfer, clicks))
    return parts


def verify_evolution(kind: str, setting: BisaSetting, visibility: float = 1.0) -> dict[BisaOutcome, float]:
    """Outcome distribution for the Bell state ``kind`` of one photon on each
    of the inputs b and c, seen by ideal detectors; classes of probability 0
    are left out."""
    psi = states.bell_state(kind).amplitudes
    # Basis state |pq> of the Bell state: polarization p on b, q on c (H = 0).
    inputs = [(1 - p, p, 1 - q, q) for p in (0, 1) for q in (0, 1)]
    probs = 0.0
    # Two photons never exceed a cap of 2.
    for transfer, clicks in victor_detection(setting, inputs, 2, visibility, 1.0):
        probs = probs + np.einsum("j,jk->k", abs(np.einsum("i,ij->j", psi, transfer)) ** 2, clicks)
    out: dict[BisaOutcome, float] = {}
    for pattern, p in zip(PATTERNS, probs):
        if p > 0.0:
            cls = classify(pattern, setting)
            out[cls] = out.get(cls, 0.0) + float(p)
    return out
