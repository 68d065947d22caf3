"""Victor's high-speed tunable bipartite state analyzer.

A Mach-Zehnder interferometer with two symmetric 50:50 beam splitters and
a switchable quarter-wave stage in each arm.  Random bit 1 selects the
Bell-state measurement (interferometer phase pi/2, acts as a 50/50
splitter); bit 0 selects the separable-state measurement (phase 0, acts
as a 0/100 mirror).  The phase-lock reference is the point where every
photon entering input b exits output b''.

Spatial labels: inputs "b"/"c", outputs "b2"/"c2" (for b'' and c'').

The analyzer's optics are its coherent transfer map on input occupations
(:func:`transfer_map`).  At finite visibility Victor's detectors see a
mixture of two passes (:func:`_detector_view`): the coherent pass, and the
distinguishable one, in which the b and c photons pass separate copies of
the analyzer, so its map is the product of two coherent passes and each
detector counts the photons of both.  One click model
(:func:`pattern_probabilities`) reads out the four threshold detectors,
and one POVM (:func:`victor_povm`), the input loss inside, serves the fock
engine and :func:`verify_evolution` alike: those clicks, weighted by the
loss, against the passes' outer-product sums per photons lost and detector
count vector (fock.detector_povm).
"""

from __future__ import annotations

import enum
import functools
import itertools
from math import comb, prod, sqrt

import numpy as np

from . import states
from .fock import (JONES_QWP_M45, JONES_QWP_P45, PRUNE_TOL, click_probability, detector_povm,
                   lift, occupations)


class BisaSetting(enum.Enum):
    BSM = "BSM"
    SSM = "SSM"

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


# The analyzer's registers: its inputs and the outputs of a coherent pass.
INPUT_REGISTER = (("b", "H"), ("b", "V"), ("c", "H"), ("c", "V"))
OUTPUT_REGISTER = (("b2", "H"), ("b2", "V"), ("c2", "H"), ("c2", "V"))

# Victor's detectors, each watching the output mode of its name ("b2H"
# watches ("b2", "H")), in OUTPUT_REGISTER order.
VICTOR_DETECTORS = ("b2H", "b2V", "c2H", "c2V")
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


def transfer_map(setting: BisaSetting, inputs, n_max: int):
    """Dense transfer map of the analyzer's coherent pass on input occupations.

    ``inputs`` are occupations of INPUT_REGISTER, at most ``n_max`` each.
    Returns ``(outputs, T)``: the output occupations of OUTPUT_REGISTER
    reached, sorted, and ``T[i, j]``, the amplitude of ``outputs[j]`` for
    ``inputs[i]``; amplitudes of at most PRUNE_TOL count as unreached.  By
    linearity, a state sum_i psi_i |inputs[i]> (spectators included) leaves
    as sum_ij psi_i T[i, j] |outputs[j]>.

    The optics keep the photon number n, so the inputs of n photons pass
    the n-photon lifts of the steps (:func:`_lifted_steps`), run on their
    columns of the identity on the occupations of n photons.  Every step
    drops the occupations with a mode above ``n_max``: the H and V
    splitters, and the two plates, act on disjoint modes and the cap is per
    mode, so this is the cap after each 2x2 step of fock.apply_pair_matrix.
    The products stay np.einsum calls, as the BLAS note in experiment.py
    lists.
    """
    inputs = [tuple(occ) for occ in inputs]
    outputs: list = []
    blocks = [np.zeros((len(inputs), 0), dtype=complex)]
    for n in sorted({sum(occ) for occ in inputs}):
        occs = occupations(4, n)
        capped = (np.array(occs) > n_max).any(axis=1)
        rows = [r for r, occ in enumerate(inputs) if sum(occ) == n]
        psi = np.eye(len(occs), dtype=complex)[:, [occs.index(inputs[r]) for r in rows]]
        for step in _lifted_steps(setting, n):
            psi = np.einsum("ij,jk->ik", step, psi)
            psi[capped] = 0.0
        block = np.zeros((len(inputs), len(occs) - capped.sum()), dtype=complex)
        block[rows] = psi[~capped].T
        blocks.append(block)
        outputs += itertools.compress(occs, ~capped)
    transfer = np.concatenate(blocks, axis=1)
    transfer[abs(transfer) <= PRUNE_TOL] = 0.0
    reached = sorted(np.flatnonzero(transfer.any(axis=0)), key=outputs.__getitem__)
    return [outputs[j] for j in reached], transfer[:, reached]


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


def _detector_view(setting: BisaSetting, inputs: tuple, n_max: int, distinguishable: bool):
    """One analyzer pass of ``inputs`` as Victor's detectors see it:
    ``(T, counts)``, the pass's transfer map, ``T[i, j]`` the amplitude of
    output j for ``inputs[i]``, and ``counts[j, d]``, the photons detector d
    of VICTOR_DETECTORS sees in output j.  It holds no detection
    probability, so every efficiency and visibility shares it.

    The coherent pass's outputs are those of :func:`transfer_map`, so its
    counts are the output occupations themselves.  In the distinguishable
    pass the b photons and the c photons pass separate copies of the
    analyzer: output (j_b, j_c), in row-major order, is output j_b of the
    coherent pass of the b photons alone and j_c of the c photons alone, so
    T is the product of those two maps and each detector counts the photons
    of both.  Outputs that no input reaches above PRUNE_TOL are dropped.
    """
    if not distinguishable:
        outputs, transfer = transfer_map(setting, inputs, n_max)
        counts = np.array(outputs, dtype=int).reshape(-1, len(VICTOR_DETECTORS))
    else:
        (out_b, t_b), (out_c, t_c) = (
            transfer_map(setting, [part(occ) for occ in inputs], n_max)
            for part in (lambda occ: occ[:2] + (0, 0), lambda occ: (0, 0) + occ[2:]))
        transfer = np.einsum("ij,ik->ijk", t_b, t_c).reshape(len(inputs), -1)
        counts = (np.array(out_b)[:, None] + np.array(out_c)).reshape(-1, len(VICTOR_DETECTORS))
        transfer[abs(transfer) <= PRUNE_TOL] = 0.0
        reached = transfer.any(axis=0)
        transfer, counts = transfer[:, reached], counts[reached]
    return transfer, counts


# Outer products are formed at most this many entries at a time, so their
# scratch stays within 4 MiB at any photon order.
_POVM_BLOCK = 1 << 18


@functools.cache  # structure only: every efficiency, visibility and transmission shares it
def _povm_parts(inputs: tuple, n_max: int):
    """Victor's POVM on ``inputs`` before detection, the input loss
    included, summed per analyzer part, photons lost, detector count vector
    and setting: ``(parts, lost, counts, O, O_mag)``.

    Loss on the inputs leaves a record k, the photons each input mode lost:
    input x passes the analyzer as x - k, with amplitude sqrt(prod_i C(x_i,
    k_i)).  Outputs of different k never interfere, so each (k, output j)
    of :func:`_detector_view` on the inputs x - k is an output of its own,
    A[x, (k, j)] = sqrt(prod_i C(x_i, k_i)) T[x - k, j].  Row r holds the
    outputs of analyzer part ``parts[r]`` (0 the coherent one) with
    ``lost[r]`` = |k| and detector counts ``counts[r]``; the rows are the
    (part, lost, count vector) triples some output has at either setting,
    sorted.  ``lost`` is no function of the counts where the inputs mix
    photon numbers.  ``O[r, s]`` is the sum of A[:, c] A[:, c]^dagger over
    those outputs c at BisaSetting s, and ``O_mag`` the same sum on |A|.
    All are read-only.  The clicks and the loss weight depend on an output
    only through its row, so :func:`victor_povm` reads no output of its own.
    O is real where T is, as the analyzer's T is.  Every output is reached,
    so the sums of each row are nonzero at one setting at least.

    Each pass runs once, on every x - k, and each k reads its rows of it,
    its unreached outputs dropped.  The outputs of every pass are sorted by
    (row, setting), and their outer products formed a block at a time and
    summed per run of equal keys; |A[x, c]| |A[x', c]| is the magnitude of
    the outer product.
    """
    settings = list(BisaSetting)
    # Per loss k: the inputs x that can lose it, x - k, and the amplitude.
    moves: dict = {}
    for i, occ in enumerate(inputs):
        for k in itertools.product(*(range(x + 1) for x in occ)):
            left = tuple(x - lost for x, lost in zip(occ, k))
            moves.setdefault(k, []).append((i, left, sqrt(prod(map(comb, occ, k)))))
    reduced = sorted({left for move in moves.values() for _, left, _ in move})
    where = {occ: r for r, occ in enumerate(reduced)}
    losses = []
    for k, move in moves.items():
        xs, left, coef = zip(*move)
        losses.append((sum(k), list(xs), [where[occ] for occ in left], np.array(coef)[:, None]))
    outputs, keys = [], []
    for part, s in itertools.product((0, 1), range(len(settings))):
        transfer, counts = _detector_view(settings[s], tuple(reduced), n_max, bool(part))
        if not transfer.imag.any():
            transfer = transfer.real
        for lost, xs, left, coef in losses:
            sub = transfer[left] * coef
            reached = sub.any(axis=0)
            # The outputs of this k as rows A[:, c] over every input.
            out = np.zeros((reached.sum(), len(inputs)), sub.dtype)
            out[:, xs] = sub[:, reached].T
            outputs.append(out)
            n = len(out)
            keys.append(np.column_stack((np.full(n, part), np.full(n, lost), counts[reached],
                                         np.full(n, s))))
    keys = np.concatenate(keys)
    triples, ids = np.unique(keys[:, :-1], axis=0, return_inverse=True)
    parts, lost, counts = triples[:, 0], triples[:, 1], triples[:, 2:]
    # Each output's place in O flattened: (row, setting).
    ids = ids.reshape(-1) * len(settings) + keys[:, -1]
    order = np.argsort(ids, kind="stable")
    rows, ids = np.concatenate(outputs)[order], ids[order]
    shape = (len(counts) * len(settings), len(inputs), len(inputs))
    povm, povm_mag = np.zeros(shape, rows.dtype), np.zeros(shape)
    step = max(1, _POVM_BLOCK // len(inputs) ** 2)
    for lo in range(0, len(rows), step):
        outer = np.multiply(rows[lo:lo + step, :, None], rows[lo:lo + step, None, :].conj(), order="C")
        keys = ids[lo:lo + len(outer)]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        povm[keys[starts]] += np.add.reduceat(outer, starts)
        povm_mag[keys[starts]] += np.add.reduceat(abs(outer), starts)
    shape = (len(counts), len(settings), *shape[1:])
    povm, povm_mag = povm.reshape(shape), povm_mag.reshape(shape)
    for a in (parts, lost, counts, povm, povm_mag):
        a.flags.writeable = False
    return parts, lost, counts, povm, povm_mag


def pattern_probabilities(counts: np.ndarray, eta: float) -> np.ndarray:
    """``P[j, k]``, the probability of click pattern PATTERNS[k] when detector
    d of VICTOR_DETECTORS sees ``counts[j, d]`` photons; each is a threshold
    detector of efficiency ``eta``."""
    silent, click = click_probability(counts, eta)
    return np.where(_MASKS, click[:, None], silent[:, None]).prod(axis=-1)


def victor_povm(inputs, n_max: int, visibility: float, eta: float, transmission: float):
    """Victor's POVM on the analyzer inputs ``inputs`` (occupations of
    INPUT_REGISTER) at ``visibility``, each input mode transmitting each
    photon with probability t = ``transmission``, per setting: ``(E,
    E_mag)``, ``E[s, k, i, i']`` = sum_c A[i, c] P(PATTERNS[k] | c)
    conj(A[i', c]) over the outputs c of the loss and both analyzer parts
    (:func:`_povm_parts`) at BisaSetting s, P weighted by ``visibility`` for
    the coherent part and ``1 - visibility`` for the distinguishable one and
    by the loss, t^kept (1 - t)^lost, each detector a threshold detector of
    efficiency ``eta``; ``E_mag`` is the same sum on |A|, which bounds |E|
    entry by entry.  The analyzer keeps the photon number, so E is block
    diagonal in it, and an output of x - k counts the photons x kept.
    fock.detector_povm of the clicks per (part, lost, count vector) row
    against the sums of :func:`_povm_parts`."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    parts, lost, counts, povm, povm_mag = _povm_parts(tuple(map(tuple, inputs)), n_max)
    weights = (np.array([visibility, 1.0 - visibility])[parts]
               * transmission ** counts.sum(axis=1) * (1.0 - transmission) ** lost)
    clicks = weights[:, None] * pattern_probabilities(counts, eta)
    return [detector_povm(clicks, sums).swapaxes(0, 1) for sums in (povm, povm_mag)]


def verify_evolution(kind: str, setting: BisaSetting, visibility: float = 1.0) -> dict[BisaOutcome, float]:
    """Outcome distribution for the Bell state ``kind`` of one photon on each
    of the inputs b and c, seen by ideal detectors: P(k) = psi^dagger E[k]
    psi with Victor's POVM E as the fock engine reads it
    (:func:`victor_povm`); classes of probability 0 are left out."""
    psi = states.bell_state(kind).amplitudes
    # Basis state |pq> of the Bell state: polarization p on b, q on c (H = 0).
    inputs = [(1 - p, p, 1 - q, q) for p in (0, 1) for q in (0, 1)]
    # Two photons never exceed a cap of 2.
    povm, _ = victor_povm(inputs, 2, visibility, 1.0, 1.0)
    probs = np.einsum("i,kij,j->k", psi.conj(), povm[list(BisaSetting).index(setting)], psi).real
    out: dict[BisaOutcome, float] = {}
    for pattern, p in zip(PATTERNS, probs):
        if p > 0.0:
            cls = classify(pattern, setting)
            out[cls] = out.get(cls, 0.0) + float(p)
    return out
