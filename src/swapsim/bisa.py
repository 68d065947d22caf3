"""Victor's high-speed tunable bipartite state analyzer.

A Mach-Zehnder interferometer with two symmetric 50:50 beam splitters and
a switchable quarter-wave stage in each arm.  Random bit 1 selects the
Bell-state measurement (interferometer phase pi/2, acts as a 50/50
splitter); bit 0 selects the separable-state measurement (phase 0, acts
as a 0/100 mirror).  The phase-lock reference is the point where every
photon entering input b exits output b''.

Spatial labels: inputs "b"/"c", outputs "b2"/"c2" (for b'' and c'').
"""

from __future__ import annotations

import enum

import numpy as np

from .fock import (
    DetectorBank,
    FockVector,
    beam_splitter,
    pattern_distribution,
    phase_shift,
    wave_plate,
)

INPUT_SPATIAL = ("b", "c")
OUTPUT_SPATIAL = ("b2", "c2")

# Detectors behind the two polarization-resolved outputs.
DETECTOR_BANK: DetectorBank = {
    "b2H": (("b2", "H"),),
    "b2V": (("b2", "V"),),
    "c2H": (("c2", "H"),),
    "c2V": (("c2", "V"),),
}


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


def _interferometer(state: FockVector, setting: BisaSetting, arms=("b", "c")) -> FockVector:
    """The optics between the input labels ``arms``; the outputs keep the labels."""
    b, c = arms
    state = beam_splitter(state, b, c, 0.5)
    if setting is BisaSetting.BSM:
        # +EV/-EV drive collapses to quarter-wave plates at +-45 degrees.
        state = wave_plate(state, b, "qwp+45")
        state = wave_plate(state, c, "qwp-45")
    # Locking phase: with symmetric splitters an internal pi on one arm
    # closes the interferometer into the b -> b'' mirror at setting SSM.
    state = phase_shift(state, b, np.pi)
    return beam_splitter(state, b, c, 0.5)


def bisa_apply(state: FockVector, setting: BisaSetting) -> FockVector:
    """Coherent (visibility 1) pass through the analyzer; outputs on b2/c2.

    The register must expose both polarizations of inputs b and c; other
    spatial labels ride along untouched as spectators.
    """
    spatials = {s for s, _ in state.modes}
    if not {"b", "c"} <= spatials:
        raise ValueError("analyzer inputs b and c are missing from the register")
    if spatials & set(OUTPUT_SPATIAL):
        raise ValueError("output labels b2/c2 are already in use")
    out = _interferometer(state, setting)
    return out.relabel({"b": "b2", "c": "c2"})


def bisa_apply_distinguishable(state: FockVector, setting: BisaSetting) -> FockVector:
    """Fully distinguishable pass: the photon population entering input c is
    tagged with auxiliary spatial labels so it cannot interfere with the
    population from input b.  Outputs land on (b2, c2) and the tagged twins
    (b2~, c2~); detectors must merge each pair.
    """
    tagged = state.relabel({"c": "c~"})
    tagged = tagged.extended((("c", "H"), ("c", "V"), ("b~", "H"), ("b~", "V")))
    out = _interferometer(tagged, setting)
    out = _interferometer(out, setting, ("b~", "c~"))
    return out.relabel({"b": "b2", "c": "c2", "b~": "b2~", "c~": "c2~"})


# Bank matching bisa_apply_distinguishable: each physical detector watches
# the untagged output and its tagged twin.
DETECTOR_BANK_TAGGED: DetectorBank = {
    "b2H": (("b2", "H"), ("b2~", "H")),
    "b2V": (("b2", "V"), ("b2~", "V")),
    "c2H": (("c2", "H"), ("c2~", "H")),
    "c2V": (("c2", "V"), ("c2~", "V")),
}

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


def bell_input(kind: str, n_max: int = 3) -> FockVector:
    """Two-photon Bell state on the analyzer inputs b and c."""
    modes = (("b", "H"), ("b", "V"), ("c", "H"), ("c", "V"))
    vac = FockVector.vacuum(modes, n_max)
    pairs = {
        "phi+": ((("b", "H"), ("c", "H")), (("b", "V"), ("c", "V")), 1.0),
        "phi-": ((("b", "H"), ("c", "H")), (("b", "V"), ("c", "V")), -1.0),
        "psi+": ((("b", "H"), ("c", "V")), (("b", "V"), ("c", "H")), 1.0),
        "psi-": ((("b", "H"), ("c", "V")), (("b", "V"), ("c", "H")), -1.0),
    }
    try:
        (m1, m2), (m3, m4), sign = pairs[kind]
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}") from None
    first = vac.create(m1).create(m2)
    second = vac.create(m3).create(m4)
    return first.add(second, scale=sign).scaled(1.0 / np.sqrt(2.0))


def analyzer_mixture(visibility: float):
    """The analyzer at finite two-photon visibility, as a weighted mixture of
    passes: ``(analyzer pass, detector bank, weight)`` for the coherent pass
    (weight ``visibility``) and the distinguishable one (``1 - visibility``).
    Parts of zero weight are left out."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    parts = (
        (bisa_apply, DETECTOR_BANK, visibility),
        (bisa_apply_distinguishable, DETECTOR_BANK_TAGGED, 1.0 - visibility),
    )
    return [part for part in parts if part[2] > 0.0]


def transfer_map(analyzer, setting: BisaSetting, inputs, n_max: int):
    """Dense transfer map of one analyzer pass on input occupations.

    ``inputs`` are occupations of (bH, bV, cH, cV).  Each is pushed through
    ``analyzer`` as a basis state, so truncation at ``n_max`` is the
    analyzer's own.  Returns ``(modes, outputs, T)``: the output register,
    the output occupations reached, and ``T[i, j]``, the amplitude of
    ``outputs[j]`` for ``inputs[i]``.  By linearity, a state
    sum_i psi_i |inputs[i]> (spectators included) leaves as
    sum_ij psi_i T[i, j] |outputs[j]>.
    """
    register = tuple((s, p) for s in INPUT_SPATIAL for p in ("H", "V"))
    passed = [
        analyzer(FockVector(register, n_max, {tuple(occ): 1.0}), setting) for occ in inputs
    ]
    outputs = sorted({occ for out in passed for occ in out.amp})
    column = {occ: j for j, occ in enumerate(outputs)}
    transfer = np.zeros((len(passed), len(outputs)), dtype=complex)
    for i, out in enumerate(passed):
        for occ, a in out.amp.items():
            transfer[i, column[occ]] = a
    return passed[0].modes, outputs, transfer


def outcome_distribution(state: FockVector, setting: BisaSetting,
                         visibility: float = 1.0) -> dict[BisaOutcome, float]:
    """Outcome-class distribution for a state on the analyzer inputs."""
    dist: dict[frozenset, float] = {}
    for analyzer, bank, weight in analyzer_mixture(visibility):
        for patt, p in pattern_distribution(analyzer(state, setting), bank).items():
            dist[patt] = dist.get(patt, 0.0) + weight * p
    out: dict[BisaOutcome, float] = {}
    for patt, p in dist.items():
        cls = classify(patt, setting)
        out[cls] = out.get(cls, 0.0) + p
    return out


def verify_evolution(kind: str, setting: BisaSetting, visibility: float = 1.0) -> dict[BisaOutcome, float]:
    """Outcome distribution for a Bell state fed into the analyzer."""
    return outcome_distribution(bell_input(kind), setting, visibility)
