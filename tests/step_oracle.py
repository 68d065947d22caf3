"""Reference optics for the tests, built only from fock_reference's FockVector steps.

The analyzer is applied step by step with fock_reference.beam_splitter, wave_plate
and phase_shift, and threshold detection is expanded detector by detector,
and the detectors' modes are spelled out here, so none of it shares code
with bisa.transfer_map or bisa.victor_povm.
"""

import numpy as np

from swapsim.bisa import BisaSetting

import fock_reference as ref

# The modes each of Victor's detectors watches after analyzer_pass: the
# output, and in the distinguishable pass also its tagged twin.
VICTOR_BANK = {
    "b2H": (("b2", "H"),),
    "b2V": (("b2", "V"),),
    "c2H": (("c2", "H"),),
    "c2V": (("c2", "V"),),
}
VICTOR_BANK_TAGGED = {
    "b2H": (("b2", "H"), ("b2~", "H")),
    "b2V": (("b2", "V"), ("b2~", "V")),
    "c2H": (("c2", "H"), ("c2~", "H")),
    "c2V": (("c2", "V"), ("c2~", "V")),
}


def interferometer(state, setting, arms=("b", "c")):
    """The analyzer's optics as FockVector steps between the input labels
    ``arms``; the outputs keep the labels."""
    b, c = arms
    state = ref.beam_splitter(state, b, c, 0.5)
    if setting is BisaSetting.BSM:
        state = ref.wave_plate(state, b, "qwp+45")
        state = ref.wave_plate(state, c, "qwp-45")
    state = ref.phase_shift(state, b, np.pi)
    return ref.beam_splitter(state, b, c, 0.5)


def analyzer_pass(state, setting, distinguishable):
    """One analyzer pass by the steps of :func:`interferometer`; the
    distinguishable pass runs the c population through a tagged copy."""
    if not distinguishable:
        return interferometer(state, setting).relabel({"b": "b2", "c": "c2"})
    tagged = state.relabel({"c": "c~"})
    tagged = tagged.extended((("c", "H"), ("c", "V"), ("b~", "H"), ("b~", "V")))
    out = interferometer(tagged, setting)
    out = interferometer(out, setting, ("b~", "c~"))
    return out.relabel({"b": "b2", "c": "c2", "b~": "b2~", "c~": "c2~"})


def click_patterns(branches, bank, eta):
    """P(set of detectors that click) for an ensemble of unnormalized
    FockVectors, with ``bank`` naming the modes each detector watches.
    Each photon is detected with probability ``eta``; a detector clicks
    when it detects at least one."""
    counts: dict = {}
    for branch in branches:
        watched = [[branch.mode_index(m) for m in modes] for modes in bank.values()]
        for occ, a in branch.amp.items():
            vec = tuple(sum(occ[i] for i in idx) for idx in watched)
            counts[vec] = counts.get(vec, 0.0) + abs(a) ** 2
    dist: dict = {}
    for vec, weight in counts.items():
        patterns = {frozenset(): weight}
        for name, n in zip(bank, vec):
            silent = (1.0 - eta) ** n
            nxt: dict = {}
            for clicked, w in patterns.items():
                for key, p in ((clicked, silent), (clicked | {name}, 1.0 - silent)):
                    if p > 0.0:
                        nxt[key] = nxt.get(key, 0.0) + w * p
            patterns = nxt
        for clicked, w in patterns.items():
            dist[clicked] = dist.get(clicked, 0.0) + w
    return dist
