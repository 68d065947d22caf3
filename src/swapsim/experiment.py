"""Protocol orchestrator for the delayed-choice entanglement swapping runs.

Two engines supply the category tables in one form, which the trial
sampler, the exact statistics and the count draws all read: probability
arrays ``_dist[(ab, bb, setting)]`` over a fixed category grid, and per
setting its ``columns`` (Alice's and Bob's outcomes, per choice bit the
VICTOR_OUTCOMES index of Victor's class).

* ideal mode: the four-photon state psi-(1,2) x psi-(3,4) as an exact
  4-qubit vector.  A table holds the Born probabilities |<a x v x b|psi>|^2
  of Alice's and Bob's projective outcomes a, b and Victor's projection v
  onto the Bell or separable outcome sets, from one contraction: the
  product projector needs no measurement order.  ``ordering_joint``, the
  sequential projections in either order, remains criterion 8's check.
* fock mode: two truncated SPDC sources at the bosonic-mode level, fiber
  depolarization, input loss (inside Victor's measurement), the analyzer
  at finite visibility, and threshold detector patterns.

Trial i reads the fixed block of _UNIFORMS_PER_TRIAL uniforms at offset
i * _UNIFORMS_PER_TRIAL of one Philox stream keyed by the master seed, and
the trials are sampled a chunk at a time with numpy, so runs are bitwise
reproducible independent of the worker count and the chunk size.  Runs
hold their trials as columns (``TrialLog``) and write them as one compact
row per trial under a header (log version 2).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from . import states
from .bisa import PATTERNS, BisaOutcome, BisaSetting, classify, victor_povm
from .fock import click_probability, detector_povm, lift, occupations
from .qrng import QrngConfig, QrngSimulator
from .timeline import (DelayBudget, EventTimes, _check_field_types, _field_types, _is_a,
                       _KIND_NAMES, check_delayed_choice, event_times)

KEPT_OUTCOMES = {
    BisaSetting.BSM: (BisaOutcome.PHI_PLUS_23, BisaOutcome.PHI_MINUS_23),
    BisaSetting.SSM: (BisaOutcome.HH_23, BisaOutcome.VV_23),
}


@dataclass
class ExperimentConfig:
    mode: str = "ideal"  # "ideal" or "fock"
    trials: int = 10_000
    master_seed: int = 20120501
    alice_bases: tuple[str, ...] = states.PAULI_AXES
    bob_bases: tuple[str, ...] = states.PAULI_AXES
    duty_cycle: float = 0.6
    qrng_source: str = "deterministic"  # or "physical"
    # Fock-mode noise budget.
    tau: float = 0.5
    spdc_order: int = 2
    n_max: int = 3
    input_transmission: float = 0.21
    detector_efficiency: float = 0.25
    mzi_visibility: float = 0.95
    switching_fidelity: float = 0.99
    fiber_polarization_fidelity: float = 0.99
    gvm_overlap: float = 0.964
    budget: DelayBudget = field(default_factory=DelayBudget)

    def __post_init__(self):
        _check_field_types(self)
        if self.mode not in ("ideal", "fock"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.spdc_order < 1:
            raise ValueError(f"spdc_order must be at least 1, got {self.spdc_order}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if self.spdc_order > self.n_max:
            raise ValueError(f"spdc_order must not exceed n_max ({self.n_max}), "
                             f"got {self.spdc_order}")
        if self.qrng_source not in ("deterministic", "physical"):
            raise ValueError(f"unknown qrng source {self.qrng_source!r}")
        for name in (
            "duty_cycle",
            "input_transmission",
            "detector_efficiency",
            "mzi_visibility",
            "switching_fidelity",
            "fiber_polarization_fidelity",
            "gvm_overlap",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 <= self.master_seed < 2**128:
            raise ValueError(f"master_seed must lie in [0, 2**128), got {self.master_seed}")
        bad = [b for b in (*self.alice_bases, *self.bob_bases) if b not in states.PAULI_AXES]
        if bad:
            raise ValueError(f"unknown measurement bases {bad}")
        for name in ("alice_bases", "bob_bases"):
            bases = getattr(self, name)
            if not bases or len(set(bases)) != len(bases):
                raise ValueError(f"{name} must name at least one basis, each once, "
                                 f"got {list(bases)}")

    @property
    def visibility(self) -> float:
        """Net two-photon interference visibility in the analyzer."""
        return self.mzi_visibility * self.gvm_overlap


# The trial columns, in the order of a log row, and their dtypes.
COLUMNS = {
    "trial_index": np.int64,
    "alice_basis": np.int8,
    "alice_outcome": np.int8,
    "bob_basis": np.int8,
    "bob_outcome": np.int8,
    "victor_choice": np.uint8,
    "victor_outcome": np.int8,
    "kept": np.bool_,
}
# Victor's outcome column holds the index of the outcome here; 0 means his
# stage was void (duty cycle).
VICTOR_OUTCOMES = (None, *BisaOutcome)


@dataclass(eq=False)
class TrialLog:
    """One run's trials as numpy columns, named by COLUMNS.

    ``trial_index`` counts trials; ``alice_basis`` and ``bob_basis`` index
    the config's bases; the outcome columns hold +1, -1 or 0 for no
    definite outcome; ``victor_choice`` is the choice bit (1 for BSM,
    ``BisaSetting.from_bit``); ``victor_outcome`` indexes VICTOR_OUTCOMES;
    ``kept`` is a bool.
    """

    config: ExperimentConfig
    columns: dict

    def __len__(self) -> int:
        return len(self.columns["kept"])


def _axis_rotation(axis: str) -> np.ndarray:
    """Jones matrix mapping the +1/-1 eigenvectors of ``axis`` to H/V."""
    plus, minus = states.AXIS_EIGENVECTORS[axis]
    return np.array([plus.conj(), minus.conj()])


@functools.cache  # one bases tuple or two per process, shared by every build
def _bases_outers(bases: tuple, n: int) -> tuple:
    """The outer products conj(R[j]) x R[j] of the rows j of R, the lift of
    ``_axis_rotation(axis)`` to ``n`` photons, for each axis of ``bases``,
    as [j, X, i, i'], and the same products of |R|, both read-only: a
    party's POVMs of all its bases are one fock.detector_povm of its clicks
    per row against them, per photon number."""
    rotations = lift(np.stack([_axis_rotation(axis) for axis in bases]), n).swapaxes(0, 1)
    outers = tuple(np.multiply(r.conj()[..., :, None], r[..., None, :], order="C")
                   for r in (rotations, abs(rotations)))
    for outer in outers:
        outer.flags.writeable = False
    return outers


def _category_columns(keys, victor_class) -> tuple:
    """Per category (a, b, v) of ``keys``: Alice's and Bob's outcomes and, per choice
    bit, the VICTOR_OUTCOMES index of ``victor_class(v, BisaSetting.from_bit(bit))``."""
    a, b, victor = zip(*keys)
    classes = [[VICTOR_OUTCOMES.index(victor_class(v, BisaSetting.from_bit(bit))) for v in victor]
               for bit in (0, 1)]
    return np.array(a, np.int8), np.array(b, np.int8), np.array(classes, np.int8)


def _victor_projections(setting: BisaSetting):
    if setting is BisaSetting.BSM:
        return (
            (BisaOutcome.PHI_PLUS_23, states.bell_state("phi+")),
            (BisaOutcome.PHI_MINUS_23, states.bell_state("phi-")),
            (BisaOutcome.DISCARD, states.bell_state("psi+")),
            (BisaOutcome.DISCARD, states.bell_state("psi-")),
        )
    return (
        (BisaOutcome.HH_23, states.ket("HH")),
        (BisaOutcome.VV_23, states.ket("VV")),
        (BisaOutcome.DISCARD, states.ket("HV")),
        (BisaOutcome.DISCARD, states.ket("VH")),
    )


class IdealEngine:
    """Exact 4-qubit outcome distributions; every trial is fourfold-detected.
    Its categories are (a, b, Victor's label) in ordering_joint's order; no switching error."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._dist, self.columns = {}, {}
        psi = states.source_state().amplitudes.reshape(2, 2, 2, 2)
        for setting in BisaSetting:
            outcomes, vecs = zip(*_victor_projections(setting))
            v23 = np.array([vec.amplitudes for vec in vecs]).reshape(4, 2, 2)
            # w[label, q1, q4]: <v_label| contracted with photons 2 and 3 of psi.
            w = np.einsum("lbc,abcd->lad", v23.conj(), psi)
            self.columns[setting] = _category_columns(
                itertools.product((+1, -1), (+1, -1), outcomes), lambda outcome, _: outcome)
            for ab in config.alice_bases:
                for bb in config.bob_bases:
                    amp = np.einsum("ia,lad,jd->ijl", _axis_rotation(ab), w, _axis_rotation(bb))
                    self._dist[(ab, bb, setting)] = np.abs(amp.reshape(-1)) ** 2


# A party's outcome from its two detectors (H for +1, V for -1): the sign
# of the one that clicked, 0 when neither or both click.
_PARTY_OUTCOMES = (+1, -1, 0)
# The fock engine's categories (Alice's outcome, Bob's, Victor's pattern)
# as its flattened [a, b, p] tables hold them, the indices of those tables
# in the sorted order of the categories, the categories in that order,
# which every category table keeps, and their columns, the pattern
# classified under each commanded setting.
_CATEGORIES = list(itertools.product(_PARTY_OUTCOMES, _PARTY_OUTCOMES, PATTERNS))
_CATEGORY_ORDER = np.array(sorted(range(len(_CATEGORIES)), key=_CATEGORIES.__getitem__))
_CATEGORY_KEYS = [_CATEGORIES[c] for c in _CATEGORY_ORDER]
_CATEGORY_COLUMNS = _category_columns(_CATEGORY_KEYS, classify)
# A table entry at most this fraction of the sum of the magnitudes of the
# terms it is summed from (over losses, analyzer outputs, amplitudes and
# rotation entries alike, each times its click probabilities) is the
# rounding residue of an exact cancellation, and counts as absent.  That sum
# is the table's own trace run on the magnitudes |amp| and |R| of the
# amplitudes and rotation lifts, and on Victor's POVM summed on |A|, the
# magnitudes of the loss and analyzer amplitudes (bisa.victor_povm's
# E_mag): every other factor (click probabilities, loss weights) is
# nonnegative already.  In exact arithmetic an entry is a sum of
# nonnegative probabilities, one per photon-number sector, loss record and
# analyzer part, so no cancellation happens between them and one test per
# entry suffices.  Rounding leaves at most a few machine epsilons of that
# sum, so true entries smaller than 1e-12 of it are the only ones lost.
CANCELLATION_TOL = 1e-12
# The build's two-operand contractions are np.matmul on 2-D views, which
# calls BLAS (np.einsum without optimize never does, and ran the trace 4-5
# times slower at the default config): every POVM, the real clicks against
# its outer-product sums (fock.detector_povm), the depolarization flip
# folded into the parties' clicks, and the trace, Bob's side then Alice's.
# An operand is complex only where its values are; the Gram entries are a
# gather and an elementwise product.  fock.lift, bisa.transfer_map,
# bisa._povm_parts and the ideal engine keep np.einsum.  The first BLAS call
# of a process keeps its memory for good: a process that builds the default
# config once peaks about 0.85 MiB higher (VmHWM 31.2-31.3 -> 32.0-32.1 MiB,
# Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31), on one BLAS thread as on two.


def _source_sectors(tau: float, order: int) -> dict:
    """The two singlet sources' pure state in closed form, per photon numbers
    (n1, n4) of modes 1 and 4: ``{(n1, n4): (occs, amp)}``.

    Source 1's state is exp[tau (a1H+ abV+ - a1V+ abH+)/sqrt2] |vac> up to
    ``order`` pairs: its N-pair term is (tau/sqrt2)^N sum_h (-1)^(N-h)
    |h, N-h>_1 |N-h, h>_b on (H, V), divided by the norm
    sqrt(sum_N (N+1) (tau^2/2)^N), and likewise source 2's on (4, c).  So
    each H, V occupation (h1, h4) of modes 1 and 4, indexed
    a = h1 (n4 + 1) + h4 as in occupations(2, n1) x occupations(2, n4),
    meets exactly one analyzer input occupation
    occs[a] = (n1 - h1, h1, n4 - h4, h4) on (bH, bV, cH, cV), with the real
    amplitude amp[a].  Blocks between sectors are never needed: the basis
    rotations keep n1 and n4, and the analyzer keeps n = n1 + n4.
    """
    norm = sum((n + 1) * (tau * tau / 2.0) ** n for n in range(order + 1))
    out = {}
    for n1, n4 in itertools.product(range(order + 1), repeat=2):
        pairs = list(itertools.product(range(n1 + 1), range(n4 + 1)))
        sign = np.array([(-1.0) ** (n1 - h1 + h4) for h1, h4 in pairs])
        out[(n1, n4)] = ([(n1 - h1, h1, n4 - h4, h4) for h1, h4 in pairs],
                         sign * ((tau / math.sqrt(2.0)) ** (n1 + n4) / norm))
    return out


@functools.cache  # one per spdc_order, shared by every build
def _pair_index(order: int) -> np.ndarray:
    """Where the tables' contraction reads each pair of occupations of
    modes 1 and 4: ``(pos, ia, ib)``, three read-only rows over the pairs.

    Every (n1, n4) with both at most ``order`` is a sector of
    ``_source_sectors``, so the pairs (a, a') within a sector, a = x1 (n4 +
    1) + x4 and a' = y1 (n4 + 1) + y4, factor as q1 x q4: q1 runs over
    (n1, y1, x1) in that order, as the party POVMs F_n1[y1, x1] flatten
    when concatenated over n1, and q4 over (n4, y4, x4) likewise.  Pair q4
    * len(q1) + q1 is entry [a, a'] of its sector's block, ``pos`` its
    place in the sectors' blocks flattened end to end in the order of
    ``_source_sectors``, and ``ia`` and ``ib`` the places of a and a' in
    their amplitudes concatenated likewise.
    """
    start, pair_start = np.zeros((2, order + 1, order + 1), dtype=int)
    lo = pair_lo = 0
    for n1, n4 in _source_sectors(1.0, order):
        start[n1, n4], pair_start[n1, n4] = lo, pair_lo
        lo += (n1 + 1) * (n4 + 1)
        pair_lo += ((n1 + 1) * (n4 + 1)) ** 2
    n, y, x = np.array([(n, y, x) for n in range(order + 1)
                        for y in range(n + 1) for x in range(n + 1)]).T
    # Rows q4, columns q1.
    (n4, y4, x4), (n1, y1, x1) = (n[:, None], y[:, None], x[:, None]), (n, y, x)
    a, b = x1 * (n4 + 1) + x4, y1 * (n4 + 1) + y4
    index = np.stack([pair_start[n1, n4] + a * (n1 + 1) * (n4 + 1) + b,
                      start[n1, n4] + a, start[n1, n4] + b]).reshape(3, -1)
    index.flags.writeable = False
    return index


def _party_clicks(n: int, eta: float) -> np.ndarray:
    """P(outcome) per _PARTY_OUTCOMES for each (H, V) occupation of a party's
    photon in occupations(2, n)."""
    (s_h, s_v), (c_h, c_v) = (p.T for p in click_probability(np.array(occupations(2, n)), eta))
    return np.stack([c_h * s_v, s_h * c_v, s_h * s_v + c_h * c_v], axis=-1)


class FockEngine:
    """Noise-budget engine: per-config joint detector-pattern distributions.

    The category space is _CATEGORY_KEYS, the sorted (alice outcome, bob
    outcome, victor click pattern); ``columns`` classifies each pattern
    under both commanded settings, since a switching error applies the
    opposite optical setting while the sorting logic keeps the command.

    Each entry is one trace, P(a, b, p) = Tr[rho (F_a x F_b x E_p)], of the
    two sources' pure state against three measurements, each a POVM built
    from threshold click probabilities (detectors click independently
    given their photon counts):

    * Alice's and Bob's F_o = R^dagger diag(P(o | H, V counts)) R on the n
      photons of mode 1 or 4, R the lift of the axis rotation to them
      (``_bases_outers``, stacked over a party's bases); fiber
      depolarization folds into P as a flip of +1/-1.
    * Victor's E_p = A diag(P(p | output)) A^dagger, A the input loss and
      then the analyzer on the b/c input occupations: each record k of the
      photons lost and each output of both analyzer parts on x - k is a
      column, and P weighted by the column's part and loss.  P depends on a
      column only through its part, photons lost and detector counts, so
      E_p is read from the sums of A[:, c] A[:, c]^dagger per such row,
      which depend on the structure alone and are built once per process
      (bisa.victor_povm).

    The state enters in closed form (``_source_sectors``): per (n1, n4)
    sector each occupation a of modes 1 and 4 meets one analyzer input
    occupation occs[a], with the real amplitude amp[a]; rho is never
    formed.  E_p is formed on the occupations of each sector, in the order
    of a, with both settings on a leading axis.  Victor's side is traced
    first, leaving the Gram entries G_p[a, a'] = Tr_bc[rho E_p] = amp[a]
    E_p[a, a'] amp[a'] of both settings.  Every (n1, n4) up to
    ``spdc_order`` is a sector, so the pairs (a, a') of all sectors factor
    into the pairs of modes 1 and 4 (``_pair_index``): the
    Gram entries of every sector, gathered into one array, meet F_b of
    every Bob basis and then F_a of every Alice basis in two matrix
    products, [Y b, q4] x [q4, q1 s p] and then, q1-major, [X a, q1] x
    [q1, Y b s p], and the tables are split per setting at the end.  That
    contraction is written once, as ``trace(amp, povms, parties)``, and run
    twice: on amp, E_p and the F_o from R for the tables, and on |amp|, the
    same sums on |A| and the F_o from |R| for the bound that
    CANCELLATION_TOL scales.
    Every POVM is the one contraction fock.detector_povm.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        eta, n_max = config.detector_efficiency, config.n_max
        sectors = _source_sectors(config.tau, config.spdc_order)
        # Fiber depolarization on Victor's delay fibers b and c (each of the
        # three Paulis with probability p/3 on each fiber) is an exact flip of
        # Alice's and Bob's +1/-1 outcomes.  It needs two conditions: the
        # sources emit only singlet pairs, and a party's two detectors have
        # equal efficiency.  Every pair term is unchanged by iP x iP (iP in
        # SU(2)), so P on photon b equals -P on photon 1 up to a phase per
        # photon, which nothing later sees (likewise c and 4).  Photon 1
        # meets only Alice's basis rotation: the Pauli along her axis leaves
        # her counts alone, and the other two swap her H and V detectors.
        # So each outcome flips with probability q = 2p/3, independently,
        # and 0 stays 0; flip[i, j] is P(j | i) over _PARTY_OUTCOMES.
        q = 2.0 * (1.0 - config.fiber_polarization_fidelity) / 3.0
        flip = np.array([[1.0 - q, q, 0.0], [q, 1.0 - q, 0.0], [0.0, 0.0, 1.0]])
        ns = range(config.spdc_order + 1)
        party_clicks = {n: _party_clicks(n, eta) @ flip for n in ns}
        # Victor's E_p on each sector's input occupations, the input loss
        # included, and its bound, both [s, p, a, a'].
        victor, victor_mag = zip(*(victor_povm(occs, n_max, config.visibility, eta,
                                               config.input_transmission)
                                   for occs, _ in sectors.values()))
        pos, ia, ib = _pair_index(config.spdc_order)
        amp = np.concatenate([amp for _, amp in sectors.values()])
        pair_bases = (config.alice_bases, config.bob_bases)

        def party_povms(form):
            """Per bases tuple, the POVMs F_o of each basis, [X, o, q] over q1 or
            q4 (_pair_index), from the outer products of R (form 0) or |R| (1)."""
            out = {}
            for bases in set(pair_bases):
                blocks = [detector_povm(party_clicks[n], _bases_outers(bases, n)[form]) for n in ns]
                out[bases] = np.concatenate([b.swapaxes(0, 1).reshape(len(bases), b.shape[0], -1)
                                             for b in blocks], axis=2)
            return out

        def trace(amp, povms, parties):
            """The tables [s, X, Y, a, b, p] for Alice's basis X and Bob's basis
            Y, from the amplitudes ``amp``, Victor's POVMs ``povms`` and
            Alice's and Bob's, ``parties`` (party_povms)."""
            # The Gram entries of every sector, [q4, q1, s, p].
            gram = np.concatenate([e.reshape(-1, e.shape[-1] ** 2).T for e in povms])[pos]
            gram *= (amp[ia] * amp[ib])[:, None]
            alice, bob = (parties[bases] for bases in pair_bases)
            (x, a, q1), (y, b, q4) = alice.shape, bob.shape
            traced = bob.reshape(y * b, q4) @ gram.reshape(q4, -1)
            # Bob's side, [Y b, q1, s p], to q1-major [q1, Y b s p], then Alice's.
            traced = traced.reshape(y * b, q1, -1).swapaxes(0, 1).reshape(q1, -1)
            tables = alice.reshape(x * a, q1) @ traced
            return tables.reshape(x, a, y, b, len(BisaSetting), -1).transpose(4, 0, 2, 1, 3, 5)

        cat = trace(amp, victor, party_povms(0)).real
        cat[cat <= CANCELLATION_TOL * trace(abs(amp), victor_mag, party_povms(1))] = 0.0
        self._dist, self.columns = {}, dict.fromkeys(BisaSetting, _CATEGORY_COLUMNS)
        for setting, tables in zip(BisaSetting, cat):
            keys = itertools.product(config.alice_bases, config.bob_bases, [setting])
            self._dist.update(zip(keys, tables.reshape(-1, len(_CATEGORIES))[:, _CATEGORY_ORDER]))

    def _joint(self, ab: str, bb: str, commanded: BisaSetting):
        """(ab, bb)'s category probabilities under the ``commanded`` setting, the
        switching error folded in, and a mask of the categories either setting reaches."""
        if (ab, bb, commanded) not in self._dist:
            raise ValueError(f"bases ({ab!r}, {bb!r}) outside the configured alice_bases "
                             f"{','.join(self.config.alice_bases)} and bob_bases "
                             f"{','.join(self.config.bob_bases)}")
        flip = 1.0 - self.config.switching_fidelity
        other = BisaSetting.SSM if commanded is BisaSetting.BSM else BisaSetting.BSM
        mine, theirs = self._dist[(ab, bb, commanded)], self._dist[(ab, bb, other)]
        return (1.0 - flip) * mine + flip * theirs, (mine > 0.0) | (theirs > 0.0)

    def joint_distribution(self, ab: str, bb: str, commanded: BisaSetting):
        """``_joint`` as a dict over the categories either setting reaches."""
        joint, reached = self._joint(ab, bb, commanded)
        return dict(zip(itertools.compress(_CATEGORY_KEYS, reached), joint[reached]))

    def expected_correlation(self, commanded: BisaSetting, outcomes, basis: str) -> float:
        """Exact conditional correlation E(basis) for fourfold events whose
        commanded-setting classification lands in ``outcomes``."""
        outcomes = set(outcomes)
        wanted = np.array([o in outcomes for o in VICTOR_OUTCOMES])
        a, b, classes = self.columns[commanded]
        victor = classes[int(commanded is BisaSetting.BSM)]
        joint, _ = self._joint(basis, basis, commanded)
        p = np.where((a != 0) & (b != 0) & wanted[victor], joint, 0.0)
        den = p.sum()
        if den == 0.0:
            raise ValueError("no fourfold events in the requested subensemble")
        return (a * b * p).sum() / den


def build_engine(config: ExperimentConfig):
    return IdealEngine(config) if config.mode == "ideal" else FockEngine(config)


# Trials are sampled, and logs written and read, this many at a time.
CHUNK_TRIALS = 1 << 16
# Uniforms per trial, in this order: Alice's basis, Bob's basis, choice
# bit, duty cycle, switching error, category, and two spare.
_UNIFORMS_PER_TRIAL = 8
_DISCARD = VICTOR_OUTCOMES.index(BisaOutcome.DISCARD)


def _sampling_tables(engine, config: ExperimentConfig) -> list:
    """The table of every sampling group, numbered (Alice's basis index *
    len(bob_bases) + Bob's) * 2 + actual choice bit: the cumulative sum of
    its normalised positive probabilities, and their ``engine.columns``."""
    tables = []
    for ab, bb, bit in itertools.product(config.alice_bases, config.bob_bases, (0, 1)):
        setting = BisaSetting.from_bit(bit)
        probs = engine._dist[(ab, bb, setting)]
        present = probs > 0.0
        p = probs[present]
        tables.append((np.cumsum(p / p.sum()), *(c[..., present] for c in engine.columns[setting])))
    return tables


def _sample_chunk(config: ExperimentConfig, tables: list, lo: int, hi: int,
                  choice_bits: np.ndarray | None) -> dict:
    """Columns of trials lo..hi-1; ``choice_bits`` are the physical QRNG's
    bits for them, or None to take the choice bit from the stream."""
    bitgen = np.random.Philox(key=config.master_seed)
    bitgen.advance(lo * _UNIFORMS_PER_TRIAL // 4)  # counts blocks of four draws
    u = np.random.Generator(bitgen).random((hi - lo, _UNIFORMS_PER_TRIAL))
    na, nb = len(config.alice_bases), len(config.bob_bases)
    alice_basis = np.minimum(u[:, 0] * na, na - 1).astype(np.int8)
    bob_basis = np.minimum(u[:, 1] * nb, nb - 1).astype(np.int8)
    choice = (u[:, 2] >= 0.5).astype(np.uint8) if choice_bits is None else choice_bits
    duty = u[:, 3] < config.duty_cycle
    actual = choice
    if config.mode == "fock":
        actual = choice ^ (u[:, 4] >= config.switching_fidelity)
    group = (alice_basis.astype(np.intp) * nb + bob_basis) * 2 + actual
    alice, bob, victor = (np.zeros(hi - lo, np.int8) for _ in range(3))
    for g, (cum, a_out, b_out, outcome) in enumerate(tables):
        rows = np.flatnonzero(group == g)
        # Rounding can leave the last cumulative entry just below 1.
        k = np.minimum(np.searchsorted(cum, u[rows, 5]), len(cum) - 1)
        alice[rows], bob[rows] = a_out[k], b_out[k]
        victor[rows] = outcome[choice[rows], k]
    # Analyzer not settled: Alice and Bob measured, Victor's stage is void.
    victor[~duty] = 0
    kept = duty & (alice != 0) & (bob != 0) & (victor != _DISCARD)
    return {
        "trial_index": np.arange(lo, hi, dtype=np.int64),
        "alice_basis": alice_basis,
        "alice_outcome": alice,
        "bob_basis": bob_basis,
        "bob_outcome": bob,
        "victor_choice": choice,
        "victor_outcome": victor,
        "kept": kept,
    }


def run_trials(config: ExperimentConfig, workers: int = 1) -> TrialLog:
    """Simulate the configured number of trials, reproducibly.

    The engine is built once, here, and ``workers`` threads sample its
    tables in chunks of CHUNK_TRIALS; the sampling is numpy work that
    releases the GIL, so the chunks run in parallel.  Each trial's uniforms
    sit at a fixed offset of the master seed's Philox stream, the physical
    QRNG's bits are one stream drawn here for the whole run, and the chunks
    come back in order, so the log is identical for any worker count and
    chunk size.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tables = _sampling_tables(build_engine(config), config)
    bits = None
    if config.qrng_source == "physical":
        # One telegraph stream, sampled once per trial at the QRNG clock.
        seed = np.random.SeedSequence([config.master_seed, 0x51])
        bits = QrngSimulator(QrngConfig(seed=seed)).bits(config.trials)
    bounds = [(lo, min(lo + CHUNK_TRIALS, config.trials))
              for lo in range(0, config.trials, CHUNK_TRIALS)]
    chunks = [(config, tables, lo, hi, None if bits is None else bits[lo:hi]) for lo, hi in bounds]
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(lambda chunk: _sample_chunk(*chunk), chunks))
    columns = {name: np.concatenate([p[name] for p in parts]) for name in COLUMNS}
    return TrialLog(config, columns)


_PAIR_INDICES = {(1, 4): (0, 3), (2, 3): (1, 2), (1, 2): (0, 1), (3, 4): (2, 3)}


def conditional_state(choice: BisaSetting, outcome: BisaOutcome | None,
                      pair: tuple[int, int]) -> states.DensityMatrix:
    """Exact conditional state of a photon pair under ideal-mode semantics.

    For pairs (1,4) and (2,3): the post-projection state given Victor's
    outcome, or the equal mixture over his two kept outcomes when the
    outcome is None.  For pairs (1,2) and (3,4): under BSM the reduced
    state conditioned on the Bell outcome; under SSM the reduced state of
    the pair with no conditioning on Victor's outcome (his separable
    measurement adds no usable cross-pair information).
    """
    if pair not in _PAIR_INDICES:
        raise ValueError(f"unsupported pair {pair}")
    if outcome is not None and outcome not in KEPT_OUTCOMES[choice]:
        raise ValueError(f"outcome {outcome} inconsistent with choice {choice}")
    psi = states.source_state().amplitudes.reshape(2, 2, 2, 2)
    if choice is BisaSetting.SSM and pair in ((1, 2), (3, 4)):
        posts = [psi]
    else:
        vectors = dict(_victor_projections(choice))
        v23 = [vectors[o].amplitudes.reshape(2, 2)
               for o in (KEPT_OUTCOMES[choice] if outcome is None else [outcome])]
        # Each outcome's unnormalized post-state: photons (2,3) projected onto its vector.
        posts = [np.einsum("bc,BC,aBCd->abcd", v, v.conj(), psi) for v in v23]
    mixed = sum(np.outer(post, post.conj()) for post in map(np.ravel, posts))
    return states.partial_trace(states.DensityMatrix(mixed / np.trace(mixed).real),
                                _PAIR_INDICES[pair])


@dataclass(frozen=True)
class RateBudget:
    fraction: float
    fourfold_rate: float
    factors: dict


# The rate (Hz) that rate_budget's fraction scales to the fourfold rate.
BASE_RATE = 4.9


def rate_budget(config: ExperimentConfig) -> RateBudget:
    """Analytic count-rate budget for one measurement choice: BASE_RATE x
    transmission^2 (both analyzer inputs) x 1/4 (probabilistic Bell
    projection) x 1/2 (random choice split) x duty cycle.
    """
    factors = {
        "input_transmission_squared": config.input_transmission**2,
        "bell_projection": 0.25,
        "choice_split": 0.5,
        "duty_cycle": config.duty_cycle,
    }
    fraction = float(np.prod(list(factors.values())))
    return RateBudget(fraction, BASE_RATE * fraction, factors)


def imperfection_product(factors) -> float:
    factors = list(factors)
    for f in factors:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"imperfection factor {f} outside [0, 1]")
    return float(np.prod(factors)) if factors else 1.0


def calibrate_tau(pair_ratio: float) -> float:
    """Squeezing parameter whose 2-pair/1-pair emission ratio matches the
    supplied 4-fold/2-fold count ratio: the source's ratio is exactly
    3 tau^2 / 4 for order >= 2: the sector (n1, n4) = (2, 0) of
    ``_source_sectors`` holds 3 terms of weight (tau^2 / 2)^2 and (1, 0)
    holds 2 of weight tau^2 / 2.
    """
    if pair_ratio <= 0:
        raise ValueError("pair ratio must be positive")
    tau = math.sqrt(4.0 * pair_ratio / 3.0)
    if not 1e-4 < tau < 1.5:
        raise ValueError("pair ratio outside the calibrated range")
    return tau


def ordering_joint(ab: str, bb: str, setting: BisaSetting, order: str) -> dict:
    """Joint outcome distribution with an explicit measurement ordering.

    ``order`` is "alice_bob_first" or "victor_first"; quantum mechanics
    predicts the two agree element-wise.
    """
    psi = states.source_state()
    ea = states.AXIS_EIGENVECTORS[ab]
    eb = states.AXIS_EIGENVECTORS[bb]
    projections = _victor_projections(setting)
    joint: dict = {}
    if order == "alice_bob_first":
        for ia, a_out in ((0, +1), (1, -1)):
            after_a, pa = states.project(psi, (0,), states.QubitRegisterState(ea[ia]))
            if after_a is None:
                continue
            for ib, b_out in ((0, +1), (1, -1)):
                # Remaining order after removing photon 1: (2, 3, 4).
                after_b, pb = states.project(after_a, (2,), states.QubitRegisterState(eb[ib]))
                if after_b is None:
                    continue
                for label, (outcome, vec) in enumerate(projections):
                    _, pv = states.project(after_b, (0, 1), vec)
                    joint[(a_out, b_out, label)] = pa * pb * pv
    elif order == "victor_first":
        for label, (outcome, vec) in enumerate(projections):
            after_v, pv = states.project(psi, (1, 2), vec)
            if after_v is None:
                continue
            for ia, a_out in ((0, +1), (1, -1)):
                after_a, pa = states.project(after_v, (0,), states.QubitRegisterState(ea[ia]))
                if after_a is None:
                    for ib, b_out in ((0, +1), (1, -1)):
                        joint[(a_out, b_out, label)] = 0.0
                    continue
                for ib, b_out in ((0, +1), (1, -1)):
                    _, pb = states.project(after_a, (0,), states.QubitRegisterState(eb[ib]))
                    joint[(a_out, b_out, label)] = pv * pa * pb
    else:
        raise ValueError(f"unknown ordering {order!r}")
    return joint


def simulate_counts(config: ExperimentConfig, trials: int, seed: int) -> dict:
    """Fast multinomial path for noise-budget statistics.

    Draws the per-category counts for ``trials`` iid trials directly from
    the fock-mode category distribution instead of looping, one multinomial
    per commanded setting and basis both parties measure, in alice_bases
    order, over the ``_joint`` array's reached categories; each basis pair
    gets its share of the trials.  Returns counts keyed (commanded setting,
    victor outcome class, basis, alice outcome, bob outcome) for
    basis-matched fourfold events.
    """
    if config.mode != "fock":
        raise ValueError("simulate_counts requires fock mode")
    engine = build_engine(config)
    rng = np.random.default_rng(seed)
    share = trials * config.duty_cycle * 0.5 / (len(config.alice_bases) * len(config.bob_bases))
    counts: dict = {}
    for commanded in BisaSetting:
        a, b, classes = engine.columns[commanded]
        victor = classes[int(commanded is BisaSetting.BSM)]
        fourfold = (a != 0) & (b != 0) & (victor != _DISCARD)
        for basis in filter(config.bob_bases.__contains__, config.alice_bases):
            joint, reached = engine._joint(basis, basis, commanded)
            probs = joint[reached]
            draw = rng.multinomial(rng.poisson(share), probs / probs.sum())
            hit = fourfold[reached] & (draw > 0)
            for c, n in zip(np.flatnonzero(reached)[hit], draw[hit].tolist()):
                ck = (commanded, VICTOR_OUTCOMES[victor[c]], basis, int(a[c]), int(b[c]))
                counts[ck] = counts.get(ck, 0) + n
    return counts


# --- trial log persistence -------------------------------------------------


LOG_VERSION = 2


def _column_codes(config: ExperimentConfig) -> dict:
    """Log value -> column code, for every column but ``trial_index``."""
    outcome = {1: 1, -1: -1, None: 0}
    return {
        "alice_basis": {b: i for i, b in enumerate(config.alice_bases)},
        "alice_outcome": outcome,
        "bob_basis": {b: i for i, b in enumerate(config.bob_bases)},
        "bob_outcome": outcome,
        "victor_choice": {BisaSetting.from_bit(bit).value: bit for bit in (0, 1)},
        "victor_outcome": {None if o is None else o.value: k
                           for k, o in enumerate(VICTOR_OUTCOMES)},
        "kept": {False: 0, True: 1},
    }


def _row_tails(codes: dict) -> list[str]:
    """Every row tail, the text after ``"[" + trial index``: a comma and
    the JSON text of each value of the columns of ``codes``, then ``"]\\n"``,
    in mixed-radix key order over those columns.  A column's code c is its
    digit modulo the column's size, so the outcome code -1 comes last."""
    tails = ["]\n"]
    for lut in reversed(codes.values()):
        text = [""] * len(lut)
        for value, code in lut.items():
            text[code] = json.dumps(value)
        tails = ["," + t + tail for t in text for tail in tails]
    return tails


def write_log(path, log: TrialLog) -> None:
    """Line-delimited JSON: a header object (log version, config, the event
    times of its delay budget, column names), then one array of the COLUMNS
    values per trial, written without spaces.

    A row is ``"[" + trial index`` and its tail, looked up by the row's
    mixed-radix key in the one table of tails (:func:`_row_tails`) that
    read_log reads rows from.
    """
    header = {
        "kind": "swapsim-trial-log",
        "version": LOG_VERSION,
        "config": asdict(log.config),
        "event_times": asdict(event_times(log.config.budget)),
        "columns": list(COLUMNS),
    }
    codes = _column_codes(log.config)
    tails = _row_tails(codes)
    sizes = [len(lut) for lut in codes.values()]
    # "wrap" takes the outcome code -1 to the last digit.
    modes = ["wrap" if -1 in lut.values() else "raise" for lut in codes.values()]
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(log), CHUNK_TRIALS):
            hi = lo + CHUNK_TRIALS
            key = np.ravel_multi_index([log.columns[name][lo:hi].astype(np.intp) for name in codes],
                                       sizes, mode=modes)
            parts = [""] * (2 * len(key))
            parts[0::2] = [f"[{i}" for i in log.columns["trial_index"][lo:hi].tolist()]
            parts[1::2] = map(tails.__getitem__, key.tolist())
            fh.write("".join(parts))


def read_log(path) -> TrialLog:
    """The run a write_log file holds.  Raises ValueError unless its rows
    are trials 0, 1, ..., config.trials - 1 in turn.

    Each row is read as its trial's head ``"[" + trial index`` and one of
    the tails of :func:`_row_tails`, the table write_log renders rows
    from.  A row in any other valid JSON spacing is rendered again as
    write_log renders it and looked up in the same table (:func:`_row_key`).
    """
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != "swapsim-trial-log":
            raise ValueError("not a swapsim trial log")
        if header.get("version") != LOG_VERSION:
            raise ValueError(f"unsupported trial log version {header.get('version')!r}; "
                             f"this swapsim reads version {LOG_VERSION} only, rerun the simulation")
        config = config_from_dict(header.get("config"))
        times = _from_fields(EventTimes, header.get("event_times"), "event_times")
        if times != event_times(config.budget):
            raise ValueError("event_times differ from the event times of the config's budget")
        if header.get("columns") != list(COLUMNS):
            raise ValueError(f"unsupported trial log columns {header.get('columns')!r}")
        codes = _column_codes(config)
        tails = {tail: key for key, tail in enumerate(_row_tails(codes))}
        keys = []
        for lo in itertools.count(0, CHUNK_TRIALS):
            lines = list(itertools.islice(fh, CHUNK_TRIALS))
            if lines and not lines[-1].endswith("\n"):
                lines[-1] += "\n"  # the file's last line
            heads = [f"[{i}" for i in range(lo, lo + len(lines))]
            key = np.fromiter(map(tails.get, map(str.removeprefix, lines, heads),
                                  itertools.repeat(-1)), np.intp, len(lines))
            # A line without its head may itself be a tail.
            key[~np.fromiter(map(str.startswith, lines, heads), bool, len(lines))] = -1
            for k in np.flatnonzero(key < 0).tolist():
                key[k] = _row_key(lines[k], lo + k, tails, codes)
            keys.append(key)
            if len(lines) < CHUNK_TRIALS:
                break
    key = np.concatenate(keys)
    if len(key) != config.trials:
        raise ValueError(f"{len(key)} trial rows, but config.trials is {config.trials}")
    # The codes of every key; a column's digit is its code modulo its size
    # (_row_tails).
    digits = np.unravel_index(np.arange(len(tails)), [len(lut) for lut in codes.values()])
    table = {name: np.array(sorted(lut.values(), key=lambda c: c % len(lut)), COLUMNS[name])[d]
             for (name, lut), d in zip(codes.items(), digits)}
    return TrialLog(config, {"trial_index": np.arange(len(key), dtype=np.int64),
                             **{name: col[key] for name, col in table.items()}})


def _row_key(line: str, trial: int, tails: dict, codes: dict) -> int:
    """The key in ``tails`` of the log row of trial ``trial``, written in
    any JSON spacing.  Raises ValueError naming the row's line and its
    first value that write_log cannot have written."""
    try:
        row = json.loads(line)
    except ValueError:
        row = None
    if type(row) is not list or len(row) != len(COLUMNS):
        raise ValueError(f"line {trial + 2}: expected an array of the {len(COLUMNS)} "
                         f"values {', '.join(COLUMNS)}")
    index, *values = row
    if type(index) is not int or index < 0:
        raise ValueError(f"line {trial + 2}: trial_index {json.dumps(index)} is not a trial index")
    key = tails.get("," + json.dumps(values, separators=(",", ":"))[1:] + "\n")
    if key is None:
        for (name, lut), value in zip(codes.items(), values):
            texts = list(map(json.dumps, lut))
            if json.dumps(value) not in texts:
                raise ValueError(f"line {trial + 2}: {name} {json.dumps(value)} "
                                 f"is not one of {', '.join(texts)}")
    if index != trial:
        raise ValueError(f"line {trial + 2}: trial_index {index}, expected {trial}")
    return key


def config_from_dict(d: dict) -> ExperimentConfig:
    """The config from field values typed as in a log header (numbers,
    strings, lists) or as raw strings from a config file.

    Each value is converted to its dataclass field's type; the ``budget``
    field takes a dict of DelayBudget fields.  Unknown keys, bools in
    numeric fields and non-integral values of integer fields raise
    ValueError.
    """
    return _from_fields(ExperimentConfig, d, "experiment")


def _from_fields(cls, values, section: str):
    if not isinstance(values, dict):
        raise ValueError(f"{section} must map keys to values, got {values!r}")
    hints = _field_types(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown and isinstance(values[unknown[0]], dict):
        raise ValueError(f"unknown config section {unknown[0]}")
    if unknown:
        raise ValueError(f"unknown config key {section}.{unknown[0]}")
    return cls(**{key: _coerce(section, key, hints[key], v) for key, v in values.items()})


def _coerce(section: str, key: str, kind, value):
    if is_dataclass(kind):
        return _from_fields(kind, value, key)
    # Config files give strings, the bases comma-separated; log headers lists.
    typed = value
    if kind == tuple[str, ...] and isinstance(value, str):
        typed = tuple(filter(None, map(str.strip, value.split(","))))
    elif kind == tuple[str, ...] and isinstance(value, list):
        typed = tuple(value)
    elif kind in (int, float) and isinstance(value, str):
        try:
            typed = kind(value)
        except ValueError:
            pass  # reported below
    if not _is_a(kind, typed):
        raise ValueError(f"{section}.{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return typed


def run_summary(log: TrialLog) -> dict:
    """The run's timeline check, rate budget and outcome counts."""
    times = event_times(log.config.budget)
    report = check_delayed_choice(times)
    budget = rate_budget(log.config)
    kept = log.columns["kept"]
    victor = log.columns["victor_outcome"][kept]
    counts = {"trials": len(log), "kept": int(kept.sum())}
    for name, outcome in (("phi_plus", BisaOutcome.PHI_PLUS_23),
                          ("phi_minus", BisaOutcome.PHI_MINUS_23),
                          ("hh", BisaOutcome.HH_23), ("vv", BisaOutcome.VV_23)):
        counts[name] = int(np.count_nonzero(victor == VICTOR_OUTCOMES.index(outcome)))
    return {
        "timeline": {
            "event_times": asdict(times),
            "satisfied": report.satisfied,
            "choice_margin_ns": list(report.choice_margin),
            "measurement_margin_ns": report.measurement_margin,
        },
        "rate_budget": {
            "fraction": budget.fraction,
            "fourfold_rate_hz": budget.fourfold_rate,
            "factors": budget.factors,
        },
        "counts": counts,
    }
