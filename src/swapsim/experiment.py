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
  depolarization, input loss, the analyzer at finite visibility, and
  threshold detector patterns.

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
from types import MappingProxyType
from typing import get_type_hints

import numpy as np

from . import states
from .bisa import INPUT_REGISTER, PATTERNS, BisaOutcome, BisaSetting, classify, victor_detection
from .fock import (
    FockVector,
    attenuate_ensemble,
    click_probability,
    lift,
    occupations,
    spdc_source,
)
from .qrng import QrngConfig, QrngSimulator
from .timeline import DelayBudget, EventTimes, check_delayed_choice, event_times

KEPT_OUTCOMES = {
    BisaSetting.BSM: (BisaOutcome.PHI_PLUS_23, BisaOutcome.PHI_MINUS_23),
    BisaSetting.SSM: (BisaOutcome.HH_23, BisaOutcome.VV_23),
}


@functools.cache  # a few dataclasses per process
def _field_types(cls) -> MappingProxyType:
    """The resolved type hints of ``cls``, read-only."""
    return MappingProxyType(get_type_hints(cls))


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
        for name, kind in _field_types(type(self)).items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


@functools.cache  # three axes and a few n per process, shared by every build
def _rotation_lift(axis: str, n: int) -> np.ndarray:
    """The lift of ``_axis_rotation(axis)`` to ``n`` photons, read-only."""
    block = lift(_axis_rotation(axis), n)
    block.flags.writeable = False
    return block


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
# terms it is summed from (over branches, analyzer outputs and rotation
# entries alike, each times its click probabilities) is the rounding residue
# of an exact cancellation, and counts as absent.  In exact arithmetic an
# entry is a sum of nonnegative probabilities, one per photon-number sector
# and analyzer part, so no cancellation happens between them and one test
# per entry suffices.  Rounding leaves at most a few machine epsilons of
# that sum, so true entries smaller than 1e-12 of it are the only ones lost.
CANCELLATION_TOL = 1e-12
# The engine contracts its (small) arrays with two-operand np.einsum calls,
# never matmul, dot, tensordot or einsum(optimize=...): the density blocks
# "ki,kj->ij", _povm's real weights against the outer products "jk,jx->kx",
# the Gram "abx,px->pab", and the final contraction, Alice's side
# "Xaji,pikjl->Xapkl" then Bob's "Yblk,Xapkl->XYabp".  fock.lift and
# bisa.transfer_map call no BLAS either: the first BLAS call of a process
# keeps about 0.5 MiB resident for good.


def _sector_densities(branches: list[FockVector]) -> dict:
    """The ensemble's density blocks on each photon-number sector.

    A sector ``(n1, n4, n)`` holds the terms with n1 photons in mode 1, n4
    in mode 4 and n at the analyzer inputs.  Returns ``{sector: (occs,
    rho, mag)}`` with ``occs`` the analyzer input occupations (bH, bV, cH,
    cV) met in the sector, ``rho[a, a', i * len(occs) + i']`` the sum over
    branches of psi(a, i) psi(a', i')*, where ``a`` indexes the product
    basis occupations(2, n1) x occupations(2, n4) of (1H, 1V, 4H, 4V) and
    ``i`` indexes ``occs``, and ``mag`` the same sum of
    |psi(a, i) psi(a', i')|.
    Blocks between sectors are not formed: the basis rotations keep n1
    and n4, and the analyzer keeps n, which Victor's count vector reveals.
    """
    index = branches[0].mode_index
    one = [index(("1", p)) for p in "HV"]
    four = [index(("4", p)) for p in "HV"]
    ins = [index(m) for m in INPUT_REGISTER]
    terms: dict = {}
    for k, branch in enumerate(branches):
        for occ, amp in branch.amp.items():
            (h1, v1), (h4, v4) = (occ[i] for i in one), (occ[i] for i in four)
            occ_in = tuple(occ[i] for i in ins)
            a = h1 * (h4 + v4 + 1) + h4
            terms.setdefault((h1 + v1, h4 + v4, sum(occ_in)), []).append((k, a, occ_in, amp))
    out = {}
    for (n1, n4, n), entries in terms.items():
        occs = sorted({e[2] for e in entries})
        col = {occ: i for i, occ in enumerate(occs)}
        rows = {k: r for r, k in enumerate(sorted({e[0] for e in entries}))}
        d, m = (n1 + 1) * (n4 + 1), len(occs)
        psi = np.zeros((len(rows), d * m), dtype=complex)
        for k, a, occ, amp in entries:
            psi[rows[k], a * m + col[occ]] = amp
        rho = np.einsum("ki,kj->ij", psi, psi.conj()).reshape(d, m, d, m)
        mag = np.einsum("ki,kj->ij", abs(psi), abs(psi)).reshape(d, m, d, m)
        # As [a, a', i i'], the layout the Gram contraction runs fastest on.
        rho, mag = (x.transpose(0, 2, 1, 3).reshape(d, d, m * m) for x in (rho, mag))
        out[(n1, n4, n)] = (occs, rho, mag)
    return out


# _povm forms the outer products of at most this many entries at a time, so
# its scratch stays within 4 MiB at any photon order.
_POVM_BLOCK = 1 << 18


def _povm(left: np.ndarray, weights: np.ndarray, right: np.ndarray) -> np.ndarray:
    """POVM elements E[k, i, i'] = sum_j left[j, i] weights[j, k] right[j, i']:
    the real detection weights on the outputs ``j`` pulled back through a
    linear map, one element per outcome ``k``.  The outer products of the
    rows of ``left`` and ``right`` are formed once, a block of outputs at a
    time, and a complex one is contracted with the weights as its real and
    imaginary parts."""
    (j, i), (_, l), k = left.shape, right.shape, weights.shape[1]
    step = max(1, _POVM_BLOCK // (i * l))
    out = np.zeros((k, i, l), dtype=np.result_type(left, right))
    for lo in range(0, j, step):
        outer = np.multiply(left[lo:lo + step, :, None], right[lo:lo + step, None, :], order="C")
        flat = outer.reshape(len(outer), i * l).view(float)
        out += np.einsum("jk,jx->kx", weights[lo:lo + step], flat).view(out.dtype).reshape(k, i, l)
    return out


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
    source ensemble after input loss against three measurements, each a
    POVM built from threshold click probabilities (detectors click
    independently given their photon counts):

    * Alice's and Bob's F_o = R^dagger diag(P(o | H, V counts)) R on the n
      photons of mode 1 or 4, R the lift of the axis rotation to them;
      fiber depolarization folds into P as a flip of +1/-1.
    * Victor's E_p = T diag(P(p | output counts)) T^dagger, T the analyzer's
      transfer map on the b/c input occupations, summed over the analyzer
      parts with their weights (bisa.victor_detection gives T and the
      weighted P of each part).

    Rotations keep n1 and n4 and the analyzer keeps n, so rho enters as one
    block per (n1, n4, n) sector.  E_p is formed once per setting and n, and
    each sector reads its occupations out of it.  Victor's side is traced
    first, leaving one Gram block G_p = Tr_bc[rho E_p] per (n1, n4), which
    meets F_a of every Alice basis and then F_b of every Bob basis.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        eta, n_max = config.detector_efficiency, config.n_max
        src1 = spdc_source(config.tau, config.spdc_order, ("1", "b"), n_max)
        src2 = spdc_source(config.tau, config.spdc_order, ("c", "4"), n_max)
        branches = [src1.tensor(src2)]
        for mode in INPUT_REGISTER:
            branches = attenuate_ensemble(branches, mode, config.input_transmission)
        sectors = _sector_densities([b for b in branches if b.norm_sq() > 1e-18])
        inputs = sorted({occ for occs, _, _ in sectors.values() for occ in occs})
        row = {occ: i for i, occ in enumerate(inputs)}
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
        # Alice's and Bob's POVMs, and their magnitudes, per (axis, n), then
        # stacked over each party's bases as [X, o, i, i'].
        ns = {n for n1, n4, _ in sectors for n in (n1, n4)}
        povms = {}
        for axis in {*config.alice_bases, *config.bob_bases}:
            for n in ns:
                block = _rotation_lift(axis, n)
                clicks = np.einsum("io,op->ip", _party_clicks(n, eta), flip)
                povms[(axis, n)] = (_povm(block.conj(), clicks, block),
                                   _povm(abs(block), clicks, abs(block)))
        party = {}
        for bases in (config.alice_bases, config.bob_bases):
            for n in ns:
                party[(bases, n)] = tuple(map(np.stack, zip(*(povms[(axis, n)] for axis in bases))))
        # The analyzer input occupations of each photon number n.
        by_n: dict = {}
        for (_, _, n), (occs, _, _) in sectors.items():
            by_n.setdefault(n, set()).update(occs)
        by_n = {n: sorted(occs) for n, occs in by_n.items()}
        self._dist, self.columns = {}, dict.fromkeys(BisaSetting, _CATEGORY_COLUMNS)
        for setting in BisaSetting:
            # Victor's E_p, and its magnitudes, on the inputs of each n,
            # summed over the analyzer parts.
            victor: dict = {}
            parts = victor_detection(setting, inputs, n_max, config.visibility, eta)
            for transfer, clicks in parts:
                for n, occs in by_n.items():
                    rows = transfer[[row[occ] for occ in occs]]
                    reached = rows.any(axis=0)
                    t, w = rows[:, reached].T, clicks[reached]
                    acc = victor.get(n, (0.0, 0.0))
                    victor[n] = (acc[0] + _povm(t, w, t.conj()), acc[1] + _povm(abs(t), w, abs(t)))
            # G_p and its magnitudes per (n1, n4), as [p, x1, x4, y1, y4].
            grams: dict = {}
            for (n1, n4, n), (occs, rho, mag) in sectors.items():
                col = {occ: i for i, occ in enumerate(by_n[n])}
                pick = np.array([col[occ] for occ in occs])
                # E_p on the sector's occupations, flat over (i, i') and
                # contiguous, as einsum runs fastest on it.
                pairs = (pick[:, None] * len(col) + pick).ravel()
                e, e_mag = (povm.reshape(len(PATTERNS), -1).take(pairs, axis=1)
                            for povm in victor[n])
                gram = (np.einsum("abx,px->pab", rho, e), np.einsum("abx,px->pab", mag, e_mag))
                shape = (len(PATTERNS), n1 + 1, n4 + 1, n1 + 1, n4 + 1)
                acc = grams.get((n1, n4), (0.0, 0.0))
                grams[(n1, n4)] = tuple(s + g.reshape(shape) for s, g in zip(acc, gram))
            # Every basis pair at once: [X, Y, a, b, p] for Alice's basis X
            # and Bob's basis Y.
            cat = scale = 0.0
            for (n1, n4), (gram, gram_mag) in grams.items():
                fa, fa_mag = party[(config.alice_bases, n1)]
                fb, fb_mag = party[(config.bob_bases, n4)]
                cat = cat + np.einsum("Yblk,Xapkl->XYabp", fb,
                                      np.einsum("Xaji,pikjl->Xapkl", fa, gram)).real
                scale = scale + np.einsum("Yblk,Xapkl->XYabp", fb_mag,
                                          np.einsum("Xaji,pikjl->Xapkl", fa_mag, gram_mag))
            cat[cat <= CANCELLATION_TOL * scale] = 0.0
            cat = cat.reshape(-1, len(_CATEGORIES))[:, _CATEGORY_ORDER]
            keys = itertools.product(config.alice_bases, config.bob_bases, [setting])
            self._dist.update(zip(keys, cat))

    def _joint(self, ab: str, bb: str, commanded: BisaSetting):
        """(ab, bb)'s category probabilities under the ``commanded`` setting, the
        switching error folded in, and a mask of the categories either setting reaches."""
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
    if outcome is not None:
        kept = KEPT_OUTCOMES[choice]
        if outcome not in kept:
            raise ValueError(f"outcome {outcome} inconsistent with choice {choice}")
    psi = states.source_state()
    keep = _PAIR_INDICES[pair]
    if choice is BisaSetting.SSM and pair in ((1, 2), (3, 4)):
        return states.partial_trace(psi.density_matrix(), keep)
    vectors = dict(_victor_projections(choice))
    mixed, total = 0.0, 0.0
    for o in [outcome] if outcome is not None else KEPT_OUTCOMES[choice]:
        vec = vectors[o]
        remaining, prob = states.project(psi, (1, 2), vec)
        if prob == 0.0:
            continue
        # The full post-measurement 4-qubit state: the remaining state lives
        # on photons (1,4), the projector on photons (2,3).
        rem = remaining.amplitudes.reshape(2, 2)
        v23 = vec.amplitudes.reshape(2, 2)
        full = states.QubitRegisterState(np.einsum("ad,bc->abcd", rem, v23).reshape(-1))
        mixed = mixed + prob * states.partial_trace(full.density_matrix(), keep).matrix
        total += prob
    return states.DensityMatrix(mixed / total)


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
    3 tau^2 / 4 for order >= 2 (see ``fock.spdc_source``).
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
    per commanded setting and basis pair over the ``_joint`` array's reached
    categories.  Returns counts keyed (commanded setting, victor outcome
    class, basis, alice outcome, bob outcome) for basis-matched fourfold events.
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
        for ab in config.alice_bases:
            for bb in config.bob_bases:
                joint, reached = engine._joint(ab, bb, commanded)
                probs = joint[reached]
                draw = rng.multinomial(rng.poisson(share), probs / probs.sum())
                if ab != bb:
                    continue
                hit = fourfold[reached] & (draw > 0)
                for c, n in zip(np.flatnonzero(reached)[hit], draw[hit].tolist()):
                    ck = (commanded, VICTOR_OUTCOMES[victor[c]], ab, int(a[c]), int(b[c]))
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


def _code_texts(codes: dict) -> list[list[str]]:
    """The JSON text of each code's value, one list per coded column; the
    outcome code -1 indexes the last entry."""
    texts = []
    for lut in codes.values():
        text = [""] * len(lut)
        for value, code in lut.items():
            text[code] = json.dumps(value)
        texts.append(text)
    return texts


def write_log(path, log: TrialLog) -> None:
    """Line-delimited JSON: a header object (log version, config, the event
    times of its delay budget, column names), then one array of the COLUMNS
    values per trial, written without spaces.

    A row is ``"[" + trial index + tail``, where the tail holds the coded
    columns; each chunk renders each distinct tail once.
    """
    header = {
        "kind": "swapsim-trial-log",
        "version": LOG_VERSION,
        "config": asdict(log.config),
        "event_times": asdict(event_times(log.config.budget)),
        "columns": list(COLUMNS),
    }
    codes = _column_codes(log.config)
    texts = _code_texts(codes)
    sizes = [len(text) for text in texts]
    # "wrap" takes the outcome code -1 to the last entry.
    modes = ["wrap" if -1 in lut.values() else "raise" for lut in codes.values()]
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(log), CHUNK_TRIALS):
            hi = lo + CHUNK_TRIALS
            # One mixed-radix key per row over the coded columns.
            key = np.ravel_multi_index([log.columns[name][lo:hi].astype(np.intp) for name in codes],
                                       sizes, mode=modes)
            keys, inverse = np.unique(key, return_inverse=True)
            # Each tail ends in the next row's "[", so the chunk is one join.
            tails = ["," + ",".join(map(list.__getitem__, texts, k)) + "]\n["
                     for k in zip(*np.unravel_index(keys, sizes))]
            parts = [""] * (2 * len(key))
            parts[0::2] = map(str, log.columns["trial_index"][lo:hi].tolist())
            parts[1::2] = map(tails.__getitem__, inverse.tolist())
            parts[0], parts[-1] = "[" + parts[0], parts[-1][:-1]
            fh.write("".join(parts))


def read_log(path) -> TrialLog:
    """The run a write_log file holds.  Raises ValueError unless its rows
    are trials 0, 1, ..., config.trials - 1 in turn.

    Rows with the written head ``"[" + trial index + ","`` are read per
    distinct tail: each tail new to this call is validated once, and the
    rows are gathered from a table of their codes.  Any other valid JSON
    spacing is accepted too; a chunk holding such a row is decoded row by
    row.
    """
    with open(path) as fh:
        header = json.loads(fh.readline())
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
        tails = _TailTable(codes)
        parts = []
        for first_line in itertools.count(2, CHUNK_TRIALS):
            lines = list(itertools.islice(fh, CHUNK_TRIALS))
            part = tails.decode(lines, first_line - 2)
            parts.append(_decode_rows(lines, first_line, codes) if part is None else part)
            if len(lines) < CHUNK_TRIALS:
                break
    columns = {name: np.concatenate([p[name] for p in parts]) for name in COLUMNS}
    index = columns["trial_index"]
    wrong = np.flatnonzero(index != np.arange(len(index)))
    if len(wrong):
        k = wrong[0]
        raise ValueError(f"line {k + 2}: trial_index {index[k]}, expected {k}")
    if len(index) != config.trials:
        raise ValueError(f"{len(index)} trial rows, but config.trials is {config.trials}")
    return TrialLog(config, columns)


class _TailTable:
    """The distinct row tails one read_log call has met, each validated by
    _decode_rows as the row ``"[0" + tail``, and the codes of each."""

    def __init__(self, codes: dict):
        self.codes = codes
        self.ids = {}
        self.columns = {name: np.empty(0, COLUMNS[name]) for name in codes}

    def decode(self, lines: list[str], lo: int) -> dict | None:
        """Columns of ``lines``, rows lo, lo + 1, ... of the log, or None
        unless each line is its head ``"[" + row number`` and a valid tail."""
        heads = list(map("[".__add__, map(str, range(lo, lo + len(lines)))))
        rest = list(map(str.removeprefix, lines, heads))
        # Each line loses its whole head or nothing, so this holds only if
        # every line had its head.
        if sum(map(len, lines)) - sum(map(len, rest)) != sum(map(len, heads)):
            return None
        new = [tail for tail in dict.fromkeys(rest) if tail not in self.ids]
        if new:
            if not all(tail.startswith(",") for tail in new):
                return None
            try:
                # Each of these lines opens a row with its "[0" and no valid
                # value holds a bracket, so a joint decode that finds one row
                # per line found each line's row alone.
                found = _decode_rows(["[0" + tail for tail in new], 0, self.codes)
            except ValueError:
                return None
            self.ids.update(zip(new, range(len(self.ids), len(self.ids) + len(new))))
            self.columns = {name: np.concatenate([self.columns[name], found[name]])
                            for name in self.codes}
        ids = np.fromiter(map(self.ids.__getitem__, rest), np.intp, len(rest))
        columns = {name: col[ids] for name, col in self.columns.items()}
        return {"trial_index": np.arange(lo, lo + len(lines), dtype=np.int64), **columns}


def _decode_rows(lines: list[str], first_line: int, codes: dict) -> dict:
    """Columns of the log rows ``lines``, the first of them line
    ``first_line`` of the file, with one JSON decode for all of them.
    Raises ValueError naming the first line that is not a valid row."""
    try:
        # Each line in a list of its own, so that no row spans two lines.
        rows = [row for [row] in json.loads("[[" + "],[".join(lines) + "]]")]
    except (TypeError, ValueError):
        rows = None
    if (rows is None or len(rows) != len(lines) or not set(map(type, rows)) <= {list}
            or not set(map(len, rows)) <= {len(COLUMNS)}):
        rows = []
        for n, line in enumerate(lines, first_line):
            try:
                rows.append(json.loads(line))
            except ValueError:
                rows.append(None)
            if type(rows[-1]) is not list or len(rows[-1]) != len(COLUMNS):
                raise ValueError(f"line {n}: expected an array of the {len(COLUMNS)} "
                                 f"values {', '.join(COLUMNS)}")
    columns = {}
    for (name, dtype), values in zip(COLUMNS.items(), list(zip(*rows)) or [()] * len(COLUMNS)):
        lut = codes.get(name)
        types, allowed = ({int}, range(2**63)) if lut is None else ({type(v) for v in lut}, lut)
        if not (set(map(type, values)) <= types and all(map(allowed.__contains__, values))):
            n, v = next((n, v) for n, v in enumerate(values, first_line)
                        if type(v) not in types or v not in allowed)
            expected = ("a trial index" if lut is None
                        else f"one of {', '.join(map(json.dumps, lut))}")
            raise ValueError(f"line {n}: {name} {json.dumps(v)} is not {expected}")
        columns[name] = np.array(values if lut is None else list(map(lut.__getitem__, values)),
                                 dtype=dtype)
    return columns


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
    if unknown:
        raise ValueError(f"unknown config key {section}.{unknown[0]}")
    return cls(**{key: _coerce(section, key, hints[key], v) for key, v in values.items()})


def _coerce(section: str, key: str, kind, value):
    if is_dataclass(kind):
        return _from_fields(kind, value, key)
    name = f"{section}.{key}"
    if kind == tuple[str, ...]:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{name} must be a list of strings, got {value!r}")
        return tuple(value)
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
        return value
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise ValueError(f"{name} must be {expected}, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return kind(value)


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
