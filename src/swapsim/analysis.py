"""Statistics over trial logs.

Normalized correlation functions with propagated Poissonian errors,
fidelities either from three-basis correlations or from exact conditional
states, witness values, and the standard reports: per-basis correlations
of photons 1 and 4 split by the analyzer outcome class, the four-row
fidelity/witness table, and the pooled Bell-outcome control analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import states
from .bisa import BisaOutcome, BisaSetting
from .experiment import KEPT_OUTCOMES, VICTOR_OUTCOMES, conditional_state

LOW_STATISTICS_TOTAL = 20

BELL_TARGETS = ("phi-", "phi+", "psi-", "psi+")


@dataclass(frozen=True)
class CoincidenceCounts:
    """The four coincidence counts of one correlation setting.

    ``j`` denotes the +1 eigenvalue outcome of the basis for both parties,
    ``p`` the orthogonal (-1) outcome; c_jp counts (Alice +1, Bob -1).
    """

    basis: str
    c_jj: int
    c_pp: int
    c_jp: int
    c_pj: int

    def __post_init__(self):
        for name in ("c_jj", "c_pp", "c_jp", "c_pj"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.c_jj + self.c_pp + self.c_jp + self.c_pj


@dataclass(frozen=True)
class CorrelationResult:
    basis: str
    value: float
    sigma: float
    total: int
    low_statistics: bool = False


def correlation(counts: CoincidenceCounts) -> CorrelationResult:
    """Normalized correlation E = (c_jj + c_pp - c_jp - c_pj) / total.

    The value is one correctly rounded integer division (it is invariant
    under uniform scaling of the counts).  The uncertainty is first-order
    propagation of sigma_C = sqrt(C): with A = c_jj + c_pp and
    B = c_jp + c_pj, sigma = 2 sqrt(A B / (A + B)) / (A + B); a zero cell
    contributes zero variance.
    """
    total = counts.total
    if total == 0:
        raise ValueError("correlation is undefined for zero total counts")
    a = counts.c_jj + counts.c_pp
    b = counts.c_jp + counts.c_pj
    sigma = 2.0 * np.sqrt(a * b / total) / total
    return CorrelationResult(
        counts.basis, (a - b) / total, float(sigma), total, total < LOW_STATISTICS_TOTAL
    )


def fidelity_from_correlations(e_zz: float, e_xx: float, e_yy: float, target: str) -> float:
    """Bell-state fidelity from the three mutually unbiased correlations.

    phi-: (1 + e_zz + e_yy - e_xx)/4     phi+: (1 + e_zz - e_yy + e_xx)/4
    psi-: (1 - e_zz - e_yy - e_xx)/4     psi+: (1 - e_zz + e_yy + e_xx)/4
    """
    for name, e in (("e_zz", e_zz), ("e_xx", e_xx), ("e_yy", e_yy)):
        if not -1.0 <= e <= 1.0:
            raise ValueError(f"{name} outside [-1, 1]: {e}")
    signs = {
        "phi-": (1.0, -1.0, 1.0),
        "phi+": (1.0, 1.0, -1.0),
        "psi-": (-1.0, -1.0, -1.0),
        "psi+": (-1.0, 1.0, 1.0),
    }
    try:
        sz, sx, sy = signs[target]
    except KeyError:
        raise ValueError(f"unknown target Bell state {target!r}") from None
    return 0.25 * (1.0 + sz * e_zz + sx * e_xx + sy * e_yy)


def witness_from_fidelity(fidelity: float) -> float:
    return 0.5 - fidelity


def coincidence_counts(log) -> dict:
    """Coincidence counts of photons 1 and 4 from a trial log's columns.

    Counts the kept trials where both parties registered a definite
    outcome in bases of the same name, keyed (commanded setting, Victor's
    outcome class, basis, Alice's outcome, Bob's outcome) like the map of
    ``experiment.simulate_counts``.
    """
    config, cols = log.config, log.columns
    names = list(dict.fromkeys((*config.alice_bases, *config.bob_bases)))
    alice_basis = np.array([names.index(b) for b in config.alice_bases])[cols["alice_basis"]]
    bob_basis = np.array([names.index(b) for b in config.bob_bases])[cols["bob_basis"]]
    alice, bob = cols["alice_outcome"], cols["bob_outcome"]
    rows = cols["kept"] & (alice != 0) & (bob != 0) & (alice_basis == bob_basis)
    shape = (2, len(VICTOR_OUTCOMES), len(names), 2, 2)
    cells = np.bincount(
        np.ravel_multi_index((cols["victor_choice"][rows], cols["victor_outcome"][rows],
                              alice_basis[rows], alice[rows] < 0, bob[rows] < 0), shape),
        minlength=math.prod(shape),
    )
    return {
        (BisaSetting.from_bit(bit), VICTOR_OUTCOMES[o], names[k], 1 - 2 * a, 1 - 2 * b): int(n)
        for (bit, o, k, a, b), n in zip(np.ndindex(*shape), cells.tolist())
        if n
    }


# Report groups: (commanded setting, Victor's outcome classes pooled).
_GROUPS = {
    "bsm_phi_minus": (BisaSetting.BSM, (BisaOutcome.PHI_MINUS_23,)),
    "bsm_phi_plus": (BisaSetting.BSM, (BisaOutcome.PHI_PLUS_23,)),
    "bsm_pooled": (BisaSetting.BSM, KEPT_OUTCOMES[BisaSetting.BSM]),
    "ssm_pooled": (BisaSetting.SSM, KEPT_OUTCOMES[BisaSetting.SSM]),
}

# (Alice, Bob) outcomes in the order of CoincidenceCounts' cells.
_CELLS = ((+1, +1), (-1, -1), (+1, -1), (-1, +1))


def _correlations(counts_map: dict, label: str) -> dict[str, CorrelationResult]:
    """Per-basis correlations of one report group of a count map, for the
    bases (in PAULI_AXES order) with coincidences in the group: a run
    configured with a subset of the bases has none in the others."""
    setting, outcomes = _GROUPS[label]
    cells: dict = {}
    for (s, o, basis, a_out, b_out), n in counts_map.items():
        if s is setting and o in outcomes:
            cells[basis, a_out, b_out] = cells.get((basis, a_out, b_out), 0) + n
    if not any(cells.values()):
        raise ValueError(f"no coincidences in the {label} group")
    counts = [CoincidenceCounts(b, *(cells.get((b, *ab), 0) for ab in _CELLS))
              for b in states.PAULI_AXES]
    return {c.basis: correlation(c) for c in counts if c.total}


def report_fig3(counts_map: dict) -> dict[str, dict[str, CorrelationResult]]:
    """Per-basis correlations of photons 1 and 4, split by outcome class.

    Bell-measurement trials are reported separately for the phi- and phi+
    outcomes; separable-measurement trials pool the HH and VV outcomes.
    ``counts_map`` is a ``coincidence_counts`` map.
    """
    return {label: _correlations(counts_map, label)
            for label in ("bsm_phi_minus", "bsm_phi_plus", "ssm_pooled")}


def pooled_bsm_analysis(counts_map: dict) -> dict[str, CorrelationResult]:
    """Correlations without discriminating between the two Bell outcomes.

    Pooling phi- with phi+ destroys the swapped entanglement signature:
    only the H/V correlation survives, the +/- and R/L correlations
    average to zero.
    """
    return _correlations(counts_map, "bsm_pooled")


def absolute_sum(results: dict[str, CorrelationResult]) -> float:
    """Entanglement signature: sum of |E| over the three bases exceeds 1
    only for states that are entangled (given MUB settings)."""
    return float(sum(abs(r.value) for r in results.values()))


@dataclass(frozen=True)
class Table1Row:
    pair: tuple[int, int]
    target: str
    choice: str  # "BSM" or "SSM"
    fidelity: float
    witness: float
    source: str  # "count-derived" or "state-derived"
    total: int  # contributing coincidences (0 for state-derived rows)
    low_statistics: bool = False


_TABLE1_PAIRS = (((2, 3), "phi-"), ((1, 4), "phi-"), ((1, 2), "psi-"), ((3, 4), "psi-"))

_TARGET_STATES = {k: states.bell_state(k) for k in BELL_TARGETS}


@functools.cache  # the rows depend on no counts; computed once per process
def _state_row(pair, target, choice: BisaSetting, outcome) -> tuple[float, float]:
    rho = conditional_state(choice, outcome, pair)
    f = states.fidelity(rho, _TARGET_STATES[target])
    return f, witness_from_fidelity(f)


def report_table1(counts_map: dict) -> list[Table1Row]:
    """Fidelity and witness of the four photon pairs under both choices.

    The (1,4) rows come from the coincidence counts (a
    ``coincidence_counts`` map).  The other pairs are not directly
    measured by the logged apparatus, so their rows are computed from the
    exact conditional states and flagged "state-derived".
    """
    rows = []
    for pair, target in _TABLE1_PAIRS:
        for choice, outcome in (
            (BisaSetting.BSM, BisaOutcome.PHI_MINUS_23),
            (BisaSetting.SSM, None),
        ):
            if pair == (1, 4):
                label = "bsm_phi_minus" if choice is BisaSetting.BSM else "ssm_pooled"
                corr = _correlations(counts_map, label)
                missing = [b for b in states.PAULI_AXES if b not in corr]
                if missing:
                    raise ValueError(f"no coincidences in basis {', '.join(missing)} of the "
                                     f"{label} group; table1 needs all three bases")
                f = fidelity_from_correlations(
                    corr["z"].value, corr["x"].value, corr["y"].value, target
                )
                total = sum(r.total for r in corr.values())
                rows.append(
                    Table1Row(
                        pair, target, choice.value, f, witness_from_fidelity(f),
                        "count-derived", total, any(r.low_statistics for r in corr.values()),
                    )
                )
            else:
                f, w = _state_row(pair, target, choice, outcome)
                rows.append(Table1Row(pair, target, choice.value, f, w, "state-derived", 0))
    return rows


def rows_to_csv(rows: list[Table1Row]) -> str:
    lines = ["pair,target,choice,fidelity,witness,source,total,low_statistics"]
    for r in rows:
        lines.append(
            f"{r.pair[0]}&{r.pair[1]},{r.target},{r.choice},{r.fidelity:.6f},"
            f"{r.witness:.6f},{r.source},{r.total},{int(r.low_statistics)}"
        )
    return "\n".join(lines) + "\n"


def correlations_to_csv(report: dict) -> str:
    """Flatten a correlation report, {group: {basis: result}}, to CSV."""
    lines = ["group,basis,value,sigma,total,low_statistics"]
    for group, by_basis in report.items():
        for basis, r in by_basis.items():
            lines.append(
                f"{group},{basis},{r.value:.6f},{r.sigma:.6f},{r.total},{int(r.low_statistics)}"
            )
    return "\n".join(lines) + "\n"


def correlation_results_from_counts(counts_map: dict) -> dict[str, dict[str, CorrelationResult]]:
    """Correlation report of every group, from a count map keyed
    (setting, outcome, basis, alice, bob) as ``coincidence_counts`` and
    ``experiment.simulate_counts`` produce it."""
    return {label: _correlations(counts_map, label) for label in _GROUPS}
