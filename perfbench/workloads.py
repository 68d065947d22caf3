"""The benchmark's three workloads: inputs from a seed, one timed iteration, checks.

Every workload drives swapsim through public calls only (``cli.main``,
``build_engine``, ``expected_correlation``, ``simulate_counts``,
``read_log``, ``correlation_results_from_counts``) with ``workers=1``.
The checks hold for any random stream and log format: they compare the
program's reports with exact expectations at 5 sigma, never with golden
logs, and read trial logs only through ``read_log``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from swapsim import analysis, cli, experiment
from swapsim.bisa import BisaOutcome, BisaSetting, classify

SIGMAS = 5.0

# Exact BSM/phi- correlations of the default fock config (n_max = 3),
# recorded at the commit that introduced this benchmark.  The tolerance
# admits the ~1.5e-4 shift expected from accounting for truncated weight
# at n_max = 3 and rejects anything larger, such as the ~9e-4 change
# from n_max = 3 to 4.
FOCK_REFERENCE = {"z": 0.6472592815046739, "x": -0.5717045925877721, "y": 0.5704460914536111}
FOCK_REFERENCE_TOL = 5e-4
BUDGET_MAGNITUDE, BUDGET_TOL = 0.605, 0.05

# Ideal-mode correlations of photons 1 and 4 per fig3 group.
IDEAL_FIG3 = {
    "bsm_phi_minus": {"z": 1.0, "x": -1.0, "y": 1.0},
    "bsm_phi_plus": {"z": 1.0, "x": 1.0, "y": -1.0},
    "ssm_pooled": {"z": 1.0, "x": 0.0, "y": 0.0},
}
CSV_ROUNDING = 1e-6  # fig3.csv prints six decimals


@dataclass
class Sample:
    """Measurements of one iteration; ``None`` where a workload has no such step."""

    wall_s: float
    trials: int
    engine_build_s: float | None = None  # one build_engine call
    simulate_counts_s: float | None = None
    log_bytes: int | None = None


class Ledger:
    """Operations attempted and failed; a failed check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def cli(self, argv: list[str]) -> None:
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(argv)
        if rc != 0:
            self.failed += 1
            print(f"FAIL swapsim {' '.join(argv)} exited {rc}; output:\n{out.getvalue()[-2000:]}")

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {label}: {detail}")
        return ok


def _seed31(seed: int, salt: str) -> int:
    return random.Random(f"{salt}:{seed}").getrandbits(31)


class IdealReproduce:
    """``swapsim reproduce`` in ideal mode, then ``analyze --report table1``."""

    name = "ideal-reproduce"
    trials = 20_000

    def __init__(self, seed: int, inputs: Path):
        self.master_seed = _seed31(seed, self.name)

    def iteration(self, ledger: Ledger, out: Path) -> Sample:
        log_path = out / "trials.jsonl"
        start = time.perf_counter()
        ledger.cli(["reproduce", "--trials", str(self.trials), "--seed", str(self.master_seed),
                    "--workers", "1", "--out", str(out)])
        ledger.cli(["analyze", str(log_path), "--report", "table1", "--out", str(out / "analyze")])
        wall = time.perf_counter() - start

        rows = _csv_rows((out / "fig3.csv").read_text())
        bad = []
        for group, by_basis in IDEAL_FIG3.items():
            for basis, ideal in by_basis.items():
                row = rows.get((group, basis))
                if row is None or abs(row[0] - ideal) > SIGMAS * row[1] + CSV_ROUNDING:
                    bad.append(f"{group}/{basis}={row} ideal {ideal}")
        ledger.check("fig3 within 5 sigma of the ideal correlations", not bad, "; ".join(bad))
        ledger.check(
            "analyze table1.csv equals reproduce table1.csv",
            (out / "analyze" / "table1.csv").read_bytes() == (out / "table1.csv").read_bytes(),
        )
        return Sample(wall, self.trials, log_bytes=log_path.stat().st_size)


def _csv_rows(text: str) -> dict[tuple[str, str], tuple[float, float]]:
    """(group, basis) -> (value, sigma) of a correlation report CSV."""
    rows = {}
    for line in text.splitlines()[1:]:
        group, basis, value, sigma, *_ = line.split(",")
        rows[(group, basis)] = (float(value), float(sigma))
    return rows


class FockBudget:
    """Acceptance criterion 9's noise-budget path at the default fock config."""

    name = "fock-budget"
    trials = 2_000_000_000

    def __init__(self, seed: int, inputs: Path):
        self.draw_seed = _seed31(seed, self.name)
        self.config = experiment.ExperimentConfig(mode="fock")

    def iteration(self, ledger: Ledger, out: Path) -> Sample:
        start = time.perf_counter()
        engine = ledger.call(experiment.build_engine, self.config)
        build = time.perf_counter() - start
        exact = {
            b: ledger.call(engine.expected_correlation, BisaSetting.BSM,
                           [BisaOutcome.PHI_MINUS_23], b)
            for b in ("z", "x", "y")
        }
        counts_start = time.perf_counter()
        counts = ledger.call(experiment.simulate_counts, self.config, self.trials,
                             seed=self.draw_seed)
        counts_s = time.perf_counter() - counts_start
        report = ledger.call(analysis.correlation_results_from_counts, counts)
        wall = time.perf_counter() - start

        ledger.check(
            "exact |E| within 0.605 +- 0.05",
            all(abs(abs(e) - BUDGET_MAGNITUDE) <= BUDGET_TOL for e in exact.values()),
            str(exact),
        )
        ledger.check(
            f"exact E equal the recorded references within {FOCK_REFERENCE_TOL}",
            all(abs(exact[b] - FOCK_REFERENCE[b]) <= FOCK_REFERENCE_TOL for b in exact),
            f"{exact} vs {FOCK_REFERENCE}",
        )
        drawn = report["bsm_phi_minus"]
        ledger.check(
            "drawn BSM/phi- correlations within 5 sigma of the exact ones",
            all(abs(drawn[b].value - exact[b]) <= SIGMAS * drawn[b].sigma for b in exact),
            str({b: (drawn[b].value, drawn[b].sigma) for b in exact}),
        )
        # Criterion 9's pooled-BSM pattern, at 5 sigma so that a random
        # draw almost never fails it: only the H/V correlation survives.
        pooled = report["bsm_pooled"]
        ledger.check(
            "pooled BSM: z significant, x and y consistent with 0",
            abs(pooled["z"].value) > SIGMAS * pooled["z"].sigma
            and all(abs(pooled[b].value) <= SIGMAS * pooled[b].sigma for b in ("x", "y")),
            str({b: (r.value, r.sigma) for b, r in pooled.items()}),
        )
        return Sample(wall, self.trials, engine_build_s=build, simulate_counts_s=counts_s)


class FockTrials:
    """``swapsim simulate --config`` on a lossless fock config with the physical QRNG."""

    name = "fock-trials"
    trials = 5_000
    config_text = (
        "experiment.mode = fock\n"
        "experiment.qrng_source = physical\n"
        "experiment.input_transmission = 1.0\n"
        "experiment.detector_efficiency = 1.0\n"
        "experiment.fiber_polarization_fidelity = 1.0\n"
    )

    def __init__(self, seed: int, inputs: Path):
        self.master_seed = _seed31(seed, self.name)
        inputs.mkdir(parents=True, exist_ok=True)
        self.config_path = inputs / "fock-trials.cfg"
        self.config_path.write_text(self.config_text)

    def iteration(self, ledger: Ledger, out: Path) -> Sample:
        log_path = out / "trials.jsonl"
        start = time.perf_counter()
        ledger.cli(["simulate", "--config", str(self.config_path), "--seed", str(self.master_seed),
                    "--trials", str(self.trials), "--workers", "1", "--out", str(out)])
        wall = time.perf_counter() - start

        config = ledger.call(experiment.read_log, log_path).config
        start = time.perf_counter()
        engine = ledger.call(experiment.build_engine, config)
        build = time.perf_counter() - start
        p = config.duty_cycle * _kept_probability(engine, config)
        counts = json.loads((out / "summary.json").read_text())["counts"]
        expected = counts["trials"] * p
        sigma = math.sqrt(counts["trials"] * p * (1.0 - p))
        ledger.check(
            "kept count within 5 sigma of the exact expectation",
            (config.mode, config.qrng_source) == ("fock", "physical")
            and counts["trials"] == self.trials
            and abs(counts["kept"] - expected) <= SIGMAS * sigma,
            f"{config.mode}/{config.qrng_source}: kept {counts['kept']} of {counts['trials']}, "
            f"expected {expected:.1f} +- {sigma:.1f}",
        )
        return Sample(wall, self.trials, engine_build_s=build,
                      log_bytes=log_path.stat().st_size)


def _kept_probability(engine, config) -> float:
    """P(fourfold event whose class under the commanded setting is kept),
    averaged over uniform bases and a fair choice bit, before the duty cycle."""
    total = 0.0
    pairs = [(ab, bb) for ab in config.alice_bases for bb in config.bob_bases]
    for commanded in BisaSetting:
        for ab, bb in pairs:
            dist = engine.joint_distribution(ab, bb, commanded)
            norm = sum(dist.values())
            total += sum(
                p for (a, b, victor), p in dist.items()
                if a != 0 and b != 0 and classify(victor, commanded) is not BisaOutcome.DISCARD
            ) / norm
    return total / (len(BisaSetting) * len(pairs))


WORKLOADS = {w.name: w for w in (IdealReproduce, FockBudget, FockTrials)}
