"""Command-line surface: simulate, analyze, verify, reproduce.

Configuration files are flat key-value text with dotted section names,
one ``section.key = value`` assignment per line.  Each value is read as its
config field's type (``experiment.config_from_dict``); unknown keys and
ill-typed values and repeated keys are hard errors so a typo cannot
silently change the physics.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, states
from .bisa import BisaOutcome, BisaSetting, verify_evolution
from .experiment import (
    ExperimentConfig,
    TrialLog,
    config_from_dict,
    imperfection_product,
    rate_budget,
    read_log,
    run_summary,
    run_trials,
    write_log,
)
from .timeline import DelayBudget, check_delayed_choice, event_times

class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> ExperimentConfig:
    """Config from ``section.key = value`` lines: ``experiment`` keys name
    the config's own fields, any other section one of its nested fields
    (``budget``).  The values stay strings for ``config_from_dict``."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} has no section prefix")
        section, _, name = key.partition(".")
        target = values if section == "experiment" else values.setdefault(section, {})
        if not isinstance(target, dict) or isinstance(target.get(name), dict):
            raise ConfigError(f"line {lineno}: {key} mixes a section and a value")
        if name in target:
            raise ConfigError(f"line {lineno}: {key} is set twice")
        target[name] = raw.strip()
    try:
        return config_from_dict(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def _write_manifest(out_dir: Path, config: ExperimentConfig, outputs: list[str]) -> Path:
    manifest = {
        "kind": "swapsim-run-manifest",
        "version": __version__,
        "config": asdict(config),
        "master_seed": config.master_seed,
        "outputs": outputs,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


LOG_NAME, SUMMARY_NAME = "trials.jsonl", "summary.json"


def _run(config: ExperimentConfig, workers: int, out_dir: Path) -> TrialLog:
    """Run the trials of ``config`` and write their log and summary, under
    LOG_NAME and SUMMARY_NAME, into ``out_dir``, which is made only once the
    trials have run, so a failed run leaves no directory behind."""
    log = run_trials(config, workers=workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_log(out_dir / LOG_NAME, log)
    summary = run_summary(log)
    (out_dir / SUMMARY_NAME).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return log


def cmd_simulate(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"master_seed": args.seed, "mode": args.mode, "trials": args.trials}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    out_dir = Path(args.out)
    log = _run(config, args.workers, out_dir)
    _write_manifest(out_dir, config, [LOG_NAME, SUMMARY_NAME])
    print(f"wrote {out_dir / LOG_NAME} ({len(log)} trials)")
    print(f"wrote {out_dir / SUMMARY_NAME}")
    return 0


# Report name -> (output file, CSV text of the report of a coincidence_counts
# map).  The analysis functions are looked up per call, so wrappers installed
# on the analysis module (perfbench's tracer) see them.
_REPORTS = {
    "fig3": ("fig3.csv", lambda c: analysis.correlations_to_csv(analysis.report_fig3(c))),
    "table1": ("table1.csv", lambda c: analysis.rows_to_csv(analysis.report_table1(c))),
    "pooled": ("pooled.csv",
               lambda c: analysis.correlations_to_csv(
                   {"pooled_bsm": analysis.pooled_bsm_analysis(c)})),
}


def cmd_analyze(args) -> int:
    log = read_log(args.log)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name, report_csv = _REPORTS[args.report]
    text = report_csv(analysis.coincidence_counts(log))
    path = out_dir / name
    path.write_text(text)
    _write_manifest(out_dir, log.config, [name])
    print(f"wrote {path}")
    sys.stdout.write(text)
    return 0


def _check(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def verify_timing() -> bool:
    times = event_times(DelayBudget())
    report = check_delayed_choice(times)
    ok = True
    ok &= _check(
        "choice window",
        (times.choice_lower, times.choice_upper) == (49.0, 348.0),
        f"[{times.choice_lower:g}, {times.choice_upper:g}] ns (expected [49, 348])",
    )
    ok &= _check(
        "choice margins",
        report.choice_margin == (14.0, 313.0),
        f"[{report.choice_margin[0]:g}, {report.choice_margin[1]:g}] ns (expected [14, 313])",
    )
    ok &= _check(
        "measurement margin",
        report.measurement_margin == 485.0,
        f"{report.measurement_margin:g} ns (expected 485)",
    )
    ok &= _check("delayed choice", report.satisfied, "choice after both measurements")
    return bool(ok)


def verify_budget() -> bool:
    budget = rate_budget(ExperimentConfig())
    ok = True
    ok &= _check(
        "fourfold fraction",
        abs(budget.fraction - 0.0033) < 1e-4,
        f"{budget.fraction:.5f} (expected 0.0033)",
    )
    ok &= _check(
        "fourfold rate",
        abs(budget.fourfold_rate - 0.016) < 1e-3,
        f"{budget.fourfold_rate:.4f} Hz (expected 0.016 Hz)",
    )
    prod = imperfection_product((0.674, 0.964, 0.94, 0.99))
    ok &= _check(
        "imperfection product",
        abs(prod - 0.605) < 1e-3,
        f"{prod:.4f} (expected 0.605)",
    )
    return bool(ok)


def verify_eq2() -> bool:
    coeffs = states.bell_decompose_14_23(states.source_state())
    expected = np.zeros((4, 4))
    for i, kind in enumerate(states.BELL_KINDS):
        expected[i, i] = {"psi+": 0.5, "psi-": -0.5, "phi+": -0.5, "phi-": 0.5}[kind]
    ok = np.allclose(coeffs, expected, atol=1e-12)
    diag = ", ".join(f"{coeffs[i, i].real:+.3f}" for i in range(4))
    return _check("Bell-basis decomposition", ok, f"diagonal ({diag}), off-diagonal 0")


def verify_bisa() -> bool:
    ok = True
    dist = verify_evolution("phi+", BisaSetting.BSM)
    ok &= _check(
        "phi+ under BSM",
        abs(dist.get(BisaOutcome.PHI_PLUS_23, 0.0) - 1.0) < 1e-9,
        f"P(phi+ class) = {dist.get(BisaOutcome.PHI_PLUS_23, 0.0):.6f}",
    )
    dist = verify_evolution("phi-", BisaSetting.BSM)
    ok &= _check(
        "phi- under BSM",
        abs(dist.get(BisaOutcome.PHI_MINUS_23, 0.0) - 1.0) < 1e-9,
        f"P(phi- class) = {dist.get(BisaOutcome.PHI_MINUS_23, 0.0):.6f}",
    )
    for kind in ("psi+", "psi-"):
        dist = verify_evolution(kind, BisaSetting.BSM)
        ok &= _check(
            f"{kind} under BSM",
            abs(dist.get(BisaOutcome.DISCARD, 0.0) - 1.0) < 1e-9,
            f"P(discard) = {dist.get(BisaOutcome.DISCARD, 0.0):.6f}",
        )
    return bool(ok)


_VERIFY_TARGETS = {
    "timing": verify_timing,
    "budget": verify_budget,
    "eq2": verify_eq2,
    "bisa": verify_bisa,
}


def cmd_verify(args) -> int:
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    ok = all([_VERIFY_TARGETS[t]() for t in targets])
    return 0 if ok else 1


def cmd_reproduce(args) -> int:
    config = ExperimentConfig(mode="ideal", trials=args.trials)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    out_dir = Path(args.out)
    log = _run(config, args.workers, out_dir)
    counts = analysis.coincidence_counts(log)
    for name, report_csv in _REPORTS.values():
        (out_dir / name).write_text(report_csv(counts))
    outputs = [LOG_NAME, *(name for name, _ in _REPORTS.values()), SUMMARY_NAME]
    _write_manifest(out_dir, config, outputs)
    print(f"wrote {len(outputs)} files to {out_dir}")
    ok = verify_timing() and verify_budget()
    return 0 if ok else 1


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Delayed-choice entanglement swapping simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trials and write a log")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--mode", choices=("ideal", "fock"))
    p.add_argument("--trials", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compute a report from a trial log")
    p.add_argument("log")
    p.add_argument("--report", choices=tuple(_REPORTS), default="fig3")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("target", choices=(*_VERIFY_TARGETS, "all"), nargs="?", default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="default run plus all reports and checks")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
