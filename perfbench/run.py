"""swapsim benchmark: three workloads, end-to-end metrics, traced per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ideal-reproduce --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ideal-reproduce,
fock-budget, fock-trials.  swapsim is imported from ``src/`` of the
checkout; nothing is installed.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics: medians over iterations, and trials_per_s over the
whole run.  ``--trace 1`` runs one untraced and two traced iterations,
then alternates the two kinds, and reports the per-layer metrics as
medians over the traced iterations, plus the tracing overhead.  Every iteration uses the same inputs, made from
``--seed``, and checks the program's outputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, every sample, spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import TARGETS, UNITS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Exact counts: a traced iteration must repeat them exactly.
EXACT_STATS = ("calls", "terms_in", "bytes", "kept")


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_head": None,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        env["git_head"] = git.stdout.strip() or None
    return env


def measure_setup(workload: str, seed: int, inputs: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until swapsim is imported
    and the workload's inputs are made, once per repeat.

    The child reports readiness on its stdout; waiting on the pipe with
    select() avoids the 50 ms polling steps of ``Popen.wait(timeout)``.
    """
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        "import workloads; "
        f"workloads.WORKLOADS[{workload!r}]({seed}, Path({str(inputs)!r})); "
        "print('ready', flush=True)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as child:
            readable, _, _ = select.select([child.stdout], [], [], SETUP_TIMEOUT_S)
            line = child.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - start
            if line.strip() != b"ready":
                child.kill()
                raise RuntimeError(f"set-up interpreter for {workload} did not get ready")
        if child.returncode != 0:
            raise RuntimeError(f"set-up interpreter for {workload} exited {child.returncode}")
        times.append(elapsed)
    return times


def run_iterations(workload, ledger, seconds: float, work: Path, trace: bool):
    """Repeat the workload until the next iteration would overrun ``seconds``.

    Returns (untraced samples, traced (sample, tracer) pairs).
    """
    plain, traced = [], []
    # Traced runs start untraced, so the first (cold) iteration does not
    # inflate the tracing overhead.
    kinds = (itertools.chain((False, True, True), itertools.cycle((False, True)))
             if trace else itertools.repeat(False))
    start = time.perf_counter()
    for k, with_trace in enumerate(kinds):
        out = work / f"iter-{k}"
        tracer = Tracer().install() if with_trace else None
        began = time.perf_counter()
        try:
            sample = workload.iteration(ledger, out)
        except Exception:  # a crash is a failed operation; report what finished
            ledger.failed += 1
            ledger.attempted += 1
            traceback.print_exc()
            break
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        if with_trace:
            traced.append((sample, tracer))
        else:
            plain.append(sample)
        took = time.perf_counter() - began
        enough = not trace or (len(traced) >= 2 and len(plain) >= 1)
        if enough and time.perf_counter() - start + took > seconds:
            break
    return plain, traced


def summarize(values) -> str:
    values = sorted(values)
    return (f"median {statistics.median(values):.6g} "
            f"(min {values[0]:.6g}, max {values[-1]:.6g}, n={len(values)})")


def end_to_end(samples, setup_times) -> tuple[dict, list[str]]:
    """BENCHMARK.json's end-to-end metrics as medians, and one line per metric.

    The metrics that exist on only some workloads (engine_build_s,
    simulate_counts_s, log_bytes_per_trial) are printed, not reported,
    because every workload reports every BENCHMARK.json metric.
    """
    sampled = {
        "wall_s": ([s.wall_s for s in samples], "s"),
        "setup_s": (setup_times, "s"),
    }
    metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in sampled.items()}
    # Over the whole run rather than a median: slow phases of a shared
    # machine last several iterations, and the total averages over them.
    rate = sum(s.trials for s in samples) / sum(s.wall_s for s in samples)
    metrics["trials_per_s"] = {"value": rate, "unit": "trials/s"}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    lines = [f"{k}: {summarize(v)} {u}" for k, (v, u) in sampled.items()]
    lines.append(f"trials_per_s: {rate:.6g} trials/s over {len(samples)} iterations")
    lines.append(f"peak_rss_mb: {rss:.6g} MiB")
    for name in ("engine_build_s", "simulate_counts_s"):
        if getattr(samples[0], name) is not None:
            lines.append(f"{name}: {summarize([getattr(s, name) for s in samples])} s")
    if samples[0].log_bytes is not None:
        lines.append(f"log_bytes_per_trial: {samples[0].log_bytes / samples[0].trials:.6g} B")
    return metrics, lines


def per_layer(plain, traced, ledger) -> tuple[dict, list[str]]:
    """BENCHMARK.json's per-layer metrics as medians over traced iterations."""
    tracers = [t for _, t in traced]
    stats = [t.stats for t in tracers]

    def value(key, stat, s):
        return s.get(key, {}).get(stat, 0)

    metrics = {}
    for key, _, reported in TARGETS:
        for stat in reported:
            metrics[f"{key}.{stat}"] = (
                statistics.median(value(key, stat, s) for s in stats),
                UNITS[stat],
            )
    trials = statistics.median(value("experiment.simulate_trial", "calls", s) for s in stats)
    kept = statistics.median(value("experiment.simulate_trial", "kept", s) for s in stats)
    metrics["experiment.kept_fraction"] = (kept / trials if trials else 0.0, "ratio")
    sample = traced[0][0]
    metrics["log_bytes_per_trial"] = (
        sample.log_bytes / sample.trials if sample.log_bytes is not None else 0.0, "B"
    )
    overhead = (statistics.median(s.wall_s for s, _ in traced)
                - statistics.median(s.wall_s for s in plain))
    metrics["tracing_overhead_s"] = (overhead, "s")

    # Self-check: counts must repeat exactly across traced iterations.
    exact = [
        {f"{key}.{stat}": n for key, st in s.items() for stat, n in st.items()
         if stat in EXACT_STATS}
        for s in stats
    ]
    logs = [s.log_bytes for s, _ in traced]
    differ = sorted(k for k in exact[0] if any(e.get(k) != exact[0][k] for e in exact[1:]))
    ledger.check("exact counts repeat across traced iterations",
                 not differ and len(set(logs)) == 1, f"{differ} log bytes {logs}")

    lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append("tracing_overhead_s is traced minus untraced median wall_s")
    if tracers[0].absent:
        lines.append(f"absent (reported as 0): {', '.join(tracers[0].absent)}")
    builds = [sp for sp in tracers[0].spans if sp["name"] == "experiment.build_engine"]
    if builds:
        lines.append("calls inside the first build_engine: "
                     + json.dumps(builds[0]["calls"], sort_keys=True))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swapsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swapsim" / "__init__.py").is_file():
        print(f"error: no swapsim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swapsim
    import workloads

    if Path(swapsim.__file__).resolve().parent != SRC / "swapsim":
        print(f"error: swapsim imported from {swapsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    work = OUT_DIR / f"work-{os.getpid()}"
    ledger = workloads.Ledger()
    try:
        setup_times = measure_setup(args.workload, args.seed, work / "setup")
        workload = workloads.WORKLOADS[args.workload](args.seed, work / "inputs")
        plain, traced = run_iterations(workload, ledger, args.seconds, work, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("error: no iteration completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics, lines = per_layer(plain, traced, ledger)
    else:
        metrics, lines = end_to_end(plain, setup_times)
    env["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    for line in lines:
        print(line)
    print(f"error_rate: {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} failed of {ledger.attempted} operations)")
    print("env: " + json.dumps(env, sort_keys=True))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_s": setup_times,
        "samples": [vars(s) for s in plain],
        "traced": [{"sample": vars(s), "stats": t.stats, "spans": t.spans, "absent": t.absent}
                   for s, t in traced],
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
