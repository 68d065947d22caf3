"""Per-layer tracing of swapsim, done from the benchmark by wrapping functions.

Each target is patched wherever it is looked up: a function is replaced in
every loaded ``swapsim`` module that binds it (``from .fock import
detector_counts`` copies the binding into ``swapsim.experiment``), and a
method is replaced on its class.  Hot targets (per-trial and per-kernel
calls) only update counters.  Span targets also record one span per call,
with its parent span and the calls of every target made inside it.  A
target that no longer exists is reported as absent, not as a failure.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _terms_in(args, result):
    """Fock terms in the input state; None once the state has no ``amp``."""
    try:
        return len(args[0].amp)
    except (AttributeError, IndexError, TypeError):
        return None


def _bytes(args, result):
    return os.path.getsize(args[0])


def _kept(args, result):
    return int(bool(getattr(result, "kept", False)))


# Counters besides calls, total_s and self_s, by name.
EXTRA_COUNTERS = {"terms_in": _terms_in, "bytes": _bytes, "kept": _kept}

UNITS = {"calls": "count", "terms_in": "count", "bytes": "B", "kept": "count",
         "self_s": "s", "total_s": "s"}

# (<module>.<qualified name>, kind, stats reported per traced iteration).
# A bare class name wraps the class's construction.
TARGETS = (
    ("fock.apply_pair_matrix", "hot", ("calls", "self_s", "terms_in")),
    ("fock.detector_counts", "hot", ("calls", "self_s", "terms_in")),
    ("fock._expand_pattern", "hot", ("calls", "self_s")),
    ("fock.polarization_rotation", "hot", ("calls",)),
    ("fock.beam_splitter", "hot", ("calls",)),
    ("fock.attenuate", "hot", ("calls", "self_s")),
    ("fock.spdc_source", "hot", ("self_s",)),
    ("bisa.bisa_apply", "hot", ("calls", "self_s")),
    ("bisa.bisa_apply_distinguishable", "hot", ("calls", "self_s")),
    ("bisa.classify", "hot", ("calls", "self_s")),
    ("qrng.QrngSimulator", "hot", ("calls", "self_s")),
    ("qrng.QrngSimulator.next_bit", "hot", ("self_s",)),
    ("experiment.build_engine", "span", ("calls", "total_s")),
    ("experiment.simulate_trial", "hot", ("calls", "self_s", "kept")),
    ("experiment.IdealEngine.sample", "hot", ("self_s",)),
    ("experiment.FockEngine.sample", "hot", ("self_s",)),
    ("experiment.write_log", "span", ("total_s", "bytes")),
    ("experiment.read_log", "span", ("total_s",)),
    ("experiment.simulate_counts", "span", ("total_s",)),
    ("experiment.FockEngine.joint_distribution", "hot", ("self_s",)),
    ("experiment.run_summary", "span", ("total_s",)),
    ("states.project", "hot", ("calls", "self_s")),
    ("states.partial_trace", "hot", ("calls",)),
    ("states.source_state", "hot", ("calls",)),
    ("timeline.event_times", "hot", ("calls",)),
    ("analysis.report_fig3", "span", ("total_s",)),
    ("analysis.report_table1", "span", ("total_s",)),
    ("analysis.pooled_bsm_analysis", "span", ("total_s",)),
    ("analysis.correlation_results_from_counts", "span", ("total_s",)),
    ("cli.main", "span", ("total_s",)),
    ("cli.parse_config_text", "span", ("total_s",)),
)


class Tracer:
    """Counters and spans for one traced workload iteration.

    ``install`` patches the targets, ``uninstall`` restores the originals.
    ``stats`` maps ``<module>.<qualname>`` to calls, total_s, self_s and the
    target's extra counters; self time is total time minus the time spent
    in wrapped callees.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # [seconds in wrapped callees, span or None]
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    def install(self) -> "Tracer":
        for key, kind, reported in TARGETS:
            module_name, qualname = key.split(".", 1)
            module = sys.modules.get(f"swapsim.{module_name}")
            owner, attr = self._resolve(module, qualname)
            if owner is None:
                self.absent.append(key)
                continue
            extras = {n: EXTRA_COUNTERS[n] for n in reported if n in EXTRA_COUNTERS}
            stats = {"calls": 0, "total_s": 0.0, "self_s": 0.0, **dict.fromkeys(extras, 0)}
            self.stats[key] = stats
            original = owner.__dict__[attr]
            wrapper = self._wrap(key, original, kind == "span", stats, extras)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # Patch every swapsim module that copied the binding.
            for name, mod in list(sys.modules.items()):
                if name == "swapsim" or name.startswith("swapsim."):
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module, qualname):
        """(object holding the attribute, attribute name), or (None, None)."""
        if module is None:
            return None, None
        parts = qualname.split(".")
        if len(parts) == 1:
            value = module.__dict__.get(parts[0])
            if isinstance(value, type):
                return (value, "__init__") if "__init__" in value.__dict__ else (None, None)
            return (module, parts[0]) if callable(value) else (None, None)
        cls = module.__dict__.get(parts[0])
        if isinstance(cls, type) and callable(cls.__dict__.get(parts[1])):
            return cls, parts[1]
        return None, None

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _call_counts(self) -> dict[str, int]:
        return {key: s["calls"] for key, s in self.stats.items()}

    def _wrap(self, key, fn, is_span, stats, extras):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open_span(key) if is_span else None
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
                if span is not None:
                    self._close_span(span)
            for name, count in extras.items():
                n = count(args, result)
                if n is not None:
                    stats[name] += n
            return result

        return wrapper

    def _open_span(self, key) -> dict:
        parent = next((f[1]["id"] for f in reversed(self._stack) if f[1] is not None), None)
        span = {
            "id": len(self.spans),
            "parent": parent,
            "name": key,
            "start_s": time.perf_counter() - self._epoch,
            "calls_before": self._call_counts(),
        }
        self.spans.append(span)
        return span

    def _close_span(self, span) -> None:
        span["end_s"] = time.perf_counter() - self._epoch
        before = span.pop("calls_before")
        span["calls"] = {
            key: n - before.get(key, 0)
            for key, n in self._call_counts().items()
            if n != before.get(key, 0)
        }
