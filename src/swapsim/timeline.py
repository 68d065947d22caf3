"""Event chronology and the delayed-choice check.

Single co-located timeline in nanoseconds: pair generation at the sources,
Alice/Bob measurements after the short fibers, Victor's choice window and
measurement after the long fibers.  The choice window is bounded above by
the long-fiber arrival minus all electrical delays and the autocorrelation
allowance, and its width equals the modulator on-time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import get_type_hints


@dataclass(frozen=True)
class DelayBudget:
    fiber_length_ab: float = 7.0  # m, Alice/Bob arms
    fiber_length_v: float = 104.0  # m, Victor's delay fibers
    fiber_speed: float = 0.2  # m/ns (speed of light in fiber)
    eom_driver_delay: float = 45.0  # ns
    qrng_delay: float = 75.0  # ns
    cable_delay: float = 20.0  # ns
    autocorr_allowance: float = 32.0  # ns, 3 x 10.7 rounded as published
    eom_on_time: float = 299.0  # ns
    pair2_generation_offset: float = 1.6  # ns

    def __post_init__(self):
        _check_field_types(self)
        if self.fiber_speed <= 0:
            raise ValueError("fiber_speed must be positive")
        for name in (
            "fiber_length_ab",
            "fiber_length_v",
            "eom_driver_delay",
            "qrng_delay",
            "cable_delay",
            "autocorr_allowance",
            "eom_on_time",
            "pair2_generation_offset",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        event_times(self)  # raises on a negative choice window


@functools.cache  # a few dataclasses per process
def _field_types(cls) -> MappingProxyType:
    """The resolved type hints of ``cls``, read-only."""
    return MappingProxyType(get_type_hints(cls))


# The config field types, as config errors name them.
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               tuple[str, ...]: "a tuple of strings", DelayBudget: "a DelayBudget"}


def _is_a(kind, value) -> bool:
    """Whether ``value`` has the field type ``kind``; a bool is no number
    here, and an int is a float too."""
    if kind == tuple[str, ...]:
        return isinstance(value, tuple) and all(isinstance(v, str) for v in value)
    if kind in (int, float):
        return not isinstance(value, bool) and isinstance(value, (int, kind))
    return isinstance(value, kind)


def _check_field_types(obj) -> None:
    """Raise ValueError, naming the field, for the first field of the
    dataclass ``obj`` whose value is not of its type or, for a float field,
    not finite.  An int in a float field is stored as a float, so that equal
    configs write equal logs."""
    for name, kind in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if not _is_a(kind, value):
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if kind is float and isinstance(value, int):
            # object.__setattr__ writes the frozen DelayBudget too.
            object.__setattr__(obj, name, float(value))


@dataclass(frozen=True)
class EventTimes:
    """Per-run chronology: generation, Alice/Bob measurements, Victor's
    choice window bounds and measurement (all ns)."""

    g_1: float
    g_2: float
    m_alice: float
    m_bob: float
    choice_lower: float
    choice_upper: float
    m_victor: float

    def __post_init__(self):
        if self.g_1 > self.g_2:
            raise ValueError("first pair must not be generated after the second")
        if not self.choice_lower <= self.choice_upper <= self.m_victor:
            raise ValueError("choice window must precede Victor's measurement")


@dataclass(frozen=True)
class DelayedChoiceReport:
    satisfied: bool
    choice_margin: tuple[float, float]  # ns after the later of M_A, M_B
    measurement_margin: float  # ns of M_V after the later of M_A, M_B


def fiber_delay(length: float, speed: float = 0.2) -> float:
    """Propagation delay of a fiber in ns."""
    if speed <= 0:
        raise ValueError("fiber speed must be positive")
    if length < 0:
        raise ValueError("fiber length must be non-negative")
    return length / speed


def event_times(budget: DelayBudget | None = None) -> EventTimes:
    """The chronology of ``budget``, by default ``DelayBudget()``."""
    budget = DelayBudget() if budget is None else budget
    m_ab = fiber_delay(budget.fiber_length_ab, budget.fiber_speed)
    m_v = fiber_delay(budget.fiber_length_v, budget.fiber_speed)
    upper = (
        m_v
        - budget.eom_driver_delay
        - budget.qrng_delay
        - budget.cable_delay
        - budget.autocorr_allowance
    )
    lower = upper - budget.eom_on_time
    if lower < 0 or upper < 0:
        raise ValueError("delay budget yields a negative choice window")
    return EventTimes(
        g_1=0.0,
        g_2=budget.pair2_generation_offset,
        m_alice=m_ab,
        m_bob=m_ab,
        choice_lower=lower,
        choice_upper=upper,
        m_victor=m_v,
    )


def check_delayed_choice(times: EventTimes) -> DelayedChoiceReport:
    """Victor's choice and measurement must lie strictly after Alice's and
    Bob's measurements."""
    latest_ab = max(times.m_alice, times.m_bob)
    return DelayedChoiceReport(
        satisfied=times.choice_lower > latest_ab and times.m_victor > latest_ab,
        choice_margin=(times.choice_lower - latest_ab, times.choice_upper - latest_ab),
        measurement_margin=times.m_victor - latest_ab,
    )
