import pytest

from swapsim import timeline


def test_default_event_times():
    times = timeline.event_times(timeline.DelayBudget())
    assert times.m_alice == 35.0
    assert times.m_bob == 35.0
    assert times.m_victor == 520.0
    assert times.choice_lower == 49.0
    assert times.choice_upper == 348.0
    assert times.g_1 == 0.0
    assert times.g_2 == 1.6


def test_default_margins():
    report = timeline.check_delayed_choice(timeline.event_times())
    assert report.satisfied
    assert report.choice_margin == (14.0, 313.0)
    assert report.measurement_margin == 485.0


def test_window_width_equals_on_time():
    for on_time in (100.0, 299.0, 340.0):
        budget = timeline.DelayBudget(eom_on_time=on_time)
        times = timeline.event_times(budget)
        assert times.choice_upper - times.choice_lower == pytest.approx(on_time)


def test_fiber_delay():
    assert timeline.fiber_delay(104.0, 0.2) == 520.0
    assert timeline.fiber_delay(0.0) == 0.0
    with pytest.raises(ValueError):
        timeline.fiber_delay(-1.0)
    with pytest.raises(ValueError):
        timeline.fiber_delay(10.0, 0.0)


def test_negative_window_rejected():
    with pytest.raises(ValueError, match="negative choice window"):
        timeline.DelayBudget(fiber_length_v=10.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        timeline.DelayBudget(fiber_speed=-0.2)
    with pytest.raises(ValueError):
        timeline.DelayBudget(qrng_delay=-1.0)
    # A bool is no delay: eom_on_time=True would open a 1 ns choice window.
    with pytest.raises(ValueError, match="eom_on_time must be a number, got True"):
        timeline.DelayBudget(eom_on_time=True)
    with pytest.raises(ValueError, match="fiber_speed must be a number, got '0.2'"):
        timeline.DelayBudget(fiber_speed="0.2")


def test_event_times_invariants():
    with pytest.raises(ValueError):
        timeline.EventTimes(
            g_1=1.0, g_2=0.0, m_alice=35.0, m_bob=35.0,
            choice_lower=49.0, choice_upper=348.0, m_victor=520.0,
        )
    with pytest.raises(ValueError):
        timeline.EventTimes(
            g_1=0.0, g_2=0.0, m_alice=35.0, m_bob=35.0,
            choice_lower=400.0, choice_upper=348.0, m_victor=520.0,
        )


def test_short_victor_fiber_breaks_delayed_choice():
    # With a barely long enough fiber the window opens before Alice and Bob
    # have measured, so the delayed-choice condition fails.
    budget = timeline.DelayBudget(fiber_length_v=70.0, eom_on_time=150.0)
    report = timeline.check_delayed_choice(timeline.event_times(budget))
    assert not report.satisfied
