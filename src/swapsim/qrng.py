"""Simulated quantum random number generator.

A weak light beam splits on a balanced beam splitter; two photomultipliers
fire as independent Poisson processes.  A detection on PM '0' sets the bit
to 0, a detection on PM '1' flips it to 1, so the bit is the identity of
the most recent firing detector (a random telegraph process with flip rate
equal to the per-detector rate).  The bit is sampled at a fixed clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHUNK = 4096


@dataclass
class QrngConfig:
    detection_rate: float = 1.0 / (2 * 10.7)  # events/ns per detector
    sample_period: float = 500.0  # ns (2 MHz sampling clock)
    autocorrelation_target: float = 10.7  # ns
    seed: object = 0  # anything np.random.default_rng accepts

    def __post_init__(self):
        if self.detection_rate <= 0:
            raise ValueError("detection_rate must be positive")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")


@dataclass
class BitSample:
    bit: int
    sample_time: float
    last_toggle_time: float


class QrngSimulator:
    """Stateful sampled bit stream from the two-detector toggle model.

    Single-owner: one instance per consumer.  Identical config and seed
    reproduce the identical stream.
    """

    def __init__(self, config: QrngConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        # Initial bit is drawn uniformly (the toggle has been running forever).
        self._bit = int(self._rng.integers(0, 2))
        self._time = 0.0
        self._last_toggle = 0.0
        self._buf_bits = np.empty(0, dtype=np.uint8)
        self._buf_times = np.empty(0)
        self._buf_toggles = np.empty(0)
        self._cursor = 0

    def _fill(self, n: int) -> None:
        r = self.config.detection_rate
        period = self.config.sample_period
        rng = self._rng
        counts = rng.poisson(2.0 * r * period, size=n)
        detectors = rng.integers(0, 2, size=n).astype(np.uint8)
        # Offset of the latest of k uniform event times within the window.
        u = rng.random(size=n)
        offsets = period * u ** (1.0 / np.maximum(counts, 1))
        times = self._time + period * np.arange(1, n + 1)
        has = counts > 0
        # The last event pins the bit value; hold windows carry it forward.
        last = np.maximum.accumulate(np.where(has, np.arange(n), -1))
        bits_out = np.where(last >= 0, detectors[np.maximum(last, 0)], self._bit)
        event_times = times - period + offsets
        toggles = np.where(
            last >= 0, event_times[np.maximum(last, 0)], self._last_toggle
        )
        self._buf_bits = bits_out.astype(np.uint8)
        self._buf_times = times
        self._buf_toggles = toggles
        self._cursor = 0
        self._bit = int(bits_out[-1])
        self._last_toggle = float(toggles[-1])
        self._time = float(times[-1])

    def next_bit(self) -> BitSample:
        if self._cursor >= self._buf_bits.size:
            self._fill(1)
        i = self._cursor
        self._cursor += 1
        return BitSample(
            int(self._buf_bits[i]),
            float(self._buf_times[i]),
            float(self._buf_toggles[i]),
        )

    def bits(self, n: int) -> np.ndarray:
        """The next ``n`` sampled bit values as a uint8 array."""
        leftover = self._buf_bits[self._cursor :]
        if leftover.size >= n:
            self._cursor += n
            return leftover[:n].copy()
        need = n - leftover.size
        head = leftover.copy()
        self._fill(need)
        self._cursor = need
        return np.concatenate([head, self._buf_bits[:need]])


def bias(stream) -> tuple[float, float]:
    """Fraction of ones and its binomial standard error."""
    bits_arr = np.asarray(stream)
    n = bits_arr.size
    if n == 0:
        raise ValueError("empty bit stream")
    p = float(bits_arr.mean())
    return p, float(np.sqrt(p * (1.0 - p) / n))


def autocorrelation(stream, lag: float, sample_period: float) -> float:
    """Pearson autocorrelation of a uniformly sampled bit signal at ``lag`` ns.

    The lag is rounded to the nearest whole number of sample periods.
    """
    bits_arr = np.asarray(stream, dtype=float)
    k = int(round(lag / sample_period))
    if k == 0:
        return 1.0
    if bits_arr.size <= k + 1:
        raise ValueError("stream too short for the requested lag")
    a, b = bits_arr[:-k], bits_arr[k:]
    if a.std() == 0 or b.std() == 0:
        raise ValueError("zero-variance stream has undefined autocorrelation")
    return float(np.corrcoef(a, b)[0, 1])


def measure_autocorrelation_time(
    rate: float, seed: int = 0, n_samples: int = 200_000, oversample: float = 8.0
) -> float:
    """1/e autocorrelation time of the toggle process, by direct simulation."""
    dt = 1.0 / (2.0 * rate * oversample)  # fine sampling vs the flip rate
    gen = QrngSimulator(QrngConfig(detection_rate=rate, sample_period=dt, seed=seed))
    stream = gen.bits(n_samples)
    target = 1.0 / np.e
    prev_lag, prev_val = 0.0, 1.0
    for k in range(1, n_samples // 4):
        val = autocorrelation(stream, k * dt, dt)
        if val < target:
            # Linear interpolation across the 1/e crossing.
            frac = (prev_val - target) / (prev_val - val)
            return prev_lag + frac * (k * dt - prev_lag)
        prev_lag, prev_val = k * dt, val
    raise RuntimeError("autocorrelation did not decay below 1/e")


def calibrate_rate(
    target_tau: float,
    rate_lo: float | None = None,
    rate_hi: float | None = None,
    seed: int = 0,
    tol: float = 0.02,
) -> float:
    """Per-detector rate whose measured 1/e autocorrelation time hits ``target_tau``.

    Bisection against the simulator itself; the analytic telegraph value
    tau = 1/(2 r) seeds the bracket.
    """
    if target_tau <= 0:
        raise ValueError("target_tau must be positive")
    if rate_lo is None:
        rate_lo = 0.2 / target_tau
    if rate_hi is None:
        rate_hi = 2.0 / target_tau
    tau_lo = measure_autocorrelation_time(rate_lo, seed)
    tau_hi = measure_autocorrelation_time(rate_hi, seed)
    # Measured tau decreases with rate.
    if not (tau_hi < target_tau < tau_lo):
        raise ValueError("search bounds do not bracket the target")
    for _ in range(40):
        mid = np.sqrt(rate_lo * rate_hi)
        tau_mid = measure_autocorrelation_time(mid, seed)
        if abs(tau_mid - target_tau) <= tol * target_tau:
            return float(mid)
        if tau_mid > target_tau:
            rate_lo = mid
        else:
            rate_hi = mid
    return float(np.sqrt(rate_lo * rate_hi))

