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


@dataclass
class QrngConfig:
    detection_rate: float = 1.0 / (2 * 10.7)  # events/ns per detector
    sample_period: float = 500.0  # ns (2 MHz sampling clock)
    seed: object = 0  # anything np.random.default_rng accepts

    def __post_init__(self):
        if self.detection_rate <= 0:
            raise ValueError("detection_rate must be positive")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")


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

    def bits(self, n: int) -> np.ndarray:
        """The next ``n`` sampled bit values as a uint8 array."""
        rng = self._rng
        counts = rng.poisson(2.0 * self.config.detection_rate * self.config.sample_period, size=n)
        detectors = rng.integers(0, 2, size=n).astype(np.uint8)
        # The last detection up to each sample pins the bit; windows without
        # one hold the previous value.
        last = np.maximum.accumulate(np.where(counts > 0, np.arange(n), -1))
        out = np.where(last >= 0, detectors[np.maximum(last, 0)], self._bit).astype(np.uint8)
        if n:
            self._bit = int(out[-1])
        return out


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
    if lag < 0:
        raise ValueError(f"lag must be non-negative, got {lag}")
    if sample_period <= 0:
        raise ValueError(f"sample_period must be positive, got {sample_period}")
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

