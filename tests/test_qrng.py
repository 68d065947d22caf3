import numpy as np
import pytest

from swapsim import qrng


def test_bias_of_million_bits():
    gen = qrng.QrngSimulator(qrng.QrngConfig(seed=1))
    stream = gen.bits(1_000_000)
    p, sigma = qrng.bias(stream)
    assert abs(p - 0.5) < 5 * sigma


def test_reproducible_stream():
    a = qrng.QrngSimulator(qrng.QrngConfig(seed=9)).bits(5000)
    b = qrng.QrngSimulator(qrng.QrngConfig(seed=9)).bits(5000)
    assert np.array_equal(a, b)


def test_sampled_bits_nearly_uncorrelated_at_clock_lag():
    # The telegraph autocorrelation exp(-lag/tau) is ~1e-20 at the 500 ns
    # clock with tau = 10.7 ns, so successive sampled bits look iid.
    gen = qrng.QrngSimulator(qrng.QrngConfig(seed=3))
    stream = gen.bits(200_000)
    r = qrng.autocorrelation(stream, gen.config.sample_period, gen.config.sample_period)
    assert abs(r) < 5 / np.sqrt(stream.size)


def test_autocorrelation_lag_zero():
    assert qrng.autocorrelation([0, 1, 0, 1], 0.0, 1.0) == 1.0


def test_autocorrelation_errors():
    with pytest.raises(ValueError):
        qrng.autocorrelation([0, 0, 0, 0], 1.0, 1.0)
    with pytest.raises(ValueError):
        qrng.autocorrelation([0, 1], 5.0, 1.0)
    # A negative lag would correlate the stream's first and last samples.
    with pytest.raises(ValueError, match="lag must be non-negative"):
        qrng.autocorrelation([0, 1, 1, 0, 1, 0], -1.0, 1.0)
    with pytest.raises(ValueError, match="sample_period must be positive"):
        qrng.autocorrelation([0, 1, 1, 0, 1, 0], 1.0, 0.0)
    with pytest.raises(ValueError):
        qrng.bias([])


def test_telegraph_autocorrelation_time():
    # Detections arrive at rate 2r and flip the bit half the time, so the
    # telegraph flip rate is r, autocorrelation exp(-2 r t), 1/e at 1/(2r).
    rate = 0.05
    tau = qrng.measure_autocorrelation_time(rate, seed=5, n_samples=400_000)
    expected = 1.0 / (2.0 * rate)
    assert abs(tau - expected) < 0.1 * expected

