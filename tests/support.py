"""Helpers that only the tests use: reference constants, an inverse of
``regularize``, summary accessors and a Welch spectrum estimator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import welch

from semisub_motion.errors import DomainError
from semisub_motion.timeseries import TimeSeries

# Reference standardization constants from the original basin campaign
# (units: cm).  Kept as a fixture for comparison; the synthetic campaign
# computes its own constants with the same procedure.
REFERENCE_NORM_CM = {
    "heave": (-0.86, 2.264),
    "surge": (-100.341, 7.876),
    "wave": (0.422, 6.766),
}


def deregularize(series: TimeSeries, A: float, B: float) -> TimeSeries:
    """Exact inverse of regularize: x * B + A."""
    if not B > 0:
        raise DomainError(f"scale B must be positive, got {B}")
    return series.with_values(series.values * B + A)


def overfit_gap(cell) -> float:
    """Mean training accuracy minus mean test accuracy of a trained cell."""
    return (cell.train_report.accuracy.summary.mean
            - cell.test_report.accuracy.summary.mean)


def as_tuple(summary) -> tuple[float, float, float, float, float]:
    """A boxplot summary as (min, q1, median, q3, max)."""
    return (summary.min, summary.q1, summary.median, summary.q3, summary.max)


@dataclass
class SpectrumEstimate:
    """Averaged-periodogram estimate of S(omega)."""

    frequencies: np.ndarray  # angular frequency grid, rad/s, strictly increasing
    densities: np.ndarray    # m^2 s
    segment_count: int

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def peak_frequency(self) -> float:
        return float(self.frequencies[np.argmax(self.densities)])

    def integral(self) -> float:
        return float(np.trapezoid(self.densities, self.frequencies))


def estimate_spectrum(series: TimeSeries, segment_length: int = 512) -> SpectrumEstimate:
    """Welch estimate of S(omega): mean-removed, Hann window, 50% overlap.

    Satisfies Parseval: the trapezoidal integral of the estimate matches the
    sample variance to within the estimator bias (about 10%).
    """
    n = len(series)
    if segment_length < 2 or n < 2 * segment_length:
        raise DomainError(
            f"series length {n} must be at least twice segment_length {segment_length}")
    x = series.values - series.values.mean()
    freqs, psd = welch(x, fs=1.0 / series.dt, window="hann",
                       nperseg=segment_length, noverlap=segment_length // 2,
                       detrend=False)
    # one-sided density per Hz -> per rad/s
    omega = 2.0 * np.pi * freqs
    density = psd / (2.0 * np.pi)
    step = segment_length // 2
    segment_count = 1 + (n - segment_length) // step
    return SpectrumEstimate(frequencies=omega, densities=density,
                            segment_count=segment_count)
