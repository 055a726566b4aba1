"""JONSWAP spectrum evaluation and irregular wave synthesis.

The spectral density is

    S(w) = alpha * Hs^2 * (w^-5 / wp^-4) * exp(-1.25 (w/wp)^-4)
           * gamma ** exp(-(w - wp)^2 / (2 tau^2 wp^2))

with tau = 0.09 below the peak and 0.07 above it.  ``alpha`` is fixed by
normalizing the zeroth spectral moment to Hs^2/16, so that the significant
height 4*sqrt(m0) equals Hs by construction.

Irregular waves are realized by random-phase harmonic superposition over an
equal-width frequency grid with seeded intra-bin jitter (the jitter prevents
the series from repeating within a 3 h record).  The harmonic sum runs in
column blocks of about ``BLOCK_COLUMNS`` samples on one worker thread per
core the process may use; each column still sums its bins in order, so the
output is bit-identical to the sum of one (bins, samples) matrix.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .timeseries import TimeSeries

TAU_LOW = 0.09   # shape parameter below the peak frequency
TAU_HIGH = 0.07  # shape parameter above the peak frequency

# Documented calibration grid: alpha is chosen so the trapezoidal integral of
# S over omega in [0.05, 10] * wp on this grid equals Hs^2 / 16.
CALIBRATION_BAND = (0.05, 10.0)
CALIBRATION_POINTS = 40001

# Synthesis band and its bin count.
SYNTHESIS_BAND = (0.25, 4.0)
BIN_COUNT = 256
# Samples per column block of the harmonic sum (each block is >= 2 wide).
BLOCK_COLUMNS = 1024


@dataclass(frozen=True)
class SpectrumParams:
    """JONSWAP parameters; ``alpha`` is set on construction by moment normalization."""

    Hs: float
    Tp: float
    gamma: float = 2.4
    tau_low: float = TAU_LOW
    tau_high: float = TAU_HIGH
    alpha: float = field(init=False)

    def __post_init__(self):
        if not (self.Hs >= 0 and np.isfinite(self.Hs)):
            raise DomainError(f"Hs must be >= 0, got {self.Hs}")
        if not (self.Tp > 0 and np.isfinite(self.Tp)):
            raise DomainError(f"Tp must be positive, got {self.Tp}")
        if not self.gamma >= 1:
            raise DomainError(f"gamma must be >= 1, got {self.gamma}")
        if not (self.tau_low > 0 and self.tau_high > 0):
            raise DomainError("shape parameters must be positive")
        object.__setattr__(self, "alpha", calibrate_alpha(self))

    @property
    def omega_p(self) -> float:
        return 2.0 * np.pi / self.Tp


def _density_shape(omega: np.ndarray, params: SpectrumParams) -> np.ndarray:
    """S / (alpha * Hs^2) on a positive omega grid."""
    wp = params.omega_p
    tau = np.where(omega < wp, params.tau_low, params.tau_high)
    with np.errstate(divide="ignore", over="ignore"):
        ratio4 = (omega / wp) ** -4.0
        decay = np.where(np.isfinite(ratio4), np.exp(-1.25 * ratio4), 0.0)
    peak_arg = np.exp(-((omega - wp) ** 2) / (2.0 * tau**2 * wp**2))
    with np.errstate(divide="ignore"):
        base = np.where(omega > 0, omega**-5.0 / wp**-4.0, 0.0)
    return np.where(omega > 0, base * decay * params.gamma**peak_arg, 0.0)


def jonswap_density(omega, params: SpectrumParams) -> np.ndarray | float:
    """Evaluate the calibrated JONSWAP density at omega (rad/s, scalar or array)."""
    w = np.asarray(omega, dtype=np.float64)
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DomainError("omega must be finite and non-negative")
    out = params.alpha * params.Hs**2 * _density_shape(w, params)
    return float(out) if np.isscalar(omega) else out


def calibrate_alpha(params: SpectrumParams) -> float:
    """alpha fixing the zeroth moment to Hs^2/16 on the documented grid.

    The density is linear in alpha, so the normalization is a single
    quotient; no iteration is needed.
    """
    wp = params.omega_p
    grid = np.linspace(CALIBRATION_BAND[0] * wp, CALIBRATION_BAND[1] * wp,
                       CALIBRATION_POINTS)
    unit_moment = np.trapezoid(_density_shape(grid, params), grid)
    if not (np.isfinite(unit_moment) and unit_moment > 0):
        raise DomainError("degenerate spectrum: zero or non-finite moment")
    # m0 = alpha * Hs^2 * unit_moment = Hs^2 / 16  =>  alpha independent of Hs
    return 1.0 / (16.0 * unit_moment)


def synthesize_wave(params: SpectrumParams, duration: float, dt: float,
                    seed: int) -> TimeSeries:
    """Seeded random-phase superposition following the calibrated spectrum.

    Uses ``BIN_COUNT`` equal-width bins over [0.25, 4] * wp with uniform
    intra-bin frequency jitter; amplitudes are sqrt(2 S(w_k) dw).
    Deterministic per (params, duration, dt, seed).
    """
    if duration <= 0 or dt <= 0:
        raise DomainError("duration and dt must be positive")
    wp = params.omega_p
    omega_max = SYNTHESIS_BAND[1] * wp
    if dt > np.pi / omega_max:
        raise ConfigurationError(
            f"dt={dt} too coarse to resolve omega_max={omega_max:.3f} rad/s "
            f"(Nyquist limit {np.pi / omega_max:.3f} s)")
    n_samples = int(round(duration / dt))
    t = dt * np.arange(n_samples)
    if params.Hs == 0:
        return TimeSeries(dt=dt, values=np.zeros(n_samples))
    edges = np.linspace(SYNTHESIS_BAND[0] * wp, omega_max, BIN_COUNT + 1)
    d_omega = np.diff(edges)
    rng = np.random.default_rng(seed)
    omegas = edges[:-1] + rng.uniform(0.0, 1.0, BIN_COUNT) * d_omega
    phases = rng.uniform(0.0, 2.0 * np.pi, BIN_COUNT)
    amplitudes = np.sqrt(2.0 * jonswap_density(omegas, params) * d_omega)
    values = np.empty(n_samples)

    def blocks(bounds, buf):  # sum the columns between each pair of bounds into values
        for lo, hi in zip(bounds, bounds[1:]):
            block = buf[:BIN_COUNT * (hi - lo)].reshape(BIN_COUNT, hi - lo)
            np.multiply(omegas[:, None], t[lo:hi], out=block)
            block += phases[:, None]
            np.cos(block, out=block)
            block *= amplitudes[:, None]
            block.sum(axis=0, out=values[lo:hi])

    # near-equal blocks, >= 2 columns unless the wave is 1 sample (a 1-column
    # sum is pairwise: other bits); each worker sums one contiguous run of
    # blocks in a buffer allocated here, under a fresh copy of the caller's
    # context, which holds numpy's error state
    count = max(1, round(n_samples / BLOCK_COLUMNS))
    bounds = [n_samples * k // count for k in range(count + 1)]
    workers = min(len(os.sched_getaffinity(0)), count)
    width = -(-n_samples // count)
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(contextvars.copy_context().run, blocks,
                                   bounds[count * j // workers:count * (j + 1) // workers + 1],
                                   np.empty(BIN_COUNT * width))
                       for j in range(workers)]:
            future.result()
    return TimeSeries(dt=dt, values=values)

