"""Uniformly sampled scalar time series with CSV round trip."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError


@dataclass
class TimeSeries:
    """A uniformly sampled scalar signal (wave elevation, heave, surge...).

    ``values`` are stored as a float64 array; ``dt`` is the sample
    interval in seconds, ``unit`` a free-form label such as ``"m"``.
    """

    dt: float
    values: np.ndarray
    unit: str = "m"
    start_time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not self.dt > 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.values.ndim != 1 or self.values.size < 2:
            raise DomainError("values must be a 1-D array with at least 2 samples")

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.start_time + self.dt * np.arange(self.values.size)

    @property
    def duration(self) -> float:
        return self.dt * (self.values.size - 1)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Copy of this series with the same sampling but new samples."""
        return TimeSeries(dt=self.dt, values=np.asarray(values, dtype=np.float64),
                          unit=self.unit, start_time=self.start_time)

    def save_csv(self, path) -> None:
        path = Path(path)
        with path.open("w") as f:
            f.write("time_s,value\n")
            for t, v in zip(self.times, self.values):
                f.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def load_csv(cls, path, unit: str = "m") -> "TimeSeries":
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64)
        except ValueError as exc:
            raise DomainError(f"{path}: {exc}") from exc
        if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != 2:
            raise DomainError(f"{path}: expected two columns and at least two rows")
        if not np.all(np.isfinite(data)):
            raise DomainError(f"{path}: non-finite value")
        t, v = data[:, 0], data[:, 1]
        steps = np.diff(t)
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-9):
            raise DomainError(f"{path}: non-uniform sampling")
        return cls(dt=dt, values=v, unit=unit, start_time=float(t[0]))
