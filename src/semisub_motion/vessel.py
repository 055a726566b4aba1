"""Surrogate heave/surge response of a moored semi-submersible.

Heave is modeled as a damped second-order low-pass filter of the incident
wave elevation: the motion stays in the wave-frequency band.  Surge is the
sum of a scaled wave-frequency component and a lightly damped slow-drift
oscillator forced by the squared low-pass envelope of the elevation, so the
low-frequency band dominates the response, as for a catenary-moored platform.

All filters use the exact zero-order-hold discretization of the continuous
system at the sample interval, so the integration is unconditionally stable
and bit-reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.signal import cont2discrete, lfilter

from .errors import (ANY, POSITIVE, STR, ConfigurationError, DomainError, Rule,
                     at_least, check, one_of, read_document)
from .timeseries import TimeSeries, same_time
from .waves import SpectrumParams, synthesize_wave

FULL_SCALE_DT = 0.775          # s, 10 Hz model-scale sampling Froude-scaled by sqrt(60)
FULL_SCALE_DURATION = 10800.0  # s, 3 h record
MOTIONS = ("heave", "surge")   # the motion channels a model can forecast
CHANNELS = ("wave", *MOTIONS)  # every recorded channel of a run


@dataclass(frozen=True)
class ResponseParams:
    """Dynamic constants of the surrogate platform.

    Defaults are tuned so that, over the default wave campaign, the heave
    standard deviation is about 0.33 of the wave standard deviation, the
    surge standard deviation about 1.16 of it, and the surge low-frequency
    variance dominates the wave-frequency variance.
    """

    heave_natural_period: float = 22.0
    heave_damping_ratio: float = 0.08
    heave_gain: float = 0.28
    surge_wf_gain: float = 0.52
    surge_natural_period: float = 180.0
    surge_damping_ratio: float = 0.05
    drift_coefficient: float = 0.093

    def __post_init__(self):
        if self.heave_natural_period <= 0 or self.surge_natural_period <= 0:
            raise DomainError("natural periods must be positive")
        for zeta in (self.heave_damping_ratio, self.surge_damping_ratio):
            if not 0 < zeta < 1:
                raise DomainError(f"damping ratio must be in (0, 1), got {zeta}")


@dataclass(frozen=True)
class WaveCondition:
    """One row of the wave campaign table; ``id`` names its CSV files."""

    id: str
    Hs: float
    Tp: float
    note: str = ""
    dataset_role: str = "training"  # "training" | "test"

    TABLE = {"id": Rule("str", "a plain file-name stem",
                        lambda v: re.fullmatch(r"[\w-]+", v) is not None),
             "Hs": POSITIVE, "Tp": POSITIVE, "note": STR,
             "dataset_role": one_of("training", "test")}

    def __post_init__(self):
        check(vars(self), self.TABLE)


def _check_unique_ids(conditions, error=ConfigurationError, where: str = "") -> None:
    ids = [c.id for c in conditions]
    if len(set(ids)) != len(ids):
        raise error(f"{where}duplicate condition ids in {ids}")


# Default campaign: 100-year and 1000-year cyclone sea states; WC2 is the
# held-out test condition and shares (Hs, Tp) with WC3 under a different seed.
DEFAULT_CONDITIONS = (
    WaveCondition("WC1", 13.4, 14.2, "100 yr short Tp", "training"),
    WaveCondition("WC2", 13.4, 14.7, "100 yr seed 1", "test"),
    WaveCondition("WC3", 13.4, 14.7, "100 yr seed 2", "training"),
    WaveCondition("WC4", 13.4, 15.7, "100 yr long Tp", "training"),
    WaveCondition("WC5", 16.9, 14.4, "1000 yr short Tp", "training"),
    WaveCondition("WC6", 16.9, 15.9, "1000 yr seed 1", "training"),
    WaveCondition("WC7", 16.9, 15.9, "1000 yr seed 2", "training"),
    WaveCondition("WC8", 16.9, 16.9, "1000 yr long Tp", "training"),
)


@dataclass
class CampaignRun:
    """Wave elevation plus simulated heave and surge for one condition."""

    condition: WaveCondition
    wave: TimeSeries
    heave: TimeSeries
    surge: TimeSeries
    seed: int

    def channel(self, name: str) -> TimeSeries:
        if name not in CHANNELS:
            raise DomainError(f"unknown channel {name!r}")
        return getattr(self, name)


def _sdof_filter(u: np.ndarray, dt: float, natural_period: float,
                 damping_ratio: float, gain: float) -> np.ndarray:
    """Response of gain*wn^2 / (s^2 + 2 zeta wn s + wn^2), ZOH-discretized."""
    wn = 2.0 * np.pi / natural_period
    num = [gain * wn**2]
    den = [1.0, 2.0 * damping_ratio * wn, wn**2]
    num_d, den_d, _ = cont2discrete((num, den), dt, method="zoh")
    return lfilter(np.atleast_1d(np.squeeze(num_d)), den_d, u)


def _lowpass(u: np.ndarray, dt: float, cutoff_omega: float) -> np.ndarray:
    """First-order low-pass, exact discretization of a = e^(-wc dt)."""
    a = np.exp(-cutoff_omega * dt)
    return lfilter([1.0 - a], [1.0, -a], u)


def _check_dt(wave: TimeSeries, natural_period: float) -> None:
    if wave.dt > natural_period / 4.0:
        raise ConfigurationError(
            f"dt={wave.dt} too coarse for natural period {natural_period} s")


def heave_response(wave: TimeSeries, params: ResponseParams = ResponseParams()) -> TimeSeries:
    """Heave as a linear single-DOF oscillator driven by the wave elevation."""
    _check_dt(wave, params.heave_natural_period)
    out = _sdof_filter(wave.values, wave.dt, params.heave_natural_period,
                       params.heave_damping_ratio, params.heave_gain)
    return wave.with_values(out)


def wave_envelope(wave: TimeSeries, params: ResponseParams = ResponseParams()) -> np.ndarray:
    """Slowly varying amplitude envelope from a low-passed squared elevation."""
    cutoff = 3.0 * 2.0 * np.pi / params.surge_natural_period
    slow = _lowpass(wave.values**2, wave.dt, cutoff)
    return np.sqrt(2.0 * np.clip(slow, 0.0, None))


def surge_response(wave: TimeSeries, params: ResponseParams = ResponseParams()) -> TimeSeries:
    """Surge: scaled wave-frequency part plus slow-drift oscillator.

    The drift oscillator is forced by drift_coefficient times the squared
    wave envelope; for a regular wave the forcing is constant and yields a
    static offset.
    """
    _check_dt(wave, params.surge_natural_period)
    env = wave_envelope(wave, params)
    forcing = params.drift_coefficient * env**2
    drift = _sdof_filter(forcing, wave.dt, params.surge_natural_period,
                         params.surge_damping_ratio, 1.0)
    return wave.with_values(params.surge_wf_gain * wave.values + drift)


def generate_campaign(conditions=DEFAULT_CONDITIONS, base_seed: int = 0,
                      params: ResponseParams = ResponseParams(),
                      duration: float = FULL_SCALE_DURATION,
                      dt: float = FULL_SCALE_DT) -> list[CampaignRun]:
    """Simulate every condition; deterministic per base_seed.

    "Seed 1"/"Seed 2" condition pairs share (Hs, Tp) but get distinct wave
    seeds, reproducing the repeated-realization design of the campaign.
    """
    _check_unique_ids(conditions)
    runs = []
    for k, cond in enumerate(conditions):
        seed = base_seed * 1000 + k
        spectrum = SpectrumParams(Hs=cond.Hs, Tp=cond.Tp)
        wave = synthesize_wave(spectrum, duration, dt, seed)
        runs.append(CampaignRun(condition=cond, wave=wave,
                                heave=heave_response(wave, params),
                                surge=surge_response(wave, params),
                                seed=seed))
    return runs


CAMPAIGN_VERSION = 1
CAMPAIGN_TABLE = {"response_params?": ANY, "runs": [{
    "condition": WaveCondition.TABLE, "seed": at_least(0), "dt": POSITIVE,
    "samples": at_least(2)}]}


def save_campaign(runs: list[CampaignRun], directory,
                  params: ResponseParams = ResponseParams()) -> None:
    """One CSV per channel per run plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": CAMPAIGN_VERSION, "runs": [],
                "response_params": asdict(params)}
    for run in runs:
        for channel in CHANNELS:
            run.channel(channel).save_csv(directory / f"{run.condition.id}_{channel}.csv")
        manifest["runs"].append({
            "condition": asdict(run.condition),
            "seed": run.seed,
            "dt": run.wave.dt,
            "samples": len(run.wave),
        })
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_campaign(directory) -> list[CampaignRun]:
    """Read a ``save_campaign`` directory, checking each CSV against its manifest
    and against the campaign's one time axis: the first CSV's dt and start time."""
    directory = Path(directory)
    path = directory / "manifest.json"
    runs = []
    for e in read_document(path, CAMPAIGN_VERSION, CAMPAIGN_TABLE)["runs"]:
        cond = WaveCondition(**e["condition"])
        series = {ch: TimeSeries.load_csv(directory / f"{cond.id}_{ch}.csv")
                  for ch in CHANNELS}
        axis = runs[0].wave if runs else series["wave"]
        for ch, ts in series.items():
            csv = directory / f"{cond.id}_{ch}.csv"
            if not (ts.values.size == e["samples"] and same_time(ts.dt, e["dt"])):
                raise DomainError(f"{csv}: {ts.values.size} samples at dt {ts.dt!r}, not "
                                  f"the manifest's {e['samples']!r} at {e['dt']!r}")
            if not same_time([ts.dt, ts.start_time], [axis.dt, axis.start_time]):
                raise DomainError(f"{csv}: dt {ts.dt!r} from {ts.start_time!r} s, not the "
                                  f"campaign's dt {axis.dt!r} from {axis.start_time!r} s")
        runs.append(CampaignRun(condition=cond, seed=e["seed"], **series))
    _check_unique_ids([r.condition for r in runs], DomainError, f"{path}: ")
    return runs
