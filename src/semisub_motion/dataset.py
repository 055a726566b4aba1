"""Windowed input-output pair construction with regularization and noise.

Each sample anchored at index p pairs an input block X of n past motion
samples (and, when waves are used, n wave samples shifted forward by the
wave lag w) with a target Y of the next m motion samples:

    motion rows:  t_{p-n} .. t_{p-1}
    wave rows:    t_{p+w-n} .. t_{p+w-1}
    target:       t_p .. t_{p+m-1}

``input_windows`` owns this input layout, for datasets and forecasts alike.
Channels are standardized by campaign-wide constants A (mean of per-run
means) and B (mean of per-run standard deviations).  ``role_dataset`` builds
each role's set.  Noise-extended sets add seeded Gaussian noise (std I * sigma
of the clean series) to the inputs only; targets are windowed once, clean.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (FLOAT, POSITIVE, STR, ConfigurationError,
                     DegenerateDataError, DomainError, at_least, one_of,
                     read_document)
from .timeseries import TimeSeries, load_rows
from .vessel import CampaignRun

CHANNELS = ("wave", "heave", "surge")
# What a model's windows are: shared by dataset manifests and checkpoint metadata
WINDOW_SPEC = {
    "channel": one_of("heave", "surge"), "n": at_least(1), "m": at_least(1),
    "w": at_least(0), "r": one_of(1, 2), "dt": POSITIVE,
    "norm": {"A": {ch: FLOAT for ch in CHANNELS}, "B": {ch: POSITIVE for ch in CHANNELS}},
}


@dataclass(frozen=True)
class NormalizationConstants:
    """Per-channel affine standardization constants, campaign-wide."""

    A: dict[str, float]
    B: dict[str, float]

    def to_dict(self) -> dict:
        return {"A": dict(self.A), "B": dict(self.B)}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationConstants":
        return cls(A=dict(d["A"]), B=dict(d["B"]))


def compute_norm_constants(campaign: list[CampaignRun]) -> NormalizationConstants:
    """A = mean of per-run means, B = mean of per-run (population) stds."""
    if not campaign:
        raise DomainError("empty campaign")
    A, B = {}, {}
    for ch in CHANNELS:
        means = [run.channel(ch).values.mean() for run in campaign]
        stds = [run.channel(ch).values.std() for run in campaign]
        A[ch] = float(np.mean(means))
        B[ch] = float(np.mean(stds))
        if not B[ch] > 0:
            raise DegenerateDataError(f"channel {ch!r} is constant across the campaign")
    return NormalizationConstants(A=A, B=B)


def regularize(series: TimeSeries, A: float, B: float) -> TimeSeries:
    """Standardize: (x - A) / B."""
    if not B > 0:
        raise DomainError(f"scale B must be positive, got {B}")
    return series.with_values((series.values - A) / B)


def noise_seed(run_id: str, channel: str, level: float, base_seed: int = 0) -> int:
    """Stable seed derived from (run id, channel, noise level).

    The level is keyed rounded to 12 decimals, so ``1`` and ``1.0`` (or
    ``0.1 + 0.2`` and ``0.3``) share a seed.
    """
    key = f"{base_seed}:{run_id}:{channel}:{round(float(level), 12)!r}"
    return zlib.crc32(key.encode())


def add_noise(series: TimeSeries, level: float, seed: int) -> TimeSeries:
    """Add zero-mean Gaussian noise with std = level * std(series)."""
    if level < 0:
        raise DomainError(f"noise level must be >= 0, got {level}")
    if level == 0:
        return series.with_values(series.values.copy())
    sigma = series.values.std()
    rng = np.random.default_rng(seed)
    return series.with_values(series.values + rng.normal(0.0, level * sigma,
                                                         series.values.size))


@dataclass
class WindowedDataset:
    """Stacked window samples: X is (N, n, r), Y is (N, m).

    Feature column 0 is the motion channel; column 1 (when r = 2) is the
    wave channel.  ``anchors`` records the anchor index p of each sample
    within its source run; ``run_ids`` the source run of each sample.
    """

    X: np.ndarray
    Y: np.ndarray
    anchors: np.ndarray
    run_ids: list[str]
    n: int
    m: int
    w: int
    channel: str
    norm: NormalizationConstants
    role: str = "training"
    noise_level: float = 0.0
    dt: float = 1.0

    @property
    def r(self) -> int:
        return self.X.shape[2]

    def __len__(self) -> int:
        return self.X.shape[0]


def window_spec(ds: WindowedDataset) -> dict:
    """The ``WINDOW_SPEC`` values of a dataset's windows, in that table's order."""
    return {key: ds.norm.to_dict() if key == "norm" else getattr(ds, key)
            for key in WINDOW_SPEC}


def pair_count(L: int, n: int, m: int, w: int) -> int:
    """Number of valid anchors for a series of length L."""
    return max(0, L - n - max(m, w) + 1)


def input_windows(motion: np.ndarray, wave: np.ndarray | None,
                  anchors: np.ndarray, n: int, w: int) -> np.ndarray:
    """Input blocks (N, n, r) at ``anchors``: motion rows p-n..p-1 and, when
    ``wave`` is given, wave rows p+w-n..p+w-1 as feature column 1."""
    blocks = [sliding_window_view(motion, n)[anchors - n]]
    if wave is not None:
        blocks.append(sliding_window_view(wave, n)[anchors - n + w])
    return np.stack(blocks, axis=2)


def build_pairs(motion: TimeSeries, wave: TimeSeries | None, n: int, m: int,
                w: int, norm: NormalizationConstants | None = None,
                channel: str = "heave", run_id: str = "run",
                role: str = "training", noise_level: float = 0.0,
                stride: int = 1, target: TimeSeries | None = None
                ) -> WindowedDataset:
    """Window one (already regularized) run into input-output pairs.

    Y is cut from ``target`` (default: ``motion``).  ``stride`` subsamples
    the anchors for desk-scale training; stride 1 keeps every valid window.
    """
    if n < 1 or m < 1 or w < 0:
        raise DomainError(f"need n, m >= 1 and w >= 0, got n={n} m={m} w={w}")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    target = motion if target is None else target
    L = len(motion)
    if (wave is not None and len(wave) != L) or len(target) != L:
        raise DomainError("motion, wave and target must have equal length")
    if pair_count(L, n, m, w) <= 0:
        raise DomainError(
            f"series of length {L} too short for n={n}, m={m}, w={w}")
    anchors = np.arange(n, L - max(m, w) + 1, stride)
    X = input_windows(motion.values, None if wave is None else wave.values,
                      anchors, n, w)
    Y = sliding_window_view(target.values, m)[anchors]
    norm = norm or NormalizationConstants(A={channel: 0.0, "wave": 0.0},
                                          B={channel: 1.0, "wave": 1.0})
    return WindowedDataset(X=X, Y=Y, anchors=anchors,
                           run_ids=[run_id] * len(anchors), n=n, m=m, w=w,
                           channel=channel, norm=norm, role=role,
                           noise_level=noise_level, dt=motion.dt)


def concat_datasets(parts: list[WindowedDataset]) -> WindowedDataset:
    """Merge per-run datasets sharing (n, m, w, r); order is preserved."""
    if not parts:
        raise DomainError("nothing to concatenate")
    first = parts[0]
    for p in parts[1:]:
        if (p.n, p.m, p.w, p.r) != (first.n, first.m, first.w, first.r):
            raise ConfigurationError("datasets have mismatched (n, m, w, r)")
    return WindowedDataset(
        X=np.concatenate([p.X for p in parts]),
        Y=np.concatenate([p.Y for p in parts]),
        anchors=np.concatenate([p.anchors for p in parts]),
        run_ids=[rid for p in parts for rid in p.run_ids],
        n=first.n, m=first.m, w=first.w, channel=first.channel,
        norm=first.norm, role=first.role, noise_level=first.noise_level,
        dt=first.dt)


def _windowed_run(run: CampaignRun, channel: str, use_wave: bool, n: int,
                  m: int, w: int, norm: NormalizationConstants,
                  noise_level: float, noise_base_seed: int, role: str,
                  stride: int) -> WindowedDataset:
    def model_input(series: TimeSeries, ch: str) -> TimeSeries:
        seed = noise_seed(run.condition.id, ch, noise_level, noise_base_seed)
        return regularize(add_noise(series, noise_level, seed), norm.A[ch], norm.B[ch])

    motion = run.channel(channel)
    return build_pairs(
        model_input(motion, channel), model_input(run.wave, "wave") if use_wave else None,
        n, m, w, norm=norm, channel=channel, run_id=run.condition.id, role=role,
        noise_level=noise_level, stride=stride,
        target=regularize(motion, norm.A[channel], norm.B[channel]))


def role_dataset(campaign: list[CampaignRun], role: str, channel: str, n: int,
                 m: int, w: int, noise_levels: list[float],
                 norm: NormalizationConstants, use_wave: bool = True,
                 noise_base_seed: int = 0, stride: int = 1) -> WindowedDataset:
    """Pool the campaign's ``role`` runs, in id order, crossed with noise levels.

    Inputs are noisy at each level; targets are always the clean series.
    The set's ``noise_level`` is the largest level.
    """
    if channel not in ("heave", "surge"):
        raise DomainError(f"channel must be heave or surge, got {channel!r}")
    if not noise_levels:
        raise ConfigurationError("noise_levels must be non-empty")
    runs = sorted((r for r in campaign if r.condition.dataset_role == role),
                  key=lambda r: r.condition.id)
    if not runs:
        raise ConfigurationError(f"campaign has no {role}-role run")
    ds = concat_datasets([
        _windowed_run(run, channel, use_wave, n, m, w, norm, level,
                      noise_base_seed, role, stride)
        for run in runs for level in noise_levels
    ])
    ds.noise_level = max(noise_levels)
    return ds


def split_campaign(campaign: list[CampaignRun], channel: str, n: int, m: int,
                   w: int, noise_levels: list[float] | None = None,
                   use_wave: bool = True,
                   norm: NormalizationConstants | None = None,
                   noise_base_seed: int = 0, stride: int = 1,
                   test_noise_level: float = 0.0,
                   ) -> tuple[WindowedDataset, WindowedDataset]:
    """Pool training-role runs (crossed with noise levels) and the test run.

    Training inputs are noisy at each requested level; targets are always
    the clean series.  The test set comes from the test-role run(s) at
    ``test_noise_level``.
    """
    norm = norm or compute_norm_constants(campaign)
    training = role_dataset(
        campaign, "training", channel, n, m, w,
        [0.0] if noise_levels is None else list(noise_levels), norm,
        use_wave, noise_base_seed, stride)
    test = role_dataset(campaign, "test", channel, n, m, w, [test_noise_level],
                        norm, use_wave, noise_base_seed, stride)
    return training, test


DATASET_VERSION = 1
DATASET_TABLE = {**WINDOW_SPEC, "role": one_of("training", "test"),
                 "noise_level": at_least(0, "float"), "samples": at_least(1),
                 "run_ids": [STR]}


def save_dataset(ds: WindowedDataset, path) -> None:
    """CSV export: one sample per row, `p, X row-major (n x r), Y (m)`.

    A sibling ``<path>.manifest.json`` records (n, m, w, r), the
    normalization constants, and the noise level.
    """
    path = Path(path)
    with path.open("w") as f:
        x_cols = [f"x_{t}_{c}" for t in range(ds.n) for c in range(ds.r)]
        y_cols = [f"y_{t}" for t in range(ds.m)]
        f.write(",".join(["p"] + x_cols + y_cols) + "\n")
        for i in range(len(ds)):
            row = [str(int(ds.anchors[i]))]
            row += [repr(float(v)) for v in ds.X[i].reshape(-1)]
            row += [repr(float(v)) for v in ds.Y[i]]
            f.write(",".join(row) + "\n")
    manifest = {
        "format_version": DATASET_VERSION, "n": ds.n, "m": ds.m, "w": ds.w, "r": ds.r,
        "channel": ds.channel, "role": ds.role, "noise_level": ds.noise_level,
        "dt": ds.dt, "norm": ds.norm.to_dict(), "samples": len(ds),
        "run_ids": ds.run_ids,
    }
    path.with_suffix(path.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2))


def load_dataset(path) -> WindowedDataset:
    """Read a ``save_dataset`` CSV, checking it against its manifest."""
    path = Path(path)
    manifest = read_document(path.with_suffix(path.suffix + ".manifest.json"),
                             DATASET_VERSION, DATASET_TABLE)
    data = load_rows(path)
    n, m, r = manifest["n"], manifest["m"], manifest["r"]
    if data.shape[0] != manifest["samples"]:
        raise DomainError(f"{path}: {data.shape[0]} rows, but the manifest "
                          f"declares {manifest['samples']} samples")
    if data.shape[1] != 1 + n * r + m:
        raise DomainError(f"{path}: column count does not match manifest")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: non-finite value")
    anchors = data[:, 0].astype(int)
    X = data[:, 1:1 + n * r].reshape(-1, n, r)
    Y = data[:, 1 + n * r:]
    return WindowedDataset(
        X=X, Y=Y, anchors=anchors, run_ids=list(manifest["run_ids"]),
        n=n, m=m, w=manifest["w"], channel=manifest["channel"],
        norm=NormalizationConstants.from_dict(manifest["norm"]),
        role=manifest["role"], noise_level=manifest["noise_level"],
        dt=manifest["dt"])
