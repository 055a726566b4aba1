"""Windowed input-output pair construction with regularization and noise.

Each sample anchored at index p pairs an input block X of n past motion
samples (and, when waves are used, n wave samples shifted forward by the
wave lag w) with a target Y of the next m motion samples:

    motion rows:  t_{p-n} .. t_{p-1}
    wave rows:    t_{p+w-n} .. t_{p+w-1}
    target:       t_p .. t_{p+m-1}

``build_pairs`` owns this layout, for datasets and forecasts alike, and
holds wave and target to the motion's time axis (length, dt, start time).
It standardizes channels by campaign-wide constants A (mean of per-run
means) and B (mean of per-run standard deviations); ``WindowedDataset.restore``
undoes it on the motion channel.  It cuts windows as read-only strided views;
``concat_datasets`` is the one copy of window bytes, so every set that
``role_dataset`` (each role's set) and ``load_dataset`` return owns
C-contiguous, writeable X and Y.
Noise-extended sets add seeded Gaussian noise (std I * sigma of the clean
series) to the inputs only; targets are windowed once, clean.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (FLOAT, POSITIVE, STR, ConfigurationError,
                     DegenerateDataError, DomainError, at_least, one_of,
                     read_document)
from .timeseries import TimeSeries, load_rows, same_time, write_csv
from .vessel import CHANNELS, MOTIONS, CampaignRun

# What a model's windows are: shared by dataset manifests and checkpoint metadata
WINDOW_SPEC = {
    "channel": one_of(*MOTIONS), "n": at_least(1), "m": at_least(1),
    "w": at_least(0), "r": one_of(1, 2), "dt": POSITIVE,
    "norm": {"A": {ch: FLOAT for ch in CHANNELS}, "B": {ch: POSITIVE for ch in CHANNELS}},
}


@dataclass(frozen=True)
class NormalizationConstants:
    """Per-channel affine standardization constants, campaign-wide."""

    A: dict[str, float]
    B: dict[str, float]


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


def noise_key(level: float) -> float:
    """A noise level rounded to 12 decimals: ``1`` and ``1.0`` (or ``0.1 + 0.2``
    and ``0.3``) share a key, so they draw the same noise."""
    return round(float(level), 12)


def noise_seed(run_id: str, channel: str, level: float, base_seed: int = 0) -> int:
    """Stable seed derived from (run id, channel, ``noise_key(level)``)."""
    key = f"{base_seed}:{run_id}:{channel}:{noise_key(level)!r}"
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

    def restore(self, values: np.ndarray) -> np.ndarray:
        """Motion-channel values in float64 physical units: the inverse of ``regularize``."""
        return (np.asarray(values, dtype=np.float64) * self.norm.B[self.channel]
                + self.norm.A[self.channel])


def window_spec(ds: WindowedDataset) -> dict:
    """The ``WINDOW_SPEC`` values of a dataset's windows, in that table's order."""
    return {key: asdict(ds.norm) if key == "norm" else getattr(ds, key)
            for key in WINDOW_SPEC}


def pair_count(L: int, n: int, m: int, w: int) -> int:
    """Number of valid anchors for a series of length L."""
    return max(0, L - n - max(m, w) + 1)


def build_pairs(motion: TimeSeries, wave: TimeSeries | None, n: int, m: int,
                w: int, norm: NormalizationConstants | None = None,
                channel: str = "heave", run_id: str = "run",
                stride: int = 1, target: TimeSeries | None = None
                ) -> WindowedDataset:
    """Standardize one run by ``norm`` (default: identity) and cut its
    windows: X holds motion rows p-n..p-1 and, with ``wave``, wave rows
    p+w-n..p+w-1; Y is cut from ``target`` (default: ``motion``).
    ``stride`` subsamples the anchors; stride 1 keeps every valid window.

    X and Y are read-only strided views of the standardized series (without
    ``wave`` and ``target``, of the same one); ``concat_datasets`` copies them."""
    if n < 1 or m < 1 or w < 0:
        raise DomainError(f"need n, m >= 1 and w >= 0, got n={n} m={m} w={w}")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    L = len(motion)
    for other in (wave, target):
        if other is not None and not (len(other) == L and same_time(
                [other.dt, other.start_time], [motion.dt, motion.start_time])):
            raise DomainError(f"series on two time axes: {L} samples at dt {motion.dt!r} s "
                              f"from {motion.start_time!r} s, {len(other)} samples at dt "
                              f"{other.dt!r} s from {other.start_time!r} s")
    count = pair_count(L, n, m, w)
    if not count:
        raise DomainError(
            f"series of length {L} too short for n={n}, m={m}, w={w}")
    anchors = np.arange(n, n + count, stride)
    norm = norm or NormalizationConstants(A={channel: 0.0, "wave": 0.0},
                                          B={channel: 1.0, "wave": 1.0})
    A, B = norm.A, norm.B
    x = regularize(motion, A[channel], B[channel]).values
    y = x if target is None else regularize(target, A[channel], B[channel]).values
    # Row k holds motion row k and wave row k + w, so the window of anchor
    # p = n + j * stride starts at row j * stride: a basic slice, no gather.
    feat = x[:L - w, None] if wave is None else np.column_stack(
        [x[:L - w], regularize(wave, A["wave"], B["wave"]).values[w:]])
    X = sliding_window_view(feat, n, axis=0)[:count:stride].transpose(0, 2, 1)
    return WindowedDataset(X=X, Y=sliding_window_view(y, m)[n:n + count:stride],
                           anchors=anchors, run_ids=[run_id] * len(anchors), n=n,
                           m=m, w=w, channel=channel, norm=norm, dt=motion.dt)


def concat_datasets(parts: list[WindowedDataset]) -> WindowedDataset:
    """Merge per-run datasets sharing (n, m, w, r), in order, into one set
    that owns C-contiguous copies of their windows."""
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
        norm=first.norm, dt=first.dt)


def role_dataset(campaign: list[CampaignRun], role: str, channel: str, n: int,
                 m: int, w: int, noise_levels: list[float],
                 norm: NormalizationConstants, use_wave: bool = True,
                 noise_base_seed: int = 0, stride: int = 1) -> WindowedDataset:
    """Pool the campaign's ``role`` runs, in id order, crossed with noise levels.

    Inputs are noisy at each level; targets are always the clean series.
    The set's ``noise_level`` is the largest level.
    """
    if channel not in MOTIONS:
        raise DomainError(f"channel must be heave or surge, got {channel!r}")
    if not noise_levels:
        raise ConfigurationError("noise_levels must be non-empty")
    runs = sorted((r for r in campaign if r.condition.dataset_role == role),
                  key=lambda r: r.condition.id)
    if not runs:
        raise ConfigurationError(f"campaign has no {role}-role run")

    def noisy(run: CampaignRun, ch: str, level: float) -> TimeSeries:
        seed = noise_seed(run.condition.id, ch, level, noise_base_seed)
        return add_noise(run.channel(ch), level, seed)

    ds = concat_datasets([
        build_pairs(noisy(run, channel, level),
                    noisy(run, "wave", level) if use_wave else None,
                    n, m, w, norm=norm, channel=channel, run_id=run.condition.id,
                    stride=stride, target=run.channel(channel))
        for run in runs for level in noise_levels
    ])
    ds.role, ds.noise_level = role, max(noise_levels)
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

    A sibling ``<path>.manifest.json`` records the ``window_spec``, the role,
    the noise level and each sample's run id.
    """
    path = Path(path)
    x_cols = [f"x_{t}_{c}" for t in range(ds.n) for c in range(ds.r)]
    y_cols = [f"y_{t}" for t in range(ds.m)]
    write_csv(path, ",".join(["p"] + x_cols + y_cols),
              ([p, *x, *y] for p, x, y in zip(
                  ds.anchors, ds.X.reshape(len(ds), ds.n * ds.r).tolist(), ds.Y.tolist())))
    manifest = {"format_version": DATASET_VERSION, **window_spec(ds), "role": ds.role,
                "noise_level": ds.noise_level, "samples": len(ds), "run_ids": ds.run_ids}
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
    if len(manifest["run_ids"]) != manifest["samples"]:
        raise DomainError(f"{path}: {len(manifest['run_ids'])} run ids, but the manifest "
                          f"declares {manifest['samples']} samples")
    if data.shape[1] != 1 + n * r + m:
        raise DomainError(f"{path}: column count does not match manifest")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: non-finite value")
    p = data[:, 0]
    if not np.all((p == np.floor(p)) & (n <= p) & (p < 2**53)):
        raise DomainError(f"{path}: column p must hold whole numbers in [{n}, 2**53)")
    anchors = p.astype(int)
    X = data[:, 1:1 + n * r].reshape(-1, n, r).copy()
    Y = data[:, 1 + n * r:].copy()
    return WindowedDataset(
        X=X, Y=Y, anchors=anchors, run_ids=list(manifest["run_ids"]),
        n=n, m=m, w=manifest["w"], channel=manifest["channel"],
        norm=NormalizationConstants(**manifest["norm"]),
        role=manifest["role"], noise_level=manifest["noise_level"],
        dt=manifest["dt"])
