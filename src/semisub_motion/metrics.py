"""Area-ratio prediction accuracy and window-level evaluation summaries.

For one prediction window the accuracy is

    Acc = 1 - | 1 - Area(pred - mean(pred)) / Area(truth - mean(truth)) |

where Area(v) is the trapezoidal integral of |v| over the window and the
means are per-window.  Acc is always <= 1 and offset-invariant; the sample
interval cancels in the ratio.  Windows whose truth has zero deviation area
are degenerate (the ratio is undefined) and are excluded from summaries with
their fraction reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import WindowedDataset
from .errors import DomainError
from .network import Network, forward

# A window counts as flat when its deviation area is this fraction of its
# absolute scale (exactly zero for truly constant windows).
_FLAT_RTOL = 1e-12


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary plus mean; quartiles by linear interpolation."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


@dataclass
class AccuracyResult:
    """Per-window accuracies, the anchors they score, and their summary."""

    per_window: np.ndarray
    anchors: np.ndarray
    summary: BoxplotSummary
    excluded_fraction: float = 0.0


@dataclass
class EvaluationReport:
    """One evaluated dataset: accuracies plus identifying metadata."""

    accuracy: AccuracyResult
    channel: str
    n: int
    m: int
    w: int
    noise_level: float


def _deviation_area(v: np.ndarray, dt: float) -> np.ndarray:
    return np.trapezoid(np.abs(v - v.mean(axis=-1, keepdims=True)), dx=dt, axis=-1)


def _scores(pred: np.ndarray, truth: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Area-ratio Acc of each window along the last axis, and the non-flat mask.

    Flat truth windows get a meaningless score and ``kept`` False; this is
    the one place that decides which windows are degenerate.
    """
    truth_area = _deviation_area(truth, dt)
    scale = np.maximum(1.0, np.abs(truth).max(axis=-1))
    kept = ~(truth_area <= _FLAT_RTOL * scale * dt * truth.shape[-1])
    ratio = _deviation_area(pred, dt) / np.where(kept, truth_area, 1.0)
    return 1.0 - np.abs(1.0 - ratio), kept


def accuracy(pred: np.ndarray, truth: np.ndarray, dt: float = 1.0) -> float:
    """Area-ratio Acc for one window; raises DomainError on a flat truth window."""
    pred, truth = np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 2:
        raise DomainError("pred and truth must be equal-length vectors, length >= 2")
    if dt <= 0:
        raise DomainError("dt must be positive")
    acc, kept = _scores(pred, truth, dt)
    if not kept:
        raise DomainError("degenerate flat truth window: accuracy undefined")
    return float(acc)


def boxplot_stats(values) -> BoxplotSummary:
    """Five-number summary with linear-interpolation quartiles, plus mean."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("cannot summarize an empty list")
    q1, med, q3 = np.percentile(arr, [25, 50, 75], method="linear")
    return BoxplotSummary(min=float(arr.min()), q1=float(q1), median=float(med),
                          q3=float(q3), max=float(arr.max()), mean=float(arr.mean()))


def evaluate(net: Network, ds: WindowedDataset, chunk: int = 4096) -> EvaluationReport:
    """Score every window of a dataset in physical units.

    Predictions and targets are deregularized with the dataset's motion
    channel constants before scoring.  Degenerate flat-truth windows are
    excluded; their fraction is reported.
    """
    if net.output_size != ds.m:
        raise DomainError(f"network output size {net.output_size} != dataset m {ds.m}")
    A, B = ds.norm.A[ds.channel], ds.norm.B[ds.channel]
    pred = np.empty((len(ds), ds.m))
    for start in range(0, len(ds), chunk):
        pred[start:start + chunk] = forward(net, ds.X[start:start + chunk])
    acc, kept = _scores(pred * B + A, ds.Y * B + A, ds.dt)
    if not kept.any():
        raise DomainError("every window was degenerate; nothing to summarize")
    per_window = acc[kept]
    return EvaluationReport(
        accuracy=AccuracyResult(per_window=per_window, anchors=ds.anchors[kept],
                                summary=boxplot_stats(per_window),
                                excluded_fraction=int((~kept).sum()) / len(ds)),
        channel=ds.channel, n=ds.n, m=ds.m, w=ds.w, noise_level=ds.noise_level)


def save_window_accuracies(result: AccuracyResult, path) -> None:
    """Per-window CSV: `window_p,acc` (degenerate windows omitted)."""
    with Path(path).open("w") as f:
        f.write("window_p,acc\n")
        for anchor, acc in zip(result.anchors, result.per_window):
            f.write(f"{int(anchor)},{float(acc)!r}\n")


def summary_row(report: EvaluationReport, dataset_name: str) -> str:
    """One row of the summary CSV consumed by plotting."""
    s = report.accuracy.summary
    cells = [dataset_name, report.channel, report.n, report.m, report.w,
             report.noise_level, s.min, s.q1, s.median, s.q3, s.max, s.mean]
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


SUMMARY_HEADER = "dataset,channel,n,m,w,noise,min,q1,median,q3,max,mean"


def save_summaries(reports: list[tuple[str, EvaluationReport]], path) -> None:
    with Path(path).open("w") as f:
        f.write(SUMMARY_HEADER + "\n")
        for name, report in reports:
            f.write(summary_row(report, name) + "\n")
