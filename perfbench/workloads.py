"""The benchmark's three closed-loop workloads and their output checks.

Each workload derives every input from one seed (campaign, network
initialisation, shuffle and noise seeds all equal it), builds its
preconditions several times to time set-up, runs requests one after another
for a fixed time, and checks outputs between requests, outside the timed
spans.  Program functions are looked up as module attributes at call time so
that a ``Tracer`` sees every call.

Every workload times many short operations: training steps, forecasts, or
campaign passes and split calls.  Their latencies and per-operation
throughputs are what the end-to-end percentiles are taken over.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from semisub_motion import dataset, experiments, metrics, network, vessel
from semisub_motion.errors import DomainError

N, M, W = 60, 20, 20
STRIDE = 5                # the config default anchor stride
# Training runs two epochs, so the last can be compared with epoch 0, at
# stride 10 (as acceptance criteria 7 and 8 do), so one cell fits a run.
TRAIN_STRIDE = 10
TRAIN_EPOCHS = 2
SETUP_REPEATS = 5
REAL_TIME_LIMIT_S = vessel.FULL_SCALE_DT  # a forecast must beat one sample interval
GRADIENT_TOLERANCE = 1e-5                 # acceptance criterion 2
TRAIN_COUNTS = ("training.train.train_windows", "training.train.test_windows")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)      # per precondition build
    latencies_s: list[float] = field(default_factory=list)  # per timed operation
    throughputs: list[float] = field(default_factory=list)  # windows/s per operation
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)


def config(seed: int, duration: float, **overrides) -> experiments.ExperimentConfig:
    """Desk-scale heave configuration with every seed set to ``seed``."""
    fields = dict(channel="heave", n=N, m=M, w=W, anchor_stride=STRIDE,
                  batch_size=512, duration=duration, campaign_seed=seed,
                  init_seed=seed, shuffle_seed=seed, noise_seed=seed)
    fields.update(overrides)
    return experiments.ExperimentConfig(**fields)


def campaign(cfg: experiments.ExperimentConfig):
    return vessel.generate_campaign(vessel.DEFAULT_CONDITIONS,
                                    base_seed=cfg.campaign_seed,
                                    params=vessel.ResponseParams(),
                                    duration=cfg.duration, dt=cfg.dt)


def expected_windows(runs, stride: int, levels: int = 1) -> int:
    """Anchors at ``stride`` over the valid anchors of each run, per level."""
    per_run = [-(-dataset.pair_count(len(r.wave), N, M, W) // stride) for r in runs]
    return sum(per_run) * levels


def _roles(runs):
    training = [r for r in runs if r.condition.dataset_role == "training"]
    test = [r for r in runs if r.condition.dataset_role == "test"]
    return training, test


def _raised(out: Outcome) -> None:
    """Count a request that raised; print the first traceback only."""
    if out.checks.get("no_exception", True):
        traceback.print_exc()
    out.check("no_exception", False)
    out.failed += 1


def _setup(tracer, build) -> tuple[list[float], object]:
    """Build the preconditions SETUP_REPEATS times; return the times and the
    last build."""
    times = []
    for k in range(SETUP_REPEATS):
        with tracer.request(f"setup-{k}", "setup"):
            t0 = time.perf_counter()
            built = build()
            times.append(time.perf_counter() - t0)
    return times, built


def gradient_error(seed: int, step: float = 1e-6) -> float:
    """Worst relative error of ``network.backward`` against central
    differences on a small two-layer network, as in acceptance criterion 2."""
    rng = np.random.default_rng(seed)
    net = network.init_network(2, [4, 3], 1, 4, 3, seed=seed)
    X = rng.normal(size=(3, 6, 2))
    Y = rng.normal(size=(3, 3))
    _, analytic = network.backward(net, X, Y)
    worst = 0.0
    for arr, grad in zip(net.parameters(), analytic):
        numeric = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = network.mse_loss(network.forward(net, X), Y)
            arr[idx] = orig - step
            down = network.mse_loss(network.forward(net, X), Y)
            arr[idx] = orig
            numeric[idx] = (up - down) / (2 * step)
        denom = max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(np.linalg.norm(grad - numeric) / denom))
    return worst


def gradient_check(out: Outcome, seed: int) -> None:
    """One more operation: BPTT must match central differences."""
    out.attempted += 1
    try:
        error = gradient_error(seed)
    except Exception:  # counted like any other failed operation
        _raised(out)
        return
    out.report["gradient_rel_error"] = (error, "ratio")
    if not out.check("gradient_check", error < GRADIENT_TOLERANCE):
        out.failed += 1


def train_desk(seed: int, seconds: float, tracer, duration: float) -> Outcome:
    """Desk-scale heave ``train_cell`` at (60, 20, 20): the training path.

    The timed operations are the cell's training steps, ``backward`` plus
    ``adam_step`` on one batch, read from the tracer's spans.
    """
    cfg = config(seed, duration, max_epochs=TRAIN_EPOCHS, anchor_stride=TRAIN_STRIDE)
    setup, runs = _setup(tracer, lambda: campaign(cfg))
    training_runs, test_runs = _roles(runs)
    out = Outcome(setup_s=setup)
    cells_s, train_s, train_windows = [], 0.0, 0
    start = time.perf_counter()
    # whole cells only: start another only if it should end within the time
    while (out.attempted == 0 or time.perf_counter() - start
           + statistics.median(cells_s or [0.0]) <= seconds):
        out.attempted += 1
        spans_before = len(tracer.spans)
        before = {key: tracer.counts[key] for key in TRAIN_COUNTS}
        try:
            with tracer.request(out.attempted - 1):
                t0 = time.perf_counter()
                cell = experiments.train_cell(runs, cfg, N, M, W)
                cells_s.append(time.perf_counter() - t0)
        except Exception:  # a failed request is counted; the loop goes on
            _raised(out)
            continue
        seen = {key: tracer.counts[key] - before[key] for key in before}
        spans = tracer.spans[spans_before:]
        steps = _step_times(spans)
        rows = _batch_rows(seen["training.train.train_windows"], cfg.batch_size)
        rows *= len(cell.history)
        out.latencies_s += steps
        out.throughputs += [r / t for r, t in zip(rows, steps)]
        train_s += sum(e - b for name, b, e, _, _ in spans if name == "training.train")
        train_windows += sum(rows)
        losses = [(h.train_loss, h.test_loss) for h in cell.history]
        accs = np.concatenate([cell.train_report.accuracy.per_window,
                               cell.test_report.accuracy.per_window])
        ok = all([
            out.check("loss_finite", np.all(np.isfinite(losses))),
            out.check("loss_decreases",
                      cell.history[-1].train_loss < cell.history[0].train_loss),
            out.check("prediction_finite", np.all(np.isfinite(accs))),
            out.check("acc_at_most_1", np.all(accs <= 1.0)),
            out.check("window_count",
                      seen["training.train.train_windows"]
                      == expected_windows(training_runs, TRAIN_STRIDE)
                      and seen["training.train.test_windows"]
                      == expected_windows(test_runs, TRAIN_STRIDE)
                      and len(steps) == len(rows)),
        ])
        out.failed += not ok
        out.report["cell_s"] = (statistics.median(cells_s), "s")
        out.report["train_windows_per_s"] = (train_windows / train_s, "windows/s")
        out.report["test_acc_median"] = (cell.test_report.accuracy.summary.median,
                                         "ratio")
    return out


def _batch_rows(windows: int, batch_size: int) -> list[int]:
    return [min(batch_size, windows - start) for start in range(0, windows, batch_size)]


def _step_times(spans) -> list[float]:
    """``backward`` plus the ``adam_step`` that follows it, per training step."""
    backward = [e - b for name, b, e, _, _ in spans if name == "network.backward"]
    adam = [e - b for name, b, e, _, _ in spans if name == "training.adam_step"]
    return [b + a for b, a in zip(backward, adam)]


def stream_forecast(seed: int, seconds: float, tracer, duration: float) -> Outcome:
    """One caller forecasts the held-out run window by window at B = 1."""
    cfg = config(seed, duration)

    def build():
        runs = campaign(cfg)
        norm = dataset.compute_norm_constants(runs)
        _, test = dataset.split_campaign(runs, cfg.channel, N, M, W, norm=norm,
                                         noise_base_seed=cfg.noise_seed, stride=1)
        net = network.init_network(2, cfg.lstm_hidden, cfg.fc_count,
                                   cfg.fc_width, M, seed=cfg.init_seed)
        return runs, norm, test, net

    setup, (runs, norm, test, net) = _setup(tracer, build)
    out = Outcome(setup_s=setup)
    out.check("window_count", len(test) == expected_windows(_roles(runs)[1], 1))
    A, B = norm.A[cfg.channel], norm.B[cfg.channel]
    excluded = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = out.attempted % len(test)
        out.attempted += 1
        try:
            with tracer.request(out.attempted - 1):
                t0 = time.perf_counter()
                pred = network.forward(net, test.X[i]) * B + A
                try:
                    acc = metrics.accuracy(pred, test.Y[i] * B + A, test.dt)
                except DomainError:  # flat truth window: excluded, as in evaluate
                    acc = None
                latency = time.perf_counter() - t0
        except Exception:  # a failed request is counted; the loop goes on
            _raised(out)
            continue
        out.latencies_s.append(latency)
        out.throughputs.append(1.0 / latency)
        excluded += acc is None
        ok = all([out.check("prediction_finite", np.all(np.isfinite(pred))),
                  acc is None or out.check("acc_at_most_1", acc <= 1.0)])
        out.failed += not ok or latency > REAL_TIME_LIMIT_S
    out.report["forecast_per_s"] = (len(out.latencies_s) / (time.perf_counter() - start),
                                    "requests/s")
    tracer.counts["metrics.excluded_windows"] += excluded
    return out


# run_example2's split calls: one noise-extended training build, then one
# call per test noise level.
NOISE_SPLIT_LEVELS = (0.0, *experiments.EXAMPLE2_TEST_NOISE)


def noise_dataset(seed: int, seconds: float, tracer, duration: float) -> Outcome:
    """Example 2's data pipeline: campaign, then its six split calls."""
    cfg = config(seed, duration)
    out = Outcome()  # no preconditions: set-up is the imports alone
    campaign_s, split_windows, split_s = [], 0, 0.0
    start = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - start < seconds:
        out.attempted += 1
        try:
            with tracer.request(out.attempted - 1):
                times, windows, ok = _noise_pass(out, cfg)
        except Exception:  # a failed request is counted; the loop goes on
            _raised(out)
            continue
        campaign_s.append(times[0])
        out.latencies_s.append(sum(times))
        out.throughputs += [w / t for w, t in zip(windows, times[2:])]
        split_windows += sum(windows)
        split_s += sum(times[2:])
        out.failed += not ok
    out.report["campaign_s"] = (statistics.median(campaign_s), "s")
    out.report["dataset_windows_per_s"] = (split_windows / split_s, "windows/s")
    return out


def _noise_pass(out: Outcome, cfg) -> tuple[list[float], list[int], bool]:
    """Times of the campaign, the norm constants and each split call; the
    windows each split call built; whether every check passed."""
    t0 = time.perf_counter()
    runs = campaign(cfg)
    t1 = time.perf_counter()
    runs = experiments.select_runs(runs, experiments.EXAMPLE2_TRAINING_IDS)
    norm = dataset.compute_norm_constants(runs)
    times = [t1 - t0, time.perf_counter() - t1]
    training_runs, test_runs = _roles(runs)
    expected = (expected_windows(training_runs, STRIDE,
                                 len(experiments.EXAMPLE2_TRAIN_NOISE)),
                expected_windows(test_runs, STRIDE))
    windows, ok = [], True
    for level in NOISE_SPLIT_LEVELS:
        t2 = time.perf_counter()
        splits = dataset.split_campaign(
            runs, cfg.channel, N, M, W,
            noise_levels=experiments.EXAMPLE2_TRAIN_NOISE, norm=norm,
            noise_base_seed=cfg.noise_seed, stride=STRIDE, test_noise_level=level)
        times.append(time.perf_counter() - t2)
        windows.append(sum(len(ds) for ds in splits))
        ok &= out.check("window_count", tuple(len(ds) for ds in splits) == expected)
        ok &= out.check("windows_finite", all(
            np.all(np.isfinite(ds.X)) and np.all(np.isfinite(ds.Y)) for ds in splits))
        del splits  # as in run_example2, one split's datasets live at a time
    return times, windows, ok


# Workloads that run the network; their runs also check its gradients.
GRADIENT_CHECKED = ("train-desk", "stream-forecast")

WORKLOADS = {
    "train-desk": train_desk,
    "stream-forecast": stream_forecast,
    "noise-dataset": noise_dataset,
}
