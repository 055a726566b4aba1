"""Configuration-driven experiment harness: campaign, training, sweeps.

Three experiment families are supported:

  1. wave-assisted prediction with sweeps over time window n, wave lag w,
     and prediction length m;
  2. noise robustness: training on a noise-extended dataset (clean targets)
     and evaluation across test noise levels;
  3. motion-only prediction with sweeps over the LSTM/FC architecture.

One ``ExperimentConfig`` (a ``TrainingConfig``) describes a run; its
``example_id`` decides which inputs every cell reads, and a swept cell is
the config with the swept fields replaced.

Every run is reproducible from the config: the campaign seed, network
initialization seed, shuffle seed, and noise seed are independent fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (NormalizationConstants, WindowedDataset, role_dataset,
                      split_campaign, window_spec)
from .errors import POSITIVE, STR, ConfigurationError, at_least, one_of
from .metrics import SUMMARY_HEADER, EvaluationReport, evaluate, save_summaries
from .network import Network, forward, init_network, save_checkpoint
from .training import EpochRecord, TrainingConfig, train
from .vessel import (DEFAULT_CONDITIONS, FULL_SCALE_DT, FULL_SCALE_DURATION,
                     CampaignRun, generate_campaign, load_campaign)

EXAMPLE2_TRAINING_IDS = ("WC1", "WC3", "WC4")
EXAMPLE2_TRAIN_NOISE = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
EXAMPLE2_TEST_NOISE = (0.0, 0.2, 0.4, 0.6, 0.8)
_TRAINING_IDS = tuple(c.id for c in DEFAULT_CONDITIONS
                      if c.dataset_role == "training")


@dataclass
class ExperimentConfig(TrainingConfig):
    """Everything needed to reproduce one experiment run; ``TABLE`` adds each
    field's type and range to ``TrainingConfig.TABLE``."""

    example_id: int = 1
    channel: str = "heave"           # heave | surge
    n: int = 60
    m: int = 20
    w: int = 20
    noise_levels: list[float] = field(default_factory=lambda: list(EXAMPLE2_TRAIN_NOISE))
    test_noise_levels: list[float] = field(default_factory=lambda: list(EXAMPLE2_TEST_NOISE))
    lstm_hidden: list[int] = field(default_factory=lambda: [50])
    fc_count: int = 3
    fc_width: int = 50
    # sweep grids (used by the sweep runners)
    n_sweep: list[int] = field(default_factory=lambda: list(range(10, 121, 10)))
    w_sweep: list[int] = field(default_factory=lambda: list(range(0, 61, 10)))
    m_sweep: list[int] = field(default_factory=lambda: [20, 40, 60])
    hidden_sweep: list[int] = field(default_factory=lambda: [10, 20, 30, 40, 50, 60, 80])
    lstm_layer_sweep: list[int] = field(default_factory=lambda: [1, 2])
    fc_count_sweep: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    fc_width_sweep: list[int] = field(default_factory=lambda: [10, 30, 50])
    # seeds, isolated per variance source (shuffle_seed is TrainingConfig's)
    campaign_seed: int = 0
    init_seed: int = 0
    noise_seed: int = 0
    # desk-scale knobs
    duration: float = FULL_SCALE_DURATION
    dt: float = FULL_SCALE_DT
    anchor_stride: int = 5
    training_condition_ids: list[str] | None = None
    output_dir: str = "runs"

    TABLE = {
        **TrainingConfig.TABLE, "example_id": one_of(1, 2, 3),
        "channel": one_of("heave", "surge"), "duration": POSITIVE, "dt": POSITIVE,
        **dict.fromkeys(("n", "m", "fc_width", "anchor_stride"), at_least(1)),
        **dict.fromkeys(("w", "fc_count", "campaign_seed", "init_seed", "noise_seed"),
                        at_least(0)),
        **dict.fromkeys(("noise_levels", "test_noise_levels"), [at_least(0, "float")]),
        **dict.fromkeys(("lstm_hidden", "n_sweep", "m_sweep", "hidden_sweep",
                         "lstm_layer_sweep", "fc_count_sweep", "fc_width_sweep"),
                        [at_least(1)]),
        "w_sweep": [at_least(0)], "output_dir": STR,
        "training_condition_ids?": [one_of(*_TRAINING_IDS)]}

    @property
    def use_wave(self) -> bool:
        """Examples 1 and 2 read the lagged wave, example 3 motion alone."""
        return self.example_id != 3

    @property
    def train_noise_levels(self) -> list[float]:
        """Example 2 trains on every noise level, the others on clean inputs."""
        return list(self.noise_levels) if self.example_id == 2 else [0.0]

    @property
    def train_condition_ids(self) -> list[str] | None:
        """The set ``training_condition_ids``; unset, example 2 trains on
        WC1/WC3/WC4 and the others on every training condition (None)."""
        if self.training_condition_ids is None and self.example_id == 2:
            return list(EXAMPLE2_TRAINING_IDS)
        return self.training_condition_ids

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load config {path}: {exc}") from exc


def get_campaign(config: ExperimentConfig, directory=None) -> list[CampaignRun]:
    """Load the campaign saved in ``directory``; simulate one when none is given."""
    if directory is not None:
        return load_campaign(directory)
    return generate_campaign(DEFAULT_CONDITIONS, base_seed=config.campaign_seed,
                             duration=config.duration, dt=config.dt)


def select_runs(campaign: list[CampaignRun],
                training_ids=None) -> list[CampaignRun]:
    """Restrict training runs to ``training_ids``, keeping test runs."""
    if training_ids is None:
        return campaign
    wanted = set(training_ids)
    return [r for r in campaign
            if r.condition.dataset_role == "test" or r.condition.id in wanted]


@dataclass
class CellResult:
    """One trained configuration with its evaluation on train and test sets."""

    net: Network
    history: list[EpochRecord]
    train_report: EvaluationReport
    test_report: EvaluationReport
    norm: NormalizationConstants  # the training set's


def cell_datasets(campaign: list[CampaignRun], config: ExperimentConfig, n: int,
                  m: int, w: int) -> tuple[WindowedDataset, WindowedDataset]:
    """One cell's training and test sets, with the inputs its example reads;
    a motion-only cell reads no wave, so its wave lag is 0 whatever ``w`` is."""
    return split_campaign(
        select_runs(campaign, config.train_condition_ids), config.channel,
        n, m, w if config.use_wave else 0, noise_levels=config.train_noise_levels,
        use_wave=config.use_wave, noise_base_seed=config.noise_seed,
        stride=config.anchor_stride)


def train_cell(campaign: list[CampaignRun], config: ExperimentConfig,
               n: int, m: int, w: int) -> CellResult:
    """Build datasets, train one network, evaluate on train and test sets."""
    training, test = cell_datasets(campaign, config, n, m, w)
    net = init_network(training.r, config.lstm_hidden, config.fc_count,
                       config.fc_width, m, seed=config.init_seed)
    # the window spec, dt included, is the data's, not the config's
    net.meta = {**window_spec(training),
                "seeds": {"campaign": config.campaign_seed,
                          "init": config.init_seed,
                          "shuffle": config.shuffle_seed,
                          "noise": config.noise_seed}}
    net, history = train(net, training, test, config)
    return CellResult(net=net, history=history,
                      train_report=evaluate(net, training),
                      test_report=evaluate(net, test), norm=training.norm)


def save_history(history: list[EpochRecord], path) -> None:
    with Path(path).open("w") as f:
        f.write("epoch,lr,train_loss,test_loss\n")
        for rec in history:
            f.write(f"{rec.epoch},{rec.lr!r},{rec.train_loss!r},{rec.test_loss!r}\n")


def save_traces(net: Network, ds: WindowedDataset, path, count: int = 5) -> None:
    """Prediction-vs-truth traces for evenly spaced sample windows."""
    idx = np.linspace(0, len(ds) - 1, count).astype(int)
    A, B = ds.norm.A[ds.channel], ds.norm.B[ds.channel]
    with Path(path).open("w") as f:
        f.write("window_p,step,time_s,truth,prediction\n")
        for i in idx:
            pred = forward(net, ds.X[i]) * B + A
            truth = ds.Y[i] * B + A
            p = int(ds.anchors[i])
            for k in range(ds.m):
                f.write(f"{p},{k},{float((p + k) * ds.dt)!r},{float(truth[k])!r},{float(pred[k])!r}\n")


def run_example1(config: ExperimentConfig, out: Path,
                 campaign: list[CampaignRun]) -> dict:
    """Wave-assisted prediction: sweeps over n, w, and m."""
    results = {}

    def run_cells(cells, tag):
        rows = []
        for (n, m, w) in cells:
            cell = train_cell(campaign, config, n, m, w)
            name = f"{tag}_n{n}_m{m}_w{w}"
            rows.append((name, cell.test_report))
            save_history(cell.history, out / f"{name}_history.csv")
            save_checkpoint(cell.net, out / f"{name}_checkpoint.json")
            results[name] = cell
        save_summaries(rows, out / f"{tag}_{config.channel}_summary.csv")

    run_cells([(n, config.m, config.w) for n in config.n_sweep], "time_window")
    run_cells([(config.n, config.m, w) for w in config.w_sweep], "wave_lag")
    run_cells([(3 * m, m, m) for m in config.m_sweep], "prediction_length")

    # trace CSVs for the headline cell, when it is part of the sweeps
    headline = f"time_window_n{config.n}_m{config.m}_w{config.w}"
    if headline in results:
        test = role_dataset(campaign, "test", config.channel, config.n, config.m,
                            config.w, [0.0], results[headline].norm,
                            noise_base_seed=config.noise_seed, stride=config.anchor_stride)
        save_traces(results[headline].net, test, out / f"{headline}_traces.csv")
    return results


def run_example2(config: ExperimentConfig, out: Path,
                 campaign: list[CampaignRun]) -> dict:
    """Noise robustness: one model trained on the noise-extended dataset."""
    n, m, w = config.n, config.m, config.w
    cell = train_cell(campaign, config, n, m, w)
    save_history(cell.history, out / "history.csv")
    save_checkpoint(cell.net, out / "checkpoint.json")

    rows = []
    results = {"model": cell}
    for level in config.test_noise_levels:
        test = role_dataset(campaign, "test", config.channel, n, m, w, [level],
                            cell.norm, noise_base_seed=config.noise_seed,
                            stride=config.anchor_stride)
        report = evaluate(cell.net, test)
        name = f"test_noise_{level}"
        rows.append((name, report))
        save_traces(cell.net, test, out / f"{name}_traces.csv")
        results[name] = report
    save_summaries(rows, out / f"noise_{config.channel}_summary.csv")
    return results


def run_example3(config: ExperimentConfig, out: Path,
                 campaign: list[CampaignRun]) -> dict:
    """Motion-only prediction: LSTM and FC architecture sweeps."""
    results = {}

    def run_cells(cells, tag):
        rows = []
        for name, cell_config in cells:
            cell = train_cell(campaign, cell_config, config.n, config.m, 0)
            rows += [(name + "_test", cell.test_report),
                     (name + "_train", cell.train_report)]
            results[name] = cell
        save_summaries(rows, out / f"{tag}_{config.channel}_summary.csv")

    run_cells([(f"lstm_layers{depth}_hidden{hidden}",
                replace(config, lstm_hidden=[hidden] * depth, fc_count=3, fc_width=30))
               for depth in config.lstm_layer_sweep
               for hidden in config.hidden_sweep], "lstm_sweep")
    run_cells([(f"fc_layers{count}_width{width}",
                replace(config, lstm_hidden=[30], fc_count=count, fc_width=width))
               for count in config.fc_count_sweep
               for width in config.fc_width_sweep], "fc_sweep")
    return results


def run_experiment(config: ExperimentConfig,
                   campaign: list[CampaignRun] | None = None) -> dict:
    """Dispatch on example_id; writes everything under the output directory."""
    out = Path(config.output_dir) / f"example{config.example_id}_{config.channel}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    started = time.time()
    runner = {1: run_example1, 2: run_example2, 3: run_example3}[config.example_id]
    results = runner(config, out, campaign or get_campaign(config))
    (out / "run.log").write_text(
        f"example {config.example_id} channel {config.channel}\n"
        f"elapsed_s {time.time() - started:.1f}\n"
        f"config:\n{config.to_json()}\n")
    return results


def aggregate_reports(output_dir) -> Path:
    """Collect every *_summary.csv under a run tree into one report CSV."""
    output_dir = Path(output_dir)
    rows = []
    for path in sorted(output_dir.rglob("*_summary.csv")):
        lines = path.read_text().strip().splitlines()
        rel = path.relative_to(output_dir)
        for line in lines[1:]:
            rows.append(f"{rel},{line}")
    report = output_dir / "report.csv"
    report.write_text("source," + SUMMARY_HEADER + "\n"
                      + "".join(r + "\n" for r in rows))
    return report
