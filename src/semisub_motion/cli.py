"""Command-line entry point.

Subcommands: simulate, build-dataset, train, predict, evaluate, sweep,
report.  Each reads an experiment config JSON (``--config``) whose fields
can be overridden with ``--set key=value`` flags; outputs land under the
configured output directory (or ``$SEMISUB_OUTPUT_ROOT`` when set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import (NormalizationConstants, input_windows, load_dataset,
                      regularize, save_dataset, window_spec)
from .errors import SemisubError, check
from .experiments import (ExperimentConfig, aggregate_reports, cell_datasets,
                          get_campaign, run_experiment, save_history, train_cell)
from .metrics import evaluate, save_summaries, save_window_accuracies
from .network import (META_TABLE, count_params, forward, load_checkpoint,
                      save_checkpoint)
from .timeseries import TimeSeries
from .vessel import save_campaign


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SemisubError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key] = _parse_value(raw)
    if overrides:
        merged = {**json.loads(config.to_json()), **overrides}
        config = ExperimentConfig.from_dict(merged)
    root = os.environ.get("SEMISUB_OUTPUT_ROOT")
    if root:
        config.output_dir = str(Path(root) / config.output_dir)
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = Path(args.output or config.output_dir) / "campaign"
    campaign = get_campaign(config)
    save_campaign(campaign, out)
    print(f"wrote {len(campaign)}-run campaign to {out}")
    return 0


def cmd_build_dataset(args) -> int:
    config = _load_config(args)
    training, test = cell_datasets(get_campaign(config, args.campaign), config,
                                   config.n, config.m, config.w)
    out = Path(args.output or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(training, out / "training.csv")
    save_dataset(test, out / "test.csv")
    print(f"wrote {len(training)} training and {len(test)} test samples to {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    cell = train_cell(get_campaign(config, args.campaign), config,
                      config.n, config.m, config.w)
    out = Path(args.output or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(cell.net, out / "checkpoint.json")
    save_history(cell.history, out / "history.csv")
    save_summaries([("training", cell.train_report), ("test", cell.test_report)],
                   out / "summary.csv")
    s = cell.test_report.accuracy.summary
    print(f"trained {count_params(cell.net)} parameters; "
          f"test accuracy median {s.median:.3f} mean {s.mean:.3f}")
    return 0


def cmd_predict(args) -> int:
    net = load_checkpoint(args.checkpoint)
    meta = net.meta
    check({"meta": meta}, {"meta": META_TABLE}, where=f"{args.checkpoint}: ")
    n, m, w, r = meta["n"], meta["m"], meta["w"], meta["r"]
    norm = NormalizationConstants.from_dict(meta["norm"])
    channel = meta["channel"]

    def load(path):
        series = TimeSeries.load_csv(path)
        if not np.isclose(series.dt, meta["dt"], rtol=1e-9, atol=0.0):
            raise SemisubError(f"{path}: sample interval {series.dt!r} s differs from "
                               f"the checkpoint's {meta['dt']!r} s")
        return series

    motion = load(args.motion)
    motion_reg = regularize(motion, norm.A[channel], norm.B[channel])
    wave_reg = None
    if r == 2:
        if not args.wave:
            raise SemisubError("this checkpoint expects a wave input (--wave)")
        wave_reg = regularize(load(args.wave), norm.A["wave"], norm.B["wave"]).values
    L = len(motion)
    anchor = args.anchor if args.anchor is not None else L - max(m, w)
    if not n <= anchor <= L - max(m, w):
        raise SemisubError(f"anchor {anchor} outside valid range [{n}, {L - max(m, w)}]")
    if wave_reg is not None and len(wave_reg) < anchor + w:
        raise SemisubError(f"{args.wave}: {len(wave_reg)} samples end before anchor "
                           f"{anchor} + wave lag {w}")
    X = input_windows(motion_reg.values, wave_reg, np.array([anchor]), n, w)
    pred = forward(net, X[0]) * norm.B[channel] + norm.A[channel]
    out = Path(args.output)
    with out.open("w") as f:
        f.write("time_s,value\n")
        for k in range(m):
            f.write(f"{float((anchor + k) * motion.dt)!r},{float(pred[k])!r}\n")
    print(f"wrote {m}-step forecast to {out}")
    return 0


def cmd_evaluate(args) -> int:
    net = load_checkpoint(args.checkpoint)
    check({"meta": net.meta}, {"meta": META_TABLE}, where=f"{args.checkpoint}: ")
    ds = load_dataset(args.dataset)
    differ = [k for k, v in window_spec(ds).items()
              if not (np.isclose(v, net.meta[k], rtol=1e-9, atol=0.0) if k == "dt"
                      else v == net.meta[k])]
    if differ:
        raise SemisubError(f"{args.dataset} differs from {args.checkpoint} in "
                           f"{', '.join(differ)}")
    report = evaluate(net, ds)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_window_accuracies(report.accuracy, out / "window_accuracy.csv")
    save_summaries([(Path(args.dataset).stem, report)], out / "summary.csv")
    s = report.accuracy.summary
    print(f"{len(report.accuracy.per_window)} windows; median {s.median:.3f} "
          f"mean {s.mean:.3f} (excluded {report.accuracy.excluded_fraction:.1%})")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    run_experiment(config)
    print(f"sweep finished; outputs under {config.output_dir}")
    return 0


def cmd_report(args) -> int:
    path = aggregate_reports(args.output_dir)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semisub-motion",
        description="LSTM real-time heave/surge prediction on synthetic seas")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (value parsed as JSON)")

    p = sub.add_parser("simulate", help="generate the wave/motion campaign")
    add_config_flags(p)
    p.add_argument("--output", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build-dataset", help="window a campaign into X-Y pairs")
    add_config_flags(p)
    p.add_argument("--campaign", help="saved campaign directory (else simulate)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train one model per the config")
    add_config_flags(p)
    p.add_argument("--campaign")
    p.add_argument("--output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="multi-step forecast from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--motion", required=True, help="motion time-series CSV")
    p.add_argument("--wave", help="wave time-series CSV (wave-assisted models)")
    p.add_argument("--anchor", type=int, help="forecast start index (default: last valid)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a checkpoint on an exported dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the configured example end to end")
    add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate sweep summaries into one CSV")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SemisubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
