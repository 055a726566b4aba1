"""Command-line entry point.

Subcommands: simulate, build-dataset, train, predict, evaluate, sweep,
report.  Each reads an experiment config JSON (``--config``) whose fields
can be overridden with ``--set key=value`` flags; outputs land under the
configured output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import (NormalizationConstants, build_pairs, load_dataset,
                      save_dataset, window_spec)
from .errors import SemisubError
from .experiments import (ExperimentConfig, aggregate_reports, cell_datasets,
                          get_campaign, run_experiment, save_cell, train_cell)
from .metrics import evaluate, save_summaries, save_window_accuracies
from .network import count_params, load_checkpoint
from .timeseries import TimeSeries, same_time, write_csv
from .training import predict
from .vessel import save_campaign


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    for item in args.set or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise SemisubError(f"override must look like key=value, got {item!r}")
        overrides[key] = _parse_value(raw)
    return ExperimentConfig.from_file(args.config, overrides)


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
    save_cell(cell, out)
    save_summaries([("training", cell.train_report), ("test", cell.test_report)],
                   out / "summary.csv")
    s = cell.test_report.accuracy.summary
    print(f"trained {count_params(cell.net)} parameters; "
          f"test accuracy median {s.median:.3f} mean {s.mean:.3f}")
    return 0


def _check_spec(ds, net, source, checkpoint) -> None:
    """Refuse windows whose spec differs from the checkpoint's (dt by ``same_time``)."""
    differ = [k for k, v in window_spec(ds).items()
              if not (same_time(v, net.meta[k]) if k == "dt" else v == net.meta[k])]
    if differ:
        raise SemisubError(f"{source} differs from {checkpoint} in {', '.join(differ)}")


def cmd_predict(args) -> int:
    net = load_checkpoint(args.checkpoint)
    meta = net.meta
    if meta["r"] == 2 and not args.wave:
        raise SemisubError("this checkpoint expects a wave input (--wave)")
    motion = TimeSeries.load_csv(args.motion)
    wave = TimeSeries.load_csv(args.wave) if meta["r"] == 2 else None
    ds = build_pairs(motion, wave, meta["n"], meta["m"], meta["w"],
                     NormalizationConstants(**meta["norm"]), meta["channel"])
    _check_spec(ds, net, args.motion, args.checkpoint)
    anchor = args.anchor if args.anchor is not None else ds.anchors[-1]
    if anchor not in ds.anchors:
        raise SemisubError(f"anchor {anchor} outside valid range "
                           f"[{ds.anchors[0]}, {ds.anchors[-1]}]")
    i = anchor - ds.n
    pred = ds.restore(predict(net, ds.X[i:i + 1])[0])
    write_csv(args.output, "time_s,value", zip(motion.times[anchor:anchor + ds.m], pred))
    print(f"wrote {ds.m}-step forecast to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    _check_spec(ds, net, args.dataset, args.checkpoint)
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
    try:  # an overflow, division by zero or NaN anywhere is an error, not a value
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (SemisubError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
