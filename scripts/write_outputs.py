#!/usr/bin/env python3
"""Write every file the CLI and the example runners produce, at a tiny config.

    python3 scripts/write_outputs.py OUT_DIR

Under OUT_DIR: the campaign; for examples 1-3 a built dataset, a trained
model, its evaluation on both sets and forecasts at the default anchor and at
anchor 200; sweeps of examples 1 (heave), 2 (heave and surge) and 3 under
``runs``; and the report over those sweeps.  Example 3's model is built at
anchor stride 1, so that its test set (886 windows) is scored in more than
one ``training.INFERENCE_ROWS`` chunk.  As in the default grids, both
the example-1 and the example-3 grids list a cell in more than one sweep, so
the trees also cover a sweep reusing a cell it trained already.  The script
works inside OUT_DIR and gives every path relative to it, so no file holds
OUT_DIR itself.  Two trees written by two versions of the code compare with
``diff -r``: at equal outputs they differ only in ``elapsed_s`` inside each
``run.log``.
"""

import json
import os
import sys
from pathlib import Path

from semisub_motion.cli import main

TINY = dict(
    channel="heave", n=12, m=6, w=6,
    noise_levels=[0.0, 0.3], test_noise_levels=[0.0, 0.3],
    lstm_hidden=[8], fc_count=1, fc_width=8,
    n_sweep=[10, 12], w_sweep=[0, 6], m_sweep=[6],
    hidden_sweep=[8, 30], lstm_layer_sweep=[1, 2],
    fc_count_sweep=[1, 2, 3], fc_width_sweep=[8, 30],
    batch_size=128, max_epochs=2,
    duration=700.0, dt=0.775, anchor_stride=7)
SWEEPS = [(1, "heave"), (2, "heave"), (2, "surge"), (3, "heave")]


def run(*args) -> None:
    if main([str(a) for a in args]) != 0:
        raise SystemExit(f"failed: semisub-motion {' '.join(map(str, args))}")


def write_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    config = Path("config.json")
    config.write_text(json.dumps({**TINY, "output_dir": "runs"}, indent=2))
    run("simulate", "--config", config, "--output", ".")
    campaign = Path("campaign")
    for example in (1, 2, 3):
        cell = Path(f"example{example}")
        stride = ["--set", "anchor_stride=1"] if example == 3 else []
        flags = ["--config", config, "--set", f"example_id={example}", *stride,
                 "--campaign", campaign, "--output", cell]
        run("build-dataset", *flags)
        run("train", *flags)
        checkpoint = cell / "checkpoint.json"
        for role in ("training", "test"):
            run("evaluate", "--checkpoint", checkpoint, "--dataset", cell / f"{role}.csv",
                "--output", cell / f"evaluate_{role}")
        wave = ["--wave", campaign / "WC2_wave.csv"] if example != 3 else []
        for name, anchor in (("last", []), ("200", ["--anchor", 200])):
            run("predict", "--checkpoint", checkpoint, "--motion", campaign / "WC2_heave.csv",
                *wave, *anchor, "--output", cell / f"forecast_{name}.csv")
    for example, channel in SWEEPS:
        run("sweep", "--config", config, "--set", f"example_id={example}",
            "--set", f"channel={channel}")
    run("report", "--output-dir", "runs")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]))
