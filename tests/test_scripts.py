"""Smoke runs of the example scripts at a tiny config."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from semisub_motion.metrics import SUMMARY_HEADER

ROOT = Path(__file__).resolve().parents[1]
TINY = ["channel=heave", "n=12", "m=6", "w=6",
        "noise_levels=[0.0,0.3]", "test_noise_levels=[0.0]",
        "lstm_hidden=[8]", "fc_count=1", "fc_width=8",
        "n_sweep=[12]", "w_sweep=[6]", "m_sweep=[6]",
        "hidden_sweep=[8]", "lstm_layer_sweep=[1]",
        "fc_count_sweep=[1]", "fc_width_sweep=[8]",
        "batch_size=128", "max_epochs=1", "duration=400.0", "anchor_stride=7"]
SUMMARIES = {1: ["time_window", "wave_lag", "prediction_length"],
             2: ["noise"], 3: ["lstm_sweep", "fc_sweep"]}


@pytest.mark.parametrize("example", sorted(SUMMARIES))
def test_example_script_writes_its_summaries(tmp_path, example):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    args = [arg for item in [*TINY, f"output_dir={tmp_path / 'runs'}"]
            for arg in ("--set", item)]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"run_example{example}.py"), *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "runs" / f"example{example}_heave"
    for tag in SUMMARIES[example]:
        lines = (out / f"{tag}_heave_summary.csv").read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER and len(lines) >= 2


def written_tree(out: Path) -> dict:
    """Every file under ``out`` by relative path, its bytes as written, but
    each ``run.log`` without its ``elapsed_s`` line."""
    tree = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run.log":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"elapsed_s "))
        tree[str(path.relative_to(out))] = data
    return tree


def test_write_outputs_writes_every_output_file(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for name in ("out", "again"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "write_outputs.py"), str(tmp_path / name)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
    out = tmp_path / "out"
    for example in (1, 2, 3):
        for name in ("training.csv", "history.csv", "summary.csv", "forecast_last.csv",
                     "forecast_200.csv", "evaluate_test/window_accuracy.csv"):
            assert (out / f"example{example}" / name).is_file()
    assert (out / "runs" / "example1_heave" / "time_window_n12_m6_w6_traces.csv").is_file()
    report = (out / "runs" / "report.csv").read_text().splitlines()
    assert report[0] == "source," + SUMMARY_HEADER
    sources = {line.split(",")[0].split("/")[0] for line in report[1:]}
    assert sources == {"example1_heave", "example2_heave", "example2_surge", "example3_heave"}
    # a second process writes the same bytes, but for the time each sweep took
    tree, again = written_tree(out), written_tree(tmp_path / "again")
    assert sorted(tree) == sorted(again)
    assert [name for name in tree if tree[name] != again[name]] == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores for two BLAS threads")
def test_write_outputs_bytes_do_not_depend_on_blas_threads(tmp_path):
    trees = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "write_outputs.py"), str(out)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        trees.append(written_tree(out))
    one, two = trees
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
