import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisub_motion.cli import main
from semisub_motion.dataset import NormalizationConstants, build_pairs, load_dataset
from semisub_motion.network import forward, load_checkpoint
from semisub_motion.timeseries import TimeSeries
from semisub_motion.vessel import load_campaign

TINY = dict(
    example_id=1, channel="heave", n=12, m=6, w=6,
    noise_levels=[0.0, 0.3], test_noise_levels=[0.0, 0.3],
    lstm_hidden=[8], fc_count=1, fc_width=8,
    n_sweep=[10], w_sweep=[0, 6], m_sweep=[6],
    hidden_sweep=[8], lstm_layer_sweep=[1],
    fc_count_sweep=[1], fc_width_sweep=[8],
    batch_size=128, max_epochs=2,
    duration=700.0, dt=0.775, anchor_stride=7)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared pipeline artifacts: config, campaign, datasets, checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({**TINY, "output_dir": str(root / "runs")}))

    assert main(["simulate", "--config", str(config),
                 "--output", str(root / "sim")]) == 0
    assert main(["build-dataset", "--config", str(config),
                 "--campaign", str(root / "sim" / "campaign"),
                 "--output", str(root / "data")]) == 0
    assert main(["train", "--config", str(config),
                 "--campaign", str(root / "sim" / "campaign"),
                 "--output", str(root / "model")]) == 0
    return root, config


def one_error_line(code, capsys) -> str:
    """Assert exit code 1 with exactly one ``error:`` line on stderr; return it."""
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


class TestPipeline:
    def test_simulate_writes_campaign(self, workspace):
        root, _ = workspace
        campaign = load_campaign(root / "sim" / "campaign")
        assert len(campaign) == 8
        assert len(campaign[0].wave) == int(round(700.0 / 0.775))

    def test_build_dataset_outputs(self, workspace):
        root, _ = workspace
        training = load_dataset(root / "data" / "training.csv")
        test = load_dataset(root / "data" / "test.csv")
        assert (training.n, training.m, training.w) == (12, 6, 6)
        assert training.role == "training" and test.role == "test"
        assert set(test.run_ids) == {"WC2"}

    def test_train_outputs(self, workspace):
        root, _ = workspace
        net = load_checkpoint(root / "model" / "checkpoint.json")
        assert net.meta["n"] == 12 and net.meta["m"] == 6
        history = (root / "model" / "history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + TINY["max_epochs"]
        summary = (root / "model" / "summary.csv").read_text()
        assert "training" in summary and "test" in summary

    def test_predict(self, workspace, tmp_path):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        out = tmp_path / "forecast.csv"
        assert main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--anchor", "200",
                     "--output", str(out)]) == 0
        forecast = TimeSeries.load_csv(out)
        assert len(forecast) == TINY["m"]
        assert np.all(np.isfinite(forecast.values))
        # forecast times start at the anchor
        assert forecast.start_time == pytest.approx(200 * 0.775)

    def test_forecast_times_follow_the_motion_csv(self, workspace, tmp_path):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        paths = {}
        for channel in ("heave", "wave"):
            series = TimeSeries.load_csv(run_dir / f"WC2_{channel}.csv")
            paths[channel] = tmp_path / f"{channel}.csv"
            TimeSeries(dt=series.dt, values=series.values,
                       start_time=1000.0).save_csv(paths[channel])
        out = tmp_path / "forecast.csv"
        assert main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(paths["heave"]), "--wave", str(paths["wave"]),
                     "--anchor", "200", "--output", str(out)]) == 0
        # the first forecast time is the motion CSV's time at the anchor
        assert TimeSeries.load_csv(out).start_time == pytest.approx(1000.0 + 200 * 0.775)

    def test_predict_matches_windowed_dataset(self, workspace, tmp_path):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        out = tmp_path / "forecast.csv"
        assert main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--anchor", "200", "--output", str(out)]) == 0
        net = load_checkpoint(root / "model" / "checkpoint.json")
        ds = build_pairs(TimeSeries.load_csv(run_dir / "WC2_heave.csv"),
                         TimeSeries.load_csv(run_dir / "WC2_wave.csv"),
                         TINY["n"], TINY["m"], TINY["w"],
                         NormalizationConstants(**net.meta["norm"]), "heave")
        i = int(np.flatnonzero(ds.anchors == 200)[0])
        # the float32 network's forecast, restored to physical units in float64
        expected = ds.restore(forward(net, ds.X[i]))
        assert expected.dtype == np.float64
        assert np.array_equal(TimeSeries.load_csv(out).values, expected)

    @pytest.mark.parametrize("cell", ["abc", "nan"])
    def test_predict_rejects_bad_motion_cell(self, workspace, tmp_path, capsys,
                                             cell):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        lines = (run_dir / "WC2_heave.csv").read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + "," + cell
        motion = tmp_path / "motion.csv"
        motion.write_text("\n".join(lines) + "\n")
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(motion),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--output", str(tmp_path / "forecast.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")

    def test_predict_requires_wave_channel(self, workspace, tmp_path):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--output", str(tmp_path / "forecast.csv")])
        assert code == 1

    def test_predict_rejects_short_wave(self, workspace, tmp_path, capsys):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        wave = TimeSeries.load_csv(run_dir / "WC2_wave.csv")
        short = tmp_path / "short_wave.csv"
        # anchor 200 with lag 6 needs 206 wave samples
        wave.with_values(wave.values[:203]).save_csv(short)
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(short), "--anchor", "200",
                     "--output", str(tmp_path / "forecast.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")

    def test_predict_rejects_long_wave(self, workspace, tmp_path, capsys):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        wave = TimeSeries.load_csv(run_dir / "WC2_wave.csv")
        long = tmp_path / "long_wave.csv"
        wave.with_values(np.append(wave.values, 0.0)).save_csv(long)
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(long), "--anchor", "200",
                     "--output", str(tmp_path / "forecast.csv")])
        assert "904 samples" in one_error_line(code, capsys)
        assert not (tmp_path / "forecast.csv").exists()

    @pytest.mark.parametrize("anchor", [11, 898])
    def test_predict_rejects_anchor_without_a_window(self, workspace, tmp_path,
                                                     capsys, anchor):
        """903 samples, n = 12, m = w = 6: anchors 12 to 897 have a window."""
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--anchor", str(anchor), "--output", str(tmp_path / "forecast.csv")])
        assert one_error_line(code, capsys).endswith(
            f"anchor {anchor} outside valid range [12, 897]")

    @pytest.mark.parametrize("resampled, message", [
        (["motion"], "dt 0.5 s"), (["wave"], "dt 0.5 s"),
        (["motion", "wave"], "checkpoint.json in dt")], ids=["motion", "wave", "both"])
    def test_predict_rejects_mismatched_sampling(self, workspace, tmp_path,
                                                 capsys, resampled, message):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        paths = {"motion": run_dir / "WC2_heave.csv",
                 "wave": run_dir / "WC2_wave.csv"}
        for name in resampled:
            series = TimeSeries.load_csv(paths[name])
            paths[name] = tmp_path / f"{name}.csv"
            TimeSeries(dt=0.5, values=series.values).save_csv(paths[name])
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(paths["motion"]),
                     "--wave", str(paths["wave"]), "--anchor", "200",
                     "--output", str(tmp_path / "forecast.csv")])
        assert message in one_error_line(code, capsys)

    def test_predict_rejects_wave_starting_at_another_time(self, workspace, tmp_path,
                                                           capsys):
        root, _ = workspace
        run_dir = root / "sim" / "campaign"
        wave = TimeSeries.load_csv(run_dir / "WC2_wave.csv")
        shifted = tmp_path / "wave.csv"
        TimeSeries(dt=wave.dt, values=wave.values, start_time=500.0).save_csv(shifted)
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(shifted), "--anchor", "200",
                     "--output", str(tmp_path / "forecast.csv")])
        assert "from 500.0 s" in one_error_line(code, capsys)
        assert not (tmp_path / "forecast.csv").exists()

    def test_predict_rejects_checkpoint_without_window_metadata(
            self, workspace, tmp_path, capsys):
        root, _ = workspace
        doc = json.loads((root / "model" / "checkpoint.json").read_text())
        del doc["meta"]["dt"], doc["meta"]["n"]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        run_dir = root / "sim" / "campaign"
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--output", str(tmp_path / "forecast.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and "lacks dt, n" in err[0]

    def test_evaluate_rejects_weight_beyond_float32(self, workspace, tmp_path, capsys):
        """A finite JSON weight that float32 cannot hold is refused, not cast to inf."""
        root, _ = workspace
        doc = json.loads((root / "model" / "checkpoint.json").read_text())
        doc["lstm_layers"][0]["W_hidden"][0][0] = 1e39
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--dataset", str(root / "data" / "test.csv"),
                     "--output", str(tmp_path / "eval")])
        assert "outside float32's range" in one_error_line(code, capsys)

    def test_evaluate_rejects_text_weight(self, workspace, tmp_path, capsys):
        """A weight written as text is refused, not parsed into a number."""
        root, _ = workspace
        doc = json.loads((root / "model" / "checkpoint.json").read_text())
        doc["lstm_layers"][0]["b_input"][0] = "0.5"
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        code = main(["evaluate", "--checkpoint", str(checkpoint),
                     "--dataset", str(root / "data" / "test.csv"),
                     "--output", str(tmp_path / "eval")])
        assert "b_input[0] must be float" in one_error_line(code, capsys)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("A, B, message", [
        (None, 1e-320, "norm.B.heave must be finite and >= 2.2250738585072014e-308"),
        (1.7e308, 1e308, "overflow"),
    ], ids=["regularize_overflows", "restore_overflows"])
    def test_predict_refuses_norm_that_overflows(self, workspace, tmp_path, capsys,
                                                 A, B, message):
        """A subnormal scale B is refused when the checkpoint is read, in a line
        that names the field; norm constants that pass the table but overflow
        float64 on the way out end in one error line, not in an infinite
        forecast.  The output layer is set to forecast 1.0, so 1.0 * B + A
        overflows."""
        root, _ = workspace
        doc = json.loads((root / "model" / "checkpoint.json").read_text())
        head = doc["fc_layers"][-1]
        head["weights"] = [[0.0] * len(row) for row in head["weights"]]
        head["bias"] = [1.0] * len(head["bias"])
        norm = doc["meta"]["norm"]
        norm["A"]["heave"] = norm["A"]["heave"] if A is None else A
        norm["B"]["heave"] = B
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        run_dir = root / "sim" / "campaign"
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"), "--output", str(out)])
        assert message in one_error_line(code, capsys)
        assert not out.exists()

    def test_diverging_train_ends_in_one_line(self, workspace, tmp_path, capsys):
        """A step's floating-point error is training's own divergence error,
        with no warning lines before it."""
        root, config = workspace
        code = main(["train", "--config", str(config), "--set", "initial_lr=1e20",
                     "--campaign", str(root / "sim" / "campaign"),
                     "--output", str(tmp_path)])
        assert one_error_line(code, capsys) == "error: training diverged at epoch 0"
        assert not (tmp_path / "checkpoint.json").exists()

    def test_evaluate_repeats_the_test_row_of_train(self, workspace, tmp_path):
        """CLI evaluate on the exported test set scores the one float32 network
        as train did, so it writes train's test summary row byte for byte."""
        root, _ = workspace
        out = tmp_path / "eval"
        assert main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(root / "data" / "test.csv"),
                     "--output", str(out)]) == 0
        header, _, test_row = (root / "model" / "summary.csv").read_text().splitlines()
        assert test_row.startswith("test,")
        assert (out / "summary.csv").read_text().splitlines() == [header, test_row]

    def test_evaluate(self, workspace, tmp_path, capsys):
        root, _ = workspace
        out = tmp_path / "eval"
        assert main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(root / "data" / "test.csv"),
                     "--output", str(out)]) == 0
        assert (out / "summary.csv").exists()
        per_window = np.loadtxt(out / "window_accuracy.csv", delimiter=",",
                                skiprows=1)
        assert per_window.ndim == 2 and per_window.shape[1] == 2
        assert "median" in capsys.readouterr().out

    @pytest.mark.parametrize("defect", ["format_version", "missing_key", "samples",
                                        "unparsable", "nan_x", "nan_y"])
    def test_evaluate_rejects_bad_dataset(self, workspace, tmp_path, capsys, defect):
        root, _ = workspace
        src = root / "data" / "test.csv"
        manifest = json.loads(src.with_suffix(".csv.manifest.json").read_text())
        lines = src.read_text().splitlines()
        cells = lines[2].split(",")
        if defect == "format_version":
            manifest["format_version"] = 2
        elif defect == "missing_key":
            del manifest["run_ids"]
        elif defect == "samples":
            manifest["samples"] += 1
        else:
            index = {"unparsable": 3, "nan_x": 1, "nan_y": -1}[defect]
            cells[index] = "abc" if defect == "unparsable" else "nan"
        lines[2] = ",".join(cells)
        dataset = tmp_path / "test.csv"
        dataset.write_text("\n".join(lines) + "\n")
        dataset.with_suffix(".csv.manifest.json").write_text(json.dumps(manifest))
        code = main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(dataset), "--output", str(tmp_path / "eval")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("anchor", ["12.7", "-3"])
    def test_evaluate_rejects_anchor_that_is_not_a_window_index(
            self, workspace, tmp_path, capsys, anchor):
        root, _ = workspace
        src = root / "data" / "test.csv"
        lines = src.read_text().splitlines()
        assert lines[1].startswith("12,")
        lines[1] = anchor + lines[1][2:]
        dataset = tmp_path / "test.csv"
        dataset.write_text("\n".join(lines) + "\n")
        shutil.copy(src.with_suffix(".csv.manifest.json"),
                    dataset.with_suffix(".csv.manifest.json"))
        code = main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(dataset), "--output", str(tmp_path / "eval")])
        assert "column p must hold whole numbers" in one_error_line(code, capsys)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("argv", [
        "predict --checkpoint {model} --motion {motion} --wave {wave} --output {dir}",
        "predict --checkpoint {model} --motion {dir} --wave {wave} --output {dir}/f.csv",
        "evaluate --checkpoint {model} --dataset {dataset} --output {file}",
        "build-dataset --config {config} --campaign {campaign} --output {file}",
        "simulate --config {config} --output {file}",
        "report --output-dir {file}",
    ], ids=["predict_output_dir", "predict_motion_dir", "evaluate_output_file",
            "build_dataset_output_file", "simulate_output_file", "report_output_file"])
    def test_os_error_ends_in_one_line(self, workspace, tmp_path, capsys, argv):
        root, config = workspace
        run_dir = root / "sim" / "campaign"
        (tmp_path / "file").write_text("")
        paths = dict(model=root / "model" / "checkpoint.json", campaign=run_dir,
                     motion=run_dir / "WC2_heave.csv", wave=run_dir / "WC2_wave.csv",
                     dataset=root / "data" / "test.csv", config=config,
                     dir=tmp_path, file=tmp_path / "file")
        one_error_line(main(argv.format(**paths).split()), capsys)

    @pytest.mark.parametrize("defect", [
        lambda meta: meta.update(n="12"),
        lambda meta: meta["norm"].pop("B"),
        lambda meta: meta.update(channel="pitch"),
        lambda meta: meta.update(m=7),
    ], ids=["n_text", "norm_lacks_B", "channel_pitch", "m_not_output_size"])
    def test_predict_rejects_bad_window_metadata(self, workspace, tmp_path, capsys,
                                                 defect):
        root, _ = workspace
        doc = json.loads((root / "model" / "checkpoint.json").read_text())
        defect(doc["meta"])
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        run_dir = root / "sim" / "campaign"
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--output", str(tmp_path / "forecast.csv")])
        one_error_line(code, capsys)

    @pytest.mark.parametrize("defect", [
        lambda manifest: manifest["norm"].pop("B"),
        lambda manifest: manifest.update(channel="pitch"),
        lambda manifest: manifest.update(run_ids=5),
        lambda manifest: manifest.update(dt="x"),
        lambda manifest: manifest.update(run_ids=manifest["run_ids"][:1]),
    ], ids=["norm_lacks_B", "channel_pitch", "run_ids_int", "dt_text", "run_ids_short"])
    def test_evaluate_rejects_bad_window_spec(self, workspace, tmp_path, capsys,
                                              defect):
        root, _ = workspace
        src = root / "data" / "test.csv"
        manifest = json.loads(src.with_suffix(".csv.manifest.json").read_text())
        defect(manifest)
        dataset = tmp_path / "test.csv"
        shutil.copy(src, dataset)
        dataset.with_suffix(".csv.manifest.json").write_text(json.dumps(manifest))
        code = main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(dataset), "--output", str(tmp_path / "eval")])
        one_error_line(code, capsys)

    def test_evaluate_rejects_dataset_of_another_window(self, workspace, tmp_path,
                                                        capsys):
        root, config = workspace
        assert main(["build-dataset", "--config", str(config), "--set", "n=20",
                     "--campaign", str(root / "sim" / "campaign"),
                     "--output", str(tmp_path)]) == 0
        code = main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(tmp_path / "test.csv"),
                     "--output", str(tmp_path / "eval")])
        assert one_error_line(code, capsys).endswith(" in n")
        assert not (tmp_path / "eval").exists()

    def test_evaluate_rejects_header_only_dataset(self, workspace, tmp_path, capsys):
        root, _ = workspace
        src = root / "data" / "test.csv"
        dataset = tmp_path / "test.csv"
        dataset.write_text(src.read_text().splitlines()[0] + "\n")
        shutil.copy(src.with_suffix(".csv.manifest.json"),
                    dataset.with_suffix(".csv.manifest.json"))
        code = main(["evaluate",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--dataset", str(dataset), "--output", str(tmp_path / "eval")])
        assert "0 rows, but the manifest declares" in one_error_line(code, capsys)

    def test_predict_rejects_header_only_motion(self, workspace, tmp_path, capsys):
        root, _ = workspace
        motion = tmp_path / "motion.csv"
        motion.write_text("time_s,value\n")
        code = main(["predict",
                     "--checkpoint", str(root / "model" / "checkpoint.json"),
                     "--motion", str(motion),
                     "--wave", str(root / "sim" / "campaign" / "WC2_wave.csv"),
                     "--output", str(tmp_path / "forecast.csv")])
        assert "at least two rows" in one_error_line(code, capsys)

    def test_checkpoint_window_spec_comes_from_the_data(self, workspace, tmp_path,
                                                        capsys):
        """A campaign simulated at dt 0.5 and trained with the default-dt config
        gives a checkpoint at dt 0.5 that accepts that campaign's data."""
        _, config = workspace
        assert main(["simulate", "--config", str(config), "--set", "dt=0.5",
                     "--output", str(tmp_path)]) == 0
        run_dir = tmp_path / "campaign"
        out = tmp_path / "model"
        for command in ("build-dataset", "train"):
            assert main([command, "--config", str(config), "--campaign", str(run_dir),
                         "--output", str(out)]) == 0
        assert json.loads((out / "checkpoint.json").read_text())["meta"]["dt"] == 0.5
        assert main(["predict", "--checkpoint", str(out / "checkpoint.json"),
                     "--motion", str(run_dir / "WC2_heave.csv"),
                     "--wave", str(run_dir / "WC2_wave.csv"),
                     "--output", str(tmp_path / "forecast.csv")]) == 0
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--dataset", str(out / "test.csv"),
                     "--output", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().err == ""

    def test_example2_trains_on_every_noise_level(self, workspace, tmp_path):
        root, config = workspace
        campaign = str(root / "sim" / "campaign")
        for command in ("build-dataset", "train"):
            assert main([command, "--config", str(config), "--set", "example_id=2",
                         "--campaign", campaign, "--output", str(tmp_path)]) == 0
        # example 2 trains on WC1/WC3/WC4 unless the config names other conditions
        assert main(["build-dataset", "--config", str(config), "--set",
                     'training_condition_ids=["WC1","WC3","WC4"]', "--campaign",
                     campaign, "--output", str(tmp_path / "clean")]) == 0
        clean = load_dataset(tmp_path / "clean" / "training.csv")
        noisy = load_dataset(tmp_path / "training.csv")
        assert sorted(set(noisy.run_ids)) == ["WC1", "WC3", "WC4"]
        levels = TINY["noise_levels"]
        assert len(noisy) == len(clean) * len(levels)
        assert noisy.noise_level == max(levels)
        assert np.array_equal(noisy.Y, np.concatenate(
            [clean.Y[np.array(clean.run_ids) == run]
             for run in sorted(set(clean.run_ids)) for _ in levels]))
        # dataset,channel,n,m,w,noise,...: the model's training report
        training_row = (tmp_path / "summary.csv").read_text().splitlines()[1]
        assert training_row.split(",")[5] == repr(max(levels))

    def test_example3_reads_motion_alone(self, workspace, tmp_path):
        root, config = workspace
        campaign = str(root / "sim" / "campaign")
        for command in ("build-dataset", "train"):
            assert main([command, "--config", str(config), "--set", "example_id=3",
                         "--campaign", campaign, "--output", str(tmp_path)]) == 0
        for role in ("training", "test"):
            manifest = json.loads((tmp_path / f"{role}.csv.manifest.json").read_text())
            assert (manifest["r"], manifest["w"]) == (1, 0)
        meta = load_checkpoint(tmp_path / "checkpoint.json").meta
        assert (meta["r"], meta["w"]) == (1, 0)

    @pytest.mark.parametrize("defect", ["format_version", "samples", "dt",
                                        "missing_runs", "unknown_condition_key",
                                        "invalid_json"])
    def test_build_dataset_rejects_bad_campaign(self, workspace, tmp_path, capsys,
                                                defect):
        root, config = workspace
        campaign = tmp_path / "campaign"
        shutil.copytree(root / "sim" / "campaign", campaign)
        path = campaign / "manifest.json"
        manifest = json.loads(path.read_text())
        if defect == "format_version":
            manifest["format_version"] = 7
        elif defect == "samples":
            manifest["runs"][0]["samples"] += 5
        elif defect == "dt":
            manifest["runs"][0]["dt"] = 0.5
        elif defect == "missing_runs":
            del manifest["runs"]
        elif defect == "unknown_condition_key":
            manifest["runs"][0]["condition"]["depth"] = 100.0
        path.write_text("{not json" if defect == "invalid_json" else json.dumps(manifest))
        code = main(["build-dataset", "--config", str(config), "--campaign",
                     str(campaign), "--output", str(tmp_path / "data")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("defect", [
        lambda runs: runs[0].update(seed="x"),
        lambda runs: runs[0]["condition"].update(Hs="x"),
        lambda runs: runs[1]["condition"].update(id=runs[0]["condition"]["id"]),
        lambda runs: runs[0]["condition"].update(id="../campaign/WC1"),
    ], ids=["seed_text", "hs_text", "duplicate_id", "id_not_a_file_stem"])
    def test_build_dataset_rejects_bad_campaign_run(self, workspace, tmp_path,
                                                    capsys, defect):
        root, config = workspace
        campaign = tmp_path / "campaign"
        shutil.copytree(root / "sim" / "campaign", campaign)
        manifest = json.loads((campaign / "manifest.json").read_text())
        defect(manifest["runs"])
        (campaign / "manifest.json").write_text(json.dumps(manifest))
        code = main(["build-dataset", "--config", str(config), "--campaign",
                     str(campaign), "--output", str(tmp_path / "data")])
        one_error_line(code, capsys)

    def test_build_dataset_rejects_missing_campaign(self, workspace, tmp_path,
                                                    capsys):
        _, config = workspace
        code = main(["build-dataset", "--config", str(config), "--campaign",
                     str(tmp_path / "no" / "such"), "--output", str(tmp_path / "data")])
        assert "manifest.json" in one_error_line(code, capsys)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["build-dataset", "train"])
    def test_campaign_runs_share_one_sample_interval(self, workspace, tmp_path,
                                                     capsys, command):
        """WC1 re-saved at dt 0.5 with its manifest entry to match, the other
        runs left at the campaign's dt."""
        root, config = workspace
        campaign = tmp_path / "campaign"
        shutil.copytree(root / "sim" / "campaign", campaign)
        for channel in ("wave", "heave", "surge"):
            path = campaign / f"WC1_{channel}.csv"
            series = TimeSeries.load_csv(path)
            TimeSeries(dt=0.5, values=series.values).save_csv(path)
        manifest = json.loads((campaign / "manifest.json").read_text())
        manifest["runs"][0]["dt"] = 0.5
        (campaign / "manifest.json").write_text(json.dumps(manifest))
        code = main([command, "--config", str(config), "--campaign", str(campaign),
                     "--output", str(tmp_path / "out")])
        assert "WC2_wave.csv: dt 0.775" in one_error_line(code, capsys)

    @pytest.mark.parametrize("flags", [
        ["--set", "example_id=2"],
        ["--set", 'training_condition_ids=["WC1","WC3"]']], ids=["example2", "set_ids"])
    def test_training_conditions_missing_from_the_campaign(self, workspace, tmp_path,
                                                          capsys, flags):
        """WC3 dropped from the manifest: a run that trains on it is refused
        rather than trained on the other conditions."""
        root, config = workspace
        campaign = tmp_path / "campaign"
        shutil.copytree(root / "sim" / "campaign", campaign)
        manifest = json.loads((campaign / "manifest.json").read_text())
        manifest["runs"] = [r for r in manifest["runs"] if r["condition"]["id"] != "WC3"]
        (campaign / "manifest.json").write_text(json.dumps(manifest))
        code = main(["build-dataset", "--config", str(config), *flags,
                     "--campaign", str(campaign), "--output", str(tmp_path / "data")])
        assert "WC3" in one_error_line(code, capsys)
        assert not (tmp_path / "data").exists()

    def test_campaign_channels_share_one_start_time(self, workspace, tmp_path, capsys):
        root, config = workspace
        campaign = tmp_path / "campaign"
        shutil.copytree(root / "sim" / "campaign", campaign)
        wave = TimeSeries.load_csv(campaign / "WC1_wave.csv")
        TimeSeries(dt=wave.dt, values=wave.values,
                   start_time=300.0).save_csv(campaign / "WC1_wave.csv")
        code = main(["train", "--config", str(config), "--campaign", str(campaign),
                     "--output", str(tmp_path / "out")])
        assert "from 300.0 s" in one_error_line(code, capsys)
        assert not (tmp_path / "out").exists()

    def test_example2_train_matches_sweep(self, workspace, tmp_path):
        _, config = workspace
        args = ["--config", str(config), "--set", "example_id=2", "--set", "max_epochs=1"]
        assert main(["sweep", *args, "--set", f"output_dir={tmp_path / 'runs'}"]) == 0
        assert main(["train", *args, "--output", str(tmp_path / "model")]) == 0
        swept = tmp_path / "runs" / "example2_heave" / "checkpoint.json"
        assert (tmp_path / "model" / "checkpoint.json").read_bytes() == swept.read_bytes()

    def test_sweep_and_report(self, workspace):
        root, config = workspace
        assert main(["sweep", "--config", str(config),
                     "--set", "example_id=2",
                     "--set", 'test_noise_levels=[0.0]',
                     "--set", "max_epochs=1"]) == 0
        assert main(["report", "--output-dir", str(root / "runs")]) == 0
        report = (root / "runs" / "report.csv").read_text().strip().splitlines()
        assert len(report) >= 2


# Ways to spoil one value of a document: delete its key, or replace it
MUTATIONS = {
    "delete": None, "text": lambda v: "x", "bool": lambda v: True,
    "null": lambda v: None, "nan": lambda v: float("nan"),
    "negative": lambda v: -1, "in_list": lambda v: [v], "in_object": lambda v: {"x": v},
}


def key_paths(doc, path=()):
    """The path of every object key in ``doc``, and of the first entry of
    every list, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = [(0, doc[0])] if isinstance(doc, list) and doc else []
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


def mutated(doc, path, mutation):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[mutation](parent[path[-1]])
    return doc


class TestBoundaryFuzz:
    """Every key of every document the CLI reads, spoiled one at a time,
    ends in exit 0 or in exit 1 with at most one stderr line."""

    @settings(max_examples=6, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_spoiled_documents_end_in_one_line(self, workspace, data):
        root, config = workspace
        fuzz = root / "fuzz"
        if not fuzz.exists():
            shutil.copytree(root / "sim" / "campaign", fuzz / "campaign")
            shutil.copy(root / "data" / "test.csv", fuzz / "test.csv")
        model, run_dir = root / "model" / "checkpoint.json", root / "sim" / "campaign"
        out = ["--output", str(fuzz / "out")]
        documents = {  # source, fuzzed copy, the commands that read it
            "campaign": (run_dir / "manifest.json", fuzz / "campaign" / "manifest.json",
                         [["build-dataset", "--config", str(config),
                           "--campaign", str(fuzz / "campaign"), *out]]),
            "dataset": (root / "data" / "test.csv.manifest.json",
                        fuzz / "test.csv.manifest.json",
                        [["evaluate", "--checkpoint", str(model),
                          "--dataset", str(fuzz / "test.csv"), *out]]),
            "checkpoint": (model, fuzz / "checkpoint.json",
                           [["evaluate", "--checkpoint", str(fuzz / "checkpoint.json"),
                             "--dataset", str(root / "data" / "test.csv"), *out],
                            ["predict", "--checkpoint", str(fuzz / "checkpoint.json"),
                             "--motion", str(run_dir / "WC2_heave.csv"),
                             "--wave", str(run_dir / "WC2_wave.csv"),
                             "--output", str(fuzz / "forecast.csv")]]),
            "config": (config, fuzz / "config.json",
                       [["build-dataset", "--config", str(fuzz / "config.json"),
                         "--campaign", str(run_dir), *out]]),
        }
        for name, (source, copy, commands) in documents.items():
            doc = json.loads(source.read_text())
            for path in key_paths(doc):
                mutation = data.draw(st.sampled_from(sorted(MUTATIONS)),
                                     label=f"{name} {path}")
                copy.write_text(json.dumps(mutated(doc, path, mutation)))
                for command in commands:
                    stderr = io.StringIO()
                    with contextlib.redirect_stderr(stderr), \
                            contextlib.redirect_stdout(io.StringIO()):
                        code = main(command)
                    assert code in (0, 1), (command, path, mutation)
                    assert len(stderr.getvalue().splitlines()) <= 1, stderr.getvalue()
            copy.write_text(source.read_text())


class TestErrors:
    def test_bad_override_shape(self, capsys):
        assert main(["simulate", "--set", "nonsense"]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_unknown_config_field(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_such_field": 1}))
        assert main(["simulate", "--config", str(config)]) == 1

    def test_unknown_override_field(self, capsys):
        assert main(["simulate", "--set", "no_such=1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "no_such" in err[0]

    def test_wrongly_typed_override(self, capsys):
        assert main(["build-dataset", "--set", 'n="abc"']) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "n must be int" in err[0]

    def test_override_replaces_file_value_before_the_check(self, capsys, tmp_path):
        """--set merges into the file's fields, and the one check sees the result."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 0, "duration": 700.0, "dt": 0.775}))
        assert main(["simulate", "--config", str(config),
                     "--output", str(tmp_path)]) == 1
        assert "n must be >= 1, got 0" in capsys.readouterr().err
        assert main(["simulate", "--config", str(config), "--set", "n=12",
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "campaign" / "manifest.json").exists()

    def test_undecodable_config_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe{")
        code = main(["simulate", "--config", str(config), "--output", str(tmp_path)])
        assert "cannot load config" in one_error_line(code, capsys)

    @pytest.mark.parametrize("overrides, message", [
        (["dt=1e-9", "duration=1e9"], "Unable to allocate"),
        (["duration=1.7e308"], "infinity"),
    ], ids=["unallocatable_campaign", "duration_overflows"])
    def test_campaign_size_beyond_reach(self, capsys, tmp_path, overrides, message):
        """Sizes numpy refuses at once (exbibytes, or an infinite sample count)."""
        argv = ["simulate", "--output", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert message in one_error_line(main(argv), capsys)
        assert not (tmp_path / "campaign").exists()

    def test_missing_checkpoint(self, capsys, tmp_path):
        code = main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                     "--dataset", str(tmp_path / "none.csv"),
                     "--output", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err
