import json

import numpy as np
import pytest

from semisub_motion import dataset
from semisub_motion.errors import ConfigurationError
from semisub_motion.experiments import (EXAMPLE2_TRAINING_IDS,
                                        ExperimentConfig, aggregate_reports,
                                        get_campaign, run_experiment,
                                        save_history, select_runs, train_cell)
from semisub_motion.metrics import SUMMARY_HEADER
from semisub_motion.training import EpochRecord, TrainingConfig
from semisub_motion.vessel import generate_campaign
from support import overfit_gap


def tiny_config(**overrides):
    """Desk-scale config: short runs, small windows, tiny network."""
    base = dict(
        example_id=1, channel="heave", n=12, m=6, w=6,
        noise_levels=[0.0, 0.3], test_noise_levels=[0.0, 0.3],
        lstm_hidden=[8], fc_count=1, fc_width=8,
        n_sweep=[10, 20], w_sweep=[0, 6], m_sweep=[6],
        hidden_sweep=[8], lstm_layer_sweep=[1],
        fc_count_sweep=[1], fc_width_sweep=[8],
        batch_size=128, max_epochs=2,
        duration=700.0, dt=0.775, anchor_stride=7)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(base_seed=11, duration=700.0, dt=0.775)


class TestConfig:
    def test_json_round_trip(self):
        config = tiny_config(channel="surge", max_epochs=7)
        back = ExperimentConfig.from_dict(json.loads(config.to_json()))
        assert back == config

    def test_file_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert ExperimentConfig.from_file(path) == config

    def test_invalid_example_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(example_id=4)

    def test_invalid_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(channel="pitch")

    def test_training_config_fields(self):
        config = tiny_config(initial_lr=0.02, max_epochs=9, shuffle_seed=5)
        assert isinstance(config, TrainingConfig)
        assert (config.initial_lr, config.max_epochs, config.shuffle_seed) == (0.02, 9, 5)
        assert ExperimentConfig().max_epochs == TrainingConfig().max_epochs == 150

    @pytest.mark.parametrize("value", ["abc", True, 12.0, None])
    def test_integer_field_must_be_int(self, value):
        with pytest.raises(ConfigurationError, match="n must be int"):
            tiny_config(n=value)

    def test_float_field_accepts_int_rejects_text(self):
        assert tiny_config(duration=700).duration == 700
        with pytest.raises(ConfigurationError, match="dt must be float"):
            tiny_config(dt="0.775")

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_window_lengths_at_least_one(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            tiny_config(**{field: 0})

    def test_wave_lag_non_negative(self):
        assert tiny_config(w=0).w == 0
        with pytest.raises(ConfigurationError, match="w must be >= 0"):
            tiny_config(w=-1)

    @pytest.mark.parametrize("field", ["anchor_stride", "batch_size"])
    def test_stride_and_batch_at_least_one(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
            tiny_config(**{field: 0})

    def test_max_epochs_non_negative(self):
        assert tiny_config(max_epochs=0).max_epochs == 0
        with pytest.raises(ConfigurationError, match="max_epochs must be >= 0"):
            tiny_config(max_epochs=-1)

    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("duration", -1.0), ("dt", float("nan")),
        ("duration", float("inf"))])
    def test_sampling_positive_and_finite(self, field, value):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_sweep", []), ("m_sweep", [6, 0]), ("hidden_sweep", [8.0]),
        ("lstm_layer_sweep", [True]), ("lstm_hidden", []),
        ("fc_width_sweep", "8"), ("w_sweep", [-1])])
    def test_sweeps_non_empty_positive_int_lists(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("initial_lr", float("nan")), ("initial_lr", float("inf")),
        ("decay_factor", float("nan")),
        ("noise_levels", [0.0, float("nan")]), ("noise_levels", [float("inf")]),
        ("noise_levels", [-0.1]), ("test_noise_levels", [float("nan")]),
        ("test_noise_levels", [0.0, -0.2])])
    def test_rates_and_noise_levels_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tiny_config(example_id=2, **{field: value})

    @pytest.mark.parametrize("ids", [["WCX"], ["WC2"], [], "WC1"])
    def test_training_ids_name_training_conditions(self, ids):
        with pytest.raises(ConfigurationError, match="training_condition_ids"):
            tiny_config(training_condition_ids=ids)

    def test_bad_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_file(path)


class TestCampaignSelection:
    def test_get_campaign_simulates_without_directory(self):
        config = tiny_config(duration=500.0)
        runs = get_campaign(config)
        assert len(runs) == 8

    def test_select_runs_keeps_test_role(self, campaign):
        subset = select_runs(campaign, EXAMPLE2_TRAINING_IDS)
        ids = {r.condition.id for r in subset}
        assert ids == {"WC1", "WC2", "WC3", "WC4"}

    def test_select_runs_none_is_identity(self, campaign):
        assert select_runs(campaign, None) is campaign


class TestTrainCell:
    def test_cell_trains_and_reports(self, campaign):
        config = tiny_config()
        cell = train_cell(campaign, config, config.n, config.m, config.w)
        assert len(cell.history) == config.max_epochs
        assert cell.net.meta["n"] == config.n
        assert cell.net.meta["r"] == 2
        assert np.isfinite(overfit_gap(cell))

    def test_motion_only_cell_single_input(self, campaign):
        config = tiny_config(example_id=3)
        cell = train_cell(campaign, config, config.n, config.m, 0)
        assert cell.net.meta["r"] == 1

    @pytest.mark.parametrize("example_id, r, noise_level", [
        (1, 2, 0.0), (2, 2, 0.3), (3, 1, 0.0)])
    def test_example_decides_inputs(self, campaign, example_id, r, noise_level):
        config = tiny_config(example_id=example_id, max_epochs=0)
        cell = train_cell(campaign, config, config.n, config.m, config.w)
        assert (cell.net.meta["r"], cell.net.meta["w"]) == (r, config.w if r == 2 else 0)
        assert cell.train_report.noise_level == noise_level
        assert cell.test_report.noise_level == 0.0

    def test_reproducible_given_seeds(self, campaign):
        config = tiny_config(max_epochs=1)
        a = train_cell(campaign, config, config.n, config.m, config.w)
        b = train_cell(campaign, config, config.n, config.m, config.w)
        assert a.history[-1].train_loss == b.history[-1].train_loss
        assert a.test_report.accuracy.summary == b.test_report.accuracy.summary


class TestHistoryIO:
    def test_save_history_format(self, tmp_path):
        history = [EpochRecord(0, 0.01, 1.5, 1.6), EpochRecord(1, 0.01, 1.2, 1.3)]
        path = tmp_path / "history.csv"
        save_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,test_loss"
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert loaded.shape == (2, 4)
        assert loaded[1, 2] == 1.2


class TestRunners:
    def test_example1_outputs(self, campaign, tmp_path):
        config = tiny_config(example_id=1, max_epochs=1,
                             output_dir=str(tmp_path / "runs"))
        run_experiment(config, campaign)
        out = tmp_path / "runs" / "example1_heave"
        assert (out / "config.json").exists()
        assert (out / "run.log").exists()
        for tag in ("time_window", "wave_lag", "prediction_length"):
            summary = out / f"{tag}_heave_summary.csv"
            assert summary.exists()
            lines = summary.read_text().strip().splitlines()
            assert lines[0] == SUMMARY_HEADER
            assert len(lines) >= 2
        # one checkpoint and history per swept cell
        assert (out / "time_window_n10_m6_w6_checkpoint.json").exists()
        assert (out / "time_window_n10_m6_w6_history.csv").exists()

    def test_example2_outputs(self, campaign, tmp_path):
        config = tiny_config(example_id=2, max_epochs=1,
                             output_dir=str(tmp_path / "runs"))
        results = run_experiment(config, campaign)
        out = tmp_path / "runs" / "example2_heave"
        summary = out / "noise_heave_summary.csv"
        lines = summary.read_text().strip().splitlines()
        assert len(lines) == 1 + len(config.test_noise_levels)
        assert (out / "checkpoint.json").exists()
        assert (out / "test_noise_0.3_traces.csv").exists()
        assert set(results) == {"model", "test_noise_0.0", "test_noise_0.3"}

    def test_example2_decides_norm_once(self, campaign, tmp_path):
        config = tiny_config(example_id=2, max_epochs=1,
                             output_dir=str(tmp_path / "runs"))
        results = run_experiment(config, campaign)
        model = results["model"]
        assert model.norm == dataset.compute_norm_constants(
            select_runs(campaign, config.train_condition_ids))
        # the clean test-noise set is the cell's own test set
        assert np.array_equal(results["test_noise_0.0"].accuracy.per_window,
                              model.test_report.accuracy.per_window)

    def test_example2_windows_training_set_once(self, campaign, tmp_path,
                                               monkeypatch):
        roles = []
        windowed_run = dataset._windowed_run

        def counting(run, *args):
            roles.append(run.condition.dataset_role)
            return windowed_run(run, *args)

        monkeypatch.setattr(dataset, "_windowed_run", counting)
        config = tiny_config(example_id=2, max_epochs=0, test_noise_levels=[0.0, 0.3],
                             output_dir=str(tmp_path / "runs"))
        run_experiment(config, campaign)
        assert roles.count("training") == (len(EXAMPLE2_TRAINING_IDS)
                                           * len(config.noise_levels))

    def test_example3_outputs(self, campaign, tmp_path):
        config = tiny_config(example_id=3, max_epochs=1,
                             output_dir=str(tmp_path / "runs"))
        results = run_experiment(config, campaign)
        out = tmp_path / "runs" / "example3_heave"
        lstm = (out / "lstm_sweep_heave_summary.csv").read_text().strip().splitlines()
        fc = (out / "fc_sweep_heave_summary.csv").read_text().strip().splitlines()
        # each swept cell contributes a train and a test row
        assert len(lstm) == 1 + 2
        assert len(fc) == 1 + 2
        assert "lstm_layers1_hidden8" in results

    def test_aggregate_reports(self, campaign, tmp_path):
        config = tiny_config(example_id=2, max_epochs=1,
                             test_noise_levels=[0.0],
                             output_dir=str(tmp_path / "runs"))
        run_experiment(config, campaign)
        report = aggregate_reports(tmp_path / "runs")
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "source," + SUMMARY_HEADER
        assert len(lines) == 2
        assert "noise_heave_summary.csv" in lines[1]
