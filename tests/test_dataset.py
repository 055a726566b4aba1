import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisub_motion.dataset import (NormalizationConstants, add_noise, build_pairs,
                                    compute_norm_constants, concat_datasets,
                                    load_dataset, noise_seed, pair_count,
                                    regularize, role_dataset, save_dataset,
                                    split_campaign, window_spec)
from semisub_motion.errors import (ConfigurationError, DegenerateDataError,
                                   DomainError)
from semisub_motion.timeseries import TimeSeries
from semisub_motion.vessel import generate_campaign
from support import REFERENCE_NORM_CM, deregularize


def series(values, dt=1.0):
    return TimeSeries(dt=dt, values=np.asarray(values, dtype=float))


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(base_seed=3, duration=2400.0, dt=0.775)


class TestNormConstants:
    def test_single_run_mean_and_std(self, campaign):
        norm = compute_norm_constants(campaign[:1])
        run = campaign[0]
        assert norm.A["wave"] == pytest.approx(run.wave.values.mean())
        assert norm.B["wave"] == pytest.approx(run.wave.values.std())

    def test_averaged_over_runs(self, campaign):
        norm = compute_norm_constants(campaign)
        means = [r.heave.values.mean() for r in campaign]
        assert norm.A["heave"] == pytest.approx(np.mean(means))

    def test_constant_series_rejected(self):
        run = campaign_with_constant_motion()
        with pytest.raises(DegenerateDataError):
            compute_norm_constants([run])

    def test_two_point_example(self):
        # population statistics of {0, 2}: mean 1, std 1
        assert np.mean([0.0, 2.0]) == 1.0
        assert np.std([0.0, 2.0]) == 1.0

    def test_reference_fixture_regularizes_to_unit(self):
        A, B = REFERENCE_NORM_CM["heave"]
        assert (1.404 - A) / B == pytest.approx(1.0, abs=1e-12)

    def test_empty_campaign_rejected(self):
        with pytest.raises(DomainError):
            compute_norm_constants([])


def campaign_with_constant_motion():
    from semisub_motion.vessel import CampaignRun, WaveCondition
    zero = series(np.zeros(100))
    cond = WaveCondition("WC1", 13.4, 14.2)
    return CampaignRun(condition=cond, wave=zero, heave=zero, surge=zero, seed=0)


class TestRegularize:
    def test_constant_maps_to_zero(self):
        ts = series(np.full(10, 4.2))
        assert np.all(regularize(ts, 4.2, 2.0).values == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ts = series(rng.normal(2.0, 3.0, 500))
        back = deregularize(regularize(ts, 1.5, 2.5), 1.5, 2.5)
        assert np.allclose(back.values, ts.values, rtol=0, atol=1e-12)

    @given(A=st.floats(-100, 100), B=st.floats(0.01, 100),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, A, B, seed):
        rng = np.random.default_rng(seed)
        ts = series(rng.uniform(-50, 50, 64))
        back = deregularize(regularize(ts, A, B), A, B)
        assert np.allclose(back.values, ts.values, rtol=0, atol=1e-9)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            regularize(series([0.0, 1.0]), 0.0, 0.0)


class TestAddNoise:
    def test_zero_level_identity(self):
        ts = series(np.arange(100, dtype=float))
        assert np.array_equal(add_noise(ts, 0.0, 5).values, ts.values)

    def test_noise_std_scales_with_level(self):
        rng = np.random.default_rng(1)
        ts = series(rng.normal(0.0, 2.0, 20000))
        noisy = add_noise(ts, 0.5, seed=9)
        added = noisy.values - ts.values
        assert added.std() == pytest.approx(0.5 * ts.values.std(), rel=0.05)
        assert abs(added.mean()) < 0.05

    def test_seeded_determinism(self):
        ts = series(np.sin(np.arange(200) * 0.1))
        a = add_noise(ts, 0.3, seed=2).values
        b = add_noise(ts, 0.3, seed=2).values
        assert np.array_equal(a, b)

    def test_seed_keyed_on_canonical_level(self):
        assert noise_seed("WC1", "heave", 0.3, 0) == 374777761
        assert noise_seed("WC1", "heave", 0.1 + 0.2, 0) == noise_seed("WC1", "heave", 0.3, 0)
        assert noise_seed("WC1", "heave", 1, 0) == noise_seed("WC1", "heave", 1.0, 0)

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            add_noise(series([0.0, 1.0]), -0.1, 0)


def enumerate_pairs(L, n, m, w):
    """Independent index-enumeration oracle for the windowing rule."""
    pairs = []
    for p in range(L):
        motion_idx = list(range(p - n, p))
        wave_idx = list(range(p + w - n, p + w))
        target_idx = list(range(p, p + m))
        all_idx = motion_idx + wave_idx + target_idx
        if min(all_idx) >= 0 and max(all_idx) <= L - 1 and p >= n:
            pairs.append((p, motion_idx, wave_idx, target_idx))
    return pairs


class TestBuildPairs:
    def test_count_example(self):
        motion = series(np.arange(100, dtype=float))
        ds = build_pairs(motion, motion, n=10, m=5, w=5)
        assert len(ds) == 86

    def test_count_full_scale_order_of_magnitude(self):
        L, n, m, w = 18000, 60, 20, 20
        assert pair_count(L, n, m, w) == 17921

    def test_index_alignment_against_oracle(self):
        """Every stride, with and without the wave (r = 2, 1) and a target."""
        L, n, m, w = 60, 7, 4, 3
        motion = series(np.arange(L, dtype=float))
        for stride, wave_offset, target_offset in itertools.product(
                [1, 3, 5], [1000.0, None], [None, 500.0]):
            wave = None if wave_offset is None else series(wave_offset + np.arange(L))
            target = None if target_offset is None else series(target_offset + np.arange(L))
            ds = build_pairs(motion, wave, n, m, w, stride=stride, target=target)
            oracle = enumerate_pairs(L, n, m, w)[::stride]
            assert len(ds) == len(oracle) and ds.r == (1 if wave is None else 2)
            for i, (p, motion_idx, wave_idx, target_idx) in enumerate(oracle):
                assert ds.anchors[i] == p
                assert np.array_equal(ds.X[i, :, 0], motion_idx)
                if wave is not None:
                    assert np.array_equal(ds.X[i, :, 1], wave_offset + np.array(wave_idx))
                assert np.array_equal(ds.Y[i], (target_offset or 0.0) + np.array(target_idx))

    @pytest.mark.parametrize("use_wave", [True, False])
    def test_windows_are_read_only_views(self, use_wave):
        motion = series(np.arange(40, dtype=float))
        ds = build_pairs(motion, motion if use_wave else None, n=6, m=4, w=2, stride=3)
        assert not ds.X.flags.writeable and not ds.Y.flags.writeable
        if not use_wave:  # X and Y are windows of one standardized series
            assert np.shares_memory(ds.X, ds.Y)

    @given(L=st.integers(20, 200), n=st.integers(1, 30),
           m=st.integers(1, 20), w=st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_count_property_vs_oracle(self, L, n, m, w):
        expected = len(enumerate_pairs(L, n, m, w))
        if expected == 0:
            with pytest.raises(DomainError):
                build_pairs(series(np.arange(L, dtype=float)), None, n, m, w)
        else:
            ds = build_pairs(series(np.arange(L, dtype=float)), None, n, m, w)
            assert len(ds) == expected
            assert pair_count(L, n, m, w) == expected

    def test_no_future_motion_leakage(self):
        motion = series(np.arange(80, dtype=float))
        ds = build_pairs(motion, motion, n=8, m=6, w=4)
        for i in range(len(ds)):
            p = int(ds.anchors[i])
            assert ds.X[i, :, 0].max() == p - 1  # motion inputs end at t_{p-1}
            assert ds.Y[i][0] == p               # target starts at t_p

    def test_wave_lookahead_sample_count(self):
        motion = series(np.arange(80, dtype=float))
        w = 5
        ds = build_pairs(motion, motion, n=10, m=5, w=w)
        for i in range(len(ds)):
            p = int(ds.anchors[i])
            lookahead = np.sum(ds.X[i, :, 1] >= p)
            assert lookahead == w

    def test_zero_lag_windows_coincide(self):
        motion = series(np.arange(50, dtype=float))
        ds = build_pairs(motion, motion, n=6, m=4, w=0)
        assert np.array_equal(ds.X[..., 0], ds.X[..., 1])

    def test_too_short_series_rejected(self):
        with pytest.raises(DomainError):
            build_pairs(series(np.arange(10, dtype=float)), None, n=8, m=5, w=0)

    @pytest.mark.parametrize("other, axis", [
        ("wave", dict(dt=0.5)), ("wave", dict(start_time=30.0)),
        ("target", dict(dt=0.5)), ("target", dict(start_time=30.0)),
        ("wave", dict(samples=101))])
    def test_series_on_another_time_axis_rejected(self, other, axis):
        motion = TimeSeries(dt=0.775, values=np.arange(100.0))
        misaligned = TimeSeries(dt=axis.get("dt", 0.775),
                                values=np.arange(float(axis.get("samples", 100))),
                                start_time=axis.get("start_time", 0.0))
        series_of = {"wave": None, "target": None, other: misaligned}
        with pytest.raises(DomainError):
            build_pairs(motion, series_of["wave"], n=10, m=5, w=5,
                        target=series_of["target"])

    def test_restore_gives_back_raw_targets(self):
        raw = 3.7 + 2.3 * np.sin(0.21 * np.arange(90))
        norm = NormalizationConstants(A={"surge": 3.1, "wave": -0.4},
                                      B={"surge": 0.45, "wave": 1.7})
        ds = build_pairs(series(raw), series(np.cos(np.arange(90.0))), n=9, m=7, w=3,
                         norm=norm, channel="surge", stride=2)
        expected = np.stack([raw[p:p + 7] for p in ds.anchors])
        assert not np.allclose(ds.Y, expected)
        np.testing.assert_allclose(ds.restore(ds.Y), expected, rtol=1e-12, atol=0)


class TestSplitCampaign:
    def test_default_split_roles(self, campaign):
        training, test = split_campaign(campaign, "heave", 20, 10, 10)
        assert set(training.run_ids) == {"WC1", "WC3", "WC4", "WC5", "WC6", "WC7", "WC8"}
        assert set(test.run_ids) == {"WC2"}
        assert training.role == "training" and test.role == "test"

    def test_noise_crossing(self, campaign):
        levels = [0.0, 0.1, 0.2]
        subset = [r for r in campaign if r.condition.id in ("WC1", "WC2", "WC3", "WC4")]
        training, _ = split_campaign(subset, "heave", 20, 10, 10,
                                     noise_levels=levels)
        base = split_campaign(subset, "heave", 20, 10, 10)[0]
        assert len(training) == len(base) * len(levels)

    def test_targets_always_clean(self, campaign):
        norm = compute_norm_constants(campaign)
        noisy_train, _ = split_campaign(campaign, "heave", 20, 10, 10,
                                        noise_levels=[0.4], norm=norm)
        clean_train, _ = split_campaign(campaign, "heave", 20, 10, 10,
                                        noise_levels=[0.0], norm=norm)
        assert np.array_equal(noisy_train.Y, clean_train.Y)
        assert not np.array_equal(noisy_train.X, clean_train.X)

    def test_motion_only_single_feature(self, campaign):
        training, test = split_campaign(campaign, "heave", 20, 10, 0,
                                        use_wave=False)
        assert training.r == 1 and test.r == 1

    def test_missing_test_run_rejected(self, campaign):
        train_only = [r for r in campaign if r.condition.dataset_role == "training"]
        with pytest.raises(ConfigurationError):
            split_campaign(train_only, "heave", 20, 10, 10)

    def test_deterministic(self, campaign):
        a = split_campaign(campaign, "surge", 20, 10, 10, noise_levels=[0.2])[0]
        b = split_campaign(campaign, "surge", 20, 10, 10, noise_levels=[0.2])[0]
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


def windows_by_loop(campaign, role, channel, n, m, w, levels, norm, stride,
                    use_wave=True, base_seed=0):
    """Per-anchor reference for ``role_dataset``: X, Y, anchors and run ids."""
    X, Y, anchors, run_ids = [], [], [], []
    runs = sorted((r for r in campaign if r.condition.dataset_role == role),
                  key=lambda r: r.condition.id)
    for run in runs:
        rid = run.condition.id
        y = regularize(run.channel(channel), norm.A[channel], norm.B[channel]).values
        for level in levels:
            x, wave = (regularize(add_noise(run.channel(ch), level,
                                            noise_seed(rid, ch, level, base_seed)),
                                  norm.A[ch], norm.B[ch]).values for ch in (channel, "wave"))
            for p in range(n, n + pair_count(len(x), n, m, w), stride):
                cols = [x[p - n:p]] + ([wave[p - n + w:p + w]] if use_wave else [])
                X.append(np.stack(cols, axis=1))
                Y.append(y[p:p + m])
                anchors.append(p)
                run_ids.append(rid)
    return np.array(X), np.array(Y), np.array(anchors), run_ids


class TestWindowBytes:
    @pytest.mark.parametrize("stride, use_wave", [(1, True), (5, True), (10, False)])
    def test_split_campaign_equals_per_anchor_loop(self, campaign, stride, use_wave):
        norm = compute_norm_constants(campaign)
        levels, w = [0.0, 0.3, 0.5], 10 if use_wave else 0
        training, test = split_campaign(campaign, "heave", 20, 8, w, noise_levels=levels,
                                        use_wave=use_wave, norm=norm, noise_base_seed=2,
                                        stride=stride, test_noise_level=0.4)
        for ds, role, role_levels in ((training, "training", levels), (test, "test", [0.4])):
            X, Y, anchors, run_ids = windows_by_loop(campaign, role, "heave", 20, 8, w,
                                                     role_levels, norm, stride, use_wave, 2)
            assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()
            assert ds.Y.shape == Y.shape and ds.Y.tobytes() == Y.tobytes()
            assert np.array_equal(ds.anchors, anchors) and ds.run_ids == run_ids

    def test_returned_windows_are_owned(self, campaign, tmp_path):
        """Every returned set's X and Y are C-contiguous, writeable, and alias
        neither each other nor the campaign's series."""
        norm = compute_norm_constants(campaign)
        training, test = split_campaign(campaign, "heave", 12, 6, 6, noise_levels=[0.0, 0.2],
                                        norm=norm, stride=4)
        single = role_dataset(campaign, "test", "heave", 12, 6, 0, [0.0], norm,
                              use_wave=False)
        save_dataset(test, tmp_path / "test.csv")
        motion = campaign[0].channel("heave")
        forecast = concat_datasets([build_pairs(motion, None, 12, 6, 0)])
        series_values = [run.channel(ch).values for run in campaign for ch in ("heave", "wave")]
        for ds in (training, test, single, load_dataset(tmp_path / "test.csv"), forecast):
            for a in (ds.X, ds.Y):
                assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
                assert not any(np.shares_memory(a, v) for v in series_values)
            assert not np.shares_memory(ds.X, ds.Y)


class TestRoleDataset:
    @pytest.mark.parametrize("use_wave", [True, False])
    def test_each_role_matches_split_campaign(self, campaign, use_wave):
        norm = compute_norm_constants(campaign)
        w = 10 if use_wave else 0
        halves = split_campaign(campaign, "surge", 20, 10, w, noise_levels=[0.0, 0.2],
                                use_wave=use_wave, norm=norm, noise_base_seed=4,
                                stride=3, test_noise_level=0.4)
        for role, levels, half in zip(("training", "test"), ([0.0, 0.2], [0.4]), halves):
            ds = role_dataset(campaign, role, "surge", 20, 10, w, levels, norm,
                              use_wave=use_wave, noise_base_seed=4, stride=3)
            assert np.array_equal(ds.X, half.X) and np.array_equal(ds.Y, half.Y)
            assert np.array_equal(ds.anchors, half.anchors)
            assert ds.run_ids == half.run_ids
            assert (ds.role, ds.noise_level) == (half.role, half.noise_level) == (role, levels[-1])

    def test_campaign_without_training_runs_rejected(self, campaign):
        test_only = [r for r in campaign if r.condition.dataset_role == "test"]
        norm = compute_norm_constants(campaign)
        with pytest.raises(ConfigurationError, match="no training-role run"):
            role_dataset(test_only, "training", "heave", 20, 10, 10, [0.0], norm)
        with pytest.raises(ConfigurationError):
            split_campaign(test_only, "heave", 20, 10, 10)

    def test_targets_cut_from_target_series(self):
        motion = series(np.arange(50, dtype=float))
        target = series(np.arange(50, dtype=float) * 10)
        ds = build_pairs(motion, None, n=6, m=4, w=0, target=target)
        assert np.array_equal(ds.Y, build_pairs(target, None, n=6, m=4, w=0).Y)
        assert np.array_equal(ds.X, build_pairs(motion, None, n=6, m=4, w=0).X)


class TestDatasetIO:
    def test_round_trip(self, campaign, tmp_path):
        _, test = split_campaign(campaign, "heave", 12, 6, 6)
        path = tmp_path / "test.csv"
        save_dataset(test, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.X, test.X)
        assert np.array_equal(loaded.Y, test.Y)
        assert (loaded.n, loaded.m, loaded.w, loaded.r) == (12, 6, 6, 2)
        assert loaded.norm == test.norm
        manifest = json.loads(path.with_suffix(".csv.manifest.json").read_text())
        assert {k: manifest[k] for k in window_spec(test)} == window_spec(test)
