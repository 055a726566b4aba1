import numpy as np
import pytest

from semisub_motion.errors import ConfigurationError
from semisub_motion.timeseries import TimeSeries
from semisub_motion.vessel import (DEFAULT_CONDITIONS, ResponseParams,
                                   WaveCondition, generate_campaign,
                                   heave_response, load_campaign,
                                   save_campaign, surge_response)
from semisub_motion.waves import SpectrumParams, synthesize_wave
from support import estimate_spectrum

DT = 0.775


@pytest.fixture(scope="module")
def wc3_wave():
    params = SpectrumParams(Hs=13.4, Tp=14.7)
    return synthesize_wave(params, 10800.0, DT, seed=42)


def band_variance(est, lo, hi):
    mask = (est.frequencies >= lo) & (est.frequencies < hi)
    return np.trapezoid(est.densities[mask], est.frequencies[mask])


class TestHeaveResponse:
    def test_zero_wave_zero_heave(self):
        wave = TimeSeries(dt=DT, values=np.zeros(1000))
        assert np.all(heave_response(wave).values == 0.0)

    def test_regular_wave_steady_response(self):
        t = DT * np.arange(4000)
        wave = TimeSeries(dt=DT, values=np.cos(2 * np.pi / 14.7 * t))
        heave = heave_response(wave).values
        # after transient decay the response oscillates at the wave period
        tail = heave[2000:]
        period_samples = 14.7 / DT
        crossings = np.where(np.diff(np.sign(tail)) > 0)[0]
        measured = np.mean(np.diff(crossings))
        assert measured == pytest.approx(period_samples, rel=0.05)

    def test_linearity(self, wc3_wave):
        one = heave_response(wc3_wave).values
        scaled = heave_response(wc3_wave.with_values(3.0 * wc3_wave.values)).values
        assert np.allclose(scaled, 3.0 * one, rtol=1e-9, atol=1e-12)

    def test_wave_band_dominance(self, wc3_wave):
        est = estimate_spectrum(heave_response(wc3_wave), 512)
        wp = 2 * np.pi / 14.7
        lf = band_variance(est, 0.0, 0.5 * wp)
        assert lf / est.integral() < 0.1

    def test_coarse_dt_rejected(self):
        wave = TimeSeries(dt=10.0, values=np.zeros(100))
        with pytest.raises(ConfigurationError):
            heave_response(wave)


class TestSurgeResponse:
    def test_zero_wave_zero_surge(self):
        wave = TimeSeries(dt=DT, values=np.zeros(1000))
        assert np.all(surge_response(wave).values == 0.0)

    def test_regular_wave_offset_plus_oscillation(self):
        t = DT * np.arange(60000)
        wave = TimeSeries(dt=DT, values=2.0 * np.cos(2 * np.pi / 14.7 * t))
        surge = surge_response(wave).values
        tail = surge[40000:]  # past the slow-drift transient
        assert tail.mean() > 0.1  # constant squared envelope -> static offset
        assert tail.std() > 0.01  # wave-period oscillation still present

    def test_low_frequency_dominance(self, wc3_wave):
        est = estimate_spectrum(surge_response(wc3_wave), 512)
        wp = 2 * np.pi / 14.7
        split = 0.5 * wp
        lf = band_variance(est, 0.0, split)
        wf = band_variance(est, split, est.frequencies[-1])
        assert lf / wf > 2.0


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(base_seed=7, duration=3600.0, dt=DT)


class TestCampaign:

    def test_default_has_eight_runs_one_test(self, campaign):
        assert len(campaign) == 8
        test_runs = [r for r in campaign if r.condition.dataset_role == "test"]
        assert [r.condition.id for r in test_runs] == ["WC2"]

    def test_seed_pairs_share_spectrum_not_samples(self, campaign):
        by_id = {r.condition.id: r for r in campaign}
        wc2, wc3 = by_id["WC2"], by_id["WC3"]
        assert (wc2.condition.Hs, wc2.condition.Tp) == (wc3.condition.Hs, wc3.condition.Tp)
        assert not np.array_equal(wc2.wave.values, wc3.wave.values)

    def test_deterministic_per_base_seed(self, campaign):
        again = generate_campaign(base_seed=7, duration=3600.0, dt=DT)
        for a, b in zip(campaign, again):
            assert np.array_equal(a.wave.values, b.wave.values)
            assert np.array_equal(a.surge.values, b.surge.values)

    def test_runs_sample_aligned(self, campaign):
        for run in campaign:
            assert len(run.wave) == len(run.heave) == len(run.surge)
            assert run.wave.dt == run.heave.dt == run.surge.dt

    def test_full_scale_sample_count(self):
        runs = generate_campaign(conditions=DEFAULT_CONDITIONS[:1], base_seed=0)
        assert len(runs[0].wave) == 13935

    def test_duplicate_ids_rejected(self):
        double = [DEFAULT_CONDITIONS[0], DEFAULT_CONDITIONS[0]]
        with pytest.raises(ConfigurationError):
            generate_campaign(conditions=double, base_seed=0, duration=1200.0)

    def test_save_load_round_trip(self, campaign, tmp_path):
        save_campaign(campaign[:2], tmp_path / "camp", params=ResponseParams())
        loaded = load_campaign(tmp_path / "camp")
        assert [r.condition.id for r in loaded] == [r.condition.id for r in campaign[:2]]
        for a, b in zip(campaign[:2], loaded):
            assert np.allclose(a.heave.values, b.heave.values, rtol=0, atol=0)


def test_condition_validation():
    with pytest.raises(Exception):
        WaveCondition("WCX", 10.0, 12.0, dataset_role="validation")
