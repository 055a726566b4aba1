import numpy as np
import pytest
from scipy.integrate import quad

from semisub_motion.errors import ConfigurationError, DomainError
from semisub_motion.timeseries import TimeSeries
from semisub_motion.waves import (SpectrumParams, calibrate_alpha,
                                  jonswap_density, synthesize_wave)
from support import estimate_spectrum

WC_TABLE = [(13.4, 14.2), (13.4, 14.7), (13.4, 15.7),
            (16.9, 14.4), (16.9, 15.9), (16.9, 16.9)]


@pytest.fixture(scope="module")
def params():
    return SpectrumParams(Hs=13.4, Tp=14.7)


class TestJonswapDensity:
    def test_zero_frequency_limit(self, params):
        assert jonswap_density(0.0, params) == 0.0

    def test_value_at_peak(self, params):
        # both exponent arguments collapse at the peak
        wp = params.omega_p
        expected = params.alpha * 13.4**2 * wp**-1 * np.exp(-1.25) * 2.4
        assert jonswap_density(wp, params) == pytest.approx(expected, rel=1e-12)

    def test_zeroth_moment_by_quadrature(self, params):
        wp = params.omega_p
        integral, _ = quad(lambda w: jonswap_density(w, params), 1e-9, 10 * wp,
                           limit=400)
        assert integral == pytest.approx(13.4**2 / 16, rel=1e-3)

    def test_negative_omega_rejected(self, params):
        with pytest.raises(DomainError):
            jonswap_density(-0.1, params)

    def test_nonfinite_omega_rejected(self, params):
        with pytest.raises(DomainError):
            jonswap_density(np.nan, params)

    def test_nonnegative_and_unimodal_near_peak(self, params):
        wp = params.omega_p
        grid = np.linspace(0.0, 5 * wp, 4000)
        dens = jonswap_density(grid, params)
        assert np.all(dens >= 0)
        band = (grid >= 0.5 * wp) & (grid <= 2 * wp)
        d = np.diff(dens[band])
        sign_changes = np.sum(np.diff(np.sign(d)) != 0)
        assert sign_changes <= 1  # rises then falls exactly once

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            SpectrumParams(Hs=1.0, Tp=-2.0)
        with pytest.raises(DomainError):
            SpectrumParams(Hs=1.0, Tp=10.0, gamma=0.5)


class TestCalibrateAlpha:
    def test_pierson_moskowitz_moment(self):
        p = SpectrumParams(Hs=1.0, Tp=10.0, gamma=1.0)
        integral, _ = quad(lambda w: jonswap_density(w, p), 1e-9,
                           10 * p.omega_p, limit=400)
        assert integral == pytest.approx(1.0 / 16, rel=1e-3)

    def test_alpha_independent_of_hs(self):
        a1 = calibrate_alpha(SpectrumParams(Hs=1.0, Tp=12.0))
        a2 = calibrate_alpha(SpectrumParams(Hs=2.0, Tp=12.0))
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_peak_enhancement_shrinks_alpha(self):
        a_pm = calibrate_alpha(SpectrumParams(Hs=1.0, Tp=12.0, gamma=1.0))
        a_jonswap = calibrate_alpha(SpectrumParams(Hs=1.0, Tp=12.0, gamma=2.4))
        assert a_jonswap < a_pm

    def test_alpha_is_calibrated_on_construction(self):
        assert SpectrumParams(Hs=1.0, Tp=10.0).alpha == calibrate_alpha(
            SpectrumParams(Hs=1.0, Tp=10.0))

    def test_zero_sea_has_finite_alpha(self):
        assert np.isfinite(SpectrumParams(Hs=0.0, Tp=14.7).alpha)

    @pytest.mark.parametrize("Hs,Tp", WC_TABLE)
    def test_moment_normalization_on_documented_grid(self, Hs, Tp):
        p = SpectrumParams(Hs=Hs, Tp=Tp)
        wp = p.omega_p
        grid = np.linspace(0.05 * wp, 10 * wp, 40001)
        m0 = np.trapezoid(jonswap_density(grid, p), grid)
        assert m0 == pytest.approx(Hs**2 / 16, rel=1e-6)


class TestSynthesizeWave:
    def test_zero_height_gives_zero_series(self):
        ts = synthesize_wave(SpectrumParams(Hs=0.0, Tp=14.7), 600.0, 0.775, seed=4)
        assert np.all(ts.values == 0.0)

    def test_seeded_determinism(self, params):
        a = synthesize_wave(params, 1200.0, 0.775, seed=11)
        b = synthesize_wave(params, 1200.0, 0.775, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, params):
        a = synthesize_wave(params, 1200.0, 0.775, seed=1)
        b = synthesize_wave(params, 1200.0, 0.775, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_coarse_dt_rejected(self, params):
        with pytest.raises(ConfigurationError):
            synthesize_wave(params, 600.0, 5.0, seed=0)

    def test_ensemble_standard_deviation(self, params):
        stds = [synthesize_wave(params, 10800.0, 0.775, seed=s).values.std()
                for s in range(20)]
        pooled = np.sqrt(np.mean(np.square(stds)))
        assert pooled == pytest.approx(13.4 / 4, rel=0.05)

    def test_sample_mean_near_zero(self, params):
        means = [synthesize_wave(params, 10800.0, 0.775, seed=s).values.mean()
                 for s in range(10)]
        sigma = 13.4 / 4
        # mean of ~duration/Tp independent oscillations
        bound = 3 * sigma / np.sqrt(10800 / 14.7)
        assert abs(np.mean(means)) < bound


class TestEstimateSpectrum:
    def test_pure_sinusoid_mass(self):
        dt, A, omega0 = 0.5, 2.0, 0.8
        t = dt * np.arange(8192)
        ts = TimeSeries(dt=dt, values=A * np.cos(omega0 * t))
        est = estimate_spectrum(ts, 1024)
        assert abs(est.peak_frequency() - omega0) <= est.bin_width
        assert est.integral() == pytest.approx(A**2 / 2, rel=0.05)

    def test_peak_frequency_of_synthesized_wave(self, params):
        # averaging spectra across seeds pins the peak to within one bin
        ests = [estimate_spectrum(synthesize_wave(params, 10800.0, 0.775, seed=s), 512)
                for s in range(8)]
        mean_density = np.mean([e.densities for e in ests], axis=0)
        peak = ests[0].frequencies[np.argmax(mean_density)]
        assert abs(peak - 2 * np.pi / 14.7) <= ests[0].bin_width

    def test_zero_series_gives_zero_estimate(self):
        ts = TimeSeries(dt=0.5, values=np.zeros(4096))
        est = estimate_spectrum(ts, 512)
        assert np.all(est.densities == 0.0)

    def test_parseval_consistency(self, params):
        ts = synthesize_wave(params, 10800.0, 0.775, seed=3)
        est = estimate_spectrum(ts, 512)
        assert est.integral() == pytest.approx(ts.values.var(), rel=0.1)

    def test_segment_longer_than_series_rejected(self):
        ts = TimeSeries(dt=0.5, values=np.zeros(100))
        with pytest.raises(DomainError):
            estimate_spectrum(ts, 100)

    def test_seed_invariant_spectra(self, params):
        # two seeds under the same parameters agree within ensemble tolerance
        e1 = estimate_spectrum(synthesize_wave(params, 10800.0, 0.775, seed=1), 256)
        e2 = estimate_spectrum(synthesize_wave(params, 10800.0, 0.775, seed=2), 256)
        assert e1.integral() == pytest.approx(e2.integral(), rel=0.2)
