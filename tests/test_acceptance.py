"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read from the
captured output.  The training-based checks run at desk scale (reduced epoch
counts and anchor strides); thresholds are unchanged.
"""

import numpy as np
import pytest

from semisub_motion.dataset import build_pairs, pair_count, split_campaign
from semisub_motion.errors import DomainError
from semisub_motion.experiments import (EXAMPLE2_TRAINING_IDS,
                                        ExperimentConfig, run_experiment,
                                        select_runs, train_cell)
from semisub_motion.metrics import accuracy, evaluate
from semisub_motion.network import backward, count_params, init_network
from semisub_motion.timeseries import TimeSeries
from semisub_motion.vessel import DEFAULT_CONDITIONS, generate_campaign
from semisub_motion.waves import SpectrumParams, synthesize_wave
from support import estimate_spectrum

DT = 0.775
DURATION = 10800.0


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(base_seed=0, duration=DURATION, dt=DT)


def desk_config(**overrides):
    base = dict(channel="heave", n=60, m=20, w=20, anchor_stride=5,
                batch_size=512, duration=DURATION, dt=DT)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def heave_cell(campaign):
    """Wave-assisted heave model at (60, 20, 20); shared by criteria 6 and 9."""
    return train_cell(campaign, desk_config(max_epochs=5), 60, 20, 20)


class TestCriterion1:
    def test_parameter_count(self):
        net = init_network(2, [50], 3, 50, 20, seed=0)
        total = count_params(net)
        report(1, "parameter count", total == 19470, f"counted {total}")


def fd_gradients(net, X, Y, step=1e-6):
    flat = net.parameters()
    grads = []
    for arr in flat:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            _, up = _loss_only(net, X, Y)
            arr[idx] = orig - step
            _, down = _loss_only(net, X, Y)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def _loss_only(net, X, Y):
    from semisub_motion.network import forward, mse_loss
    pred = forward(net, X)
    return pred, mse_loss(pred, Y)


class TestCriterion2:
    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            r = int(rng.integers(1, 3))
            H = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 3))
            net = init_network(r, [H] * depth, int(rng.integers(1, 3)),
                               int(rng.integers(2, 7)), m,
                               seed=int(rng.integers(0, 10**6)))
            X = rng.normal(size=(3, n, r))
            Y = rng.normal(size=(3, m))
            _, analytic = backward(net, X, Y)
            numeric = fd_gradients(net, X, Y)
            for a, g in zip(analytic, numeric):
                denom = max(np.linalg.norm(g), 1e-12)
                worst = max(worst, np.linalg.norm(a - g) / denom)
        report(2, "gradient correctness", worst < 1e-5,
               f"max relative error {worst:.3e}")


class TestCriterion3:
    def test_spectral_fidelity(self):
        seeds = range(20)
        worst_hs_err, worst_peak_bins = 0.0, 0.0
        for cond in DEFAULT_CONDITIONS:
            params = SpectrumParams(Hs=cond.Hs, Tp=cond.Tp)
            waves = [synthesize_wave(params, DURATION, DT, seed=s)
                     for s in seeds]
            pooled_var = np.mean([w.values.var() for w in waves])
            hs_est = 4.0 * np.sqrt(pooled_var)
            worst_hs_err = max(worst_hs_err, abs(hs_est - cond.Hs) / cond.Hs)

            estimates = [estimate_spectrum(w) for w in waves]
            mean_density = np.mean([e.densities for e in estimates], axis=0)
            freqs = estimates[0].frequencies
            peak = freqs[np.argmax(mean_density)]
            bins_off = abs(peak - params.omega_p) / estimates[0].bin_width
            worst_peak_bins = max(worst_peak_bins, bins_off)
        ok = worst_hs_err < 0.03 and worst_peak_bins <= 1.0
        report(3, "spectral fidelity", ok,
               f"worst Hs error {worst_hs_err:.2%}, "
               f"worst peak offset {worst_peak_bins:.2f} bins")


class TestCriterion4:
    def test_metric_identities(self):
        rng = np.random.default_rng(5)
        checked = 0
        ok = True
        while checked < 10_000:
            m = int(rng.integers(2, 40))
            truth = rng.normal(scale=rng.uniform(0.1, 10), size=m)
            if np.ptp(truth) == 0:
                continue
            pred = rng.normal(scale=rng.uniform(0.1, 10), size=m)
            dt = float(rng.uniform(0.1, 2.0))
            acc = accuracy(pred, truth, dt)
            ok &= acc <= 1.0 + 1e-12
            ok &= accuracy(truth, truth, dt) == pytest.approx(1.0)
            offset = float(rng.uniform(-100, 100))
            ok &= accuracy(pred + offset, truth, dt) == pytest.approx(acc, abs=1e-9)
            a = float(rng.uniform(0.0, 2.5))
            scaled = truth.mean() + a * (truth - truth.mean())
            ok &= accuracy(scaled, truth, dt) == pytest.approx(1 - abs(1 - a),
                                                              abs=1e-9)
            checked += 1
            if not ok:
                break
        report(4, "metric identities", ok, f"{checked} randomized windows")


def enumerate_pairs(L, n, m, w):
    pairs = []
    for p in range(n, L):
        idx = (list(range(p - n, p)) + list(range(p + w - n, p + w))
               + list(range(p, p + m)))
        if min(idx) >= 0 and max(idx) < L:
            pairs.append(p)
    return pairs


class TestCriterion5:
    def test_windowing_against_oracle(self):
        rng = np.random.default_rng(11)
        ok = True
        for _ in range(300):
            L = int(rng.integers(15, 250))
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 20))
            w = int(rng.integers(0, 30))
            expected = enumerate_pairs(L, n, m, w)
            series = TimeSeries(dt=1.0, values=np.arange(L, dtype=float))
            if not expected:
                with pytest.raises(DomainError):
                    build_pairs(series, series, n, m, w)
                ok &= pair_count(L, n, m, w) == 0
                continue
            ds = build_pairs(series, series, n, m, w)
            ok &= pair_count(L, n, m, w) == len(expected) == len(ds)
            ok &= list(ds.anchors) == expected
            # index values equal positions: leakage check is exact
            ok &= bool(np.all(ds.X[:, -1, 0] == ds.anchors - 1))
            ok &= bool(np.all(ds.Y[:, 0] == ds.anchors))
            ok &= bool(np.all(ds.X[:, -1, 1] == ds.anchors - 1 + w))
        report(5, "windowing oracle", ok, "300 randomized (L, n, m, w)")


class TestCriterion6:
    def test_heave_accuracy(self, heave_cell):
        s = heave_cell.test_report.accuracy.summary
        ok = s.median >= 0.85 and s.mean >= 0.80
        report(6, "heave prediction accuracy", ok,
               f"median {s.median:.3f} (>= 0.85), mean {s.mean:.3f} (>= 0.80)")

    def test_surge_accuracy(self, campaign):
        cell = train_cell(campaign, desk_config(channel="surge", max_epochs=8),
                          60, 20, 20)
        s = cell.test_report.accuracy.summary
        report(6, "surge prediction accuracy", s.median >= 0.70,
               f"median {s.median:.3f} (>= 0.70)")


class TestCriterion7:
    def test_wave_lag_trend(self, campaign):
        means = {0: [], 20: []}
        for seed in range(3):
            config = desk_config(max_epochs=4, anchor_stride=10,
                                 init_seed=seed, shuffle_seed=seed)
            for w in (0, 20):
                cell = train_cell(campaign, config, 60, 20, w)
                means[w].append(cell.test_report.accuracy.summary.mean)
        lagged, unlagged = np.mean(means[20]), np.mean(means[0])
        report(7, "wave-lag trend", lagged > unlagged,
               f"mean Acc at w=m {lagged:.3f} vs w=0 {unlagged:.3f} (3 seeds)")


class TestCriterion8:
    def test_noise_robustness(self, campaign):
        config = desk_config(example_id=2, max_epochs=5, anchor_stride=10,
                             training_condition_ids=list(EXAMPLE2_TRAINING_IDS))
        cell = train_cell(campaign, config, 60, 20, 20)
        runs = select_runs(campaign, config.training_condition_ids)
        norm = cell.net.meta["norm"]
        from semisub_motion.dataset import NormalizationConstants
        norm = NormalizationConstants(**norm)
        medians = {}
        for level in (0.0, 0.8):
            _, test = split_campaign(runs, "heave", 60, 20, 20,
                                     norm=norm, stride=config.anchor_stride,
                                     test_noise_level=level)
            medians[level] = evaluate(cell.net, test).accuracy.summary.median
        drop = medians[0.0] - medians[0.8]
        report(8, "noise robustness", abs(drop) <= 0.15,
               f"median at I=0 {medians[0.0]:.3f}, at I=0.8 {medians[0.8]:.3f}, "
               f"drop {drop:.3f} (<= 0.15)")


class TestCriterion9:
    def test_motion_only_degradation(self, campaign, heave_cell):
        config = desk_config(example_id=3, max_epochs=8, lstm_hidden=[30],
                             fc_count=3, fc_width=30)
        motion_cell = train_cell(campaign, config, 60, 20, 0)
        gap = (heave_cell.test_report.accuracy.summary.mean
               - motion_cell.test_report.accuracy.summary.mean)
        report(9, "motion-only degradation", 0.05 <= gap <= 0.20,
               f"mean Acc gap {gap:.3f} (band 0.05..0.20)")


class TestCriterion10:
    def test_reproducible_metric_files(self, tmp_path):
        small = generate_campaign(base_seed=11, duration=700.0, dt=DT)
        texts = []
        for rerun in ("a", "b"):
            config = ExperimentConfig(
                example_id=2, channel="heave", n=12, m=6, w=6,
                noise_levels=[0.0, 0.3], test_noise_levels=[0.0, 0.3],
                lstm_hidden=[8], fc_count=1, fc_width=8, batch_size=128,
                max_epochs=2, duration=700.0, dt=DT, anchor_stride=7,
                output_dir=str(tmp_path / rerun))
            run_experiment(config, small)
            out = tmp_path / rerun / "example2_heave"
            texts.append([(p.name, p.read_text())
                          for p in sorted(out.glob("*.csv"))])
        ok = texts[0] == texts[1] and len(texts[0]) > 0
        report(10, "reproducibility", ok,
               f"{len(texts[0])} metric/history CSVs byte-identical")
