import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semisub_motion.dataset import NormalizationConstants, WindowedDataset
from semisub_motion.errors import DomainError
from semisub_motion.metrics import (accuracy, boxplot_stats, evaluate,
                                    save_summaries, save_window_accuracies)
from semisub_motion.network import init_network
from support import as_tuple


def window(seed=0, m=20):
    rng = np.random.default_rng(seed)
    return rng.normal(size=m)


class TestAccuracy:
    def test_perfect_prediction(self):
        y = window(1)
        assert accuracy(y, y) == pytest.approx(1.0)

    def test_offset_invariance(self):
        y = window(2)
        assert accuracy(y + 3.7, y) == pytest.approx(1.0)
        assert accuracy(y, y - 12.0) == pytest.approx(accuracy(y, y), abs=1e-12)

    def test_doubled_deviations_score_zero(self):
        y = window(3)
        pred = 2.0 * (y - y.mean()) + y.mean()
        assert accuracy(pred, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    def test_deviation_scaling_identity(self, a):
        y = window(4)
        pred = a * (y - y.mean()) + y.mean()
        assert accuracy(pred, y) == pytest.approx(1.0 - abs(1.0 - a), abs=1e-12)

    def test_dt_cancels(self):
        y, p = window(5), window(6)
        assert accuracy(p, y, dt=1.0) == pytest.approx(accuracy(p, y, dt=0.775),
                                                       abs=1e-12)

    def test_flat_truth_rejected(self):
        with pytest.raises(DomainError):
            accuracy(window(7), np.full(20, 2.0))

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            acc = accuracy(rng.normal(size=m), rng.normal(size=m))
            assert acc <= 1.0

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 64),
           scale=st.floats(0.01, 100), offset=st.floats(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_offset_invariant_property(self, seed, m, scale, offset):
        rng = np.random.default_rng(seed)
        truth = rng.normal(0, scale, m)
        pred = rng.normal(0, scale, m)
        if np.ptp(truth) == 0:
            return
        acc = accuracy(pred, truth)
        assert acc <= 1.0
        assert accuracy(pred + offset, truth) == pytest.approx(acc, abs=1e-6)


class TestBoxplotStats:
    def test_one_to_five(self):
        s = boxplot_stats([1, 2, 3, 4, 5])
        assert as_tuple(s) == (1, 2, 3, 4, 5)
        assert s.mean == 3.0

    def test_single_value(self):
        s = boxplot_stats([0.7])
        assert as_tuple(s) == (0.7, 0.7, 0.7, 0.7, 0.7)

    def test_linear_interpolation_convention(self):
        s = boxplot_stats([0.0, 10.0])
        assert (s.q1, s.median, s.q3) == (2.5, 5.0, 7.5)

    def test_three_values(self):
        s = boxplot_stats([0.5, 0.7, 0.9])
        assert (s.min, s.median, s.max) == (0.5, 0.7, 0.9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            boxplot_stats([])


def make_dataset(X, Y, m, channel="heave", A=0.0, B=1.0, dt=1.0, anchors=None):
    norm = NormalizationConstants(A={channel: A, "wave": 0.0},
                                  B={channel: B, "wave": 1.0})
    if anchors is None:
        anchors = np.arange(len(X)) + X.shape[1]
    return WindowedDataset(X=X, Y=Y, anchors=anchors,
                           run_ids=["t"] * len(X), n=X.shape[1], m=m, w=0,
                           channel=channel, norm=norm, role="test", dt=dt)


class TestEvaluate:
    def test_oracle_network_scores_one_everywhere(self, monkeypatch):
        # an oracle whose predictions are the truths scores Acc = 1 on every window
        rng = np.random.default_rng(0)
        m = 4
        X = rng.normal(size=(10, 6, 1))
        Y = rng.normal(size=(10, m))
        ds = make_dataset(X, Y, m)
        net = init_network(1, [3], 1, 3, m, seed=0)
        import semisub_motion.metrics as metrics_mod
        monkeypatch.setattr(metrics_mod, "predict", lambda _net, x: Y[:len(x)])
        report = evaluate(net, ds)
        assert np.allclose(report.accuracy.per_window, 1.0, atol=1e-12)

    def test_zero_network_flat_windows_excluded(self):
        rng = np.random.default_rng(1)
        m = 5
        X = rng.normal(size=(8, 6, 1))
        Y = rng.normal(size=(8, m))
        Y[2] = 3.0  # one flat truth window
        net = init_network(1, [3], 1, 3, m, seed=0)
        for p in net.parameters():
            p[...] = 0.0
        report = evaluate(net, make_dataset(X, Y, m))
        assert report.accuracy.excluded_fraction == pytest.approx(1 / 8)
        # zero predictions have zero deviation area: Acc = 0 on kept windows
        assert np.allclose(report.accuracy.per_window, 0.0, atol=1e-12)

    def test_order_independent_summary(self):
        rng = np.random.default_rng(2)
        m = 6
        X = rng.normal(size=(30, 5, 1))
        Y = rng.normal(size=(30, m))
        net = init_network(1, [4], 1, 4, m, seed=1)
        base = evaluate(net, make_dataset(X, Y, m))
        perm = rng.permutation(30)
        shuffled = evaluate(net, make_dataset(X[perm], Y[perm], m))
        a, b = base.accuracy.summary, shuffled.accuracy.summary
        assert as_tuple(a) == as_tuple(b)
        # summation order of the mean may differ in the last bit
        assert a.mean == pytest.approx(b.mean, rel=1e-14)

    def test_deregularized_before_scoring(self):
        # with a huge offset A, scoring in regularized units would differ;
        # offset invariance of Acc makes the two agree, but scale B does not
        rng = np.random.default_rng(3)
        m = 5
        X = rng.normal(size=(12, 6, 1))
        Y = rng.normal(size=(12, m))
        net = init_network(1, [3], 1, 3, m, seed=2)
        r1 = evaluate(net, make_dataset(X, Y, m, A=0.0, B=1.0))
        r2 = evaluate(net, make_dataset(X, Y, m, A=-50.0, B=7.0))
        # scale B multiplies both areas: the ratio (and Acc) is unchanged
        assert np.allclose(r1.accuracy.per_window, r2.accuracy.per_window,
                           atol=1e-10)

    def test_batched_scores_match_accuracy_row_for_row(self, monkeypatch):
        # evaluate scores all windows at once; each kept score must equal the
        # one-window accuracy() exactly, and flat windows must be left out
        rng = np.random.default_rng(5)
        m = 7
        Y = rng.normal(size=(9, m)) * 3.0 + 1.5
        pred = Y + rng.normal(scale=0.5, size=Y.shape)
        Y[3] = -2.0        # flat truth window
        Y[6, 2] = np.nan   # NaN truth: not flat, scores NaN as accuracy() does
        ds = make_dataset(rng.normal(size=(9, 5, 1)), Y, m, dt=0.775,
                          anchors=np.arange(9) * 3 + 40)
        net = init_network(1, [3], 1, 3, m, seed=0)
        import semisub_motion.metrics as metrics_mod
        monkeypatch.setattr(metrics_mod, "predict", lambda _net, x: pred[:len(x)])
        report = evaluate(net, ds)
        kept = [k for k in range(9) if k != 3]
        expected = np.array([accuracy(pred[k], Y[k], 0.775) for k in kept])
        assert np.array_equal(report.accuracy.per_window, expected, equal_nan=True)
        assert np.isnan(report.accuracy.per_window[kept.index(6)])
        assert list(report.accuracy.anchors) == [int(ds.anchors[k]) for k in kept]
        assert report.accuracy.excluded_fraction == pytest.approx(1 / 9)

    def test_output_size_mismatch_rejected(self):
        net = init_network(1, [3], 1, 3, 4, seed=0)
        X = np.zeros((3, 5, 1))
        Y = np.zeros((3, 6))
        with pytest.raises(DomainError):
            evaluate(net, make_dataset(X, Y, 6))


def test_summary_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = 5
    X = rng.normal(size=(10, 6, 1))
    Y = rng.normal(size=(10, m))
    net = init_network(1, [3], 1, 3, m, seed=3)
    report = evaluate(net, make_dataset(X, Y, m))
    path = tmp_path / "summary.csv"
    save_summaries([("cell", report)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("dataset,channel")
    s = report.accuracy.summary
    cells = lines[1].split(",")
    assert cells[:6] == ["cell", "heave", "6", "5", "0", "0.0"]
    assert [float(c) for c in cells[6:]] == [s.min, s.q1, s.median, s.q3, s.max, s.mean]


def test_window_accuracy_csv_keeps_each_anchor_with_its_score(tmp_path, monkeypatch):
    # windows 10, 11 (flat), 12, 13 with accuracies 0.25, -, 0.75, 1.0
    rng = np.random.default_rng(6)
    m = 5
    Y = rng.normal(size=(4, m))
    Y[1] = 2.0
    scale = np.array([0.25, 1.0, 0.75, 1.0])[:, None]
    pred = scale * (Y - Y.mean(axis=1, keepdims=True)) + Y.mean(axis=1, keepdims=True)
    ds = make_dataset(rng.normal(size=(4, 6, 1)), Y, m, anchors=np.arange(10, 14))
    net = init_network(1, [3], 1, 3, m, seed=0)
    import semisub_motion.metrics as metrics_mod
    monkeypatch.setattr(metrics_mod, "predict", lambda _net, x: pred[:len(x)])
    report = evaluate(net, ds)
    path = tmp_path / "window_accuracy.csv"
    save_window_accuracies(report.accuracy, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_p,acc"
    rows = {int(a): float(acc) for a, acc in (line.split(",") for line in lines[1:])}
    assert sorted(rows) == [10, 12, 13]
    assert rows[10] == pytest.approx(0.25, abs=1e-12)
    assert rows[12] == pytest.approx(0.75, abs=1e-12)
    assert rows[13] == pytest.approx(1.0, abs=1e-12)
