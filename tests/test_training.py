import numpy as np
import pytest

from semisub_motion.dataset import NormalizationConstants, WindowedDataset
from semisub_motion.errors import ConfigurationError, DomainError
from semisub_motion.network import Workspace, forward, init_network
from semisub_motion.training import (AdamState, TrainingConfig, adam_step,
                                     dataset_loss, lr_schedule, predict, train)


def toy_dataset(n_samples=400, n=8, m=3, seed=0, role="training"):
    """Windows of a noiseless sine: the mapping is learnable quickly."""
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0, 100, n_samples)
    t = t0[:, None] + np.arange(n + m)
    signal = np.sin(0.3 * t)
    norm = NormalizationConstants(A={"heave": 0.0, "wave": 0.0},
                                  B={"heave": 1.0, "wave": 1.0})
    return WindowedDataset(X=signal[:, :n, None], Y=signal[:, n:],
                           anchors=np.arange(n_samples) + n,
                           run_ids=["toy"] * n_samples, n=n, m=m, w=0,
                           channel="heave", norm=norm, role=role)


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = AdamState.for_parameters(params)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1)
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_first_step_magnitude_is_lr(self):
        params = [np.array([0.0, 0.0])]
        grads = [np.array([0.5, -3.0])]
        state = AdamState.for_parameters(params)
        adam_step(params, grads, state, lr=0.01)
        # bias-corrected ratio is +-1 up to epsilon on the first step
        assert np.allclose(np.abs(params[0]), 0.01, rtol=1e-6)
        assert np.sign(params[0][0]) == -1 and np.sign(params[0][1]) == 1

    def test_nonpositive_lr_rejected(self):
        params = [np.zeros(2)]
        state = AdamState.for_parameters(params)
        with pytest.raises(DomainError):
            adam_step(params, [np.ones(2)], state, lr=0.0)

    def test_deterministic_trajectory(self):
        def run():
            params = [np.array([1.0, 2.0])]
            state = AdamState.for_parameters(params)
            rng = np.random.default_rng(42)
            for _ in range(20):
                adam_step(params, [rng.normal(size=2)], state, lr=0.05)
            return params[0]
        assert np.array_equal(run(), run())


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_schedule(0, TrainingConfig()) == 0.01

    def test_warm_phase_constant(self):
        config = TrainingConfig()
        assert all(lr_schedule(e, config) == 0.01 for e in range(20))

    def test_first_decay_at_warm_end(self):
        assert lr_schedule(25, TrainingConfig()) == pytest.approx(0.001)

    def test_second_decay(self):
        assert lr_schedule(150, TrainingConfig()) == pytest.approx(1e-4)
        assert lr_schedule(119, TrainingConfig()) == pytest.approx(1e-3)

    def test_negative_epoch_rejected(self):
        with pytest.raises(DomainError):
            lr_schedule(-1, TrainingConfig())


class TestTrain:
    def test_zero_epochs_returns_initial_net(self):
        net = init_network(1, [4], 1, 4, 3, seed=0)
        before = [p.copy() for p in net.parameters()]
        training = toy_dataset(seed=0)
        test = toy_dataset(seed=1, role="test")
        out, history = train(net, training, test,
                             TrainingConfig(max_epochs=0, batch_size=64))
        assert history == []
        for p, b in zip(out.parameters(), before):
            assert np.array_equal(p, b)

    def test_loss_decreases_on_toy_problem(self):
        net = init_network(1, [8], 1, 8, 3, seed=2)
        training = toy_dataset(seed=0)
        test = toy_dataset(seed=1, role="test")
        _, history = train(net, training, test,
                           TrainingConfig(max_epochs=30, batch_size=64, shuffle_seed=3))
        assert history[-1].train_loss < 0.2 * history[0].train_loss
        assert history[-1].test_loss < history[0].test_loss

    def test_best_model_selected_by_test_loss(self):
        net = init_network(1, [6], 1, 6, 3, seed=4)
        training = toy_dataset(seed=0)
        test = toy_dataset(seed=1, role="test")
        net, history = train(net, training, test,
                             TrainingConfig(max_epochs=15, batch_size=64, shuffle_seed=5))
        best = min(rec.test_loss for rec in history)
        assert dataset_loss(net, test) == pytest.approx(best, rel=1e-9)

    def test_reproducible_per_seed(self):
        def run():
            net = init_network(1, [4], 1, 4, 3, seed=6)
            _, history = train(net, toy_dataset(seed=0),
                               toy_dataset(seed=1, role="test"),
                               TrainingConfig(max_epochs=5, batch_size=64, shuffle_seed=7))
            return [rec.train_loss for rec in history], net.parameters()
        losses_a, params_a = run()
        losses_b, params_b = run()
        assert losses_a == losses_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_mismatched_window_shapes_rejected(self):
        net = init_network(1, [4], 1, 4, 3, seed=0)
        with pytest.raises(ConfigurationError):
            train(net, toy_dataset(n=8), toy_dataset(n=9),
                  TrainingConfig(max_epochs=1))

    def test_output_size_mismatch_rejected(self):
        net = init_network(1, [4], 1, 4, 5, seed=0)
        with pytest.raises(ConfigurationError):
            train(net, toy_dataset(m=3), toy_dataset(m=3),
                  TrainingConfig(max_epochs=1))

    def test_duplicated_dataset_same_loss(self):
        net = init_network(1, [4], 1, 4, 3, seed=8)
        ds = toy_dataset(seed=0, n_samples=100)
        doubled = WindowedDataset(
            X=np.concatenate([ds.X, ds.X]), Y=np.concatenate([ds.Y, ds.Y]),
            anchors=np.concatenate([ds.anchors, ds.anchors]),
            run_ids=ds.run_ids * 2, n=ds.n, m=ds.m, w=ds.w,
            channel=ds.channel, norm=ds.norm)
        assert dataset_loss(net, doubled) == pytest.approx(dataset_loss(net, ds),
                                                           rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_predict_is_forward_over_512_window_chunks(dtype):
    # bit for bit, in the input's dtype, with a fresh workspace per call and
    # with one workspace reused across calls; N = 1100 ends in a short chunk
    net = init_network(2, [5], 1, 4, 3, seed=9).astype(dtype)
    rng = np.random.default_rng(10)
    reused = Workspace()
    for N in (1, 511, 512, 513, 1100):
        X = rng.normal(size=(N, 6, 2)).astype(dtype)
        expected = np.concatenate([forward(net, X[s:s + 512]) for s in range(0, N, 512)])
        for workspace in (None, reused, reused):
            pred = predict(net, X, workspace=workspace)
            assert pred.dtype == dtype and pred.shape == (N, 3)
            assert np.array_equal(pred, expected)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainingConfig(initial_lr=-1.0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(decay_factor=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_non_finite_learning_rate_rejected(lr):
    with pytest.raises(ConfigurationError):
        TrainingConfig(initial_lr=lr)
