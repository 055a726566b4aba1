"""Adam optimization, learning-rate schedule, the mini-batch training loop, and
``predict``: the one inference loop, behind each epoch's test loss, the scores
of ``metrics.evaluate``, the sample traces and the CLI forecast."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import WindowedDataset
from .errors import (POSITIVE, ConfigurationError, DomainError, NumericalError,
                     Rule, at_least, check)
from .network import Network, Workspace, backward, forward, mse_loss

# Windows per forward call when scoring: bounds each layer's (n + 1, r + 1 + H, rows) Z.
# forward's bits depend on the batch, so this value is part of every score.
INFERENCE_ROWS = 512
BETA1, BETA2 = 0.9, 0.999  # Adam's moment decay rates
EPSILON = 1e-8             # floor of Adam's denominator


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def for_parameters(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(first_moment=[np.zeros_like(p) for p in params],
                   second_moment=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update; parameters are updated in place."""
    if lr <= 0:
        raise DomainError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads):
        raise DomainError("params/grads length mismatch")
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g**2
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)


@dataclass
class TrainingConfig:
    """Optimization hyperparameters; defaults follow the reference protocol.

    ``ExperimentConfig`` inherits these fields, so ``train`` takes one as is.
    ``TABLE`` gives each field's type and range (see ``errors.check``).
    """

    initial_lr: float = 0.01
    warm_epochs: int = 20
    decay_factor: float = 0.1
    decay_every: int = 100
    batch_size: int = 512
    max_epochs: int = 150
    shuffle_seed: int = 0

    TABLE = {"initial_lr": POSITIVE, "warm_epochs": at_least(0),
             "decay_factor": Rule("float", "in (0, 1]", lambda v: 0 < v <= 1),
             "decay_every": at_least(1), "batch_size": at_least(1),
             "max_epochs": at_least(0), "shuffle_seed": at_least(0)}

    def __post_init__(self):
        check(vars(self), self.TABLE, ConfigurationError)


def lr_schedule(epoch: int, config: TrainingConfig) -> float:
    """Constant through the warm phase, then a tenfold decay at the end of
    the warm phase and again every ``decay_every`` epochs."""
    if epoch < 0:
        raise DomainError("epoch must be >= 0")
    if epoch < config.warm_epochs:
        return config.initial_lr
    decays = 1 + (epoch - config.warm_epochs) // config.decay_every
    return config.initial_lr * config.decay_factor**decays


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_loss: float


def predict(net: Network, X: np.ndarray, *, workspace: Workspace | None = None) -> np.ndarray:
    """X (N, n, r) -> (N, m), forwarded ``INFERENCE_ROWS`` windows at a time in one workspace."""
    ws = Workspace() if workspace is None else workspace
    return np.concatenate([forward(net, X[start:start + INFERENCE_ROWS], workspace=ws)
                           for start in range(0, len(X), INFERENCE_ROWS)])


def dataset_loss(net: Network, ds: WindowedDataset, *,
                 workspace: Workspace | None = None) -> float:
    """Full-dataset MSE of ``predict``, against Y in the forecasts' dtype."""
    pred = predict(net, ds.X, workspace=workspace)
    return mse_loss(pred, ds.Y.astype(pred.dtype, copy=False))


def train(net: Network, training: WindowedDataset, test: WindowedDataset,
          config: TrainingConfig) -> tuple[Network, list[EpochRecord]]:
    """Seeded mini-batch training; returns the best-test-loss parameters.

    History records train and test loss per epoch.  Divergence aborts with
    a NumericalError carrying the history collected so far.
    """
    if (training.n, training.m, training.w, training.r) != (test.n, test.m, test.w, test.r):
        raise ConfigurationError("training and test datasets have mismatched (n, m, w, r)")
    if net.output_size != training.m:
        raise ConfigurationError(
            f"network output size {net.output_size} != prediction length {training.m}")
    history: list[EpochRecord] = []
    rng = np.random.default_rng(config.shuffle_seed)
    params = net.parameters()
    state = AdamState.for_parameters(params)
    best_loss = np.inf
    best_params = [p.copy() for p in params]
    # every step's caches and work buffers, and the test loss's; freed on return
    workspace = Workspace()
    N = len(training)
    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        perm = rng.permutation(N)
        loss_sum = 0.0
        for start in range(0, N, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grads = backward(net, training.X[idx], training.Y[idx],
                                   workspace=workspace)
            if not np.isfinite(loss):
                exc = NumericalError(f"training diverged at epoch {epoch}")
                exc.history = history
                raise exc
            adam_step(params, grads, state, lr)
            loss_sum += loss * idx.size
        train_loss = loss_sum / N
        test_loss = dataset_loss(net, test, workspace=workspace)
        history.append(EpochRecord(epoch, lr, train_loss, test_loss))
        if test_loss < best_loss:
            best_loss = test_loss
            for dst, src in zip(best_params, params):
                dst[...] = src
    for dst, src in zip(params, best_params):
        dst[...] = src
    return net, history
