"""From-first-principles LSTM + fully-connected network with analytic BPTT.

The LSTM cell follows the standard gate recurrences

    i_t = sigmoid(W_ii x_t + b_ii + W_hi h_{t-1} + b_hi)
    f_t = sigmoid(W_if x_t + b_if + W_hf h_{t-1} + b_hf)
    g_t = tanh   (W_ig x_t + b_ig + W_hg h_{t-1} + b_hg)
    o_t = sigmoid(W_io x_t + b_io + W_ho h_{t-1} + b_ho)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

with the double-bias convention (separate input and hidden bias vectors per
gate).  The state starts at zero: h_0 = c_0 = 0 for every sequence.  Gate
weights are stored stacked in blocks of H in the order (i, f, g, o).  The
last hidden state of the last LSTM layer feeds a stack of tanh
fully-connected layers and an affine output layer.

The sigmoid is evaluated as 0.5 * (1 + tanh(x / 2)), which needs no masks
and cannot overflow, so all four stacked gates of a step are activated by
one tanh call with a per-column scale s (1/2 for i, f, o; 1 for g):
gate = s * tanh(s * a) + (1 - s).

The kernel works time-major.  The input projection of every step is one
GEMM into an (n, B, 4H) buffer that the time loop activates in place, so
the buffer becomes the gate cache.  The BPTT cache also keeps the cell
states as (n + 1, B, H) with c_0 in row 0 and tanh(c_t) as (n, B, H).
Public arrays stay batch-major (B, n, .): the hidden sequence returned by
``lstm_forward`` and cached as ``hs`` is a transposed view of the
time-major one.

Gradients are computed by exact backpropagation through time; no autodiff
framework is involved.  The reverse loop does only the elementwise work
and the recurrent ``da @ W_hidden`` product; the weight, bias and input
gradients are single GEMMs or reductions over all steps after it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import WINDOW_SPEC
from .errors import (ANY, DomainError, NumericalError, at_least, one_of,
                     read_document)

CHECKPOINT_VERSION = 1
# ``meta`` may hold any part of META_TABLE; forecasting needs all of it
META_TABLE = {**WINDOW_SPEC, "seeds?": ANY}
CHECKPOINT_TABLE = {
    "architecture?": ANY, "param_count": at_least(1),
    "meta?": {f"{key.rstrip('?')}?": spec for key, spec in META_TABLE.items()},
    "lstm_layers": [dict.fromkeys(("W_input", "W_hidden", "b_input", "b_hidden"),
                                  [ANY])],
    "fc_layers": [{"weights": [ANY], "bias": [ANY],
                   "activation": one_of("tanh", "identity")}],
}


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: stable for any x, no masks
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gate_affine(H: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scale s and shift 1 - s over the stacked (i, f, g, o)
    gates: s * tanh(s * a) + (1 - s) is the sigmoid where s = 1/2 and tanh
    where s = 1."""
    scale = np.full(4 * H, 0.5)
    scale[2 * H:3 * H] = 1.0
    return scale, 1.0 - scale


@dataclass
class LstmLayerParams:
    """Stacked gate parameters of one LSTM layer (gate order i, f, g, o)."""

    W_input: np.ndarray   # (4H, input_size)
    W_hidden: np.ndarray  # (4H, H)
    b_input: np.ndarray   # (4H,)
    b_hidden: np.ndarray  # (4H,)

    def __post_init__(self):
        four_h, r = self.W_input.shape
        if four_h % 4 != 0:
            raise DomainError("gate weight row count must be a multiple of 4")
        h = four_h // 4
        if self.W_hidden.shape != (four_h, h):
            raise DomainError(f"W_hidden shape {self.W_hidden.shape} != {(four_h, h)}")
        if self.b_input.shape != (four_h,) or self.b_hidden.shape != (four_h,):
            raise DomainError("bias shapes inconsistent with gate weights")

    @property
    def input_size(self) -> int:
        return self.W_input.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.W_input.shape[0] // 4

    def parameters(self) -> list[np.ndarray]:
        return [self.W_input, self.W_hidden, self.b_input, self.b_hidden]


@dataclass
class FcLayerParams:
    """One fully-connected layer: y = act(W x + b)."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "tanh"  # "tanh" | "identity"

    def __post_init__(self):
        if self.activation not in ("tanh", "identity"):
            raise DomainError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise DomainError("weights not a matrix or bias shape inconsistent with them")

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]


@dataclass
class Network:
    """Ordered LSTM layers followed by an FC stack ending in an affine map."""

    lstm_layers: list[LstmLayerParams]
    fc_layers: list[FcLayerParams]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fc_layers and self.fc_layers[-1].activation != "identity":
            raise DomainError("final FC layer must be affine (identity activation)")
        widths = ([l.hidden_size for l in self.lstm_layers]
                  + [l.weights.shape[0] for l in self.fc_layers])
        inputs = ([l.input_size for l in self.lstm_layers[1:]]
                  + [l.weights.shape[1] for l in self.fc_layers])
        if widths[:-1] != inputs:
            raise DomainError(f"layer widths {widths} do not feed layer inputs {inputs}")

    @property
    def input_size(self) -> int:
        return self.lstm_layers[0].input_size if self.lstm_layers else 0

    @property
    def output_size(self) -> int:
        return self.fc_layers[-1].weights.shape[0] if self.fc_layers else 0

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.lstm_layers:
            out.extend(layer.parameters())
        for layer in self.fc_layers:
            out.extend(layer.parameters())
        return out

    def set_parameters(self, arrays: list[np.ndarray]) -> None:
        own = self.parameters()
        if len(own) != len(arrays):
            raise DomainError("parameter list length mismatch")
        for dst, src in zip(own, arrays):
            if dst.shape != src.shape:
                raise DomainError("parameter shape mismatch")
            dst[...] = src


def init_network(input_size: int, hidden_sizes: list[int], fc_count: int,
                 fc_width: int, output_size: int, seed: int = 0) -> Network:
    """Seeded uniform [-1/sqrt(H), 1/sqrt(H)] initialization per layer.

    ``fc_count`` hidden tanh FC layers of ``fc_width`` units sit between the
    last LSTM hidden state and the affine output layer.
    """
    if input_size < 1 or output_size < 1 or not hidden_sizes:
        raise DomainError("need input_size, output_size >= 1 and one LSTM layer")
    rng = np.random.default_rng(seed)
    lstm_layers = []
    prev = input_size
    for H in hidden_sizes:
        bound = 1.0 / np.sqrt(H)
        lstm_layers.append(LstmLayerParams(
            W_input=rng.uniform(-bound, bound, (4 * H, prev)),
            W_hidden=rng.uniform(-bound, bound, (4 * H, H)),
            b_input=rng.uniform(-bound, bound, 4 * H),
            b_hidden=rng.uniform(-bound, bound, 4 * H)))
        prev = H
    fc_layers = []
    for _ in range(fc_count):
        bound = 1.0 / np.sqrt(prev)
        fc_layers.append(FcLayerParams(
            weights=rng.uniform(-bound, bound, (fc_width, prev)),
            bias=rng.uniform(-bound, bound, fc_width),
            activation="tanh"))
        prev = fc_width
    bound = 1.0 / np.sqrt(prev)
    fc_layers.append(FcLayerParams(
        weights=rng.uniform(-bound, bound, (output_size, prev)),
        bias=rng.uniform(-bound, bound, output_size),
        activation="identity"))
    return Network(lstm_layers=lstm_layers, fc_layers=fc_layers)


def lstm_forward(layer: LstmLayerParams, inputs: np.ndarray,
                 cache: dict | None = None) -> np.ndarray:
    """Run the gate recurrences over a batch of sequences from h = c = 0.

    ``inputs`` is (B, n, input_size); returns the hidden sequence (B, n, H)
    and fills ``cache``, when given, with the intermediates needed for BPTT.
    """
    B, n, r = inputs.shape
    H = layer.hidden_size
    if r != layer.input_size:
        raise DomainError(f"input feature count {r} != layer input size {layer.input_size}")
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    keep = cache is not None
    # time-major pre-activations; the loop turns each step into its gates
    gates = inputs.transpose(1, 0, 2) @ layer.W_input.T  # (n, B, 4H)
    gates += layer.b_input + layer.b_hidden
    scale, shift = _gate_affine(H)
    W_hidden_T = layer.W_hidden.T
    hs = np.empty((n, B, H))
    if keep:
        c_seq = np.empty((n + 1, B, H))
        c_seq[0] = c
        tanh_c = np.empty((n, B, H))
    for t in range(n):
        a = gates[t]
        a += h @ W_hidden_T
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = np.multiply(a[:, H:2 * H], c, out=c_seq[t + 1] if keep else None)
        c += a[:, :H] * a[:, 2 * H:3 * H]
        tc = np.tanh(c, out=tanh_c[t] if keep else None)
        h = np.multiply(a[:, 3 * H:], tc, out=hs[t])
    hs = hs.transpose(1, 0, 2)
    if keep:
        cache.update(inputs=inputs, hs=hs, gates=gates, c=c_seq, tanh_c=tanh_c)
    return hs


def _lstm_backward(layer: LstmLayerParams, cache: dict,
                   dh_seq: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """BPTT through one layer given time-major per-step hidden-state
    gradients ``dh_seq`` (n, B, H).

    Returns ([dW_input, dW_hidden, db_input, db_hidden], time-major dx
    (n, B, input_size)).
    """
    x = cache["inputs"].transpose(1, 0, 2)
    hs = cache["hs"].transpose(1, 0, 2)
    gates, c_seq, tanh_c = cache["gates"], cache["c"], cache["tanh_c"]
    n, B, H = hs.shape
    scale, shift = _gate_affine(H)
    scale_sq = scale**2
    da = np.empty_like(gates)
    dh_rec = np.zeros((B, H))
    dc_rec = np.zeros((B, H))
    for t in range(n - 1, -1, -1):
        a = gates[t]
        i, f, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        tc = tanh_c[t]
        dh = dh_seq[t] + dh_rec
        dc = dh * o * (1.0 - tc**2) + dc_rec
        d = da[t]
        np.multiply(dc, g, out=d[:, :H])
        np.multiply(dc, c_seq[t], out=d[:, H:2 * H])
        np.multiply(dc, i, out=d[:, 2 * H:3 * H])
        np.multiply(dh, tc, out=d[:, 3 * H:])
        # gate derivative s^2 - (gate - (1 - s))^2: i(1 - i) or 1 - g^2
        d *= scale_sq - (a - shift)**2
        dh_rec = d @ layer.W_hidden
        dc_rec = dc * f
    rows = da.reshape(n * B, 4 * H)
    dW_x = rows.T @ x.reshape(n * B, -1)
    # forward() starts from h = 0, so step 0 adds nothing to dW_hidden
    dW_h = da[1:].reshape(-1, 4 * H).T @ hs[:-1].reshape(-1, H)
    db = rows.sum(axis=0)
    dx = da @ layer.W_input
    # b_input and b_hidden enter every gate as a sum: identical gradients
    return [dW_x, dW_h, db, db.copy()], dx


def forward(net: Network, X: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Predict a batch: X (B, n, r) or a single window (n, r) -> (B, m) / (m,)."""
    single = X.ndim == 2
    x = X[None] if single else X
    if x.shape[2] != net.input_size:
        raise DomainError(f"feature count {x.shape[2]} != network input size "
                          f"{net.input_size}")
    for layer in net.lstm_layers:
        cache = {} if caches is not None else None
        x = lstm_forward(layer, x, cache=cache)
        if caches is not None:
            caches.append(cache)
    a = x[:, -1]  # last hidden state of the last LSTM layer
    for layer in net.fc_layers:
        z = a @ layer.weights.T + layer.bias
        a = np.tanh(z) if layer.activation == "tanh" else z
        if caches is not None:
            caches.append(a)
    return a[0] if single else a


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean of squared differences over every element."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise DomainError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def backward(net: Network, X: np.ndarray, Y: np.ndarray
             ) -> tuple[float, list[np.ndarray]]:
    """Loss and exact gradients of batch-mean MSE for a batch of windows.

    X is (B, n, r), Y is (B, m).  The gradient list mirrors
    ``net.parameters()`` order.
    """
    if X.ndim != 3 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DomainError("expected X (B, n, r) and Y (B, m) with equal B")
    if X.shape[0] == 0:
        raise DomainError("empty batch")
    caches: list = []
    pred = forward(net, X, caches=caches)
    if not np.all(np.isfinite(pred)):
        raise NumericalError("non-finite activations in forward pass")
    B, m = pred.shape
    loss = mse_loss(pred, Y)

    lstm_caches = caches[:len(net.lstm_layers)]
    fc_acts = caches[len(net.lstm_layers):]
    h_last = lstm_caches[-1]["hs"][:, -1]

    d = 2.0 * (pred - Y) / (B * m)
    fc_grads: list[list[np.ndarray]] = []
    for k in range(len(net.fc_layers) - 1, -1, -1):
        layer = net.fc_layers[k]
        a_out = fc_acts[k]
        if layer.activation == "tanh":
            d = d * (1.0 - a_out**2)
        a_in = fc_acts[k - 1] if k > 0 else h_last
        fc_grads.append([d.T @ a_in, d.sum(axis=0)])
        d = d @ layer.weights
    fc_grads.reverse()

    # gradient reaches the last LSTM layer only at the final time step
    n = X.shape[1]
    H_top = net.lstm_layers[-1].hidden_size
    dh_seq = np.zeros((n, B, H_top))
    dh_seq[-1] = d
    lstm_grads: list[list[np.ndarray]] = []
    for k in range(len(net.lstm_layers) - 1, -1, -1):
        grads_k, dx = _lstm_backward(net.lstm_layers[k], lstm_caches[k], dh_seq)
        lstm_grads.append(grads_k)
        dh_seq = dx
    lstm_grads.reverse()

    flat: list[np.ndarray] = []
    for g in lstm_grads:
        flat.extend(g)
    for g in fc_grads:
        flat.extend(g)
    return loss, flat


def count_params(net: Network) -> int:
    """4(H r + H^2 + 2H) per LSTM layer, out*in + out per FC layer."""
    return int(sum(p.size for p in net.parameters()))


def architecture(net: Network) -> dict:
    return {
        "input_size": net.input_size,
        "hidden_sizes": [l.hidden_size for l in net.lstm_layers],
        "fc": [{"out": l.weights.shape[0], "in": l.weights.shape[1],
                "activation": l.activation} for l in net.fc_layers],
        "output_size": net.output_size,
    }


def save_checkpoint(net: Network, path) -> None:
    """Self-describing JSON checkpoint, round-trip exact at 64-bit."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": architecture(net),
        "param_count": count_params(net),
        "meta": net.meta,
        "lstm_layers": [{
            "W_input": l.W_input.tolist(), "W_hidden": l.W_hidden.tolist(),
            "b_input": l.b_input.tolist(), "b_hidden": l.b_hidden.tolist(),
        } for l in net.lstm_layers],
        "fc_layers": [{
            "weights": l.weights.tolist(), "bias": l.bias.tolist(),
            "activation": l.activation,
        } for l in net.fc_layers],
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path) -> Network:
    doc = read_document(path, CHECKPOINT_VERSION, CHECKPOINT_TABLE)
    try:
        lstm_layers = [LstmLayerParams(**{k: np.array(v, dtype=np.float64)
                                          for k, v in l.items()})
                       for l in doc["lstm_layers"]]
        fc_layers = [FcLayerParams(np.array(l["weights"], dtype=np.float64),
                                   np.array(l["bias"], dtype=np.float64),
                                   l["activation"]) for l in doc["fc_layers"]]
        net = Network(lstm_layers=lstm_layers, fc_layers=fc_layers,
                      meta=doc.get("meta") or {})
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed checkpoint {path}: {exc!r}") from exc
    if count_params(net) != doc["param_count"]:
        raise DomainError(f"checkpoint declares {doc['param_count']} parameters, "
                          f"found {count_params(net)}")
    if not all(np.all(np.isfinite(p)) for p in net.parameters()):
        raise DomainError(f"checkpoint {path} has a non-finite parameter")
    for key, size in (("r", net.input_size), ("m", net.output_size)):
        if net.meta.get(key, size) != size:
            raise DomainError(f"checkpoint {path}: meta {key} is {net.meta[key]}, "
                              f"but the network's size is {size}")
    return net
