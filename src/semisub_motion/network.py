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
one tanh call with a per-row scale s (1/2 for i, f, o; 1 for g):
gate = s * tanh(s * a) + (1 - s).  ``lstm_forward`` multiplies the rows of
``W_input``, ``W_hidden`` and the summed bias by s before the product.
Since s is a power of two this scaling is exact, so the product yields
s * a bit for bit and no step scales its pre-activations.  The step's
affine part uses s and 1 - s as (4H, 1) columns, cheap at B = 1; BPTT's
gate derivative uses s as a scalar per block of rows, cheap at large B.

The kernel works batch-minor.  Each layer keeps one buffer Z of shape
(n + 1, r + 1 + H, B) whose block t holds [x_t ; 1 ; h_{t-1}], with the
zero state h_0 in block 0, so each step's (4H, B) gates are one GEMM of
W = [W_input | b_input + b_hidden | W_hidden] with Z[t], each gate is a
contiguous (H, B) block, and h_t is written into block t + 1.  The BPTT
cache keeps Z, the activated gates (n, 4H, B), the cell states as
(n + 1, H, B) with c_0 in block 0 and tanh(c_t) as (n, H, B); inference
keeps one step of each.  Public arrays stay batch-major (B, n, .): the
hidden sequence returned by ``lstm_forward`` and cached as ``hs`` is a
transposed view of Z's h rows.

Gradients are computed by exact backpropagation through time; no autodiff
framework is involved.  The reverse loop does only the elementwise work
and the recurrent ``W_hidden.T @ da`` product.  It writes each step's gate
gradients over that step's spent gates, so the gate cache becomes ``da``
and a cache serves one ``backward`` only.  After the loop one batched
product of ``da`` with Z gives the input, bias and recurrent weight
gradients together; the bottom layer's input gradient is never formed.

Both time loops write into preallocated buffers (``out=``), and a
``Workspace`` holds those buffers and the caches.  ``training.train``
passes one workspace to every ``backward`` call and to its per-epoch test
loss, so each step after the first reuses the same memory and allocates
nothing batch-sized.  Without one, every call allocates its own buffers.  Buffers are sized by capacity,
so a short last batch views the front of the same memory.  The loops
evaluate every element in the same order as an allocating loop would, so
reusing memory changes no bit.

The kernel computes in the network's dtype: ``forward`` casts the windows
to it (no copy if they have it), ``backward`` casts the targets, and every
buffer takes it.  ``train_cell`` and ``load_checkpoint`` give float32
networks, fed float64 datasets; ``init_network`` builds float64, which the
BPTT gradient checks difference.  ``Network.astype`` copies to a dtype.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import WINDOW_SPEC
from .errors import (ANY, NUMBER, DomainError, NumericalError, at_least, one_of,
                     read_document)

CHECKPOINT_VERSION = 1
CHECKPOINT_TABLE = {
    "architecture?": ANY, "param_count": at_least(1),
    "meta": {**WINDOW_SPEC, "seeds?": ANY},
    # NUMBER, not FLOAT: load_checkpoint refuses a non-finite weight in its own words
    "lstm_layers": [{"W_input": [[NUMBER]], "W_hidden": [[NUMBER]],
                     "b_input": [NUMBER], "b_hidden": [NUMBER]}],
    "fc_layers": [{"weights": [[NUMBER]], "bias": [NUMBER],
                   "activation": one_of("tanh", "identity")}],
}


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


@dataclass
class Network:
    """Ordered LSTM layers followed by an FC stack ending in an affine map."""

    lstm_layers: list[LstmLayerParams]
    fc_layers: list[FcLayerParams]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.lstm_layers or not self.fc_layers:
            raise DomainError("a network needs at least one LSTM and one FC layer")
        if self.fc_layers[-1].activation != "identity":
            raise DomainError("final FC layer must be affine (identity activation)")
        widths = ([l.hidden_size for l in self.lstm_layers]
                  + [l.weights.shape[0] for l in self.fc_layers])
        inputs = ([l.input_size for l in self.lstm_layers[1:]]
                  + [l.weights.shape[1] for l in self.fc_layers])
        if widths[:-1] != inputs:
            raise DomainError(f"layer widths {widths} do not feed layer inputs {inputs}")

    @property
    def input_size(self) -> int:
        return self.lstm_layers[0].input_size

    @property
    def output_size(self) -> int:
        return self.fc_layers[-1].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Each layer's array fields in field order, LSTM layers first."""
        return [value for layer in self.lstm_layers + self.fc_layers
                for value in vars(layer).values() if isinstance(value, np.ndarray)]

    def astype(self, dtype) -> "Network":
        """A copy whose every parameter array is ``dtype``; ``meta`` is shared."""
        def cast(layer):
            return type(layer)(**{k: v.astype(dtype) if isinstance(v, np.ndarray) else v
                                  for k, v in vars(layer).items()})
        return Network(lstm_layers=[cast(l) for l in self.lstm_layers],
                       fc_layers=[cast(l) for l in self.fc_layers], meta=self.meta)


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
    for k, width in enumerate([fc_width] * fc_count + [output_size]):
        bound = 1.0 / np.sqrt(prev)
        fc_layers.append(FcLayerParams(
            weights=rng.uniform(-bound, bound, (width, prev)),
            bias=rng.uniform(-bound, bound, width),
            activation="tanh" if k < fc_count else "identity"))
        prev = width
    return Network(lstm_layers=lstm_layers, fc_layers=fc_layers)


class Workspace:
    """Buffers that repeated ``backward`` calls reuse, so that a training
    step allocates nothing large after the first one.

    Each name holds one flat array of the largest size asked for, and a
    request views its first elements, so a smaller batch reuses the same
    memory.  LSTM layer k keeps its own names in ``layer(k)``, because its
    cache must outlive the layers above it.  An array's content lasts only
    until the next request for its name.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._layers: dict[int, Workspace] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised ``shape`` array of ``dtype`` over buffer ``name``."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def layer(self, k: int) -> Workspace:
        if k not in self._layers:
            self._layers[k] = Workspace()
        return self._layers[k]


def lstm_forward(layer: LstmLayerParams, inputs: np.ndarray,
                 cache: dict | None = None, *,
                 workspace: Workspace | None = None) -> np.ndarray:
    """Run the gate recurrences over a batch of sequences from h = c = 0.

    ``inputs`` is (B, n, input_size); returns the hidden sequence (B, n, H),
    a view of the h rows of the layer's Z buffer (see the module docstring).
    ``cache``, when given, keeps Z and every step's gates, cell state and its
    tanh for BPTT; without one the step loop keeps only the current step.
    With a ``workspace`` the returned sequence and the cache are views of
    its buffers; without one they are freshly allocated.
    """
    B, n, r = inputs.shape
    H = layer.hidden_size
    if r != layer.input_size:
        raise DomainError(f"input feature count {r} != layer input size {layer.input_size}")
    ws = Workspace() if workspace is None else workspace
    dtype = np.result_type(inputs, layer.W_input)
    # s (per gate i, f, g, o) is 1/2 or 1, so pre-scaling the weights and bias
    # scales the pre-activations exactly: s * a comes out of the product itself
    scale = np.repeat(np.array([[0.5], [0.5], [1.0], [0.5]], dtype), H, axis=0)
    W = np.hstack([layer.W_input, (layer.b_input + layer.b_hidden)[:, None],
                   layer.W_hidden]) * scale
    shift = 1 - scale
    Z = ws.array("Z", (n + 1, r + 1 + H, B), dtype)
    Z[:n, :r] = inputs.transpose(1, 2, 0)
    Z[:n, r] = 1.0
    Z[0, r + 1:] = 0.0
    # without a cache, the gates, the cell state and its tanh keep one step
    step = 1 if cache is not None else 0
    gates = ws.array("gates", (step * (n - 1) + 1, 4 * H, B), dtype)
    c_seq = ws.array("c", (step * n + 1, H, B), dtype)
    c_seq[0] = 0
    tanh_c = ws.array("tanh_c", (step * (n - 1) + 1, H, B), dtype)
    ig = ws.array("ig", (H, B), dtype)
    for t in range(n):
        a = np.matmul(W, Z[t], out=gates[step * t])
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = np.multiply(a[H:2 * H], c_seq[step * t], out=c_seq[step * (t + 1)])
        c += np.multiply(a[:H], a[2 * H:3 * H], out=ig)
        tc = np.tanh(c, out=tanh_c[step * t])
        np.multiply(a[3 * H:], tc, out=Z[t + 1, r + 1:])
    hs = Z[1:, r + 1:].transpose(2, 0, 1)
    if cache is not None:
        cache.update(Z=Z, hs=hs, gates=gates, c=c_seq, tanh_c=tanh_c)
    return hs


def _lstm_backward(layer: LstmLayerParams, cache: dict, dh_seq: np.ndarray,
                   ws: Workspace) -> list[np.ndarray]:
    """BPTT through one layer given batch-minor per-step hidden-state
    gradients ``dh_seq`` (n, H, B); returns [dW_input, dW_hidden, db_input,
    db_hidden].

    Each step's gate gradients are written over that step's spent gates,
    so afterwards ``cache["gates"]`` holds the gate gradients (n, 4H, B)
    and the cache cannot be differentiated again.  After the loop one
    product of those gradients with the cached ``Z`` gives
    [dW_input | db | dW_hidden]; block 0's zero h rows make step 0 add
    nothing to dW_hidden.
    """
    Z, da, c_seq, tanh_c = cache["Z"], cache["gates"], cache["c"], cache["tanh_c"]
    n, four_h, B = da.shape
    H, r = four_h // 4, layer.input_size
    dtype = da.dtype
    dh, dc, dc_rec, dh_rec, scratch = (ws.array(name, (H, B), dtype) for name in
                                       ("dh", "dc", "dc_rec", "dh_rec", "scratch"))
    dh_rec[...] = 0
    dc_rec[...] = 0
    deriv = ws.array("deriv", (4 * H, B), dtype)
    blocks = ((slice(0, 2 * H), 0.5), (slice(2 * H, 3 * H), 1.0), (slice(3 * H, None), 0.5))
    for t in range(n - 1, -1, -1):
        d = da[t]  # the step's gates, each overwritten by its gradient once read
        i, f, g, o = d[:H], d[H:2 * H], d[2 * H:3 * H], d[3 * H:]
        tc = tanh_c[t]
        np.add(dh_seq[t], dh_rec, out=dh)
        # dc = dh * o * (1 - tc^2) + dc_rec
        np.square(tc, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(dh, o, out=dc)
        dc *= scratch
        dc += dc_rec
        # gate derivative s^2 - (gate - (1 - s))^2: i(1 - i), or 1 - g^2 where s = 1
        for rows, s in blocks:
            gate = d[rows] if s == 1 else np.subtract(d[rows], 1 - s, out=deriv[rows])
            np.subtract(s * s, np.square(gate, out=deriv[rows]), out=deriv[rows])
        np.multiply(dc, f, out=dc_rec)
        # o and f are read; i and g each feed the other's slot, so dc * g
        # waits in scratch until dc * i has been formed over g
        np.multiply(dh, tc, out=o)
        np.multiply(dc, c_seq[t], out=f)
        np.multiply(dc, g, out=scratch)
        np.multiply(dc, i, out=g)
        np.multiply(scratch, deriv[:H], out=i)
        d[H:] *= deriv[H:]
        np.matmul(layer.W_hidden.T, d, out=dh_rec)
    grad = np.matmul(da, Z[:n].transpose(0, 2, 1),
                     out=ws.array("grad", (n, 4 * H, Z.shape[1]), dtype)).sum(axis=0)
    # b_input and b_hidden enter every gate as a sum: identical gradients
    db = grad[:, r]
    return [grad[:, :r].copy(), grad[:, r + 1:].copy(), db.copy(), db.copy()]


def forward(net: Network, X: np.ndarray, caches: list | None = None, *,
            workspace: Workspace | None = None) -> np.ndarray:
    """Predict a batch: X (B, n, r) or a single window (n, r) -> (B, m) / (m,).

    X is cast to the network's dtype.  LSTM layer k computes in
    ``workspace.layer(k)`` when a workspace is given.
    """
    single = X.ndim == 2
    x = (X[None] if single else X).astype(net.lstm_layers[0].W_input.dtype, copy=False)
    if x.shape[2] != net.input_size:
        raise DomainError(f"feature count {x.shape[2]} != network input size "
                          f"{net.input_size}")
    ws = Workspace() if workspace is None else workspace
    for k, layer in enumerate(net.lstm_layers):
        cache = {} if caches is not None else None
        x = lstm_forward(layer, x, cache=cache, workspace=ws.layer(k))
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


def backward(net: Network, X: np.ndarray, Y: np.ndarray, *,
             workspace: Workspace | None = None) -> tuple[float, list[np.ndarray]]:
    """Loss and exact gradients of batch-mean MSE for a batch of windows.

    X is (B, n, r) and Y is (B, m), both taken in the network's dtype.  The
    gradient list mirrors ``net.parameters()`` order.  A ``workspace``
    passed to every call of a training loop holds the caches and work
    buffers, so that steps after the first allocate nothing batch-sized;
    the gradients are fresh arrays.
    """
    if X.ndim != 3 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DomainError("expected X (B, n, r) and Y (B, m) with equal B")
    if X.shape[0] == 0:
        raise DomainError("empty batch")
    ws = Workspace() if workspace is None else workspace
    caches: list = []
    pred = forward(net, X, caches=caches, workspace=ws)
    if not np.all(np.isfinite(pred)):
        raise NumericalError("non-finite activations in forward pass")
    B, m = pred.shape
    Y = Y.astype(pred.dtype, copy=False)
    loss = mse_loss(pred, Y)

    lstm_caches = caches[:len(net.lstm_layers)]
    fc_acts = caches[len(net.lstm_layers):]
    h_last = lstm_caches[-1]["hs"][:, -1]

    d = 2.0 * (pred - Y) / (B * m)
    # walking back, each layer's gradients go in front of the later layers'
    grads: list[np.ndarray] = []
    for k in range(len(net.fc_layers) - 1, -1, -1):
        layer = net.fc_layers[k]
        a_out = fc_acts[k]
        if layer.activation == "tanh":
            d = d * (1.0 - a_out**2)
        a_in = fc_acts[k - 1] if k > 0 else h_last
        grads[:0] = [d.T @ a_in, d.sum(axis=0)]
        d = d @ layer.weights

    # gradient reaches the last LSTM layer only at the final time step
    n = X.shape[1]
    dh_seq = ws.array("dh_seq", (n, net.lstm_layers[-1].hidden_size, B), d.dtype)
    dh_seq[:-1] = 0
    dh_seq[-1] = d.T
    for k in range(len(net.lstm_layers) - 1, -1, -1):
        layer, cache = net.lstm_layers[k], lstm_caches[k]
        grads[:0] = _lstm_backward(layer, cache, dh_seq, ws.layer(k))
        if k > 0:  # the layer below takes this input gradient; the bottom's is unused
            # over the spent dh_seq, from the gate gradients left in the cache
            dh_seq = np.matmul(layer.W_input.T, cache["gates"],
                               out=ws.array("dh_seq", (n, layer.input_size, B), d.dtype))
    return loss, grads


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
    """Self-describing JSON checkpoint; each weight is the repr of its exact
    value, so a float32 network round-trips bit for bit."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": architecture(net),
        "param_count": count_params(net),
        "meta": net.meta,
        "lstm_layers": [vars(l) for l in net.lstm_layers],
        "fc_layers": [vars(l) for l in net.fc_layers],
    }
    Path(path).write_text(json.dumps(doc, default=np.ndarray.tolist))


def load_checkpoint(path) -> Network:
    doc = read_document(path, CHECKPOINT_VERSION, CHECKPOINT_TABLE)

    def layer(kind, fields: dict):
        return kind(**{k: v if isinstance(v, str) else np.array(v, dtype=np.float32)
                       for k, v in fields.items()})

    try:
        with np.errstate(over="ignore"):  # beyond float32 is inf, refused below
            net = Network(
                lstm_layers=[layer(LstmLayerParams, l) for l in doc["lstm_layers"]],
                fc_layers=[layer(FcLayerParams, l) for l in doc["fc_layers"]],
                meta=doc["meta"])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed checkpoint {path}: {exc!r}") from exc
    if count_params(net) != doc["param_count"]:
        raise DomainError(f"checkpoint declares {doc['param_count']} parameters, "
                          f"found {count_params(net)}")
    if not all(np.all(np.isfinite(p)) for p in net.parameters()):
        raise DomainError(f"checkpoint {path} has a non-finite parameter or one outside "
                          f"float32's range (|x| <= {np.finfo(np.float32).max!s})")
    for key, size in (("r", net.input_size), ("m", net.output_size)):
        if net.meta[key] != size:
            raise DomainError(f"checkpoint {path}: meta {key} is {net.meta[key]}, "
                              f"but the network's size is {size}")
    return net
