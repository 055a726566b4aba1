"""In-memory span tracer that wraps program functions from the outside.

A span is ``[name, start, end, parent, request]``: the traced function's
``layer.function`` name, ``time.perf_counter`` stamps, the index of the
enclosing span (-1 for a root) and the request id of the root it belongs
to.  Functions are wrapped at every ``semisub_motion`` module attribute that
holds them, which is where their callers look them up, so nothing in the
program changes.  The benchmark is single-threaded, so one stack tracks the
parent of each new span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("waves", "vessel", "dataset", "network", "training", "metrics",
          "experiments")
BENCH = "bench"  # spans opened by the benchmark's own loop

# (layer, function) pairs the traced run wraps: the named per-layer metrics
# plus every function one layer calls in another, so that each span's self
# time lands in the layer that spent it.
LAYER_TARGETS = (
    ("waves", "synthesize_wave"), ("waves", "calibrate_alpha"),
    ("vessel", "generate_campaign"), ("vessel", "heave_response"),
    ("vessel", "surge_response"),
    ("dataset", "split_campaign"), ("dataset", "build_pairs"),
    ("dataset", "add_noise"), ("dataset", "concat_datasets"),
    ("dataset", "regularize"), ("dataset", "compute_norm_constants"),
    ("network", "forward"), ("network", "lstm_forward"),
    ("network", "backward"), ("network", "init_network"),
    ("network", "mse_loss"),
    ("training", "train"), ("training", "adam_step"),
    ("training", "dataset_loss"),
    ("metrics", "evaluate"), ("metrics", "accuracy"),
    ("metrics", "boxplot_stats"),
    ("experiments", "train_cell"), ("experiments", "select_runs"),
)

# The untraced run wraps only what an end-to-end metric needs from inside a
# program call: train_cell's training loop and its steps.
END_TO_END_TARGETS = (("training", "train"), ("network", "backward"),
                      ("training", "adam_step"))

FLOAT_BYTES = 8


def _lstm_forward_counts(counts, args, kwargs, result):
    layer, inputs = args[0], args[1]
    cache = args[3] if len(args) > 3 else kwargs.get("cache")
    if inputs.ndim == 2:  # lstm_forward re-enters itself with a 3-D batch
        return
    B, n, r = inputs.shape
    H = layer.hidden_size
    counts["network.lstm_gemm_flops"] += 2 * B * n * 4 * H * (r + H)
    written = 4 * H + H + (4 * H + 3 * H if cache is not None else 0)
    counts["network.lstm_bytes_computed"] += FLOAT_BYTES * B * n * written


def _backward_counts(counts, args, kwargs, result):
    net, X = args[0], args[1]
    B, n, _ = X.shape
    for layer in net.lstm_layers:
        r, H = layer.input_size, layer.hidden_size
        # dW_input, dW_hidden, dx and the recurrent dh: two GEMM pairs
        counts["network.lstm_gemm_flops"] += 4 * B * n * 4 * H * (r + H)
        counts["network.lstm_bytes_computed"] += FLOAT_BYTES * B * n * (4 * H + r)


def _forward_counts(counts, args, kwargs, result):
    X = args[1]
    counts["network.forward.rows"] += 1 if X.ndim == 2 else X.shape[0]


def _split_counts(counts, args, kwargs, result):
    for ds in result:
        counts["dataset.windows_built"] += len(ds)
        counts["dataset.bytes_built"] += ds.X.nbytes + ds.Y.nbytes


def _train_counts(counts, args, kwargs, result):
    training, test = args[1], args[2]
    counts["training.train.train_windows"] += len(training)
    counts["training.train.test_windows"] += len(test)


def _evaluate_counts(counts, args, kwargs, result):
    counts["metrics.excluded_windows"] += len(args[1]) - result.accuracy.per_window.size


COUNTERS = {
    "network.lstm_forward": _lstm_forward_counts,
    "network.backward": _backward_counts,
    "network.forward": _forward_counts,
    "dataset.split_campaign": _split_counts,
    "training.train": _train_counts,
    "metrics.evaluate": _evaluate_counts,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around wrapped functions and the benchmark's requests."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = None
        self._patches: list[tuple[object, str, object]] = []
        self.started = self.stopped = 0.0

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id, name: str = "request"):
        """Root span for one benchmark request; nested spans share its id."""
        self._request = request_id
        index = self._enter(f"{BENCH}.{name}")
        try:
            yield
        finally:
            self._exit(index)
            self._request = None

    # -- wrapping ----------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap each (layer, function) wherever a program module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "semisub_motion" or name.startswith("semisub_motion.")]
        for layer, func in targets:
            original = getattr(sys.modules[f"semisub_motion.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self.started = time.perf_counter()

    def uninstall(self) -> None:
        """Restore every patched attribute; safe to call more than once."""
        if self._patches:
            self.stopped = time.perf_counter()
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, original):
        counter = COUNTERS.get(name)
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(index)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return traced

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def busy_times(self, key=lambda name: name) -> Counter:
        """Wall time inside each ``key(name)``, counting a span nested in
        another of the same key once."""
        totals = Counter()
        for name, start, end, parent, _ in self.spans:
            own = key(name)
            while parent >= 0 and key(self.spans[parent][0]) != own:
                parent = self.spans[parent][3]
            if parent < 0:
                totals[own] += end - start
        return totals

    def self_totals(self, key=lambda name: name) -> Counter:
        totals = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[key(span[0])] += own
        return totals

    def wall(self) -> float:
        return self.stopped - self.started

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer; ``bench`` also gets the time outside any span,
        so the values sum to the traced wall time."""
        totals = self.self_totals(layer_of)
        roots = sum(end - start for _, start, end, parent, _ in self.spans
                    if parent < 0)
        totals[BENCH] += self.wall() - roots
        return {layer: totals[layer] for layer in LAYERS + (BENCH,)}

    def layer_busy_times(self) -> dict[str, float]:
        totals = self.busy_times(layer_of)
        return {layer: totals[layer] for layer in LAYERS + (BENCH,)}

    def write(self, path: Path) -> None:
        """Write spans as CSV, times relative to installation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("index,name,start_s,end_s,parent,request\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                f.write(f"{i},{name},{start - self.started:.9f},"
                        f"{end - self.started:.9f},{parent},"
                        f"{'' if request is None else request}\n")
