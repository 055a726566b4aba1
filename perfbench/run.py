"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the program's layers are traced and the metrics are the per-layer ones.
Lines before it are a readable report and the environment block.
"""

from __future__ import annotations

import time

IMPORT_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
if __name__ == "__main__":
    # BLAS may use every core it sees; keep it within the cores this process
    # has.  Only a benchmark process does this, not one that imports us.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > NPROC:
            os.environ[var] = str(NPROC)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy as np
    import scipy
    from semisub_motion import vessel  # the package imports every layer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program: {exc}")

import tracer as tracing
import workloads

IMPORT_S = time.perf_counter() - IMPORT_START
FULL_DURATION = vessel.FULL_SCALE_DURATION

# What each workload-neutral end-to-end metric measures on each workload.
ALIASES = {
    "train-desk": {"windows_per_s": "per training step",
                   "request_p50_ms": "training step: backward + adam_step"},
    "stream-forecast": {"windows_per_s": "per forecast",
                        "request_p50_ms": "forecast_p50_ms",
                        "request_p99_ms": "forecast_p99_ms"},
    "noise-dataset": {"windows_per_s": "per split_campaign call",
                      "request_p50_ms": "campaign plus 6 split calls"},
}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, samples: dict[str, int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "samples": samples,
    }


def _percentile_ms(latencies: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(latencies, q))


def end_to_end(out: workloads.Outcome) -> dict[str, tuple[float, str]]:
    setup = IMPORT_S + (statistics.median(out.setup_s) if out.setup_s else 0.0)
    return {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "windows_per_s": (statistics.median(out.throughputs), "windows/s"),
        "request_p50_ms": (_percentile_ms(out.latencies_s, 50), "ms"),
    }


PER_LAYER_SPANS = (
    "network.lstm_forward.calls", "network.lstm_forward.busy_s",
    "network.forward.self_s", "network.backward.calls", "network.backward.self_s",
    "training.adam_step.calls", "training.adam_step.busy_s",
    "training.dataset_loss.busy_s", "training.train.self_s",
    "metrics.evaluate.calls", "metrics.evaluate.self_s",
    "metrics.accuracy.calls", "metrics.accuracy.busy_s",
    "dataset.split_campaign.calls", "dataset.split_campaign.busy_s",
    "dataset.build_pairs.busy_s", "dataset.add_noise.busy_s",
    "dataset.concat_datasets.busy_s",
    "waves.synthesize_wave.calls", "waves.synthesize_wave.busy_s",
    "waves.calibrate_alpha.busy_s",
    "vessel.heave_response.busy_s", "vessel.surge_response.busy_s",
    "vessel.generate_campaign.self_s",
    "experiments.train_cell.self_s",
)
PER_LAYER_COUNTS = (
    ("network.forward.rows", "count"),
    ("network.lstm_gemm_flops", "flop"),
    ("network.lstm_bytes_computed", "bytes"),
    ("metrics.excluded_windows", "count"),
    ("dataset.windows_built", "count"),
    ("dataset.bytes_built", "bytes"),
)


def per_layer(trace: tracing.Tracer,
              out: workloads.Outcome) -> dict[str, tuple[float, str]]:
    by_kind = {"calls": (trace.calls(), "count"), "busy_s": (trace.busy_times(), "s"),
               "self_s": (trace.self_totals(), "s")}
    result = {}
    for metric in PER_LAYER_SPANS:
        name, kind = metric.rsplit(".", 1)
        totals, unit = by_kind[kind]
        result[metric] = (float(totals[name]), unit)
    for metric, unit in PER_LAYER_COUNTS:
        result[metric] = (float(trace.counts[metric]), unit)
    for layer, seconds in trace.layer_self_times().items():
        result[f"layer.{layer}.self_s"] = (float(seconds), "s")
    result["trace.wall_s"] = (trace.wall(), "s")
    result["trace.spans"] = (float(len(trace.spans)), "count")
    result["trace.request_p50_ms"] = (_percentile_ms(out.latencies_s, 50), "ms")
    return result


def layer_table(trace: tracing.Tracer) -> list[str]:
    wall = trace.wall()
    busy = trace.layer_busy_times()
    lines = [f"{'layer':<12}{'busy_s':>12}{'self_s':>12}{'self share':>12}"]
    for layer, seconds in trace.layer_self_times().items():
        lines.append(f"{layer:<12}{busy[layer]:>12.4f}{seconds:>12.4f}"
                     f"{seconds / wall:>12.2%}")
    lines.append(f"{'traced wall':<12}{'':>12}{wall:>12.4f}{1:>12.2%}")
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool,
            duration: float = FULL_DURATION):
    """Run one workload; returns (result object, report lines, tracer)."""
    recorder = tracing.Tracer()
    recorder.install(tracing.LAYER_TARGETS if trace else tracing.END_TO_END_TARGETS)
    try:
        out = workloads.WORKLOADS[workload](seed, seconds, recorder, duration)
    finally:
        recorder.uninstall()
    if not out.latencies_s:
        raise RuntimeError(f"{workload}: every request failed")
    if workload in workloads.GRADIENT_CHECKED:
        workloads.gradient_check(out, seed)
    values = per_layer(recorder, out) if trace else end_to_end(out)
    samples = dict.fromkeys(("request_p10_ms", "request_p50_ms", "request_p99_ms"),
                            len(out.latencies_s))
    samples["windows_per_s"] = len(out.throughputs)
    samples["setup_s"] = max(len(out.setup_s), 1)
    # printed, not gated: see the README, "Why medians of short operations"
    shown = dict(values,
                 request_p10_ms=(_percentile_ms(out.latencies_s, 10), "ms"),
                 request_p99_ms=(_percentile_ms(out.latencies_s, 99), "ms"))
    lines = [f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}",
             "env " + json.dumps(environment(seed, samples))]
    aliases = ALIASES[workload]
    for name, (value, unit) in shown.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        lines.append(f"  {name:<34} {value:>16.6g} {unit}{alias}")
    lines.append(f"  {'error_rate':<34} {out.failed / out.attempted:>16.6g} ratio"
                 f"  ({out.failed} failed of {out.attempted})")
    for name, (value, unit) in out.report.items():
        lines.append(f"  {name:<34} {value:>16.6g} {unit}")
    lines.append("checks " + json.dumps(out.checks))
    if trace:
        lines.extend(layer_table(recorder))
    result = {"correct": all(out.checks.values()), "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    return result, lines, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines, recorder = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
        recorder.write(spans)
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
