"""Run every workload untraced and traced, and print one combined report.

    python3 perfbench/report.py --seed 1 --seconds 30

For each workload this prints the end-to-end metrics of the untraced run,
the layer table of the traced run, and the tracing overhead: the traced
minus the untraced median operation time.  Each run is its own process, as
when the benchmark is driven one workload at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__).resolve()


def _run_child(workload: str, seed: int, seconds: float,
               trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    for workload in run.workloads.WORKLOADS:
        plain_lines, plain = _run_child(workload, args.seed, args.seconds, 0)
        traced_lines, traced = _run_child(workload, args.seed, args.seconds, 1)
        print("\n".join(plain_lines))
        print(json.dumps(plain))
        print("\n".join(line for line in traced_lines
                        if not line.startswith("  ")))
        untraced_ms = plain["metrics"]["request_p50_ms"]["value"]
        traced_ms = traced["metrics"]["trace.request_p50_ms"]["value"]
        print(f"tracing overhead: {traced_ms - untraced_ms:+.4f} ms per request "
              f"({(traced_ms - untraced_ms) / untraced_ms:+.2%} of "
              f"{untraced_ms:.4f} ms)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
