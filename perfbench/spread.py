"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc-sphere --seeds 1-10 --seconds 30

For every metric of the result line it prints the median over the seeds and
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the figure the benchmark's bounds
are judged against.  ``--trace 1`` instead checks that every count metric
is identical across repeated runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import iqr_share, median
from tracing import COUNT_METRICS

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=RUN.parent.parent)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"seed {seed}: run failed (exit {proc.returncode})\n"
                 + proc.stdout)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # uncalibrated timings and the machine speed, from the report lines
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key.startswith("raw.") or key == "speed_factor":
            values[key] = float(rest.split()[0])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    rows = []
    for seed in parse_seeds(args.seeds):
        rows.append(run(args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed}: " + json.dumps(rows[-1]), flush=True)
        if args.trace:
            again = run(args.workload, seed, args.seconds, args.trace)
            differ = [name for name, _, _ in COUNT_METRICS
                      if again[name] != rows[-1][name]]
            print(f"seed {seed}: counts differing between two traced runs: "
                  f"{differ or 'none'}", flush=True)
    if not args.trace:
        for key in rows[0]:
            values = [r[key] for r in rows]
            print(f"{key:<16} median {median(values):.6g}  "
                  f"iqr/median {iqr_share(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
