"""Record repetition 0's Fréchet MSE values per seed into reference.json.

    python3 perfbench/record_reference.py --seeds 0-31
    python3 perfbench/record_reference.py --seeds 1-10 --workload mc-sphere

Run this only at a commit whose answers are trusted.  ``run.py`` then fails
any run whose MSE for a recorded seed differs from the recorded value by
more than the workload's ``rel_tol``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from harness import Ledger  # noqa: E402
from spread import parse_seeds  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

REFERENCE = HERE / "reference.json"


def record(name: str, seed: int) -> dict:
    work = ROOT / ".perfbench_work" / f"reference-{name}-{seed}-{os.getpid()}"
    ledger = Ledger()
    ctx = Context(ROOT, work, seed, ledger, in_process=False)
    workload = WORKLOADS[name](ctx)
    try:
        inputs = workload.prepare(0)
        workload.job(inputs, 0)
        mse = workload.check(inputs, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if ctx.errors:
        sys.exit(f"{name} seed {seed}: checks failed: {ctx.errors}")
    return mse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None)
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for seed in parse_seeds(args.seeds):
            mse = record(name, seed)
            if not mse:
                print(f"{name} seed {seed}: repetition 0 failed, not recorded")
                continue
            doc = json.loads(REFERENCE.read_text())
            doc["workloads"].setdefault(name, {})[str(seed)] = mse
            REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True)
                                 + "\n")
            print(f"{name} seed {seed}: {mse}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
