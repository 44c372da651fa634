"""Print every end-to-end metric, with units, for fp-slices, q-slices and
certify-hodge.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs in its own fresh interpreter (`run.py --trace 0`), so
its peak RSS and set-up time belong to it alone. The runs include the
jobs known to fail (`--known-defects`), so failed_ratio, failed /
attempted from the run's result line, shows them.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("fp-slices", "q-slices", "certify-hodge")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--known-defects"],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = {k: f"{m['value']:.4g} {m['unit']}"
                 for k, m in result["metrics"].items()}
        cells["failed_ratio"] = (
            f"{result['failed'] / result['attempted']:.4g} ratio")
        rows.append((workload, cells))
    names = list(rows[0][1])
    width = max(len(w) for w, _ in rows)
    print(f"{'workload':<{width}}  " + "  ".join(f"{n:>14}" for n in names))
    for workload, cells in rows:
        print(f"{workload:<{width}}  "
              + "  ".join(f"{cells[n]:>14}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
