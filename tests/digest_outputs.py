"""Digest of every benchmark job's output: one JSON line per job of the
`slices` and `certify-hodge` workloads with its exit code and the sha256 of
its stdout and of its stderr.

    python3 tests/digest_outputs.py --seeds 1 2 3 41 > digest.jsonl

Run it on two checkouts and compare the files to check that a change keeps
the CLI's bytes. The jobs are those of `perfbench/jobs.py`
(`generate(workload, seed, known_defects=True)`); each runs through the
CLI in process, like the benchmark, and the program is imported from the
`src/` beside this file. A job that raises gets exit code null and its
exception's last traceback line as stderr. pytest does not collect this
file; `test_digest_outputs.py` runs it on two jobs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import jobs  # noqa: E402
from jacring.cli import main as cli_main  # noqa: E402

WORKLOADS = ("slices", "certify-hodge")


def run(job) -> tuple:
    """(exit code, stdout, stderr) of one job, run in process."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(job.argv))
    except SystemExit as exc:            # argparse rejected the argv
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc().strip().splitlines()[-1])
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(workload: str, seed: int, job) -> dict:
    rc, out, err = run(job)
    return {"workload": workload, "seed": seed, "job": job.id, "rc": rc,
            "stdout": _sha(out), "stderr": _sha(err)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[41])
    ap.add_argument("--only", nargs="+", metavar="JOB",
                    help="run only the jobs with these ids")
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        for seed in args.seeds:
            for job in jobs.generate(workload, seed, known_defects=True):
                if args.only is None or job.id in args.only:
                    print(json.dumps(digest(workload, seed, job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
