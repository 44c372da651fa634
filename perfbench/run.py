"""jacring benchmark: runs one workload's seeded job list through the real
CLI, in process, one job at a time, and prints the metrics as JSON.

    python3 perfbench/run.py --workload slices --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`). After an untimed warm-up pass, passes over the job list repeat
until `--seconds` have been spent; times are medians over the passes.
With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, the last line carries
the per-layer metrics, and the spans of the last traced pass are written
to `perfbench/out/`. Every job's output is checked against theory after
each pass, outside the timed region. See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PER_ROUND = 4     # import probes before the warm-up and after each round
SETUP_MIN = 21          # probes topped up to at least this many at the end
# numpy's OpenBLAS starts a thread per core on import. jacring calls no
# BLAS routine, but those threads make import time depend on how many cores
# other load leaves free: on a 2-core machine with one core busy the import
# took 0.21-0.24 s instead of 0.15 s, and 0.15-0.17 s with one BLAS thread.
# Like --threads 1, one BLAS thread keeps what is measured single-threaded.
# Set here, before numpy loads, so that the probes and the passes share it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import numpy, jacring.cli; print(time.perf_counter() - t0)")


@dataclass
class Result:
    rc: object          # exit code, or None when the job raised
    stdout: str
    error: str          # traceback of an exception, else ""
    seconds: float


def probe_setup(count: int) -> list:
    """Seconds to import numpy and jacring.cli, once in each of `count`
    fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=120).stdout)
            for _ in range(count)]


def run_job(cli, job) -> Result:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin)
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:            # argparse rejected the argv
        rc = exc.code
    except Exception:                    # one job's crash must not end the run
        rc = None
        error = traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin = saved_stdin
    return Result(rc, out.getvalue(), error, seconds)


def run_pass(cli, job_list, tracer=None) -> tuple:
    results = []
    t0 = time.perf_counter()
    for job in job_list:
        if tracer:
            tracer.job = job.id
        results.append(run_job(cli, job))
    return results, time.perf_counter() - t0


def failures(job_list, results, reference) -> dict:
    """{job id: reason} for each wrong job of one pass. `reference` is the
    warm-up pass's results: every pass must print the same bytes."""
    bad = {}
    for job, res, ref in zip(job_list, results, reference):
        if res.error:
            reason = res.error.strip().splitlines()[-1]
        elif res.stdout != ref.stdout:
            reason = "stdout differs from the warm-up pass"
        else:
            try:
                reason = checks.check(job, res.rc, res.stdout)
            except Exception as exc:     # malformed output, or theory raised
                reason = f"check raised: {exc!r}"
        if reason:
            bad[job.id] = reason
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--known-defects", action="store_true",
                    help="also run the jobs known to fail (ROADMAP D5)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jacring", "cli.py")):
        print(f"error: no jacring sources under {SRC}", file=sys.stderr)
        return 2

    job_list = jobs.generate(args.workload, args.seed, args.known_defects)
    # Set-up is probed in bursts spread over the run, so that its median
    # samples the machine's drift as the passes do. The first, unmeasured
    # probe writes the bytecode caches. A traced run reports no set-up.
    setup_times = []
    if not args.trace:
        probe_setup(1)
        setup_times += probe_setup(SETUP_PER_ROUND)
    sys.path.insert(0, SRC)
    import jacring.cli as cli

    # The warm-up pass fills lazy imports and the interpreter's caches; it
    # is checked and counts toward --seconds, but is not timed.
    start = time.perf_counter()
    reference, _ = run_pass(cli, job_list)
    bad = failures(job_list, reference, reference)
    attempted, failed = len(job_list), len(bad)
    untraced, traced = [], []
    while True:
        round_start = time.perf_counter()
        results, wall = run_pass(cli, job_list)
        untraced.append((results, wall))
        passes = [results]
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                results, wall = run_pass(cli, job_list, tracer)
            traced.append((spans.layer_metrics(tracer.spans), wall, tracer))
            passes.append(results)
        for results in passes:
            wrong = failures(job_list, results, reference)
            attempted += len(job_list)
            failed += len(wrong)
            bad.update(wrong)
        if not args.trace:
            setup_times += probe_setup(SETUP_PER_ROUND)
        # stop before a round that would overrun the measuring time
        now = time.perf_counter()
        if now + (now - round_start) - start > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace and len(setup_times) < SETUP_MIN:
        setup_times += probe_setup(SETUP_MIN - len(setup_times))

    for jid, reason in sorted(bad.items()):
        print(f"FAIL {jid}: {reason}", file=sys.stderr)
    wall = statistics.median(w for _, w in untraced)
    slowest = statistics.median(
        max(r.seconds for r in results) for results, _ in untraced)
    print(f"{args.workload} seed {args.seed}: {len(job_list)} jobs, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print("untraced pass seconds: "
          + " ".join(f"{w:.3f}" for _, w in untraced))
    if traced:
        print("traced pass seconds: "
              + " ".join(f"{w:.3f}" for _, w, _ in traced))
    print(f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted} jobs)")
    if args.trace:
        metrics = {key: statistics.median(m[key] for m, _, _ in traced)
                   for key in traced[0][0]}
        metrics["trace_overhead_s"] = (
            statistics.median(w for _, w, _ in traced) - wall)
        units = {key: _unit(key) for key in metrics}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(traced[-1][2].spans, fh)
    else:
        metrics = {
            "wall_s": wall,
            "slowest_job_s": slowest,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = {"wall_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB",
                 "setup_s": "s"}
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
