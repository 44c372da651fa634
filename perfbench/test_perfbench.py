"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the
repository root."""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import theory  # noqa: E402

import jacring.cli as cli  # noqa: E402
import jacring.fields  # noqa: E402
import jacring.homology  # noqa: E402
import jacring.linalg  # noqa: E402


def _small_jobs() -> list:
    """Cheap jobs that between them reach every traced layer."""
    ch = jobs.generate("certify-hodge", 3)
    return [
        jobs._verify("cubic-curve", "Q", 3, ["x1^3 + 2*x2^3 + 3*x3^3"],
                     (3,), 2),
        jobs._verify("cubic-surface", "F 32003", 4,
                     ["x1^3 + x2^3 + 5*x3^3 + 7*x4^3"], (3,), 1,
                     extra=("--m-max", "1")),
        next(j for j in ch if j.id == "certify-d5-F1000003"),
        next(j for j in ch if j.argv[0] == "hilbert"),
    ]


def test_generator_is_deterministic():
    for workload in jobs.WORKLOADS:
        assert jobs.generate(workload, 7) == jobs.generate(workload, 7)
        assert jobs.generate(workload, 7) != jobs.generate(workload, 8)


def test_known_defects_run_only_when_asked_and_are_flagged():
    plain = jobs.generate("certify-hodge", 7)
    full = jobs.generate("certify-hodge", 7, known_defects=True)
    defects = full[len(plain):]
    assert full[:len(plain)] == plain and len(defects) == 2
    assert not any(j.id in {d.id for d in defects} for j in plain)
    for job in defects:
        res = run.run_job(cli, job)
        reason = res.error or checks.check(job, res.rc, res.stdout)
        assert reason, job.id


def test_theory_matches_classical_values():
    assert theory.hodge_h(5, (5,)) == {1: 1, 2: 101, 3: 101, 4: 1}
    assert theory.hodge_h(3, (3,)) == {1: 1, 2: 1}
    assert theory.hodge_h(4, (2, 2)) == {2: 1, 3: 1}
    assert theory.hodge_h(3, (2, 2)) == {2: 3}
    assert theory.hodge_h(4, (4,)) == {1: 1, 2: 19, 3: 1}
    assert theory.hodge_h(5, (3,)) == {1: 0, 2: 5, 3: 5, 4: 0}
    assert theory.hodge_h(6, (3,)) == {1: 0, 2: 1, 3: 20, 4: 1, 5: 0}
    for n, d in [(4, 3), (5, 4), (6, 3), (3, 5)]:
        assert theory.hodge_h(n, (d,)) == theory.hypersurface_h(n, d)
        assert sum(theory.hodge_h(n, (d,)).values()) == \
            theory.hypersurface_H1(n, d)


def test_checker_accepts_real_output_and_flags_tampering():
    for job in _small_jobs():
        res = run.run_job(cli, job)
        assert checks.check(job, res.rc, res.stdout) is None, job.id
        out = json.loads(res.stdout)
        if "slices" in out:
            out["slices"][-1]["dim"] += 1
        elif "hodge" in out or "certificates" in out:
            out["certificates"][0]["vanishing_degree"] += 1
        else:
            out["hilbert"]["coefficients"][-1] = "7"
        assert checks.check(job, res.rc, json.dumps(out)) is not None, job.id
        assert checks.check(job, 1, res.stdout) is not None


def test_traced_stdout_is_byte_identical():
    job_list = _small_jobs()
    plain, _ = run.run_pass(cli, job_list)
    tracer = spans.Tracer()
    with tracer.installed():
        assert jacring.homology.rank is not jacring.linalg.rank.__wrapped__
        traced, _ = run.run_pass(cli, job_list, tracer)
    assert [r.stdout for r in traced] == [r.stdout for r in plain]
    assert [r.rc for r in traced] == [r.rc for r in plain] == [0, 0, 0, 0]
    assert not hasattr(jacring.homology.rank, "__wrapped__")
    assert jacring.homology.rank is jacring.linalg.rank
    layers = {spans.LAYER_OF[s[0]] for s in tracer.spans}
    assert layers == set(spans.TRACED)
    m = spans.layer_metrics(tracer.spans)
    assert m["rank.q.calls"] > 0 and m["rank.modp.calls"] > 0
    assert m["kernel.calls"] > 0 and m["quotients.slices"] > 0


def test_empty_matrix_counts_no_dense_bytes():
    F = jacring.fields.PrimeField(32003)
    tracer = spans.Tracer()
    with tracer.installed():
        jacring.linalg.rank(jacring.linalg.SparseMatrix(3, 4, F))
        jacring.linalg.rank(jacring.linalg.SparseMatrix(2, 5, F,
                                                        {(0, 0): 1}))
    m = spans.layer_metrics(tracer.spans)
    assert m["rank.modp.calls"] == 2
    assert m["rank.dense_bytes"] == 2 * 5 * 8
