"""Seeded job lists for the workloads.

A job is the text of a jacring input file (fed on stdin), the argv of one
CLI invocation, and the answer theory predicts for it. The seed only picks
coefficients from 1 to 9 (and, for the hilbert sweep, which shapes run);
every family is chosen so that its answer is a theorem for every such
choice, so no job may fail on a correct program.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

import theory

F32003 = "F 32003"
D5_SYSTEM = ("x1^3 + 2*x2^3 + 3*x3^3 + 4*x4^3",
             "x1^2 + x2^2 + x3^2 + 5*x4^2 + x1*x2")
D5_FIELDS = ("Q", "F 1000003")
# ROADMAP D5: at these primes certify gives N = 4 and raises OverflowError.
# They run only with --known-defects, since a benchmark run must not fail.
D5_DEFECT_FIELDS = (f"F {2**61 - 1}", f"F {2**89 - 1}")
HILBERT_PER_CLASS = 3


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    stdin: str
    expect: dict


def _input_text(fld: str, n: int, polys) -> str:
    names = " ".join(f"x{i + 1}" for i in range(n))
    return "".join([f"field {fld}\n", f"vars {names}\n"]
                   + [f"poly {p}\n" for p in polys])


def _diagonal(coeffs, d: int) -> str:
    return " + ".join(f"{c}*x{i + 1}^{d}" for i, c in enumerate(coeffs))


def _coeffs(rng: random.Random, n: int) -> list:
    """n coefficients from 1 to 9 whose product is within a factor e^0.25
    of 4^n. Exact elimination over Q costs more on larger coefficients, so
    bounding the product keeps the inputs of every seed equally hard."""
    while True:
        c = [rng.randint(1, 9) for _ in range(n)]
        if abs(math.log(math.prod(c)) - n * math.log(4)) <= 0.25:
            return c


def _pencil(rng: random.Random, n: int) -> tuple:
    """Two diagonal quadrics sum a_i x_i^2, sum b_i x_i^2 with every
    a_i b_j - a_j b_i nonzero: a smooth complete intersection over Q and
    over any prime above 80, since |a_i b_j - a_j b_i| <= 80."""
    while True:
        a, b = _coeffs(rng, n), _coeffs(rng, n)
        if all(a[i] * b[j] != a[j] * b[i]
               for i in range(n) for j in range(i + 1, n)):
            return _diagonal(a, 2), _diagonal(b, 2)


def _verify(jid: str, fld: str, n: int, polys, degrees, p_hi: int,
            extra=()) -> Job:
    return Job(jid, ("verify", "-", "--p", f"0..{p_hi}", *extra,
                     "--threads", "1", "--json"),
               _input_text(fld, n, polys),
               {"kind": "verify", "n": n, "degrees": tuple(degrees),
                "p_hi": p_hi})


def fp_slices(rng: random.Random) -> list:
    quintic = _diagonal(_coeffs(rng, 5), 5)
    return [
        _verify("quadrics-fp", F32003, 4, _pencil(rng, 4), (2, 2), 3),
        Job("quintic-fp", ("cohomology", "-", "--k", "6", "--p", "1..4",
                           "--threads", "1", "--json"),
            _input_text(F32003, 5, [quintic]),
            {"kind": "cohomology", "n": 5, "degrees": (5,), "k": 6,
             "p": (1, 2, 3, 4)}),
    ]


def q_slices(rng: random.Random) -> list:
    # Several small instances per family, so that no single input's cost
    # sets the pass time.
    out = []
    for i in range(4):
        out.append(_verify(f"cubic-curve-q-{i}", "Q", 3,
                           [_diagonal(_coeffs(rng, 3), 3)], (3,), 3))
    for i in range(4):
        out.append(_verify(f"conics-q-{i}", "Q", 3, _pencil(rng, 3),
                           (2, 2), 2))
    for i in range(4):
        out.append(_verify(f"quadrics-q-{i}", "Q", 4, _pencil(rng, 4),
                           (2, 2), 1))
    out.append(_verify("cubic-surface-q", "Q", 4,
                       [_diagonal(_coeffs(rng, 4), 3)], (3,), 2,
                       extra=("--m-max", "1")))
    return out


def slices(rng: random.Random) -> list:
    """fp-slices and q-slices in one pass. BENCHMARK.json runs this and
    certify-hodge only: with two workloads each run can last 55 s, long
    enough to average over the machine's slow and fast stretches."""
    return fp_slices(rng) + q_slices(rng)


def _hodge(jid: str, fld: str, n: int, d: int, rng: random.Random) -> Job:
    bound = n * (d - 2) + 1
    return Job(jid, ("hodge", "-", "--bound", str(bound), "--json"),
               _input_text(fld, n, [_diagonal(_coeffs(rng, n), d)]),
               {"kind": "hodge", "n": n, "degrees": (d,), "N": bound})


def hilbert_shapes() -> dict:
    """The acceptance sweep's 917 shapes (n <= 7, r < n, d_i <= 5), grouped
    by (n, r); the cost of closed_form_H depends mostly on n and r."""
    classes: dict = {}
    for n in range(2, 8):
        for r in range(1, n):
            classes[(n, r)] = list(
                combinations_with_replacement(range(1, 6), r))
    return classes


def _certify_d5(fld: str) -> Job:
    return Job(f"certify-d5-{fld.replace(' ', '')}",
               ("certify", "-", "--field", fld, "--json"),
               _input_text("Q", 4, D5_SYSTEM), {"kind": "certify", "N": 6})


def certify_hodge(rng: random.Random) -> list:
    out = [
        _hodge("quartic-3fold-fp", F32003, 5, 4, rng),
        _hodge("cubic-4fold-fp", F32003, 6, 3, rng),
        _hodge("cubic-3fold-q", "Q", 5, 3, rng),
        _hodge("quartic-surface-q", "Q", 4, 4, rng),
    ]
    out += [_certify_d5(fld) for fld in D5_FIELDS]
    # A fixed number of shapes from every (n, r) class keeps the pass cost
    # steady across seeds.
    for (n, r), shapes in hilbert_shapes().items():
        for d in rng.sample(shapes, min(HILBERT_PER_CLASS, len(shapes))):
            out.append(Job(f"hilbert-{n}-{'.'.join(map(str, d))}",
                           ("hilbert", "--n", str(n), "--degrees",
                            ",".join(map(str, d)), "--json"),
                           "", {"kind": "hilbert", "n": n, "degrees": d}))
    return out


WORKLOADS = {
    "fp-slices": fp_slices,
    "q-slices": q_slices,
    "slices": slices,
    "certify-hodge": certify_hodge,
}

# Jobs that fail until ROADMAP D5 is fixed, by workload; generate() adds
# them only when asked.
KNOWN_DEFECTS = {
    "certify-hodge": [_certify_d5(fld) for fld in D5_DEFECT_FIELDS],
}


def generate(workload: str, seed: int, known_defects: bool = False) -> list:
    """The job list of a workload; the same (workload, seed) gives the same
    jobs. With `known_defects`, the workload's jobs in KNOWN_DEFECTS are
    appended."""
    out = WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
    if known_defects:
        out += KNOWN_DEFECTS.get(workload, [])
    return out
