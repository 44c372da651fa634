"""Command-line interface.

Subcommands: certify, hilbert, hodge, cohomology, verify. Input files are
line-oriented: `field Q` or `field F <p>` (also `F<p>` or `F_<p>`, as for
--field), `vars <name>+`, one `poly <expr>` per line; `#` starts a
comment; whitespace is insignificant. Every command that reads an input
takes one path: load the problem (with the --field override), certify its
hypothesis (smooth complete intersection when r < n, no common zero
otherwise), and print one report, text or --json, whose JSON header
(input_hash, field, n, r, degrees) `_emit` builds. `verify` takes its
mode from the same r < n split, and its --p window always starts at p = 0.
Slices are computed one at a time in one process: the worker-count flag of
`cohomology` and `verify` still parses an integer, so existing command lines
keep working, and nothing reads it.

Exit codes: 0 success; 1 certificate NONE or verification failure; 2 parse
error (a coefficient whose denominator vanishes mod p included), a negative
verify bound (--p or --m-max), a verify --p range a..b with a != 0,
verify --m-max on an input with r >= n (the wedge-division checks belong
to complete intersections), or a prime p >= 3037000500 in a certificate,
whose ranks are exact there but which keeps this refusal until the
benchmark change of ROADMAP B1; 3 hypothesis violation (e.g. hodge needs
r < n).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from itertools import product

from .certify import (Certificate, no_common_zero_certificate,
                      smooth_ci_certificate)
from .errors import CertificateRequired, HypothesisViolation, InputError
from .fields import PrimeField, Rationals
from .hilbert import closed_form_H, hodge_table, symmetry_check
from .homology import (MODE_OF_KIND, check_verify_bounds, cohomology_report,
                       verify_predictions)
from .polynomials import parse_poly
from .problem import ProblemInput


def _parse_field(text: str, where: str):
    """A field spelling: 'Q', 'F <p>', 'F<p>' or 'F_<p>'."""
    tokens = text.split()
    if len(tokens) == 1 and tokens[0].startswith("F"):
        tokens = ("F " + tokens[0][1:].lstrip("_")).split()
    if not tokens:
        raise InputError(f"{where}: missing field kind")
    kind = tokens[0]
    if kind == "Q":
        if len(tokens) > 1:
            raise InputError(f"{where}: unexpected text after 'Q'")
        return Rationals()
    if kind == "F":
        if len(tokens) != 2:
            raise InputError(f"{where}: expected 'F <p>'")
        try:
            p = int(tokens[1])
        except ValueError:
            raise InputError(f"{where}: modulus {tokens[1]!r} is not an integer")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}")
    raise InputError(f"{where}: unknown field kind {kind!r}")


def parse_input(text: str, field_override=None):
    """Parse an input file into a ProblemInput plus the variable names."""
    field = field_override
    names = None
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        where = f"line {lineno}"
        if head == "field":
            if field_override is None:
                if field is not None:
                    raise InputError(f"{where}: duplicate field line")
                field = _parse_field(line[len("field"):], where)
        elif head == "vars":
            if names is not None:
                raise InputError(f"{where}: duplicate vars line")
            if not rest:
                raise InputError(f"{where}: vars line needs at least one name")
            if len(set(rest)) != len(rest):
                raise InputError(f"{where}: repeated variable name")
            names = rest
        elif head == "poly":
            if field is None:
                raise InputError(f"{where}: poly before any field line")
            if names is None:
                raise InputError(f"{where}: poly before any vars line")
            expr = line[len("poly"):].strip()
            if not expr:
                raise InputError(f"{where}: empty polynomial")
            try:
                polys.append(parse_poly(field, names, expr))
            except InputError as exc:
                raise InputError(f"{where}: {exc}")
        else:
            raise InputError(f"{where}: unknown directive {head!r}")
    if field is None:
        raise InputError("no field line (and no --field flag)")
    if names is None:
        raise InputError("no vars line")
    if not polys:
        raise InputError("no poly lines")
    return ProblemInput(field, polys), names


def _parse_range(text: str, lo_default: int, hi_default: int) -> tuple[int, int]:
    if text is None:
        return lo_default, hi_default
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            return int(a), int(b)
        v = int(text)
        return v, v
    except ValueError:
        raise InputError(f"bad range {text!r} (expected 'a' or 'a..b')")


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        parts = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"bad --degrees value {text!r}")
    if not parts or any(d < 1 for d in parts):
        raise InputError("--degrees needs positive integers")
    return tuple(parts)


def _load(args) -> ProblemInput:
    """The input file's problem, over the --field override if one is given."""
    field = _parse_field(args.field, "--field") if args.field else None
    if args.input == "-":
        return parse_input(sys.stdin.read(), field)[0]
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}")
    return parse_input(text, field)[0]


def _certificate(problem: ProblemInput, bound: int | None) -> Certificate:
    """The certificate of the problem's hypothesis: a smooth complete
    intersection when r < n, no common zero otherwise."""
    if problem.r < problem.n:
        return smooth_ci_certificate(problem, bound)
    return no_common_zero_certificate(problem, bound)


def _cert_json(cert: Certificate) -> dict:
    return {**asdict(cert), "success": cert.success}


def _slices_json(dims: dict) -> list:
    return [{"k": k, "q": q, "p": p, "dim": dim}
            for (k, q, p), dim in dims.items()]


def _emit(args, text: str, problem: ProblemInput | None = None, *,
          n: int = 0, degrees=(), **results) -> None:
    """Print the text report, or with --json the JSON report: the header
    input_hash, field, n, r, degrees, then the results in order. hilbert has
    no input; it passes n and degrees, and its header has field null and no
    hash."""
    if not args.json:
        sys.stdout.write(text + "\n")
        return
    head = {"field": None}
    if problem is not None:
        head = {"input_hash": problem.input_hash, "field": repr(problem.field)}
        n, degrees = problem.n, problem.degrees
    out = {**head, "n": n, "r": len(degrees), "degrees": list(degrees),
           **results}
    sys.stdout.write(json.dumps(out, indent=2) + "\n")


def _cmd_certify(args) -> int:
    problem = _load(args)
    cert = _certificate(problem, args.bound)
    _emit(args, cert.describe(), problem, certificates=[_cert_json(cert)])
    return 0 if cert.success else 1


def _cmd_hilbert(args) -> int:
    n, degrees = args.n, _parse_degrees(args.degrees)
    H = closed_form_H(n, degrees)
    ic = H.int_coefficients()
    palindromic = "yes" if symmetry_check(H, n, len(degrees)) else "no"
    _emit(args, f"H(t) = {H.to_string()}; H(1) = {H(1)}; "
                f"palindromic: {palindromic}", n=n, degrees=degrees,
          hilbert={"coefficients": [str(ic.get(p, 0)) for p in range(n)]})
    return 0


def _cmd_hodge(args) -> int:
    problem = _load(args)
    cert = _certificate(problem, args.bound)
    table = hodge_table(problem.n, problem.degrees, problem.field)
    lines = [cert.describe(), table.describe()]
    top = problem.n + problem.r
    labels = ["p:", f"dim H^{top}(0,p):", f"dim H^{top - 1}(0,p):"]
    width = max(len(s) for s in labels)
    rows = [[str(p) for p in sorted(table.dim_top)],
            [str(table.dim_top[p]) for p in sorted(table.dim_top)],
            [str(table.dim_next[p]) for p in sorted(table.dim_next)]]
    for label, row in zip(labels, rows):
        lines.append(f"{label:<{width}} " + " ".join(row))
    def by_p(dims):
        return {str(p): dims[p] for p in sorted(dims)}

    _emit(args, "\n".join(lines), problem,
          certificates=[_cert_json(cert)],
          hilbert={"coefficients":
                   [str(table.h.get(p, 0)) for p in range(problem.n)]},
          hodge={"h": by_p(table.h), "exceptional": table.exceptional,
                 "dim_top": by_p(table.dim_top),
                 "dim_next": by_p(table.dim_next)})
    return 0 if cert.success else 1


def _cmd_cohomology(args) -> int:
    problem = _load(args)
    n, r = problem.n, problem.r
    k, q, p = (None, None, None) if args.all else (args.k, args.q, args.p)
    windows = (_parse_range(k, 0, n + r), _parse_range(q, 0, 0),
               _parse_range(p, 0, n + 1))
    slices = list(product(*(range(lo, hi + 1) for lo, hi in windows)))
    if not slices:
        raise InputError("empty slice window")
    dims = cohomology_report(problem, slices)
    _emit(args, "\n".join(f"dim H^{k}(q={q},p={p}) = {dim}"
                          for (k, q, p), dim in dims.items()),
          problem, slices=_slices_json(dims))
    return 0


def _cmd_verify(args) -> int:
    # the window is p = 0..b; a single number b is its top
    lo, p_max = _parse_range(args.p or None, 0, None)
    if lo != 0 and ".." in args.p:
        raise InputError(f"verify --p {args.p}: the window starts at p = 0 "
                         f"(give 'b' or '0..b')")
    problem = _load(args)
    check_verify_bounds(problem, p_max, args.m_max)
    cert = _certificate(problem, args.bound)
    mode = MODE_OF_KIND[cert.kind]
    lines = [f"mode: {mode}", cert.describe()]
    results = {"mode": mode, "certificates": [_cert_json(cert)], "checks": []}
    if not cert.success:
        _emit(args, "\n".join(lines), problem, **results)
        return 1
    report = verify_predictions(problem, cert, p_max=p_max,
                                division_m_max=args.m_max)
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
                     f"expected {c.expected}, got {c.got}")
    nfail = sum(1 for c in report.checks if not c.passed)
    lines.append(f"result: {'PASS' if nfail == 0 else 'FAIL'} "
                 f"({len(report.checks)} checks, {nfail} failed)")
    results["checks"] = [{"name": c.name, "expected": str(c.expected),
                          "got": str(c.got), "pass": c.passed}
                         for c in report.checks]
    _emit(args, "\n".join(lines), problem, **results,
          slices=_slices_json(report.dims))
    return 0 if report.passed else 1


# help of the worker-count flag, parsed for old command lines and read by
# nothing
_IGNORED = "ignored: slices are computed one at a time"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacring",
        description="Exact certificates, cohomology dimensions, and "
                    "closed-form Hilbert series for homogeneous polynomial "
                    "systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="input file ('-' for stdin)")
            p.add_argument("--field", help="override the field: Q or F<p>")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")

    p_cert = sub.add_parser("certify", help="hypothesis certificate or NONE")
    add_common(p_cert)
    p_cert.add_argument("--bound", type=int, default=None,
                        help="largest quotient-slice degree to search")
    p_cert.set_defaults(func=_cmd_certify)

    p_hil = sub.add_parser("hilbert", help="closed-form H(t) from n and degrees")
    p_hil.add_argument("--n", type=int, required=True,
                       help="number of variables")
    p_hil.add_argument("--degrees", required=True,
                       help="comma-separated degrees, e.g. 2,2")
    p_hil.add_argument("--json", action="store_true", help="emit a JSON report")
    p_hil.set_defaults(func=_cmd_hilbert)

    p_hodge = sub.add_parser("hodge", help="certificate plus predicted "
                                           "dimension table")
    add_common(p_hodge)
    p_hodge.add_argument("--bound", type=int, default=None)
    p_hodge.set_defaults(func=_cmd_hodge)

    p_coh = sub.add_parser("cohomology", help="brute-force slice dimensions")
    add_common(p_coh)
    # argparse reads "-1..1" as an option: a negative start needs "--q=-1..1"
    p_coh.add_argument("--k", help="cochain range a..b (default 0..n+r); "
                                   "write a negative a as --k=a..b")
    p_coh.add_argument("--q", help="first-grading range a..b (default 0); "
                                   "write a negative a as --q=a..b")
    p_coh.add_argument("--p", help="second-grading range a..b (default "
                                   "0..n+1); write a negative a as --p=a..b")
    p_coh.add_argument("--all", action="store_true",
                       help="the full default window")
    p_coh.add_argument("--threads", type=int, default=None, help=_IGNORED)
    p_coh.set_defaults(func=_cmd_cohomology)

    p_ver = sub.add_parser("verify", help="run every predicted-pattern check")
    add_common(p_ver)
    p_ver.add_argument("--bound", type=int, default=None)
    p_ver.add_argument("--m-max", type=int, default=None, dest="m_max",
                       help="also run wedge-division checks with this "
                            "saturation bound (needs r < n; at r = n-1 "
                            "there are none: every joint kernel is zero)")
    p_ver.add_argument("--p", help="top b of the second-grading window "
                                   "0..b, given as b or 0..b (default n+1)")
    p_ver.add_argument("--threads", type=int, default=None, help=_IGNORED)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


# exit code of each error a command reports on stderr
_EXIT_CODES = {InputError: 2, HypothesisViolation: 3, CertificateRequired: 1}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main: parse_args leaves it
    unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    raise SystemExit(main())
