"""Command-line interface.

Subcommands: certify, hilbert, hodge, cohomology, verify. Input files are
line-oriented: `field Q` or `field F <p>`, `vars <name>+`, one `poly <expr>`
per line; `#` starts a comment; whitespace is insignificant. All output is
assembled deterministically and printed in one piece. Slices are computed
one at a time in one process: the worker-count flag of `cohomology` and
`verify` still parses an integer, so existing command lines keep working,
and nothing reads it.

Exit codes: 0 success; 1 certificate NONE or verification failure; 2 parse
error, or a modulus too large for row reduction (p >= 3037000500, where the
int64 kernel stops being exact); 3 hypothesis violation (e.g. a mode that
needs r < n).
"""
from __future__ import annotations

import argparse
import json
import sys

from .certify import (Certificate, no_common_zero_certificate,
                      smooth_ci_certificate)
from .errors import CertificateRequired, HypothesisViolation, InputError
from .fields import PrimeField, Rationals
from .hilbert import Poly, closed_form_H, hodge_table, symmetry_check
from .homology import (MODE_CI, MODE_NCZ, cohomology_report,
                       verify_predictions)
from .polynomials import parse_poly
from .problem import ProblemInput


def _parse_field_token(tokens: list[str], where: str):
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


def parse_field_flag(text: str):
    """--field values: 'Q', 'F <p>', 'F<p>', or 'F_<p>'."""
    text = text.strip()
    if text.startswith("F") and len(text) > 1 and " " not in text:
        text = "F " + text[1:].lstrip("_")
    return _parse_field_token(text.split(), "--field")


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
                field = _parse_field_token(rest, where)
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
    try:
        problem = ProblemInput(field, polys)
    except InputError as exc:
        raise InputError(str(exc))
    return problem, names


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


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


def _cert_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "field": cert.field,
        "num_generators": cert.num_generators,
        "bound": cert.bound,
        "vanishing_degree": cert.vanishing_degree,
        "success": cert.success,
    }


def _base_json(problem: ProblemInput) -> dict:
    return {
        "input_hash": problem.input_hash,
        "field": repr(problem.field),
        "n": problem.n,
        "r": problem.r,
        "degrees": list(problem.degrees),
    }


def _emit(out: dict | str) -> None:
    if isinstance(out, str):
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
    else:
        sys.stdout.write(json.dumps(out, indent=2) + "\n")


def _auto_certificate(problem: ProblemInput, bound):
    if problem.r < problem.n:
        return smooth_ci_certificate(problem, bound)
    return no_common_zero_certificate(problem, bound)


def _cmd_certify(args) -> int:
    problem, _ = parse_input(_read_source(args.input),
                             parse_field_flag(args.field) if args.field else None)
    cert = _auto_certificate(problem, args.bound)
    if args.json:
        out = _base_json(problem)
        out["certificates"] = [_cert_json(cert)]
        _emit(out)
    else:
        _emit(cert.describe())
    return 0 if cert.success else 1


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        parts = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"bad --degrees value {text!r}")
    if not parts or any(d < 1 for d in parts):
        raise InputError("--degrees needs positive integers")
    return tuple(parts)


def _hilbert_line(n: int, degrees) -> tuple[str, Poly]:
    H = closed_form_H(n, degrees)
    line = (f"H(t) = {H.to_string()}; H(1) = {H(1)}; "
            f"palindromic: {'yes' if symmetry_check(H, n, len(degrees)) else 'no'}")
    return line, H


def _hilbert_json_coeffs(H: Poly, n: int) -> list[str]:
    ic = H.int_coefficients()
    return [str(ic.get(p, 0)) for p in range(n)]


def _cmd_hilbert(args) -> int:
    degrees = _parse_degrees(args.degrees)
    if args.n is None:
        raise InputError("hilbert needs --n")
    line, H = _hilbert_line(args.n, degrees)
    if args.json:
        out = {
            "field": None,
            "n": args.n,
            "r": len(degrees),
            "degrees": list(degrees),
            "hilbert": {"coefficients": _hilbert_json_coeffs(H, args.n)},
        }
        _emit(out)
    else:
        _emit(line)
    return 0


def _cmd_hodge(args) -> int:
    problem, _ = parse_input(_read_source(args.input),
                             parse_field_flag(args.field) if args.field else None)
    cert = _auto_certificate(problem, args.bound)
    table = hodge_table(problem.n, problem.degrees, problem.field)
    if args.json:
        out = _base_json(problem)
        out["certificates"] = [_cert_json(cert)]
        out["hilbert"] = {"coefficients":
                          [str(table.h.get(p, 0)) for p in range(problem.n)]}
        out["hodge"] = {
            "h": {str(p): table.h[p] for p in sorted(table.h)},
            "exceptional": table.exceptional,
            "dim_top": {str(p): table.dim_top[p] for p in sorted(table.dim_top)},
            "dim_next": {str(p): table.dim_next[p] for p in sorted(table.dim_next)},
        }
        _emit(out)
    else:
        lines = [cert.describe(), table.describe()]
        top = problem.n + problem.r
        labels = ["p:", f"dim H^{top}(0,p):", f"dim H^{top - 1}(0,p):"]
        width = max(len(s) for s in labels)
        rows = [[str(p) for p in sorted(table.dim_top)],
                [str(table.dim_top[p]) for p in sorted(table.dim_top)],
                [str(table.dim_next[p]) for p in sorted(table.dim_next)]]
        for label, row in zip(labels, rows):
            lines.append(f"{label:<{width}} " + " ".join(row))
        _emit("\n".join(lines))
    return 0 if cert.success else 1


def _cmd_cohomology(args) -> int:
    problem, _ = parse_input(_read_source(args.input),
                             parse_field_flag(args.field) if args.field else None)
    n, r = problem.n, problem.r
    if args.all:
        k_lo, k_hi = 0, n + r
        q_lo, q_hi = 0, 0
        p_lo, p_hi = 0, n + 1
    else:
        k_lo, k_hi = _parse_range(args.k, 0, n + r)
        q_lo, q_hi = _parse_range(args.q, 0, 0)
        p_lo, p_hi = _parse_range(args.p, 0, n + 1)
    slices = [(k, q, p)
              for k in range(k_lo, k_hi + 1)
              for q in range(q_lo, q_hi + 1)
              for p in range(p_lo, p_hi + 1)]
    if not slices:
        raise InputError("empty slice window")
    dims = cohomology_report(problem, slices)
    if args.json:
        out = _base_json(problem)
        out["slices"] = [{"k": k, "q": q, "p": p, "dim": dim}
                         for (k, q, p), dim in dims.items()]
        _emit(out)
    else:
        lines = [f"dim H^{k}(q={q},p={p}) = {dim}"
                 for (k, q, p), dim in dims.items()]
        _emit("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    problem, _ = parse_input(_read_source(args.input),
                             parse_field_flag(args.field) if args.field else None)
    mode = MODE_CI if problem.r < problem.n else MODE_NCZ
    cert = _auto_certificate(problem, args.bound)
    lines = [f"mode: {mode}", cert.describe()]
    if not cert.success:
        if args.json:
            out = _base_json(problem)
            out["mode"] = mode
            out["certificates"] = [_cert_json(cert)]
            out["checks"] = []
            _emit(out)
        else:
            _emit("\n".join(lines))
        return 1
    p_hi = _parse_range(args.p, 0, problem.n + 1)[1] if args.p else None
    report = verify_predictions(problem, mode, cert, p_max=p_hi,
                                division_m_max=args.m_max)
    if args.json:
        out = _base_json(problem)
        out["mode"] = mode
        out["certificates"] = [_cert_json(cert)]
        out["checks"] = [{"name": c.name, "expected": str(c.expected),
                          "got": str(c.got), "pass": c.passed}
                         for c in report.checks]
        out["slices"] = [{"k": k, "q": q, "p": p, "dim": dim}
                         for (k, q, p), dim in sorted(report.dims.items())]
        _emit(out)
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: expected {c.expected}, got {c.got}")
        nfail = sum(1 for c in report.checks if not c.passed)
        lines.append(f"result: {'PASS' if nfail == 0 else 'FAIL'} "
                     f"({len(report.checks)} checks, {nfail} failed)")
        _emit("\n".join(lines))
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
    p_coh.add_argument("--k", help="cochain range a..b (default 0..n+r)")
    p_coh.add_argument("--q", help="first-grading range a..b (default 0)")
    p_coh.add_argument("--p", help="second-grading range a..b (default 0..n+1)")
    p_coh.add_argument("--all", action="store_true",
                       help="the full default window")
    p_coh.add_argument("--threads", type=int, default=None, help=_IGNORED)
    p_coh.set_defaults(func=_cmd_cohomology)

    p_ver = sub.add_parser("verify", help="run every predicted-pattern check")
    add_common(p_ver)
    p_ver.add_argument("--bound", type=int, default=None)
    p_ver.add_argument("--m-max", type=int, default=None, dest="m_max",
                       help="also run wedge-division checks with this "
                            "saturation bound (complete-intersection mode)")
    p_ver.add_argument("--p", help="second-grading range a..b for the window")
    p_ver.add_argument("--threads", type=int, default=None, help=_IGNORED)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificateRequired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
