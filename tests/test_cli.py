from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from jacring.cli import main

CUBIC = "field Q\nvars x1 x2 x3\npoly x1^3 + x2^3 + x3^3\n"
SQUARES = "field Q\nvars x1 x2\npoly x1^2\npoly x2^2\n"
CONICS = ("field Q\nvars x1 x2 x3\n"
          "poly x1^2 + x2^2 - x3^2\n"
          "poly x1^2 - x2^2\n")
QUADRICS = ("field Q\nvars x1 x2 x3 x4\n"
            "poly x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2\n"
            "poly 4*x1^2 + 3*x2^2 + 5*x3^2 + x4^2\n")
QUADRICS_P4 = ("field F 32003\nvars x1 x2 x3 x4 x5\n"
               "poly x1^2+x2^2+x3^2+x4^2+x5^2\n"
               "poly x1^2+2*x2^2+3*x3^2+4*x4^2+5*x5^2\n")


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_text(tmp_path, capsys):
    rc = main(["certify", write(tmp_path, CUBIC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "smooth-ci certificate over Q" in out
    assert "degree 4" in out


def test_certify_none_exits_one(tmp_path, capsys):
    path = write(tmp_path, "field Q\nvars x1 x2 x3\npoly x1*x2*x3\n")
    rc = main(["certify", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NONE" in out


def test_certify_field_override(tmp_path, capsys):
    # the Fermat cubic goes singular in characteristic 3
    path = write(tmp_path, CUBIC)
    rc = main(["certify", path, "--field", "F3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "F_3" in out and "NONE" in out
    assert main(["certify", path, "--field", "F_7"]) == 0
    assert main(["certify", path, "--field", "F 7"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["F 7", "F7", "F_7"])
def test_field_spellings_in_files_and_flags(tmp_path, capsys, spelling):
    """Each spelling of F_7, on a file's field line or through --field,
    prints the certify bytes of `field F 7`."""
    main(["certify", write(tmp_path, CUBIC.replace("field Q", "field F 7"),
                           "f7.txt")])
    expected = capsys.readouterr().out
    runs = [["certify", write(tmp_path, CUBIC.replace("field Q",
                                                      f"field {spelling}"))],
            ["certify", write(tmp_path, CUBIC, "q.txt"), "--field", spelling]]
    for argv in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert "F_7" in expected


# a smooth complete intersection whose certificate needs degree 6
D5 = ("field Q\nvars x1 x2 x3 x4\n"
      "poly x1^3 + 2*x2^3 + 3*x3^3 + 4*x4^3\n"
      "poly x1^2 + x2^2 + x3^2 + 5*x4^2 + x1*x2\n")


def test_certify_at_a_prime_above_2_31(tmp_path, capsys):
    rc = main(["certify", write(tmp_path, D5), "--field", f"F {2**31 + 11}",
               "--json"])
    cert = json.loads(capsys.readouterr().out)["certificates"][0]
    assert rc == 0 and cert["vanishing_degree"] == 6


def test_certify_refuses_a_prime_too_large_for_row_reduction(tmp_path, capsys):
    rc = main(["certify", write(tmp_path, D5), "--field", f"F {2**61 - 1}"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "too large for row reduction" in err


def test_commands_refuse_a_prime_too_large_for_row_reduction(tmp_path, capsys):
    path = write(tmp_path, D5)
    for command in ("hodge", "verify"):
        rc = main([command, path, "--field", f"F {2**61 - 1}"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", command
        assert err.count("\n") == 1 and "too large for row reduction" in err


def test_certify_json(tmp_path, capsys):
    rc = main(["certify", write(tmp_path, SQUARES), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(out) == {"input_hash", "field", "n", "r", "degrees",
                        "certificates"}
    assert out["field"] == "Q" and out["n"] == 2 and out["r"] == 2
    assert out["degrees"] == [2, 2]
    assert len(out["input_hash"]) == 64
    cert = out["certificates"][0]
    assert cert["kind"] == "no-common-zero"
    assert cert["vanishing_degree"] == 3 and cert["success"] is True


def test_certify_stdin(tmp_path, monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(CUBIC))
    rc = main(["certify", "-"])
    assert rc == 0
    assert "smooth-ci" in capsys.readouterr().out


def test_certify_bound_flag(tmp_path, capsys):
    path = write(tmp_path, CUBIC)
    rc = main(["certify", path, "--bound", "2"])
    out = capsys.readouterr().out
    assert rc == 1 and "NONE" in out and "degree 2" in out


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------


def test_hilbert_line(capsys):
    rc = main(["hilbert", "--n", "5", "--degrees", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ("H(t) = t + 101t^2 + 101t^3 + t^4; H(1) = 204; "
                   "palindromic: yes\n")


def test_hilbert_json(capsys):
    rc = main(["hilbert", "--n", "5", "--degrees", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["n"] == 5 and out["r"] == 1 and out["degrees"] == [5]
    assert out["field"] is None
    assert out["hilbert"]["coefficients"] == ["0", "1", "101", "101", "1"]


def test_hilbert_argument_errors(capsys):
    assert main(["hilbert", "--n", "2", "--degrees", "1,1"]) == 3   # r = n
    assert main(["hilbert", "--n", "3", "--degrees", "nope"]) == 2
    assert main(["hilbert", "--n", "3", "--degrees", "0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hodge
# ---------------------------------------------------------------------------


def test_hodge_table_output(tmp_path, capsys):
    rc = main(["hodge", write(tmp_path, CONICS)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H(t) = 3t^2" in out
    assert "dim H^5(0,p):" in out and "dim H^4(0,p):" in out
    # the r = n-1 offset: 4 in the next-to-top row at p = 2
    assert "4" in out.splitlines()[-1]


def test_hodge_needs_r_below_n(tmp_path, capsys):
    rc = main(["hodge", write(tmp_path, SQUARES)])
    assert rc == 3
    assert "r < n" in capsys.readouterr().err


def test_hodge_json(tmp_path, capsys):
    rc = main(["hodge", write(tmp_path, CONICS), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["hodge"]["h"] == {"2": 3}
    assert out["hodge"]["exceptional"] is False
    assert out["hodge"]["dim_top"]["2"] == 3
    assert out["hodge"]["dim_next"]["2"] == 4
    assert out["hilbert"]["coefficients"] == ["0", "0", "3"]


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def test_cohomology_text(tmp_path, capsys):
    rc = main(["cohomology", write(tmp_path, CUBIC), "--k", "4",
               "--p", "1..2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim H^4(q=0,p=1) = 1" in out
    assert "dim H^4(q=0,p=2) = 1" in out


def test_cohomology_json(tmp_path, capsys):
    rc = main(["cohomology", write(tmp_path, CUBIC), "--k", "2..2",
               "--p", "1..1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["slices"] == [{"k": 2, "q": 0, "p": 1, "dim": 1}]


def test_main_calls_share_the_parser_and_no_state(tmp_path, capsys,
                                                  monkeypatch):
    """main builds its parser once; a --json call with explicit windows
    leaves nothing behind for the plain call that follows."""
    import jacring.cli as cli
    path = write(tmp_path, CUBIC)
    assert main(["cohomology", path, "--k", "2..2", "--p", "1..1",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["slices"] == [
        {"k": 2, "q": 0, "p": 1, "dim": 1}]

    def rebuilt():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["cohomology", path, "--k", "4", "--p", "2"]) == 0
    assert capsys.readouterr().out == "dim H^4(q=0,p=2) = 1\n"


def test_cohomology_negative_start_needs_an_equals_sign(tmp_path, capsys):
    """--q=-1..1 reaches the window parser; argparse reads the -1..1 of
    --q -1..1 as an option and exits 2 (README, Window flags)."""
    from jacring.homology import cohomology_dim
    from jacring.problem import problem_from_strings
    from helpers import Q
    path = write(tmp_path, CUBIC)
    assert main(["cohomology", path, "--k", "4", "--q=-1..1",
                 "--p", "0..1"]) == 0
    prob = problem_from_strings(Q, 3, ["x1^3 + x2^3 + x3^3"])
    assert capsys.readouterr().out == "".join(
        f"dim H^4(q={q},p={p}) = {cohomology_dim(prob, 4, q, p)}\n"
        for q in (-1, 0, 1) for p in (0, 1))
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", path, "--k", "4", "--q", "-1..1"])
    assert exc.value.code == 2
    assert "argument --q: expected one argument" in capsys.readouterr().err


def test_cohomology_empty_window(tmp_path, capsys):
    rc = main(["cohomology", write(tmp_path, CUBIC), "--k", "5..4"])
    assert rc == 2
    assert "empty slice window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_no_common_zero(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, SQUARES)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mode: no-common-zero" in out
    assert "result: PASS" in out
    assert "FAIL" not in out.replace("0 failed", "")


def test_verify_without_certificate_exits_one(tmp_path, capsys):
    path = write(tmp_path, CUBIC)
    rc = main(["verify", path, "--field", "F3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NONE" in out


def test_verify_json_check_rows(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, CUBIC), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["mode"] == "complete-intersection"
    assert out["certificates"][0]["success"] is True
    assert out["checks"], "expected at least one check row"
    for row in out["checks"]:
        assert set(row) == {"name", "expected", "got", "pass"}
        assert row["pass"] is True
    names = [row["name"] for row in out["checks"]]
    assert any(name.startswith("vanishing") for name in names)


def test_verify_division_rows_opt_in(tmp_path, capsys):
    path = write(tmp_path, CUBIC)
    rc = main(["verify", path, "--json"])
    base = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not any(row["name"].startswith("division")
                   for row in base["checks"])
    rc = main(["verify", path, "--json", "--m-max", "1"])
    rich = json.loads(capsys.readouterr().out)
    assert rc == 0
    division = [row for row in rich["checks"]
                if row["name"].startswith("division")]
    assert division
    assert all(row["pass"] for row in division)
    assert all(row["got"] == "m=0" for row in division)


def test_verify_m_max_adds_nothing_when_r_is_n_minus_1(tmp_path, capsys):
    """At r = n - 1 every division check has word length k < r, where the
    joint kernel of the df_i maps is zero, so --m-max adds no rows: two
    conics in P^2 print the same bytes with and without it."""
    path = write(tmp_path, CONICS)
    runs = []
    for flags in ([], ["--m-max", "2"]):
        rc = main(["verify", path] + flags)
        runs.append((rc, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("text, flags, needle", [
    (CUBIC, ["--p", "-2"], "second-grading bound -2 is negative"),
    (CUBIC, ["--p", "0..-1"], "second-grading bound -1 is negative"),
    (CUBIC, ["--m-max", "-1", "--p", "0..1"],
     "saturation bound -1 is negative"),
    (CUBIC, ["--p", "2..3"], "the window starts at p = 0"),
    (CUBIC, ["--p", "1..1"], "the window starts at p = 0"),
    (CUBIC, ["--p=-1..3"], "the window starts at p = 0"),
    (SQUARES, ["--p", "0..2", "--m-max", "1"],
     "wedge-division checks need r < n"),
    # refused before the certificate, which is NONE on these inputs
    (CUBIC, ["--field", "F3", "--p", "-1"],
     "second-grading bound -1 is negative"),
    (CUBIC, ["--field", "F3", "--m-max", "-1"],
     "saturation bound -1 is negative"),
    ("field Q\nvars x1 x2\npoly x1^2\npoly x1*x2\n", ["--m-max", "1"],
     "wedge-division checks need r < n"),
], ids=["p", "p-range", "m-max", "p-from-2", "p-from-1", "p-from-minus-1",
        "m-max-without-ci", "p-before-none", "m-max-before-none",
        "m-max-common-zero"])
def test_verify_negative_bounds_exit_two(tmp_path, capsys, text, flags,
                                         needle):
    """Negative bounds, a --p range that does not start at 0, and --m-max
    on an input with r >= n are refused before anything is printed, also
    where the certificate would be NONE."""
    rc = main(["verify", write(tmp_path, text)] + flags)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and needle in err


def test_verify_window_top_alone_or_from_zero(tmp_path, capsys):
    path = write(tmp_path, CUBIC)
    runs = []
    for window in ("2", "0..2"):
        rc = main(["verify", path, "--p", window, "--json"])
        runs.append((rc, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert max(row["p"] for row in json.loads(runs[0][1])["slices"]) == 2


# ---------------------------------------------------------------------------
# golden bytes: every command's exact stdout and exit code
# ---------------------------------------------------------------------------


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [  # name, input text or None, argv after the input, exit code
    ("certify-cubic", CUBIC, ["certify"], 0),
    ("certify-squares", SQUARES, ["certify"], 0),
    ("hilbert-3-3", None, ["hilbert", "--n", "3", "--degrees", "3"], 0),
    ("hodge-cubic", CUBIC, ["hodge"], 0),
    ("cohomology-cubic-all", CUBIC, ["cohomology", "--all"], 0),
    ("verify-cubic", CUBIC, ["verify"], 0),
    ("verify-cubic-mmax", CUBIC, ["verify", "--m-max", "1"], 0),
    ("verify-squares", SQUARES, ["verify"], 0),
    ("verify-cubic-F3", CUBIC, ["verify", "--field", "F3"], 1),
    ("verify-quadrics", QUADRICS, ["verify", "--p", "2"], 0),
    ("verify-quadrics-P4-mmax", QUADRICS_P4,
     ["verify", "--m-max", "1", "--p", "2"], 0),
    ("cohomology-conics-F32003", CONICS,
     ["cohomology", "--all", "--field", "F32003"], 0),
]


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name, text, argv, code", GOLDEN_CASES,
                         ids=[case[0] for case in GOLDEN_CASES])
def test_outputs_are_byte_stable(tmp_path, capsys, name, text, argv, code,
                                 fmt):
    if text is not None:
        argv = [argv[0], write(tmp_path, text), *argv[1:]]
    rc = main(argv + (["--json"] if fmt == "json" else []))
    assert rc == code
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# input grammar errors (exit 2)
# ---------------------------------------------------------------------------


BAD_INPUTS = [
    ("field Q\nvars x1 x2\npoly x1^2 + x2\n", "homogeneous"),
    ("field Q\nvars x1\npoly x1 $ x1\n", "line 3"),
    ("field Q\nvars x1 x2\npoly x1*y9\n", "y9"),
    ("field Q\nfield Q\nvars x1\npoly x1\n", "duplicate field"),
    ("field F 4\nvars x1\npoly x1\n", "line 1"),
    ("field F nope\nvars x1\npoly x1\n", "not an integer"),
    ("field Z\nvars x1\npoly x1\n", "unknown field"),
    ("vars x1\npoly x1\n", "field"),
    ("field Q\npoly x1\n", "vars"),
    ("field Q\nvars x1\n", "poly"),
    ("field Q\nvars x1 x1\npoly x1\n", "repeated"),
    ("field Q\nvars x1\nwat x1\n", "unknown directive"),
    ("field Q\nvars x1\npoly\n", "line 3"),
    ("field F 318665857834031151167461\nvars x1\npoly x1\n", "not prime"),
]


@pytest.mark.parametrize("text,needle", BAD_INPUTS)
def test_bad_inputs_exit_two(tmp_path, capsys, text, needle):
    rc = main(["certify", write(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 2
    assert needle in err


@pytest.mark.parametrize("text,flags,line", [
    ("field F 7\nvars x y z\npoly 1/7*x^3 + y^3 + z^3\n", [], 3),
    ("field Q\nvars x y z\n\npoly 1/7*x^3 + y^3 + z^3\n", ["--field", "F7"],
     4),
])
def test_denominator_vanishing_mod_p_exits_two(tmp_path, text, flags, line):
    proc = subprocess.run([sys.executable, "-m", "jacring", "certify",
                           write(tmp_path, text), *flags],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: line {line}: denominator 7 vanishes mod 7\n"


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["certify", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_comments_and_blank_lines_are_ignored(tmp_path, capsys):
    text = ("# a header comment\n\nfield Q   # trailing comment\n"
            "vars x1 x2 x3\n\npoly x1^3 + x2^3 + x3^3  # the cubic\n")
    rc = main(["certify", write(tmp_path, text)])
    assert rc == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# process-level behavior
# ---------------------------------------------------------------------------


def test_module_entry_point(tmp_path):
    path = write(tmp_path, CUBIC)
    proc = subprocess.run([sys.executable, "-m", "jacring", "certify", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "smooth-ci" in proc.stdout


def test_thread_count_never_changes_the_bytes(tmp_path):
    path = write(tmp_path, CUBIC)
    runs = []
    for flag in ([], ["--threads", "4"]):
        proc = subprocess.run(
            [sys.executable, "-m", "jacring", "cohomology", path, "--all",
             "--json", *flag],
            capture_output=True)
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    for cmd in ("cohomology", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, path, "--threads", "two"])
        assert exc.value.code == 2
