"""The reduced complex of `verify` at every r <= n: the forms
c y^b dx_I dy_1..dy_r with c in K[x]/(f) under d_x F /\\ . . Its slice
counts, its boundary against the term-by-term oracle, its dimensions
against the full complex's, its modular copy at r = 1 and its absence at
r = 2, the proof obligation (f regular), and the CLI bytes of both paths,
traced and untraced."""
from __future__ import annotations

import pytest

import jacring.cli as cli
import jacring.homology as homology
from jacring.certify import (Certificate, no_common_zero_certificate,
                             smooth_ci_certificate)
from jacring.forms import SliceLayout
from jacring.hilbert import _regular_quotient_dim, reduced_slice_dim
from jacring.homology import (boundary_matrix, cohomology_dim,
                              cohomology_report, verify_predictions)
from jacring.problem import problem_from_strings

import digest_outputs
import spans  # perfbench's tracer, on sys.path through digest_outputs
from helpers import (F32003, Q, cached_problem, cached_tables,
                     exceptional_pair_char2, fermat_cubic,
                     product_hilbert_series, record_table_builds,
                     reduced_boundary_oracle, singular_cubic_curve,
                     square_pair, two_conics, two_quadrics)
from test_cli import CUBIC, QUADRICS, QUADRICS_P4, SQUARES, write

# the tests below share one problem per maker (helpers.cached_problem)
REGULAR = [two_quadrics, lambda: two_quadrics(F32003), two_conics,
           square_pair, exceptional_pair_char2]
REGULAR_IDS = ["quadrics-Q", "quadrics-F32003", "conics", "squares",
               "exceptional-char2"]


def _certified(prob):
    cert = (smooth_ci_certificate(prob) if prob.r < prob.n
            else no_common_zero_certificate(prob))
    return cert.success


def _window(prob):
    """Every k, q = -2..2 and p <= 4."""
    return [(k, q, p) for k in range(prob.n + prob.r + 1)
            for q in range(-2, 3) for p in range(5)]


@pytest.mark.parametrize("make", REGULAR, ids=REGULAR_IDS)
def test_reduced_counts_match_the_layouts_and_the_hilbert_series(make):
    """On every certified fixture with r >= 2, reduced_slice_dim counts
    the terms of the layout it predicts, the reduced (k, q, p) slice as the
    dy-free quotient layout (k - r, q + sum d, p - r), and each degree's
    part of K[x]/(f) is the coefficient of prod (1 - t^d_j) / (1-t)^n."""
    prob = cached_problem(make)
    assert prob.r >= 2 and _certified(prob)
    n, d = prob.n, prob.degrees
    series = product_hilbert_series(n, d, 12)
    assert [_regular_quotient_dim(n, d, a) for a in range(13)] == series
    r = prob.r
    for k, q, p in _window(prob) + [(prob.n + r + 1, 0, 3)]:
        layout = SliceLayout(prob, k - r, q + sum(d), p - r, quotient=True)
        assert reduced_slice_dim(n, d, k, q, p) == layout.dim, (k, q, p)
        for _, J, _, xdeg, _, _, monos in layout.blocks:
            assert J == () and len(monos) == series[xdeg]


@pytest.mark.parametrize("make", REGULAR[:3], ids=REGULAR_IDS[:3])
def test_reduced_boundary_is_d_x_on_the_reduced_slices(make):
    """The reduced boundary, assembled on the dy-free quotient layouts,
    equals entry for entry the oracle that wedges each term
    x^a y^b dx_I dy_1..dy_r of the reduced slice with dF and reads the
    image through normal forms: q = 0, p <= 3, every k."""
    prob = cached_problem(make)
    for k in range(prob.n + prob.r + 1):
        for p in range(4):
            got = boundary_matrix(prob, k, 0, p, reduced=True)
            want = reduced_boundary_oracle(prob, k, 0, p)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert got.rows == want.rows, (k, p)


@pytest.mark.parametrize("make", REGULAR, ids=REGULAR_IDS)
def test_reduced_and_full_dimensions_agree(make, monkeypatch):
    """Both complexes give the same dimensions on the window. Its ranks are
    the largest of the suite, so they are taken once, on the shared
    problem, and the same reports are checked to cache no basis and to
    build each multiplication table once per problem (the modular copy
    included), (g, a) and ring, as test_homology checks elsewhere."""
    prob = cached_problem(make)
    assert _certified(prob)
    window = _window(prob)
    problems = [prob] + [m for m in [homology._reduction(prob)] if m]
    before = cached_tables(problems)
    built = record_table_builds(monkeypatch)
    reduced = cohomology_report(prob, window, reduced=True)
    assert reduced == cohomology_report(prob, window)
    assert sorted(built, key=repr) == sorted(
        cached_tables(problems) - before, key=repr)
    assert not [key for problem in problems for key in problem._cache
                if key[0] == "basis"]
    # H^k(q, p) = 0 below k = r or p = r, with no matrix built
    assert not any(dim for (k, _, p), dim in reduced.items()
                   if k < prob.r or p < prob.r)


# r = 1 over Q; the third cubic's coefficients are not all 1
R_1 = [fermat_cubic, singular_cubic_curve,
       lambda: problem_from_strings(Q, 3,
                                    ["2*x1^3 - x2^3 + 3*x3^3 + x1*x2*x3"])]
R_1_IDS = ["fermat", "singular", "leading-2"]


def _copy_gives_the_q_dimensions(make, monkeypatch):
    """The reduced complex of make()'s problem takes the ranks that its
    modular copy proves (the copy caches rrank keys), and on the window its
    dimensions equal those ranked exactly over Q, with _reduction patched
    to None, and the full complex's."""
    prob = make()
    window = _window(prob)
    copied = cohomology_report(prob, window, reduced=True)
    assert [key for key in homology._reduction(prob)._cache
            if key[0] == "rrank"]
    full = cohomology_report(make(), window)
    monkeypatch.setattr(homology, "_reduction", lambda problem: None)
    assert copied == cohomology_report(make(), window, reduced=True) == full


@pytest.mark.parametrize("make", R_1, ids=R_1_IDS)
def test_r_1_modular_copy_gives_the_reduced_q_dimensions(make, monkeypatch):
    """At r = 1 the reduced complex has a modular copy (the argument is in
    homology's docstring), which gives the Q dimensions."""
    _copy_gives_the_q_dimensions(make, monkeypatch)


@pytest.mark.parametrize("prime, text", [
    (5, "5*x1^3 + x2^3 + x3^3 + x1*x2*x3"),
    (3, "3*x1^3 + x2^3 + x3^3 + x1*x2*x3")], ids=["P=5", "P=3-singular"])
def test_reduced_copy_serves_when_the_prime_divides_the_leading_coefficient(
        monkeypatch, prime, text):
    """Mod P the cubic loses its lex-leading monomial x1^3, and mod 3 it is
    singular at (1:0:0); f mod P is still nonzero, so regular, and the
    reduced copy serves and gives the Q dimensions (homology's
    docstring)."""
    monkeypatch.setattr(homology, "_MODULAR_PRIME", prime)
    _copy_gives_the_q_dimensions(
        lambda: problem_from_strings(Q, 3, [text]), monkeypatch)


def test_no_reduced_copy_at_r_2_where_the_prime_breaks_regularity(
        monkeypatch):
    """x1 x2 + 5 x3^2, x1 x3 + 5 x2^2 has a smooth-ci certificate over Q,
    but mod 5 both forms vanish on x1 = 0, so f mod 5 is no regular
    sequence. At r >= 2 the reduced complex takes no rank from the copy
    (no rrank key), and its dimensions equal the full complex's, which
    the copy serves soundly; a copy of the reduced complex would give
    H^3(0, 2) = 1 where both give 0."""
    monkeypatch.setattr(homology, "_MODULAR_PRIME", 5)
    prob = problem_from_strings(Q, 3, ["x1*x2 + 5*x3^2", "x1*x3 + 5*x2^2"])
    assert smooth_ci_certificate(prob).success
    window = [(k, 0, p) for k in range(prob.n + prob.r + 1) for p in range(3)]
    reduced = cohomology_report(prob, window, reduced=True)
    modular = homology._reduction(prob)
    assert modular is not None
    assert not [key for key in modular._cache if key[0] == "rrank"]
    assert reduced == cohomology_report(prob, window)
    assert reduced[(3, 0, 2)] == 0


def _full_complex(monkeypatch):
    """Makes verify take its dimensions from the full complex."""
    report = homology.cohomology_report
    monkeypatch.setattr(homology, "cohomology_report",
                        lambda problem, slices, reduced=False:
                        report(problem, slices))


def test_forcing_the_reduced_complex_on_a_non_regular_pair_is_wrong(
        monkeypatch):
    """x1 x2, x1 x3 is no regular sequence, and no certificate proves it
    one. Passing verify a forged certificate forces the reduced path,
    whose dimensions differ from the full complex's: H^2(0, 1) is 1, the
    reduced complex gives 0."""
    prob = problem_from_strings(Q, 3, ["x1*x2", "x1*x3"])
    assert not smooth_ci_certificate(prob).success
    assert cohomology_dim(prob, 2, 0, 1) == 1
    assert cohomology_dim(prob, 2, 0, 1, reduced=True) == 0
    forged = Certificate(kind="smooth-ci", field="Q", num_generators=2,
                         bound=1, vanishing_degree=1)
    reduced = verify_predictions(prob, forged, p_max=2).dims
    _full_complex(monkeypatch)
    full = verify_predictions(prob, forged, p_max=2).dims
    assert (full[(2, 0, 1)], reduced[(2, 0, 1)]) == (1, 0)


def _record_layouts(monkeypatch) -> list:
    """(k, q, p, quotient) of every layout homology builds."""
    made = []

    class Recording(SliceLayout):
        __slots__ = ()

        def __init__(self, problem, k, q, p, quotient=False):
            made.append((k, q, p, quotient))
            super().__init__(problem, k, q, p, quotient)
    monkeypatch.setattr(homology, "SliceLayout", Recording)
    return made


def test_r_1_verify_ranks_the_reduced_complex_and_cohomology_the_full(
        monkeypatch):
    """At r = 1 verify's dimensions come from the reduced complex: homology
    lays out only quotient slices and ranks no full-complex boundary, on
    the problem or on its modular copy. The witness lands in one quotient
    layout, the reduced (2, 0, 1) as the dy-free (1, 3, 0), through
    forms.basis. cohomology certifies nothing, so it keeps the full
    complex at r = 1 and at r = 2."""
    made = _record_layouts(monkeypatch)
    for field in (Q, F32003):
        prob = fermat_cubic(field)
        assert verify_predictions(prob, smooth_ci_certificate(prob),
                                  p_max=4).passed
        problems = [prob] + [m for m in [homology._reduction(prob)] if m]
        assert len(problems) == (2 if field is Q else 1)
        assert not [key for problem in problems for key in problem._cache
                    if key[0] == "brank"]
        assert [key for key in prob._cache if key[0] == "rrank"]
        assert [key for key in prob._cache
                if key[0] == "basis"] == [("basis", 1, 3, 0, True)]
        assert made and {quotient for *_, quotient in made} == {True}
        made.clear()
    for prob in (fermat_cubic(), two_conics()):
        cohomology_report(prob, [(k, 0, p) for k in range(prob.n + prob.r + 1)
                                 for p in range(3)])
        assert made and {quotient for *_, quotient in made} == {False}
        assert not [key for key in prob._cache if key[0] == "rrank"]
        made.clear()


def _cli_bytes(run, monkeypatch, full: bool):
    """run's result from the reduced path or, with full set, from the full
    one; asserts that only the path asked for counted its slices."""
    counted = []
    with monkeypatch.context() as m:
        if full:
            _full_complex(m)
        m.setattr(homology, "reduced_slice_dim",
                  lambda *args: counted.append(args) or reduced_slice_dim(
                      *args))
        out = run()
    assert bool(counted) != full
    return out


def _golden_runs(tmp_path, capsys):
    from jacring.cli import main
    for text, argv in [(QUADRICS, ["--p", "2"]), (SQUARES, []), (CUBIC, []),
                       (CUBIC, ["--m-max", "1"])]:
        for fmt in ([], ["--json"]):
            def run(text=text, argv=argv, fmt=fmt):
                rc = main(["verify", write(tmp_path, text), *argv, *fmt])
                return rc, capsys.readouterr().out
            yield run


def _job_runs():
    jobs = {job.id: job for job in digest_outputs.jobs.generate("slices", 1)}
    for jid in ("quadrics-fp", "conics-q-0", "quadrics-q-0",
                "cubic-curve-q-0", "cubic-surface-q"):
        yield lambda job=jobs[jid]: digest_outputs.run(job)


def test_reduced_and_full_paths_print_the_same_bytes(tmp_path, capsys,
                                                     monkeypatch):
    """The verify goldens of the quadrics, the squares and the cubic, and
    five benchmark jobs of seed 1, three at r = 2 and two at r = 1, print
    the same bytes from the reduced complex and, monkeypatched, from the
    full one."""
    runs = list(_golden_runs(tmp_path, capsys)) + list(_job_runs())
    assert len(runs) == 13
    for run in runs:
        reduced = _cli_bytes(run, monkeypatch, full=False)
        assert reduced[0] == 0 and reduced[1]
        assert _cli_bytes(run, monkeypatch, full=True) == reduced


def test_traced_r_2_verify_prints_the_untraced_bytes(tmp_path, capsys):
    """perfbench's tracer wraps _boundary_rank and forms.basis behind
    pre-hooks that take four positional arguments. verify at r = 2 ranks
    the reduced complex and reads the witness class through both, and
    prints the same bytes traced as untraced: two quadrics in P^3 over
    F_32003, and the P^4 golden input with --m-max 1."""
    cases = [(QUADRICS, ["--field", "F32003", "--p", "3"]),
             (QUADRICS_P4, ["--m-max", "1", "--p", "2"])]
    for text, argv in cases:
        argv = ["verify", write(tmp_path, text), *argv]
        untraced = cli.main(argv), capsys.readouterr().out
        tracer = spans.Tracer()
        with tracer.installed():
            traced = cli.main(argv), capsys.readouterr().out
        assert traced == untraced and untraced[0] == 0 and untraced[1]
        names = {span[0] for span in tracer.spans}
        assert {"homology.brank", "forms.basis"} <= names, argv
