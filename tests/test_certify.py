from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from jacring import linalg, quotients
from jacring.certify import (Certificate, ideal_membership,
                             jacobian_determinant, jacobian_minors,
                             m_primary_certificate, no_common_zero_certificate,
                             smooth_ci_certificate)
from jacring.errors import HypothesisViolation, InputError
from jacring.forms import DiffForm
from jacring.polynomials import MultiPoly, parse_poly
from jacring.problem import problem_from_strings
from jacring.quotients import quotient_dim, quotient_slice

from helpers import (F2, F3, F7, F32003, Q, conic_char2, determinant_oracle,
                     fermat_cubic, normal_form, random_homogeneous,
                     singular_cubic_curve, square_pair, sympy_quotient_dim,
                     two_quadrics)


def test_smooth_ci_certificate_values():
    cert = smooth_ci_certificate(fermat_cubic())
    assert cert.success and cert.kind == "smooth-ci"
    assert cert.vanishing_degree == 4
    assert cert.field == "Q"
    assert cert.num_generators == 4      # f plus the three partials

    cert = smooth_ci_certificate(two_quadrics())
    assert cert.success and cert.vanishing_degree == 3
    assert cert.num_generators == 2 + comb(4, 2)

    cert = smooth_ci_certificate(conic_char2())
    assert cert.success and cert.field == "F_2"
    # the x3-partial vanishes in characteristic 2 and is dropped
    assert cert.num_generators == 3
    assert cert.vanishing_degree == 2


def test_no_common_zero_certificate_value():
    cert = no_common_zero_certificate(square_pair())
    assert cert.success and cert.kind == "no-common-zero"
    assert cert.vanishing_degree == 3
    assert cert.bound == 4               # default: sum of the degrees


def test_certificates_fail_on_singular_inputs():
    cert = smooth_ci_certificate(singular_cubic_curve())
    assert not cert.success
    assert cert.vanishing_degree is None
    # the Fermat cubic is singular in characteristic 3: all partials vanish
    cert3 = smooth_ci_certificate(fermat_cubic(F3))
    assert not cert3.success
    assert cert3.num_generators == 1     # only f itself survives
    # a common zero away from the origin defeats the no-common-zero search
    prob = problem_from_strings(Q, 2, ["x1^2", "x1*x2"])
    assert not no_common_zero_certificate(prob).success


def test_least_vanishing_degree_against_groebner_oracle():
    for prob in (fermat_cubic(), two_quadrics()):
        cert = smooth_ci_certificate(prob)
        gens = [g for g in list(prob.polys) + jacobian_minors(prob)
                if not g.is_zero()]
        N = cert.vanishing_degree
        assert sympy_quotient_dim(gens, N) == 0
        assert sympy_quotient_dim(gens, N - 1) > 0
    cert = no_common_zero_certificate(square_pair())
    gens = list(square_pair().polys)
    assert sympy_quotient_dim(gens, cert.vanishing_degree) == 0
    assert sympy_quotient_dim(gens, cert.vanishing_degree - 1) > 0


def test_m_primary_search_is_least():
    x1 = parse_poly(Q, ["x1", "x2"], "x1")
    x2 = parse_poly(Q, ["x1", "x2"], "x2")
    assert m_primary_certificate([x1, x2], 5).vanishing_degree == 1
    sq1 = parse_poly(Q, ["x1", "x2"], "x1^2")
    sq2 = parse_poly(Q, ["x1", "x2"], "x2^2")
    assert m_primary_certificate([sq1, sq2], 5).vanishing_degree == 3
    # bound below the true degree: honest NONE
    assert m_primary_certificate([sq1, sq2], 2).vanishing_degree is None
    with pytest.raises(InputError):
        m_primary_certificate([sq1], 0)
    with pytest.raises(InputError):
        m_primary_certificate([], 3)
    with pytest.raises(InputError):
        m_primary_certificate([MultiPoly(Q, 2, {})], 3)


def test_jacobian_minors_and_determinant():
    prob = two_quadrics()
    minors = jacobian_minors(prob)
    assert len(minors) == comb(4, 2)
    assert all(m.homogeneous_degree() == 2 for m in minors)

    sq = square_pair()
    det = jacobian_determinant(sq)
    assert det == parse_poly(Q, ["x1", "x2"], "4*x1*x2")
    with pytest.raises(HypothesisViolation):
        jacobian_determinant(fermat_cubic())    # r != n
    over = problem_from_strings(Q, 2, ["x1^2", "x2^2", "x1*x2"])
    with pytest.raises(HypothesisViolation):
        jacobian_minors(over)                   # r > n


# r = 1, 2, 3, and a pair with zero minors: the Jacobian rows
# (2 x1, 2 x2, 0, 0) and (0, 0, x4, x3) leave the minor on (x1, x2) zero
MINOR_SYSTEMS = [
    (3, ["x1^3 + x2^3 + x3^3"]),
    (4, ["x1^2 + x2^2 + x3^2 + x4^2", "x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2"]),
    (4, ["x1^2 + x2*x3", "x1*x4 + x2^2 + x3^2", "x3^3 + x1*x2*x4 + x4^3"]),
    (4, ["x1^2 + x2^2", "x3*x4"]),
]


@pytest.mark.parametrize("field", [Q, F2, F3, F32003], ids=repr)
def test_jacobian_minors_match_the_cofactor_oracle(field):
    """The minors read off df_1 /\\ ... /\\ df_r are the cofactor
    determinants of the Jacobian's r x r column sets, in combinations
    order, zero ones kept as zero polynomials; each call returns a fresh
    list."""
    for n, exprs in MINOR_SYSTEMS:
        prob = problem_from_strings(field, n, exprs)
        r = prob.r
        want = [determinant_oracle([[prob.partials[j][i] for i in cols]
                                    for j in range(r)])
                for cols in combinations(range(n), r)]
        minors = jacobian_minors(prob)
        assert minors == want, (field, exprs)
        assert minors is not jacobian_minors(prob)
        minors.clear()
        assert jacobian_minors(prob) == want
    assert any(m.is_zero() for m in jacobian_minors(
        problem_from_strings(field, *MINOR_SYSTEMS[-1])))


def test_jacobian_minors_refuse_r_above_n_before_any_wedge(monkeypatch):
    wedges = []
    wedge = DiffForm.wedge

    def counting(self, other):
        wedges.append(True)
        return wedge(self, other)
    monkeypatch.setattr(DiffForm, "wedge", counting)
    over = problem_from_strings(Q, 2, ["x1^2", "x2^2", "x1*x2"])
    with pytest.raises(HypothesisViolation):
        jacobian_minors(over)
    assert wedges == [] and over._cache == {}


def test_certificate_mode_mismatches():
    with pytest.raises(HypothesisViolation):
        smooth_ci_certificate(square_pair())        # needs r < n
    with pytest.raises(HypothesisViolation):
        no_common_zero_certificate(fermat_cubic())  # needs r >= n


def test_ideal_membership():
    sq = square_pair()
    det = jacobian_determinant(sq)
    assert ideal_membership(det, list(sq.polys)) is False
    gens = [parse_poly(Q, ["x1", "x2"], "x1^2")]
    assert ideal_membership(parse_poly(Q, ["x1", "x2"], "x1^2*x2"), gens) is True
    assert ideal_membership(parse_poly(Q, ["x1", "x2"], "x2^3"), gens) is False
    assert ideal_membership(MultiPoly(Q, 2, {}), gens) is True
    inhom = parse_poly(Q, ["x1", "x2"], "x1 + x1^2")
    with pytest.raises(InputError):
        ideal_membership(inhom, gens)
    # against the row-reduction route: a normal form that vanishes
    rng = random.Random(5)
    verdicts = []
    for field in (Q, F7, F32003):
        for _ in range(8):
            nvars = rng.randint(2, 3)
            gens = [random_homogeneous(rng, field, nvars, rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
            deg = rng.randint(min(g.homogeneous_degree() for g in gens), 4)
            member = MultiPoly.zero(field, nvars)
            for g in gens:
                if g.homogeneous_degree() <= deg:
                    member = member + g * random_homogeneous(
                        rng, field, nvars, deg - g.homogeneous_degree())
            outsider = random_homogeneous(rng, field, nvars, deg)
            qs = quotient_slice(gens, deg)
            assert normal_form(qs, member).is_zero()
            for poly in (member, outsider):
                want = normal_form(qs, poly).is_zero()
                assert ideal_membership(poly, gens) is want, (field, deg)
                verdicts.append(want)
            assert quotient_dim(gens, deg) == len(qs.complement)
    assert verdicts.count(False) >= 8 and verdicts.count(True) >= 24


def test_certificates_and_membership_run_no_row_reduction(monkeypatch):
    """Certificate dimensions and membership come from ranks alone."""
    def refuse(*_):
        raise AssertionError("row reduction")

    monkeypatch.setattr(linalg, "rref_rows", refuse)
    monkeypatch.setattr(quotients, "rref_rows", refuse)
    assert smooth_ci_certificate(fermat_cubic()).vanishing_degree == 4
    assert smooth_ci_certificate(fermat_cubic(F7)).vanishing_degree == 4
    assert smooth_ci_certificate(two_quadrics(F32003)).vanishing_degree == 3
    assert smooth_ci_certificate(conic_char2()).vanishing_degree == 2
    assert not smooth_ci_certificate(singular_cubic_curve()).success
    assert no_common_zero_certificate(square_pair()).vanishing_degree == 3
    sq = square_pair(F7)
    assert ideal_membership(jacobian_determinant(sq), list(sq.polys)) is False
    gens = [parse_poly(F7, ["x1", "x2"], "x1^2")]
    assert ideal_membership(parse_poly(F7, ["x1", "x2"], "3*x1^2*x2"), gens)


def test_certificate_describe():
    ok = smooth_ci_certificate(fermat_cubic())
    text = ok.describe()
    assert "smooth-ci" in text and "degree 4" in text and "4 generators" in text
    single = Certificate(kind="m-primary", field="Q", num_generators=1,
                         bound=3, vanishing_degree=2)
    assert "1 generator" in single.describe()
    assert "1 generators" not in single.describe()
    bad = smooth_ci_certificate(singular_cubic_curve())
    text = bad.describe()
    assert "NONE" in text and "--bound" in text


def test_quintic_certificate_needs_a_big_slice():
    """The quintic's minor ideal only swallows everything at degree 16, far
    above the default bound, so the default search honestly reports NONE."""
    from helpers import fermat_quintic
    cert = smooth_ci_certificate(fermat_quintic())
    assert cert.bound == 10
    assert not cert.success