from __future__ import annotations

import random

import pytest

from jacring.certify import jacobian_minors, m_primary_certificate
from jacring.errors import InputError
from jacring.fields import PrimeField, Rationals
from jacring.linalg import rank
from jacring.polynomials import MultiPoly, monomials_of_degree, parse_poly
from jacring.quotients import _macaulay_matrix, quotient_dim, quotient_slice

from helpers import (RREF_FIELDS, fermat_cubic, koszul_cohomology_dim,
                     macaulay_oracle, monomial_index, normal_form,
                     product_hilbert_series, random_homogeneous, slice_vector,
                     square_pair, sympy_quotient_dim, two_conics,
                     two_quadrics)

Q = Rationals()


def test_quotient_dim_against_groebner_oracle():
    rng = random.Random(421)
    for field in (Q, PrimeField(7), PrimeField(32003), PrimeField(2**61 - 1),
                  PrimeField(2**89 - 1)):
        for trial in range(8):
            nvars = rng.randint(1, 3)
            ngens = rng.randint(1, 3)
            gens = []
            while len(gens) < ngens:
                g = random_homogeneous(rng, field, nvars, rng.randint(1, 3))
                if not g.is_zero():
                    gens.append(g)
            for degree in range(0, 5):
                got = quotient_dim(gens, degree)
                want = sympy_quotient_dim(gens, degree)
                assert got == want, (field, trial, degree, [str(g) for g in gens])


def test_quotient_dim_hand_cases():
    # K[x,y]/(x^2, y^2): basis 1, x, y, xy
    f1 = MultiPoly(Q, 2, {(2, 0): Q.one})
    f2 = MultiPoly(Q, 2, {(0, 2): Q.one})
    assert [quotient_dim([f1, f2], d) for d in range(5)] == [1, 2, 1, 0, 0]
    # K[x,y,z]/(x^3+y^3+z^3): a cubic curve cone, dims 1,3,6,9,12,...
    f = MultiPoly(Q, 3, {(3, 0, 0): Q.one, (0, 3, 0): Q.one, (0, 0, 3): Q.one})
    assert [quotient_dim([f], d) for d in range(6)] == [1, 3, 6, 9, 12, 15]
    assert quotient_dim([f], -1) == 0


def test_quotient_dim_matches_product_series_for_regular_sequences():
    """For a regular sequence the Hilbert series is prod(1-t^d_j)/(1-t)^n."""
    cases = [
        (Q, 3, ["x1^3+x2^3+x3^3"]),
        (Q, 3, ["x1^2+x2^2+x3^2", "x1*x2"]),
        (Q, 2, ["x1^2+x2^2", "x1*x2"]),
        (PrimeField(7), 3, ["x1^3+x2^3+x3^3", "x1^2*x2+x3^3"]),
    ]
    from jacring.problem import problem_from_strings
    for field, n, exprs in cases:
        prob = problem_from_strings(field, n, exprs)
        upto = sum(prob.degrees) + 2
        series = product_hilbert_series(n, prob.degrees, upto)
        for d in range(upto + 1):
            assert quotient_dim(list(prob.polys), d) == series[d], (exprs, d)


def test_normal_form_properties():
    rng = random.Random(99)
    for field in (Q, PrimeField(5)):
        gens = []
        while len(gens) < 2:
            g = random_homogeneous(rng, field, 3, 2)
            if not g.is_zero():
                gens.append(g)
        for degree in (2, 3, 4):
            sl = quotient_slice(gens, degree)
            for _ in range(10):
                f = random_homogeneous(rng, field, 3, degree)
                nf = normal_form(sl, f)
                # idempotent
                assert normal_form(sl, nf).terms == nf.terms
                # supported on complement monomials
                assert set(nf.terms) <= set(sl.complement)
                # linear: nf(f+g) = nf(f)+nf(g)
                g2 = random_homogeneous(rng, field, 3, degree)
                lhs = normal_form(sl, f + g2)
                rhs = normal_form(sl, f) + normal_form(sl, g2)
                assert lhs.terms == rhs.terms
            # ideal elements reduce to zero
            for g in gens:
                for m in monomials_of_degree(3, degree - g.homogeneous_degree()):
                    mult = MultiPoly(field, 3, {m: field.one}) * g
                    assert normal_form(sl, mult).is_zero()


def test_pivot_normal_forms_lie_in_the_ideal_coset():
    """Each pivot monomial's normal form is supported on the complement,
    and m - NF(m) lies in the ideal slice: adding every such row to the
    Macaulay matrix leaves its rank at the number of pivots. Ranks come
    from linalg.rank, which never calls rref_rows."""
    for field in RREF_FIELDS:
        for prob in (fermat_cubic(field), two_conics(field),
                     square_pair(field), two_quadrics(field)):
            minors = [g for g in jacobian_minors(prob) if not g.is_zero()]
            for gens in (list(prob.polys), list(prob.polys) + minors):
                for degree in range(1, 6):
                    qs = quotient_slice(gens, degree)
                    _, mac = _macaulay_matrix(gens, degree)
                    col = monomial_index(qs)
                    complement = set(qs.complement)
                    nfs = qs.pivot_normal_forms()
                    assert len(nfs) == len(qs.pivots)
                    rows = []
                    for m, nf in nfs.items():
                        assert {c for c, _ in nf} <= complement
                        row = {col[m]: field.one}
                        for c, v in nf:
                            row[col[c]] = field.neg(v)
                        rows.append(row)
                    before = rank(mac)
                    mac.rows += rows
                    mac.nrows += len(rows)
                    where = (field, prob.degrees, len(gens), degree)
                    assert rank(mac) == before == len(qs.pivots), where


# (what it covers, nvars, generators, degree, number of rows)
MACAULAY_CASES = [
    ("one variable", 1, ["3*x1^2", "x1^3"], 4, 2),
    ("degree 0", 2, ["3", "x1 + x2"], 0, 1),
    ("multiplier degree 0", 3, ["x1^2 + x2*x3"], 2, 1),
    ("generator above the degree", 2, ["x1^3", "x2^2"], 2, 1),
    ("mixed degrees", 3, ["x1^2 - x2*x3", "x1*x2*x3 + 4*x3^3", "x2^2",
                          "x1 + x2"], 4, 6 + 3 + 6 + 10),
]


@pytest.mark.parametrize("case", MACAULAY_CASES,
                         ids=[c[0] for c in MACAULAY_CASES])
def test_macaulay_matrix_matches_the_tuple_oracle(case):
    """The integer-coded builder gives the rows of the tuple-addition
    oracle, in the same order and each row's entries in the same order,
    over Q and F_p."""
    _, nvars, exprs, degree, nrows = case
    names = [f"x{i + 1}" for i in range(nvars)]
    for field in (Q, PrimeField(2), PrimeField(32003)):
        gens = [parse_poly(field, names, e) for e in exprs]
        monomials, mat = _macaulay_matrix(gens, degree)
        want_monomials, want = macaulay_oracle(gens, degree)
        assert monomials == want_monomials
        assert (mat.nrows, mat.ncols) == (want.nrows, want.ncols)
        assert mat.nrows == len(mat.rows) == nrows
        assert [list(row.items()) for row in mat.rows] == [
            list(row.items()) for row in want.rows], (field, case[0])


def test_macaulay_matrix_matches_the_tuple_oracle_on_random_generators():
    rng = random.Random(31)
    for field in (Q, PrimeField(3), PrimeField(32003)):
        for trial in range(25):
            nvars = rng.randint(1, 4)
            gens = [random_homogeneous(rng, field, nvars, rng.randint(0, 4))
                    for _ in range(rng.randint(1, 4))]
            for degree in range(6):
                monomials, mat = _macaulay_matrix(gens, degree)
                want_monomials, want = macaulay_oracle(gens, degree)
                assert monomials == want_monomials
                assert [list(row.items()) for row in mat.rows] == [
                    list(row.items()) for row in want.rows], (field, trial)


def test_generator_check_is_shared():
    """quotient_slice, the certificates and the Koszul complex reject the
    same generator lists with the same message."""
    f = MultiPoly(Q, 2, {(2, 0): Q.one})
    bad = [[], [MultiPoly(Q, 2, {})],
           [MultiPoly(Q, 2, {(1, 0): Q.one, (2, 0): Q.one})],
           [f, MultiPoly(Q, 3, {(1, 0, 0): Q.one})],
           [f, MultiPoly(PrimeField(5), 2, {(2, 0): 1})]]
    for gens in bad:
        messages = set()
        for call in (lambda: quotient_slice(gens, 2),
                     lambda: m_primary_certificate(gens, 3),
                     lambda: koszul_cohomology_dim(gens, 0, 2)):
            with pytest.raises(InputError) as exc:
                call()
            messages.add(str(exc.value))
        assert len(messages) == 1, messages


def test_quotient_slice_errors():
    f = MultiPoly(Q, 2, {(2, 0): Q.one})
    with pytest.raises(InputError):
        quotient_slice([], 2)
    with pytest.raises(InputError):
        quotient_slice([MultiPoly(Q, 2, {})], 2)  # zero generator
    inhom = MultiPoly(Q, 2, {(1, 0): Q.one, (2, 0): Q.one})
    with pytest.raises(InputError):
        quotient_slice([inhom], 2)
    other_ring = MultiPoly(Q, 3, {(1, 0, 0): Q.one})
    with pytest.raises(InputError):
        quotient_slice([f, other_ring], 2)
    sl = quotient_slice([f], 2)
    wrong_degree = MultiPoly(Q, 2, {(1, 0): Q.one})
    with pytest.raises(InputError):
        slice_vector(sl, wrong_degree)
