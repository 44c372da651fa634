from __future__ import annotations

import random
from itertools import product
from math import prod

import pytest

from jacring.errors import InputError
from jacring.fields import add_term
from jacring.forms import DiffForm, basis, dF_of, df_form
from jacring.hilbert import omega_slice_dim

from helpers import (F2, F3, F7, Q, bidegree_of, bidegrees, boundary,
                     conic_char2, exceptional_pair_char2, fermat_cubic,
                     fermat_quintic, form_term, key_basis, layout_keys,
                     random_form, random_problem, singular_cubic_curve,
                     square_pair, theta, theta_preimage, two_conics,
                     two_quadrics, wedge_rule, xi)

FIXTURES = [fermat_cubic(), two_quadrics(), two_conics(), square_pair(),
            conic_char2(), exceptional_pair_char2(), singular_cubic_curve(),
            fermat_quintic()]
FIELDS = [Q, F2, F3, F7]
N_RANDOM = 100


def _instances(seed: int, rmin: int = 1, rmax: int = 3):
    """Deterministic stream of (rng, problem) pairs: 100 random problems
    followed by every fixed test input."""
    rng = random.Random(seed)
    for _ in range(N_RANDOM):
        field = rng.choice(FIELDS)
        n = rng.randint(1, 3)
        r = rng.randint(rmin, min(rmax, 3))
        yield rng, random_problem(rng, field, n, r)
    for prob in FIXTURES:
        if rmin <= prob.r <= rmax:
            yield rng, prob


def test_boundary_squared_is_zero():
    for rng, prob in _instances(101):
        k = rng.randint(0, prob.n + prob.r)
        w = random_form(rng, prob, k, max_deg=1)
        assert boundary(boundary(w)).is_zero()


def test_theta_squared_is_zero():
    for rng, prob in _instances(102):
        k = rng.randint(0, prob.n + prob.r)
        w = random_form(rng, prob, k, max_deg=1)
        assert theta(theta(w)).is_zero()


def test_theta_boundary_anticommute():
    for rng, prob in _instances(103):
        k = rng.randint(0, prob.n + prob.r)
        w = random_form(rng, prob, k, max_deg=1)
        lhs = theta(boundary(w))
        rhs = boundary(theta(w))
        if lhs.is_zero() or rhs.is_zero():
            # zero forms of different word lengths cannot be added directly
            assert lhs.is_zero() and rhs.is_zero()
        else:
            assert (lhs + rhs).is_zero()


def test_theta_leibniz():
    for rng, prob in _instances(104):
        ka = rng.randint(0, prob.n + prob.r)
        kb = rng.randint(0, prob.n + prob.r)
        a = random_form(rng, prob, ka, max_deg=1)
        b = random_form(rng, prob, kb, max_deg=1)
        lhs = theta(a.wedge(b))
        parts = []
        t1 = theta(a).wedge(b)
        if not t1.is_zero():
            parts.append(t1)
        t2 = a.wedge(theta(b))
        if not t2.is_zero():
            parts.append(t2 if ka % 2 == 0 else -t2)
        if not parts:
            assert lhs.is_zero()
        else:
            rhs = parts[0]
            for t in parts[1:]:
                rhs = rhs + t
            if lhs.is_zero() or rhs.is_zero():
                assert lhs.is_zero() and rhs.is_zero()
            else:
                assert lhs == rhs


def test_theta_of_df_is_degree_times_poly():
    for _, prob in _instances(105):
        f = prob.field
        for j in range(prob.r):
            got = theta(df_form(prob, j))
            want = DiffForm.of_poly(prob, prob.polys[j].scale(f.of(prob.degrees[j])))
            assert got == want, (prob.degrees, j)
        # consequence: the contraction kills dF itself
        assert theta(dF_of(prob)).is_zero()


def test_theta_of_xi_1():
    for _, prob in _instances(106):
        want = dF_of(prob).scale(prob.field.of(prod(prob.degrees)))
        assert theta(xi(prob, 1)) == want


def test_theta_of_xi_recurrence():
    for _, prob in _instances(107, rmin=2):
        for k in range(1, prob.r):
            lhs = theta(xi(prob, k + 1))
            rhs = boundary(xi(prob, k))
            if k % 2 == 1:
                rhs = -rhs
            assert lhs == rhs, (prob.degrees, k)


def test_boundary_of_xi_n_vanishes_when_r_at_least_n():
    """xi_n is closed when r >= n, and xi_r, the witness form of verify, is
    closed at every r < n too: each df_j and dy_j appears twice in its
    boundary."""
    count = 0
    rng = random.Random(108)
    while count < N_RANDOM:
        field = rng.choice(FIELDS)
        n = rng.randint(1, 2)
        r = rng.randint(n, 3)
        prob = random_problem(rng, field, n, r)
        assert boundary(xi(prob, prob.n)).is_zero(), prob.degrees
        count += 1
    rng = random.Random(109)
    for _ in range(N_RANDOM):
        n = rng.randint(2, 4)
        prob = random_problem(rng, rng.choice(FIELDS), n,
                              rng.randint(1, n - 1))
        assert boundary(xi(prob, prob.r)).is_zero(), prob.degrees
    for prob in FIXTURES:
        if prob.r >= prob.n:
            assert boundary(xi(prob, prob.n)).is_zero()
        else:
            assert boundary(xi(prob, prob.r)).is_zero(), prob.degrees


def test_basis_dimension_matches_combinatorial_count():
    for prob in FIXTURES:
        if prob.n + prob.r > 5:
            continue
        for k in range(prob.n + prob.r + 1):
            for q in range(3):
                for p in range(prob.n + 2):
                    got = basis(prob, k, q, p).dim
                    want = omega_slice_dim(prob.n, prob.degrees, k, q, p)
                    assert got == want, (prob.degrees, k, q, p)


def _words(m: int) -> list:
    """Every ascending index word over m letters, the empty one included."""
    return [tuple(i for i in range(m) if mask >> i & 1)
            for mask in range(2 ** m)]


def test_basis_keys_match_brute_force_enumeration():
    """Independent of the slice rule: enumerate bounded x and y exponents
    and every dx/dy word, sort each term into its slice by bidegree_of,
    and compare with the basis keys. The bound is complete: (q, p) forces
    sum(b) + |J| = p and sum(a) = q + sum(b_j d_j) + sum_(j in J) d_j - |I|
    <= q + p max(d)."""
    q_range, p_max = range(-2, 2), 2
    for prob in (two_conics(), fermat_cubic()):
        n, r = prob.n, prob.r
        x_max = q_range[-1] + p_max * max(prob.degrees)
        found = {}
        for xexp in product(range(x_max + 1), repeat=n):
            if sum(xexp) > x_max:
                continue
            for yexp in product(range(p_max + 1), repeat=r):
                for dxs in _words(n):
                    for dys in _words(r):
                        q, p = bidegree_of(prob, xexp, yexp, dxs, dys)
                        if q in q_range and 0 <= p <= p_max:
                            found.setdefault((len(dxs) + len(dys), q, p),
                                             set()).add(
                                (xexp, yexp, dxs, dys))
        for k in range(n + r + 1):
            for q in q_range:
                for p in range(p_max + 1):
                    keys = layout_keys(basis(prob, k, q, p))
                    assert len(set(keys)) == len(keys), (k, q, p)
                    assert set(keys) == found.pop((k, q, p), set()), \
                        (prob.degrees, k, q, p)
        assert not found


def test_vector_form_round_trip():
    rng = random.Random(11)
    for prob in (fermat_cubic(), two_conics(), square_pair()):
        f = prob.field
        for k, q, p in [(1, 0, 0), (2, 1, 1), (3, 0, 2), (0, 2, 0)]:
            sl = key_basis(prob, k, q, p)
            if sl.dim == 0:
                continue
            vec = [f.of(rng.randint(-4, 4)) for _ in range(sl.dim)]
            form = DiffForm(prob, sl.k, zip(sl.keys, vec))
            assert sl.vector_of_form(form) == [f.of(v) for v in vec]
            back = sl.vector_of_form(form)
            assert DiffForm(prob, sl.k, zip(sl.keys, back)) == form


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(12)
    for _ in range(60):
        field = rng.choice(FIELDS)
        prob = random_problem(rng, field, rng.randint(1, 3), rng.randint(1, 2))
        ka, kb, kc = (rng.randint(0, 2) for _ in range(3))
        a = random_form(rng, prob, ka, max_deg=1)
        b = random_form(rng, prob, kb, max_deg=1)
        c = random_form(rng, prob, kc, max_deg=1)
        sign_flip = (ka * kb) % 2 == 1
        ab = a.wedge(b)
        ba = b.wedge(a)
        assert ab == (-ba if sign_flip else ba)
        assert ab.wedge(c) == a.wedge(b.wedge(c))


def test_wedge_matches_the_per_term_rule():
    """DiffForm.wedge gives the terms of the oracle helpers.wedge_rule, in
    the same dict order, on random forms of word lengths 0..3."""
    rng = random.Random(15)
    for _ in range(400):
        field = rng.choice([Q, F2, F3])
        prob = random_problem(rng, field, rng.randint(1, 4), rng.randint(1, 2))
        a = random_form(rng, prob, rng.randint(0, 3), max_terms=6)
        b = random_form(rng, prob, rng.randint(0, 3), max_terms=6)
        rule = wedge_rule(a.terms, prob.n, field)
        want = {}
        for key, cb in b.terms.items():
            for ikey, c in rule(key):
                add_term(want, ikey, field.mul(c, cb), field)
        assert list(a.wedge(b).terms.items()) == list(want.items())


def test_operator_bidegrees():
    """The boundary lands one step up in word length and second grading; the
    contraction one step down in word length with both gradings intact."""
    rng = random.Random(13)
    for prob in (two_quadrics(), two_conics(), conic_char2()):
        f = prob.field
        for k, q, p in [(1, 0, 0), (2, 0, 1), (2, 1, 1), (3, 2, 2)]:
            sl = basis(prob, k, q, p)
            if sl.dim == 0:
                continue
            vec = [f.of(rng.randint(-3, 3)) for _ in range(sl.dim)]
            w = DiffForm(prob, sl.k, zip(layout_keys(sl), vec))
            bw = boundary(w)
            assert bidegrees(bw) <= {(q, p + 1)}
            assert bw.is_zero() or bw.k == k + 1
            tw = theta(w)
            assert bidegrees(tw) <= {(q, p)}
            assert tw.is_zero() or tw.k == k - 1
            # every basis key itself sits in the declared slice
            for key in layout_keys(sl):
                assert bidegree_of(prob, *key) == (q, p)


def test_term_constructor_validation():
    prob = fermat_cubic()
    with pytest.raises(InputError):
        form_term(prob, (0, 0), (0,), (0,), ())  # xexp too short
    with pytest.raises(InputError):
        form_term(prob, (0, 0, 0), (), (0,), ())  # yexp too short
    with pytest.raises(InputError):
        form_term(prob, (0, 0, 0), (0,), (1, 0), ())  # not ascending
    with pytest.raises(InputError):
        form_term(prob, (0, 0, 0), (0,), (0, 0), ())  # repeated index
    with pytest.raises(InputError):
        two_conics_form = DiffForm.zero(two_conics(), 1)
        DiffForm.zero(prob, 1) + two_conics_form  # different problems


def test_constructor_refuses_words_out_of_order():
    """DiffForm refuses a term key whose dx or dy word is not strictly
    ascending, as helpers.form_term does: otherwise dx2/\\dx1 + dx1/\\dx2
    would be a nonzero form."""
    prob = fermat_cubic()
    x0, y0 = (0, 0, 0), (0,)
    dx1dx2 = DiffForm(prob, 2, {(x0, y0, (0, 1), ()): 1})
    for word, dys in [((1, 0), ()), ((0, 0), ())]:
        with pytest.raises(InputError):
            DiffForm(prob, 2, {(x0, y0, word, dys): 1}) + dx1dx2
    conics = two_conics()
    for dxs, dys in [((), (1, 0)), ((0,), (1, 1))]:
        with pytest.raises(InputError):
            DiffForm(conics, len(dxs) + 2, [(((0, 0, 0), (0, 0), dxs, dys),
                                             1)])
    # the ascending word and its negation cancel
    swapped = form_term(prob, x0, y0, (0, 1), (), -1)
    assert (dx1dx2 + swapped).is_zero()


def test_theta_preimage_round_trip():
    """theta_preimage followed by theta is the identity on contraction images."""
    rng = random.Random(14)
    for prob in (fermat_cubic(), two_conics()):
        for k, q, p in [(1, 0, 0), (2, 1, 1), (2, 0, 1)]:
            sl = basis(prob, k, q, p)
            if sl.dim == 0:
                continue
            vec = [prob.field.of(rng.randint(-3, 3)) for _ in range(sl.dim)]
            eta = theta(DiffForm(prob, sl.k, zip(layout_keys(sl), vec)))
            zeta = theta_preimage(eta, k, q, p)
            assert zeta is not None
            assert theta(zeta) == eta
