import random
from math import factorial, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import sagakit.apolarity as apolarity_module
from sagakit.apolarity import (annihilator_echelon, annihilator_piece,
                               catalecticant, contract, is_cone)
from sagakit.exactla import echelon_rows
from sagakit.polyring import (FieldSpec, PolyError, Polynomial, RATIONAL,
                              monomial_basis, parse_poly)

from oracles import (annihilator_echelon_reference, apply_operator, boxed,
                     contract_catalecticant, echelon_of, poly_to_dict,
                     sympify_form)
from test_lefschetz import dense_form, linear_change

PERAZZO = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"


def op(text, n):
    # operator polynomials share the parser; indices name the y-variables
    return parse_poly(text, n)


def as_dict(p):
    return dict(p.terms)


class TestContract:
    def test_single_derivative(self):
        assert contract(op("x0", 1), parse_poly("x0^2", 1)) == \
            parse_poly("2*x0", 1)

    def test_square_kills_perazzo(self, perazzo_f):
        assert contract(op("x0^2", 5), perazzo_f).is_zero

    def test_y3_squared_on_perazzo(self, perazzo_f):
        # oracle: symbolic second derivative in x3
        expected = poly_to_dict(
            apply_operator((0, 0, 0, 2, 0), sympify_form(PERAZZO, 5), 5), 5)
        got = contract(op("x3^2", 5), perazzo_f)
        assert as_dict(got) == expected
        assert got == parse_poly("2*x0", 5)

    def test_matches_sympy_on_random_pairs(self):
        rng = random.Random(31)
        basis2 = monomial_basis(3, 2)
        basis3 = monomial_basis(3, 3)
        for _ in range(8):
            form = Polynomial(3, RATIONAL,
                              {m: rng.randint(-3, 3) for m in basis3})
            if form.is_zero:
                continue
            d_op = Polynomial(3, RATIONAL,
                              {m: rng.randint(-2, 2) for m in basis2})
            got = contract(d_op, form)
            expr = sympify_form(form.to_string(), 3)
            acc = {}
            for mon, coeff in d_op.terms.items():
                img = poly_to_dict(apply_operator(mon, expr, 3), 3)
                for e, c in img.items():
                    acc[e] = acc.get(e, 0) + coeff * c
            acc = {e: c for e, c in acc.items() if c}
            assert as_dict(got) == acc

    def test_composition(self):
        rng = random.Random(77)
        basis = monomial_basis(3, 1)
        quartics = monomial_basis(3, 4)
        for _ in range(6):
            d1 = Polynomial(3, RATIONAL, {m: rng.randint(-2, 2) for m in basis})
            d2 = Polynomial(3, RATIONAL, {m: rng.randint(-2, 2) for m in basis})
            g = Polynomial(3, RATIONAL,
                           {m: rng.randint(-3, 3) for m in quartics})
            assert contract(d1 * d2, g) == contract(d1, contract(d2, g))

    def test_nonhomogeneous_rejected(self):
        with pytest.raises(PolyError):
            contract(op("x0", 2), parse_poly("x0^2 + x1", 2))


class TestCatalecticant:
    def test_pure_power_rank_one(self):
        g = parse_poly("x0^3", 3)
        for i in range(4):
            assert echelon_of(boxed(g.field, *catalecticant(g, i))).rank == 1

    def test_perazzo_degree_two(self, perazzo_f):
        cat = boxed(perazzo_f.field, *catalecticant(perazzo_f, 2))
        assert echelon_of(cat).rank == 5

    def test_perazzo_degree_three(self, perazzo_f):
        # oracle: contract all 35 cubic operator monomials symbolically
        expr = sympify_form(PERAZZO, 5)
        nonzero = [m for m in monomial_basis(5, 3)
                   if apply_operator(m, expr, 5) != 0]
        assert nonzero == [(1, 0, 0, 2, 0), (0, 1, 0, 1, 1), (0, 0, 1, 0, 2)]
        cat = boxed(perazzo_f.field, *catalecticant(perazzo_f, 3))
        assert echelon_of(cat).rank == 1
        assert cat.rows == 1  # image lives in the constants
        cols = monomial_basis(5, 3)
        cols_nonzero = [cols[c]
                        for c in range(cat.cols)
                        if cat.entries[0][c]]
        assert cols_nonzero == nonzero

    def test_source_degree_out_of_range(self, perazzo_f):
        with pytest.raises(PolyError):
            catalecticant(perazzo_f, 4)

    def test_labels_match_dimensions(self, perazzo_f):
        # columns: the 5 linear operators; rows: the 15 quadric monomials
        cat = boxed(perazzo_f.field, *catalecticant(perazzo_f, 1))
        assert (cat.rows, cat.cols) == (15, 5)


PERAZZO_ANN2 = ["x0^2", "x0*x1", "x0*x2", "x0*x4", "x1^2", "x1*x2", "x2^2",
                "x2*x3", "x0*x3 - x1*x4", "x1*x3 - x2*x4"]


class TestAnnihilator:
    def test_perazzo_degree_one_empty(self, perazzo_f):
        assert annihilator_piece(perazzo_f, 1) == []

    def test_perazzo_degree_two_span(self, perazzo_f):
        ann = annihilator_piece(perazzo_f, 2)
        assert len(ann) == 10
        ambient = monomial_basis(5, 2)
        ann_vecs = [a.coefficient_vector(ambient) for a in ann]
        listed_vecs = [op(t, 5).coefficient_vector(ambient)
                       for t in PERAZZO_ANN2]
        # equal spans: rank A = rank B = rank of A and B together
        assert [echelon_rows(vecs, len(ambient), RATIONAL).rank
                for vecs in (ann_vecs, listed_vecs, ann_vecs + listed_vecs)
                ] == [10, 10, 10]

    def test_cube_in_two_vars(self):
        ann = annihilator_piece(parse_poly("x0^3", 2), 1)
        assert len(ann) == 1
        assert ann[0] == op("x1", 2)

    def test_dim_plus_rank(self):
        rng = random.Random(6)
        basis = monomial_basis(4, 3)
        for _ in range(5):
            g = Polynomial(4, RATIONAL, {m: rng.randint(-3, 3) for m in basis})
            if g.is_zero:
                continue
            for i in range(4):
                cat = boxed(g.field, *catalecticant(g, i))
                assert (len(annihilator_piece(g, i))
                        + echelon_of(cat).rank) == cat.cols

    def test_rank_symmetry(self):
        rng = random.Random(13)
        basis = monomial_basis(3, 4)
        for _ in range(5):
            g = Polynomial(3, RATIONAL, {m: rng.randint(-3, 3) for m in basis})
            if g.is_zero:
                continue
            for i in range(5):
                r1 = echelon_of(boxed(g.field, *catalecticant(g, i))).rank
                r2 = echelon_of(boxed(g.field, *catalecticant(g, 4 - i))).rank
                assert r1 == r2


class TestIsCone:
    def test_perazzo_not_a_cone(self, perazzo_f):
        assert not is_cone(perazzo_f)

    def test_cube_in_five_vars(self):
        assert is_cone(parse_poly("x0^3", 5))

    def test_fermat_cubic_four_vars(self):
        # supports of the four partials are disjoint, hence independent
        assert not is_cone(parse_poly("x0^3 + x1^3 + x2^3 + x3^3", 4))


PRIMES = [FieldSpec.prime(p) for p in (2, 3, 7, 32003)]


@st.composite
def inverse_system_forms(draw):
    """Forms of degree 1-5 in 1-5 variables: dense over Q (fractional
    coefficients) and F_p, cones in mixed coordinates, and forms over F_2
    and F_3 with a term whose exponent is at least p."""
    kind = draw(st.sampled_from(["dense", "cone", "power"]))
    if kind == "power":
        field = draw(st.sampled_from(PRIMES[:2]))
        d = draw(st.integers(field.p, 5))
    else:
        field = draw(st.sampled_from([RATIONAL] + PRIMES))
        d = draw(st.integers(1, 5 if kind == "dense" else 4))
    n = draw(st.integers(2 if kind == "cone" else 1, 5 if d < 5 else 4))
    k = draw(st.integers(1, n - 1)) if kind == "cone" else n
    coeff = (st.fractions(-3, 3, max_denominator=4) if field.is_rational
             else st.integers(-3, 3))
    size = len(monomial_basis(k, d))
    form = dense_form(draw(st.lists(coeff, min_size=size, max_size=size)),
                      k, d, field)
    if kind == "cone":
        form = linear_change(form, n, draw(st.integers(0, 2**32)))
    elif kind == "power":
        j = draw(st.integers(0, n - 1))
        e = draw(st.integers(field.p, d))
        exps = [0] * n
        exps[j] += e
        exps[(j + 1) % n] += d - e
        form = form + Polynomial(n, field, {tuple(exps): 1})
    assume(not form.is_zero)
    return form


@given(inverse_system_forms())
@settings(max_examples=60, deadline=None)
def test_annihilator_echelon_matches_the_long_way(form):
    for i in range(form.homogeneous_degree() + 1):
        assert (boxed(form.field, *catalecticant(form, i))
                == contract_catalecticant(form, i))
        got = annihilator_echelon(form, i)
        want = annihilator_echelon_reference(form, i)
        assert got.pivots == want.pivots
        assert got.nonpivots == want.nonpivots
        assert (got.coeffs, got.den) == (want.coeffs, want.den)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_catalecticant_is_a_scaled_transpose_of_its_dual(n, d, data):
    # entry (m', m) of Cat_i is f_(m+m') (m+m')! / m'!, so over Q
    # Cat_i = diag(1/m'!) * Cat_(d-i)^T * diag(m!), and h_i = h_(d-i)
    size = len(monomial_basis(n, d))
    form = dense_form(data.draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                                         min_size=size, max_size=size)), n, d)
    assume(not form.is_zero)

    def fact(m):
        return prod(map(factorial, m))

    for i in range(d + 1):
        dual = boxed(form.field, *catalecticant(form, d - i)).entries
        assert boxed(form.field, *catalecticant(form, i)).entries == [
            [dual[c][r] * fact(m) / fact(m2)
             for c, m in enumerate(monomial_basis(n, i))]
            for r, m2 in enumerate(monomial_basis(n, d - i))]


@given(st.sampled_from([RATIONAL] + [FieldSpec.prime(p)
                                     for p in (2, 3, 5, 32003)]),
       st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_catalecticant_int_rows_match_the_contractions(field, n, d, data):
    # ints over the lcm of the coefficient denominators; over F_p residues
    # over 1, and with p <= d some perm factors vanish mod p
    scalars = (st.fractions(-3, 3, max_denominator=4) if field.is_rational
               else st.integers(-3, 3))
    size = len(monomial_basis(n, d))
    form = dense_form(data.draw(st.lists(scalars, min_size=size,
                                         max_size=size)), n, d, field)
    assume(not form.is_zero)
    want_den = (lcm(*(c.denominator for c in form.terms.values()))
                if field.is_rational else 1)
    for i in range(d + 1):
        rows, den = catalecticant(form, i)
        assert den == want_den
        assert all(type(v) is int for row in rows for v in row)
        if field.p:
            assert all(0 <= v < field.p for row in rows for v in row)
        assert boxed(field, rows, den) == contract_catalecticant(form, i)


def test_annihilator_echelon_hands_echelon_plain_int_rows(monkeypatch):
    seen = []
    real = apolarity_module.echelon_rows

    def spy(rows, ncols, field):
        seen.append((rows, field))
        return real(rows, ncols, field)

    monkeypatch.setattr(apolarity_module, "echelon_rows", spy)
    forms = [parse_poly("1/2*x0^3 + 1/3*x1^3 + x0*x1*x2", 3),
             parse_poly(PERAZZO, 5, FieldSpec.prime(3)),
             parse_poly(PERAZZO, 5, FieldSpec.prime(32003))]
    for form in forms:
        for i in range(4):
            annihilator_echelon(form, i)
    assert len(seen) == 12
    for rows, field in seen:
        assert all(type(v) is int for row in rows for v in row)
        if field.p:
            assert all(0 <= v < field.p for row in rows for v in row)
