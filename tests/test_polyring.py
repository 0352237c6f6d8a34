from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from sagakit.polyring import (FieldMismatchError, FieldSpec, PolyError,
                              PolyParseError, Polynomial, RATIONAL,
                              max_variable_index, monomial_basis, parse_poly)

from oracles import eval_at

F7 = FieldSpec.prime(7)
PERAZZO = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"


class TestParse:
    def test_perazzo_form_terms(self):
        p = parse_poly(PERAZZO, 5)
        assert len(p.terms) == 3
        assert p.coefficient((1, 0, 0, 2, 0)) == 1
        assert p.coefficient((0, 1, 0, 1, 1)) == 2
        assert p.coefficient((0, 0, 1, 0, 2)) == 1

    def test_zero_literal(self):
        assert parse_poly("0", 3).is_zero

    def test_cancellation_to_zero(self):
        assert parse_poly("x0^3 - x0^3", 1).is_zero

    def test_rational_coefficients(self):
        p = parse_poly("3/2*x0 - 1/2*x1", 2)
        assert p.coefficient((1, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 1)) == Fraction(-1, 2)

    def test_juxtaposition(self):
        assert parse_poly("x0x1^2", 2) == parse_poly("x0*x1^2", 2)

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError):
            parse_poly("x5", 5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x0 + * x1", 2)
        assert err.value.position == 5

    def test_noninvertible_coefficient_mod_p(self):
        with pytest.raises(PolyParseError):
            parse_poly("1/7*x0", 1, F7)

    def test_prime_field_wraps(self):
        p = parse_poly("8*x0 + 7*x1", 2, F7)
        assert p.coefficient((1, 0)) == 1
        assert p.coefficient((0, 1)) == 0
        assert p.terms == {(1, 0): 1}

    def test_empty_input_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("   ", 2)

    @pytest.mark.parametrize("text,index", [
        ("x0*x3^2 + 2*x1*x3*x4", 4), ("x12 - x3", 12), ("7", -1),
        ("x2^10", 2), ("3*x0", 0)])
    def test_max_variable_index(self, text, index):
        assert max_variable_index(text) == index

    def test_max_variable_index_rejects_what_the_tokenizer_rejects(self):
        with pytest.raises(PolyParseError) as err:
            max_variable_index("x1 $")
        assert err.value.position == 3

    @pytest.mark.parametrize("text,char,position", [
        ("x0\u00b2 + x1^2", "\u00b2", 2),
        ("x\u0663^2 + x0^2 + x1^2 + x2^2", "\u0663", 1),
        ("x0 + \u0663*x1", "\u0663", 5),
    ])
    def test_only_ascii_digits_are_read(self, text, char, position):
        # a superscript or non-ASCII decimal digit is neither an exponent
        # nor a variable index
        for read in (max_variable_index, lambda t: parse_poly(t, 4)):
            with pytest.raises(PolyParseError) as err:
                read(text)
            assert err.value.position == position
            assert str(err.value) == (f"unexpected character {char!r} "
                                      f"(at position {position})")


class TestArithmetic:
    def test_difference_of_squares(self):
        a = parse_poly("x0 + x1", 2)
        b = parse_poly("x0 - x1", 2)
        assert a * b == parse_poly("x0^2 - x1^2", 2)

    def test_multiplicative_identity(self):
        p = parse_poly("2*x0*x1 - x2^2", 3)
        one = Polynomial.constant(1, 3)
        assert p * one == p

    def test_monomial_product(self):
        a = parse_poly("x0*x3", 5)
        b = parse_poly("x3*x4", 5)
        assert a * b == parse_poly("x0*x3^2*x4", 5)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            parse_poly("x0", 1) * parse_poly("x0", 1, F7)

    def test_mixed_arity_rejected(self):
        with pytest.raises(PolyError):
            parse_poly("x0", 1) * parse_poly("x0", 2)

    def test_homogeneous_product_degree(self):
        p = parse_poly("x0^2 + x1*x2", 3)
        q = parse_poly("x0 - x2", 3)
        assert (p * q).homogeneous_degree() == 3


class TestMonomialBasis:
    def test_sizes(self):
        for n_vars in range(1, 7):
            for d in range(9):
                expected = comb(n_vars + d - 1, n_vars - 1)
                assert len(monomial_basis(n_vars, d)) == expected

    def test_degree_two_in_five_vars(self):
        assert len(monomial_basis(5, 2)) == 15

    def test_degree_zero(self):
        basis = monomial_basis(5, 0)
        assert basis == [(0, 0, 0, 0, 0)]

    def test_two_vars_cubics_exact_order(self):
        assert monomial_basis(2, 3) == [
            (3, 0), (2, 1), (1, 2), (0, 3)]

    def test_strictly_decreasing(self):
        basis = monomial_basis(4, 3)
        assert all(a > b for a, b in zip(basis, basis[1:]))

    def test_equals_the_validated_construction(self):
        # the cached monomials against every exponent tuple of degree d,
        # largest first
        for n_vars in range(1, 7):
            for d in range(7):
                tuples = sorted((t for t in product(range(d + 1),
                                                    repeat=n_vars)
                                 if sum(t) == d), reverse=True)
                basis = monomial_basis(n_vars, d)
                assert basis == tuples

    def test_each_call_returns_a_fresh_list(self):
        basis = monomial_basis(3, 2)
        basis.pop()
        assert len(monomial_basis(3, 2)) == 6
        assert monomial_basis(3, 2) is not monomial_basis(3, 2)

    def test_monomial_still_rejects_negative_exponents(self):
        with pytest.raises(PolyError, match="each an int >= 0"):
            Polynomial(3, RATIONAL, {(1, -1, 2): 1})

    @pytest.mark.parametrize("key", [(1, 0, 0), (1,), (1.5, 0), "x0"])
    def test_polynomial_rejects_keys_that_are_not_exponent_tuples(self, key):
        # a wrong length, a non-int exponent (once truncated to 1), or a key
        # that is not a tuple
        with pytest.raises(PolyError, match="is not a tuple of 2 exponents"):
            Polynomial(2, RATIONAL, {key: 1})


class TestText:
    def test_terms_print_in_graded_lex_order(self):
        # degree first: x1^2 comes before x0, which lex order alone reverses
        p = parse_poly("x0 + x1^2 + 1", 2)
        assert p.to_string() == "x1^2 + x0 + 1"
        assert [m for m, _ in p.sorted_terms()] == [(0, 2), (1, 0), (0, 0)]


class TestEval:
    def test_perazzo_point(self):
        # only the x0*x3^2 term survives at (1,0,0,1,0)
        p = parse_poly(PERAZZO, 5)
        assert eval_at(p, [1, 0, 0, 1, 0]) == 1

    def test_positive_degree_at_origin(self):
        p = parse_poly("x0^2*x1 + 4*x2^3", 3)
        assert eval_at(p, [0, 0, 0]) == 0

    def test_product_point(self):
        assert eval_at(parse_poly("x0*x1", 2), [2, 3]) == 6

    def test_length_mismatch(self):
        with pytest.raises(PolyError):
            eval_at(parse_poly("x0", 2), [1])


small_scalars = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, n_vars=3, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n_vars))
        terms[exps] = draw(small_scalars)
    return Polynomial(n_vars, RATIONAL, terms)


class TestProperties:
    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys(), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_scaling(self, p, t):
        parts = {}
        for m, c in p.terms.items():
            parts.setdefault(sum(m), {})[m] = c
        for d, terms in parts.items():
            hom = Polynomial(3, RATIONAL, terms)
            v = [1, -2, 3]
            lhs = eval_at(hom, [t * x for x in v])
            rhs = Fraction(t) ** d * eval_at(hom, v)
            assert lhs == rhs

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_round_trip(self, p):
        assert parse_poly(p.to_string(), 3) == p


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(ValueError, match="^100 is not prime$"):
            FieldSpec.prime(100)
        with pytest.raises(ValueError, match="^3215031751 is not prime$"):
            FieldSpec.prime(3215031751)  # strong pseudoprime to 2, 3, 5, 7

    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to every base 2..37; 2^89 - 1 is prime but past the bound
    @pytest.mark.parametrize("p", [318665857834031151167461, 2 ** 89 - 1,
                                   2 ** 64 + 13, 7.0, 1, 0, -7, None])
    def test_modulus_outside_64_bits_or_not_int_rejected(self, p):
        with pytest.raises(ValueError, match="integer in 2..2\\^64 - 1"):
            FieldSpec.prime(p)

    @pytest.mark.parametrize("p", [2, 2 ** 61 - 1, 2 ** 64 - 59])
    def test_64_bit_primes_accepted(self, p):
        assert FieldSpec.prime(p).p == p

    def test_from_string(self):
        assert FieldSpec.from_string("rational") == RATIONAL
        assert FieldSpec.from_string("fp:101") == FieldSpec.prime(101)
        with pytest.raises(ValueError):
            FieldSpec.from_string("fp:abc")

    def test_fp_arithmetic(self):
        # residues are plain ints; a Polynomial over F_7 reduces its
        # coefficients, and refuses to mix with one over F_11
        a = Polynomial.constant(3, 1, F7)
        assert (a + Polynomial.constant(5, 1, F7)).constant_value() == 1
        assert (a * a).constant_value() == 2
        # 3 * 5^{-1} = 3*3 = 9 = 2
        assert a.scale(F7.from_fraction(1, 5)).constant_value() == 2
        assert (-a).constant_value() == 4
        assert F7.from_int(-3) == 4 and F7.from_fraction(3, 5) == 2
        with pytest.raises(FieldMismatchError):
            a + Polynomial.constant(1, 1, FieldSpec.prime(11))

    def test_coerce_fraction_mod_p(self):
        f = FieldSpec.prime(7)
        assert f.coerce(Fraction(1, 2)) == 4
        assert type(f.coerce(Fraction(1, 2))) is int
        with pytest.raises(FieldMismatchError):
            f.coerce(Fraction(1, 7))

    @given(st.lists(st.fractions(-20, 20, max_denominator=12), max_size=6),
           st.sampled_from([None, 2, 7, 32003]))
    @settings(max_examples=100, deadline=None)
    def test_ints_round_trip(self, values, p):
        field = RATIONAL if p is None else FieldSpec.prime(p)
        values = [field.coerce(v if p is None else v.numerator)
                  for v in values]
        ints, den = field.to_ints(values)
        assert all(type(v) is int for v in ints)
        assert den == 1 or field.is_rational
        assert field.from_ints(ints, den) == values
        assert field.from_ints([3 * v for v in ints], 3 * den) == values

    def test_to_ints_over_q_takes_the_lcm(self):
        assert RATIONAL.to_ints([Fraction(1, 4), 3, Fraction(-5, 6)]) == (
            [3, 36, -10], 12)
