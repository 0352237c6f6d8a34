import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, islice, product
from math import comb, gcd
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import sagakit.algebra as algebra_module
from sagakit.algebra import (AlgebraElement, AlgebraError,
                             DegreeOverflowError, GradedAlgebra,
                             NotRegularSequence, _Piece,
                             _checked_regular_sequence, _mod_prime,
                             _fp_pieces, _macaulay_rows, expected_ci_hilbert,
                             from_inverse_system, from_regular_sequence,
                             monomial_steps)
from sagakit.apolarity import catalecticant, contract
from sagakit.corpus import get_entry
from sagakit.exactla import Echelon, Matrix, det_ff, echelon_rows
from sagakit.gnlab import (GammaSample, SLPEvidence, check_ggn,
                           check_ker_coker, monomial_quadric_ci,
                           perazzo_algebra, perazzo_form, sample_gamma)
from sagakit.lefschetz import SLP, WLP, lefschetz_probe
from sagakit.polyring import (FieldSpec, Polynomial, RATIONAL,
                              max_variable_index, monomial_basis,
                              monomial_str, parse_poly)

from oracles import (boxed, boxed_mul_map, boxed_multiply, boxed_power,
                     columns_from_classes, echelon_of, eval_at,
                     inverse_system_hilbert, is_standard_by_rank,
                     matrix_map_rank)
from test_cli import PERAZZO_DEN5, QUADRIC_CI5


def poly(text, n, field=RATIONAL):
    return parse_poly(text, n, field)


def gens(texts, n, field=RATIONAL):
    return [parse_poly(t, n, field) for t in texts]


SQUARES = ["x0^2", "x1^2", "x2^2", "x3^2", "x4^2"]


class TestFromInverseSystem:
    def test_perazzo_hilbert(self, perazzo_alg):
        assert perazzo_alg.hilbert == (1, 5, 5, 1)
        assert perazzo_alg.socle_degree == 3

    def test_single_variable_power(self):
        a = from_inverse_system(poly("x0^4", 1))
        assert a.hilbert == (1, 1, 1, 1, 1)
        assert a.socle_degree == 4

    def test_binary_product(self):
        # oracle: catalecticant ranks computed symbolically
        assert inverse_system_hilbert("x0*x1", 2) == [1, 2, 1]
        a = from_inverse_system(poly("x0*x1", 2))
        assert a.hilbert == (1, 2, 1)

    def test_zero_form_rejected(self):
        with pytest.raises(AlgebraError):
            from_inverse_system(Polynomial.zero(3))

    @pytest.mark.parametrize("text,p", [("x0^3 + x1^3 + x2^3", 3),
                                        ("x0^2 + x1^2", 2),
                                        ("x0^4 + x1^4 + x0*x1^3", 3)])
    def test_form_with_no_socle_mod_p_rejected(self, text, p):
        # x^e sends the form to e! times its x^e coefficient, 0 mod p here
        form = parse_poly(text, max_variable_index(text) + 1,
                          FieldSpec.prime(p))
        d = form.homogeneous_degree()
        with pytest.raises(AlgebraError) as info:
            from_inverse_system(form)
        assert str(info.value) == (
            f"no degree-{d} socle over fp:{p}: each term has an exponent "
            f">= {p}, so every degree-{d} contraction of the form is 0")

    def test_squarefree_form_mod_two_builds(self):
        form = parse_poly("x0*x1*x2", 3, FieldSpec.prime(2))
        assert from_inverse_system(form).hilbert == (1, 3, 3, 1)

    def test_dims_match_catalecticant_ranks(self, perazzo_f, perazzo_alg):
        for i in range(4):
            rank = echelon_of(boxed(perazzo_f.field,
                                     *catalecticant(perazzo_f, i))).rank
            assert perazzo_alg.hilbert[i] == rank


class TestFromRegularSequence:
    def test_monomial_ci(self, monomial_ci):
        assert monomial_ci.hilbert == (1, 5, 10, 10, 5, 1)
        assert monomial_ci.socle_degree == 5

    def test_expected_series(self):
        # (1+t)^5 expanded
        assert expected_ci_hilbert([2] * 5) == [comb(5, i) for i in range(6)]
        assert expected_ci_hilbert([2] * 4) == [1, 4, 6, 4, 1]

    def test_expected_series_counts_monomial_ci_classes(self):
        # the monomial CI prod x_k^(e_k) has the monomials x^a with every
        # a_k < e_k as its basis, so h_i counts those with sum(a) = i
        rng = random.Random(21)
        for _ in range(40):
            degrees = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            counts = Counter(map(sum, product(*map(range, degrees))))
            want = [counts[i] for i in range(sum(degrees) - len(degrees) + 1)]
            assert expected_ci_hilbert(degrees) == want

    def test_missing_variable_rejected(self):
        bad = gens(["x0^2", "x0*x1", "x1^2", "x2^2", "x3^2"], 5)
        with pytest.raises(NotRegularSequence) as err:
            from_regular_sequence(bad)
        assert err.value.degree >= 2

    def test_fermat_cubic_surface_jacobian(self):
        a = from_regular_sequence(gens(["3*x0^2", "3*x1^2", "3*x2^2",
                                        "3*x3^2"], 4))
        assert a.hilbert == (1, 4, 6, 4, 1)

    def test_wrong_count_rejected(self):
        with pytest.raises(AlgebraError):
            from_regular_sequence(gens(["x0^2", "x1^2"], 3))

    def test_mixed_degrees(self):
        a = from_regular_sequence(gens(["x0^2", "x1^3", "x2^2"], 3))
        assert a.socle_degree == 4
        assert a.hilbert == tuple(expected_ci_hilbert([2, 3, 2]))
        assert a.hilbert == a.hilbert[::-1]

    def test_prime_field(self):
        f101 = FieldSpec.prime(101)
        a = from_regular_sequence(gens(SQUARES, 5, f101))
        assert a.hilbert == (1, 5, 10, 10, 5, 1)


class TestRandomElement:
    def test_seeded_draw_is_pinned(self):
        a = from_regular_sequence(gens(["x0^2", "x1^2", "x2^2"], 3))
        # the first draw, (0, 0, 0), is rejected and drawn again
        e = a.random_element(2, random.Random(2), low=0, high=1)
        assert e.coords == (1, 0, 1)

    def test_nonzero_draw_from_an_empty_piece_raises(self):
        a = from_regular_sequence(gens(["x0^2", "x1^2", "x2^2"], 3))
        with pytest.raises(AlgebraError):
            a.random_element(a.socle_degree + 1, random.Random(0))
        assert a.random_element(a.socle_degree + 1, random.Random(0),
                                nonzero=False).coords == ()


class TestReduce:
    def test_generators_reduce_to_zero(self, monomial_ci):
        for text in SQUARES:
            assert monomial_ci.reduce(poly(text, 5)).is_zero

    def test_perazzo_basis_vector(self, perazzo_alg):
        # the pinned degree-2 basis lists x0*x3 (as operator y0y3) fourth
        e = perazzo_alg.reduce(poly("x0*x3", 5))
        assert e.coords == (0, 0, 0, 1, 0)

    def test_socle_identifications(self, perazzo_alg):
        classes = [perazzo_alg.reduce(poly(t, 5))
                   for t in ("x0*x3^2", "x1*x3*x4", "x2*x4^2")]
        assert classes[0] == classes[1] == classes[2]
        assert classes[0].coords == (1,)

    def test_zero_needs_degree(self, monomial_ci):
        with pytest.raises(AlgebraError):
            monomial_ci.reduce(Polynomial.zero(5))
        assert monomial_ci.reduce(Polynomial.zero(5), degree=2).is_zero

    def test_reduce_then_lift_is_projection(self, monomial_ci):
        rng = random.Random(2)
        basis = monomial_basis(5, 3)
        p = Polynomial(5, RATIONAL, {m: rng.randint(-4, 4) for m in basis})
        e = monomial_ci.reduce(p)
        assert monomial_ci.reduce(monomial_ci.lift(e), degree=3) == e


class TestMulMap:
    def test_monomial_ci_mu1_x0(self, monomial_ci):
        # brute-force oracle: x0*x0 = 0, x0*xj are 4 distinct basis classes
        x0 = monomial_ci.reduce(poly("x0", 5))
        m = boxed(monomial_ci.field, *monomial_ci.mul_map(x0, 1))
        assert (m.rows, m.cols) == (10, 5)
        assert echelon_of(m).rank == 4

    def test_zero_multiplier(self, monomial_ci):
        zero = monomial_ci.zero_element(1)
        m = boxed(monomial_ci.field, *monomial_ci.mul_map(zero, 2))
        assert all(not e for row in m.entries for e in row)

    def test_perazzo_rank_at_most_four(self, perazzo_alg):
        rng = random.Random(11)
        for _ in range(8):
            x = perazzo_alg.random_element(1, rng)
            rank = echelon_of(
                boxed(perazzo_alg.field, *perazzo_alg.mul_map(x, 1))).rank
            assert rank <= 4

    def test_degree_overflow(self, perazzo_alg):
        x = perazzo_alg.basis(1)[0]
        with pytest.raises(DegreeOverflowError):
            perazzo_alg.mul_map(x, 3)

    def test_bilinearity(self, monomial_ci):
        rng = random.Random(19)
        for _ in range(4):
            a = monomial_ci.random_element(1, rng)
            b = monomial_ci.random_element(1, rng)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = a.scale(Fraction(s)) + b.scale(Fraction(t))
            m_combo = boxed(monomial_ci.field, *monomial_ci.mul_map(combo, 2))
            ma = boxed(monomial_ci.field, *monomial_ci.mul_map(a, 2))
            mb = boxed(monomial_ci.field, *monomial_ci.mul_map(b, 2))
            for i in range(m_combo.rows):
                for j in range(m_combo.cols):
                    assert m_combo.entries[i][j] == \
                        s * ma.entries[i][j] + t * mb.entries[i][j]


class TestPairing:
    def test_monomial_ci_degree_one_permutation(self, monomial_ci):
        ok, *m = monomial_ci.pairing_check(1)
        m = boxed(monomial_ci.field, *m)
        assert ok
        # each x_i pairs with exactly one square-free complement
        for row in m.entries:
            assert sum(1 for e in row if e) == 1

    def test_perazzo_identity(self, perazzo_alg):
        ok, *m = perazzo_alg.pairing_check(1)
        m = boxed(perazzo_alg.field, *m)
        assert ok
        n = len(m.entries)
        assert all(m.entries[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    def test_degree_zero(self, monomial_ci):
        ok, *m = monomial_ci.pairing_check(0)
        m = boxed(monomial_ci.field, *m)
        assert ok
        assert (m.rows, m.cols) == (1, 1)
        assert m.entries[0][0] == 1

    def test_all_degrees(self, monomial_ci, perazzo_alg):
        for algebra in (monomial_ci, perazzo_alg):
            for s in range(algebra.socle_degree + 1):
                assert algebra.pairing_check(s)[0]


class TestQuotientByAnn:
    def test_monomial_ci_by_x0(self, monomial_ci):
        # brute-force: kernel of x0-multiplication is spanned by monomials
        # containing x0, leaving the 4-variable square-free count
        x0 = monomial_ci.reduce(poly("x0", 5))
        q = monomial_ci.quotient_by_ann(x0)
        assert q.socle_degree == 4
        assert q.hilbert == (1, 4, 6, 4, 1)
        for s in range(5):
            assert q.pairing_check(s)[0]

    def test_by_socle_gives_base_field(self, monomial_ci):
        socle = monomial_ci.reduce(poly("x0*x1*x2*x3*x4", 5))
        q = monomial_ci.quotient_by_ann(socle)
        assert q.hilbert == (1,)
        assert q.socle_degree == 0

    def test_perazzo_by_generic_linear(self, perazzo_alg):
        rng = random.Random(4)
        x = perazzo_alg.random_element(1, rng)
        q = perazzo_alg.quotient_by_ann(x)
        assert q.socle_degree == 2
        assert q.hilbert == q.hilbert[::-1]
        assert q.hilbert == (1, 4, 1)
        for s in range(3):
            assert q.pairing_check(s)[0]

    def test_zero_rejected(self, monomial_ci):
        with pytest.raises(AlgebraError):
            monomial_ci.quotient_by_ann(monomial_ci.zero_element(1))


class TestPower:
    def test_power_zero_is_unit(self, monomial_ci):
        x = monomial_ci.reduce(poly("x0 + x1", 5))
        assert monomial_ci.power(x, 0) == monomial_ci.unit()

    def test_perazzo_square_zero_generator(self, perazzo_alg):
        y0 = perazzo_alg.reduce(poly("x0", 5))
        assert perazzo_alg.power(y0, 2).is_zero

    def test_monomial_ci_square(self, monomial_ci):
        x = monomial_ci.reduce(poly("x0 + x1", 5))
        assert monomial_ci.power(x, 2) == \
            monomial_ci.reduce(poly("2*x0*x1", 5))

    def test_exponent_above_socle(self, monomial_ci):
        x = monomial_ci.reduce(poly("x0", 5))
        with pytest.raises(DegreeOverflowError):
            monomial_ci.power(x, 6)


class TestStructuralGates:
    def test_hilbert_symmetry(self, monomial_ci, perazzo_alg):
        assert monomial_ci.hilbert == monomial_ci.hilbert[::-1]
        assert perazzo_alg.hilbert == perazzo_alg.hilbert[::-1]

    def test_standardness(self, monomial_ci, perazzo_alg):
        assert monomial_ci.is_standard()
        assert perazzo_alg.is_standard()

    @pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)])
    def test_algebra_not_generated_in_degree_one(self, field):
        # Hilbert vector (1, 0, 1) in one variable: x0 lies in the ideal and
        # x0^2 does not, so no product of degree-1 classes reaches degree 2
        pieces = [_Piece(0, monomial_basis(1, 0),
                         Echelon(1, field, [], [0], []), field),
                  _Piece(1, monomial_basis(1, 1),
                         Echelon(1, field, [0], [], [[]]), field),
                  _Piece(2, monomial_basis(1, 2),
                         Echelon(1, field, [], [0], []), field)]
        alg = GradedAlgebra(1, field, pieces, {"kind": "hand_made"})
        assert alg.hilbert == (1, 0, 1)
        assert not alg.is_standard()

    def test_random_inverse_systems_are_gorenstein(self):
        rng = random.Random(55)
        basis = monomial_basis(4, 3)
        built = 0
        while built < 3:
            g = Polynomial(4, RATIONAL, {m: rng.randint(-3, 3) for m in basis})
            if g.is_zero:
                continue
            a = from_inverse_system(g)
            built += 1
            assert a.hilbert == a.hilbert[::-1]
            assert a.is_standard()
            for s in range(a.socle_degree + 1):
                assert a.pairing_check(s)[0]


class TestPinnedBasis:
    def test_invalid_basis_rejected(self, perazzo_alg):
        reps = [Polynomial.from_monomial(e) for e in
                [(0, 0, 0, 2, 0)] * 5]
        with pytest.raises(Exception):
            perazzo_alg.with_degree_basis(2, reps)

    @pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)])
    def test_dependent_representatives_name_the_degree(self, field):
        alg = from_inverse_system(poly("x0^3 + x1^3 + x2^3", 3, field))
        with pytest.raises(AlgebraError, match="degree 1 are linearly"):
            alg.with_degree_basis(1, gens(["x0", "x1", "x0 + x1"], 3, field))

    @pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)])
    def test_is_standard_reads_the_table_values(self, field):
        # x0 and x1 are (b0 + b1) / 2 and (b0 - b1) / 2 in this basis, so
        # the degree-0 table columns hold -1 as well as 1: read as 1 they
        # would be dependent.  `is_standard` reads the basis monomials, and
        # the rank definition reads the tables
        alg = from_inverse_system(poly("x0^3 + x1^3 + x2^3", 3, field))
        pinned = alg.with_degree_basis(
            1, gens(["x0 + x1", "x0 - x1", "x2"], 3, field))
        assert is_standard_by_rank(pinned)
        assert pinned.is_standard()
        assert pinned.reduce(poly("x1", 3, field)).coords == tuple(
            field.from_fraction(*v) for v in ((1, 2), (-1, 2), (0, 1)))

    def test_serialization_shape(self, perazzo_alg):
        payload = perazzo_alg.to_json_dict()
        assert payload["hilbert"] == [1, 5, 5, 1]
        assert payload["presentation"]["kind"] == "inverse_system"
        assert payload["basis"][1] == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                       [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                       [0, 0, 0, 0, 1]]
        # pinned degree-2 basis serializes as the five pinned monomials
        assert payload["basis"][2] == [[0, 0, 0, 2, 0], [0, 0, 0, 1, 1],
                                       [0, 0, 0, 0, 2], [1, 0, 0, 1, 0],
                                       [0, 0, 1, 0, 1]]


def test_monomial_ci_pairing_structure(monomial_ci):
    # square-free pairing: x_i * (product of the other four) is the socle
    ok, *m = monomial_ci.pairing_check(1)
    m = boxed(monomial_ci.field, *m)
    assert ok
    deg4 = [frozenset(i for i, e in enumerate(mon) if e)
            for mon in monomial_ci.piece(4).basis_monomials]
    for i, row in enumerate(m.entries):
        for j, entry in enumerate(row):
            expect = i not in deg4[j] and len(deg4[j]) == 4
            assert bool(entry) == expect


def _quadric_ci_fp():
    field = FieldSpec.prime(32003)
    rng = random.Random(32003)
    basis = monomial_basis(5, 2)
    return from_regular_sequence(
        [Polynomial(5, field, {m: rng.randint(-9, 9) for m in basis})
         for _ in range(5)])


def _pin_degree_one(alg):
    """alg with the degree-1 basis x0 + 2*x1, x1, ..., x4 pinned."""
    texts = ["x0 + 2*x1", "x1", "x2", "x3", "x4"]
    return alg.with_degree_basis(1, gens(texts, 5, alg.field))


TABLE_ALGEBRAS = ["monomial_ci", "perazzo", "cube_cone", "quadric_ci_fp",
                  "monomial_ci_ann_x0", "monomial_ci_pinned_degree1",
                  "quadric_ci_fp_pinned_degree1", "perazzo_pinned_socle"]


def _table_algebra(name, monomial_ci, perazzo_alg):
    if name == "monomial_ci":
        return monomial_ci
    if name == "perazzo":
        return perazzo_alg
    if name == "cube_cone":
        return from_inverse_system(
            get_entry("coordinate_cube_cone").polynomials())
    if name == "quadric_ci_fp":
        return _quadric_ci_fp()
    if name == "monomial_ci_ann_x0":
        return monomial_ci.quotient_by_ann(monomial_ci.reduce(poly("x0", 5)))
    if name == "monomial_ci_pinned_degree1":
        return _pin_degree_one(monomial_ci)
    if name == "quadric_ci_fp_pinned_degree1":
        return _pin_degree_one(_quadric_ci_fp())
    socle_rep, = perazzo_alg.piece(3).basis_reps
    return perazzo_alg.with_degree_basis(3, [socle_rep.scale(3)])


@pytest.fixture(scope="module", params=TABLE_ALGEBRAS)
def table_algebra(request, monomial_ci, perazzo_alg):
    return _table_algebra(request.param, monomial_ci, perazzo_alg)


@pytest.mark.parametrize("name", TABLE_ALGEBRAS)
def test_tables_and_pairings_read_the_echelon_without_residual(monkeypatch,
                                                               name):
    # fresh algebras, so every table is built under the patch: the class of
    # x_j * m is read off the pivot rows, and phi off the socle echelon
    alg = _table_algebra(name, from_regular_sequence(monomial_quadric_ci()),
                         perazzo_algebra())

    def refuse(*args):
        raise AssertionError("Echelon.residual inside a product or pairing")

    monkeypatch.setattr(Echelon, "residual", refuse)
    rng = random.Random(12)
    N = alg.socle_degree
    x = alg.random_element(1, rng)
    for k in range(N + 1):
        alg.power(x, k)
    for i in range(N):
        alg.mul_map(x, i)
    assert alg.is_standard()
    assert all(alg.pairing_check(s)[0] for s in range(N + 1))


DEN5_ALGEBRAS = ["den5_q", "den5_fp7", "den5_fp32003", "den5_q_pinned"]


@pytest.fixture(scope="module", params=TABLE_ALGEBRAS + DEN5_ALGEBRAS)
def product_algebra(request, monomial_ci, perazzo_alg):
    """The table algebras and the denominator-5 cubics of _den5_algebras."""
    if request.param in DEN5_ALGEBRAS:
        return _den5_algebras()[DEN5_ALGEBRAS.index(request.param)]
    return _table_algebra(request.param, monomial_ci, perazzo_alg)


class TestTablesMatchPolynomialProducts:
    """Table-based products against reduce(lift(a) * lift(b))."""

    def test_multiply(self, table_algebra):
        alg = table_algebra
        rng = random.Random(7)
        N = alg.socle_degree
        for da in range(N + 1):
            for db in range(N + 1 - da):
                a = alg.random_element(da, rng)
                b = alg.random_element(db, rng)
                want = alg.reduce(alg.lift(a) * alg.lift(b), da + db)
                assert alg.multiply(a, b) == want

    def test_power(self, table_algebra):
        alg = table_algebra
        rng = random.Random(8)
        for _ in range(3):
            x = alg.random_element(1, rng)
            for m in range(alg.socle_degree + 1):
                assert alg.power(x, m) == alg.reduce(alg.lift(x) ** m,
                                                     degree=m)

    def test_mul_map(self, table_algebra):
        alg = table_algebra
        rng = random.Random(9)
        N = alg.socle_degree
        for e in range(N + 1):
            alpha = alg.random_element(e, rng)
            for i in range(N + 1 - e):
                m = boxed(alg.field, *alg.mul_map(alpha, i))
                for c, b in enumerate(alg.basis(i)):
                    want = alg.reduce(alg.lift(alpha) * alg.lift(b), e + i)
                    assert tuple(row[c] for row in m.entries) == want.coords

    def test_mul_map_of_a_power(self, product_algebra):
        # every column of the map of alpha^m against the polynomial oracle
        alg = product_algebra
        rng = random.Random(13)
        N = alg.socle_degree
        for e in range(N + 1):
            alpha = alg.random_element(e, rng)
            for m in range(N // max(e, 1) + 1):
                for i in range(N + 1 - m * e):
                    step = boxed(alg.field, *alg.mul_map(alpha, i, m))
                    for c, b in enumerate(alg.basis(i)):
                        want = alg.reduce(alg.lift(alpha) ** m * alg.lift(b),
                                          i + m * e)
                        assert (tuple(row[c] for row in step.entries)
                                == want.coords)

    def test_mul_map_of_L_is_the_map_of_its_power(self, product_algebra):
        alg = product_algebra
        rng = random.Random(14)
        N = alg.socle_degree
        for _ in range(2):
            L = alg.random_element(1, rng)
            for m in range(N + 1):
                for k in range(N + 1 - m):
                    assert (boxed(alg.field, *alg.mul_map(L, k, m)).entries
                            == boxed(alg.field, *alg.mul_map(alg.power(L, m),
                                                             k)).entries)
        with pytest.raises(AlgebraError):
            alg.mul_map(L, 0, -1)
        with pytest.raises(DegreeOverflowError):
            alg.mul_map(L, 1, N)

    def test_trivial_powers_take_no_table_step(self, monkeypatch,
                                               product_algebra):
        alg = product_algebra

        def refuse(*args):
            raise AssertionError("table step in a trivial power")

        monkeypatch.setattr(algebra_module.GradedAlgebra, "_columns", refuse)
        x = alg.random_element(1, random.Random(15))
        assert alg.power(x, 0) == alg.unit()
        assert alg.power(x, 1) == x
        if alg.field.is_rational:
            # int coordinates come back as normalized Fractions
            ints = alg.element(1, range(1, alg.dim(1) + 1))
            power = alg.power(ints, 1)
            assert power.coords == ints.coords
            assert all(type(c) is Fraction for c in power.coords)

    def test_probe_makes_no_power_call(self, monkeypatch, product_algebra):
        alg = product_algebra

        def refuse(*args):
            raise AssertionError("power inside a probe")

        N = alg.socle_degree
        probes = [(SLP, k) for k in range(N // 2 + 1)] + [(WLP, k)
                                                          for k in range(N)]
        want = [lefschetz_probe(alg, kind, k, trials=2).to_json_dict()
                for kind, k in probes]
        monkeypatch.setattr(algebra_module.GradedAlgebra, "power", refuse)
        assert [lefschetz_probe(alg, kind, k, trials=2).to_json_dict()
                for kind, k in probes] == want

    @pytest.mark.parametrize("name", ["monomial_ci", "perazzo_pinned"])
    def test_products_do_no_polynomial_arithmetic(self, monkeypatch, name):
        # fresh algebras: the session fixtures have their tables built
        alg = (from_regular_sequence(monomial_quadric_ci())
               if name == "monomial_ci" else perazzo_algebra())

        def refuse(*args):
            raise AssertionError("polynomial arithmetic inside a product")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        monkeypatch.setattr(algebra_module.GradedAlgebra, "lift", refuse)
        rng = random.Random(10)
        N = alg.socle_degree
        x = alg.random_element(1, rng)
        alg.power(x, N)
        alg.multiply(x, alg.random_element(N - 1, rng))
        alg.mul_map(x, 1)
        assert alg.is_standard()

    def test_cone_has_fewer_classes_than_variables(self):
        cone = from_inverse_system(
            get_entry("coordinate_cube_cone").polynomials())
        assert cone.n_vars == 5 and cone.dim(1) == 1
        x1 = cone.reduce(poly("x1", 5))
        assert x1.is_zero
        x0 = cone.reduce(poly("x0", 5))
        assert cone.power(x0, 3) == cone.reduce(poly("x0^3", 5))


@cache
def _den5_algebras():
    """The cubic PERAZZO_DEN5 over Q, whose variable tables have
    denominator 5 in degrees 1 and 2, the same with pinned bases whose
    representatives have several terms and fractional coefficients, and the
    cubic over F_7 and F_32003."""
    out = []
    for field in (RATIONAL, FieldSpec.prime(7), FieldSpec.prime(32003)):
        out.append(from_inverse_system(poly(PERAZZO_DEN5, 5, field)))
    alg = out[0].with_degree_basis(1, gens(
        ["x0 + 1/2*x1", "x1", "x2 - 3/4*x4", "x3", "x4"], 5))
    out.append(alg.with_degree_basis(2, gens(
        ["x1*x4 + 1/2*x3^2", "x2*x4", "2/3*x3^2", "x3*x4", "x4^2 - x3*x4"],
        5)))
    return out


def test_den5_tables_have_denominator_five():
    alg = _den5_algebras()[0]
    assert [alg._columns(i)[1] for i in range(3)] == [1, 5, 5]
    # each denominator is the lcm of its entries' denominators, pinned
    # bases included, the columns keep only nonzero entries, and the F_p
    # tables hold residues
    for alg in _den5_algebras():
        p = alg.field.p
        for i in range(alg.socle_degree):
            cols, den = alg._columns(i)
            entries = [t for col in chain(*cols) for _, t in col]
            assert gcd(den, *entries) == 1 and all(entries)
            assert not p or (den == 1 and all(0 < v < p for v in entries))


def test_columns_drop_entries_that_vanish_mod_p():
    # pin x0 + c*x1 with c chosen so that x_j * (x0 + c*x1) is a nonzero
    # multiple of p in one row before reduction: that entry is 0 in F_p
    alg = _quadric_ci_fp()
    p = alg.field.p
    classes, _ = alg.piece(2).classes()
    j, r, u, v = next(
        (j, r, u, v) for j in range(5)
        for r, (u, v) in enumerate(zip(
            classes[tuple((t == 0) + (t == j) for t in range(5))],
            classes[tuple((t == 1) + (t == j) for t in range(5))]))
        if u and v)
    c = -u * pow(v, -1, p) % p
    assert u + c * v and (u + c * v) % p == 0
    pinned = alg.with_degree_basis(1, gens(
        [f"x0 + {c}*x1", "x1", "x2", "x3", "x4"], 5, alg.field))
    cols, den = pinned._columns(1)
    assert den == 1
    assert all(0 < t < p for col in chain(*cols) for _, t in col)
    assert r not in dict(cols[j][0])


@st.composite
def den5_products(draw):
    """(algebra, a, b, x, k): a and b of any degrees whose sum is at most the
    socle degree, x of degree 1 and 0 <= k <= N, with fractional
    coordinates over Q."""
    alg = draw(st.sampled_from(_den5_algebras()))
    coord = (st.fractions(-9, 9, max_denominator=7) if alg.field.is_rational
             else st.integers(-40, 40))

    def element(d):
        return alg.element(d, draw(st.lists(coord, min_size=alg.dim(d),
                                            max_size=alg.dim(d))))

    N = alg.socle_degree
    da = draw(st.integers(0, N))
    a, b = element(da), element(draw(st.integers(0, N - da)))
    return alg, a, b, element(1), draw(st.integers(0, N))


@given(den5_products())
@settings(max_examples=200, deadline=None)
def test_int_products_match_polynomial_products(case):
    alg, a, b, x, k = case
    product, power = alg.multiply(a, b), alg.power(x, k)
    assert product == alg.reduce(alg.lift(a) * alg.lift(b),
                                 a.degree + b.degree)
    assert power == alg.reduce(alg.lift(x) ** k, degree=k)
    assert list(product.coords) == boxed(
        alg.field, *alg.mul_map(a, b.degree)).mul_vector(b.coords)
    kind = Fraction if alg.field.is_rational else int
    assert all(type(c) is kind for c in product.coords + power.coords)
    if alg.field.p:
        assert all(0 <= c < alg.field.p
                   for c in product.coords + power.coords)


# a quadric CI over Q that is not one modulo 3: (x0^2, x0*x1) is not regular
MISS_AT_3 = ["x0^2 + x2^2", "x0*x1 + 3*x1^2", "x2^2 - x1*x2"]


class TestModularFirst:
    def test_non_artinian_rejected(self):
        # Hilbert function (1, 2, 1) matches the CI series, but x1^k survives
        for field in (RATIONAL, FieldSpec.prime(101)):
            with pytest.raises(NotRegularSequence) as err:
                from_regular_sequence(gens(["x0*x1", "x0^2"], 2, field))
            assert (err.value.degree, err.value.expected,
                    err.value.found) == (3, 0, 1)

    def test_non_artinian_with_one_dimensional_degree_one(self):
        # series (1, 1) through N = 1; the quotient is k[x1], so h_2 = 1
        with pytest.raises(NotRegularSequence) as err:
            from_regular_sequence(gens(["x0", "x0*x1"], 2))
        assert (err.value.degree, err.value.expected,
                err.value.found) == (2, 0, 1)
        assert from_regular_sequence(gens(["x0", "x1^2"], 2)).hilbert == (1, 1)

    def test_hit_keeps_shadow_and_defers_pieces(self, monkeypatch):
        built = []
        real = algebra_module.echelon_rows

        def counting(rows, ncols, field):
            built.append((ncols, field.is_rational))
            return real(rows, ncols, field)

        monkeypatch.setattr(algebra_module, "echelon_rows", counting)
        a = from_regular_sequence(gens(MISS_AT_3, 3))
        assert a.shadow is not None
        assert a.shadow.field == FieldSpec.prime(algebra_module.SHADOW_PRIME)
        assert a.shadow.hilbert == a.hilbert == (1, 3, 3, 1)
        assert not any(rational for _, rational in built)
        # the F5 rows of degree 2 need the Q leading monomials of degrees 0, 1
        a.piece(2)
        assert [n for n, rational in built if rational] == [1, 3, 6]

    def test_miss_builds_eagerly_without_shadow(self, monkeypatch):
        hit = from_regular_sequence(gens(MISS_AT_3, 3))
        monkeypatch.setattr(algebra_module, "SHADOW_PRIME", 3)
        miss = from_regular_sequence(gens(MISS_AT_3, 3))
        assert miss.shadow is None
        assert miss.to_json_dict() == hit.to_json_dict()
        # a generator that vanishes mod p is a miss too
        assert from_regular_sequence(
            gens(["3*x0^2", "x1^2"], 2)).shadow is None

    def test_derived_algebras_carry_no_shadow(self):
        a = from_regular_sequence(gens(MISS_AT_3, 3))
        x0 = a.reduce(poly("x0", 3))
        assert a.quotient_by_ann(x0).shadow is None
        reps = [poly(t, 3) for t in ("x0", "x1", "x2")]
        assert a.with_degree_basis(1, reps).shadow is None

    def test_map_rank_reads_the_class_mod_p_or_over_q(self, monkeypatch):
        # the map ranked mod p is that of the class's image there; a class
        # whose lift has p in a denominator is ranked over Q
        a = from_regular_sequence(gens(MISS_AT_3, 3))
        p = algebra_module.SHADOW_PRIME
        ranked = []
        real = GradedAlgebra.mul_map

        def recording(self, alpha, i, m=1):
            ranked.append((str(self.field), alpha))
            return real(self, alpha, i, m)

        monkeypatch.setattr(GradedAlgebra, "mul_map", recording)
        e = a.element(1, [-3, 32004, Fraction(1, 2)])
        assert a.map_rank(e, 1) == a.dim(1)
        assert ranked == [(f"fp:{p}", a.shadow.element(
            1, [-3, 1, Fraction(1, 2)]))]
        f = a.element(1, [Fraction(1, p), 0, 0])
        want = matrix_map_rank(a, 1, 1, f)
        ranked.clear()
        assert a.map_rank(f, 1) == want
        assert ranked == [("rational", f)]

    def test_shadow_image_is_the_reduced_lift(self, monkeypatch):
        # the image read from the class's ints equals the lift reduced mod p
        # in the shadow, None for a class whose lift has p in a denominator
        a = from_regular_sequence(gens(MISS_AT_3, 3))
        p = algebra_module.SHADOW_PRIME
        rng = random.Random(3)
        cases = []
        for d in range(a.socle_degree + 1):
            h = a.dim(d)
            coords = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(h)] for _ in range(4)]
            coords += [[Fraction(1, p)] + [0] * (h - 1),
                       [Fraction(p + 1, 2 * p)] + [1] * (h - 1),
                       [p + 1] * h]
            for c in coords:
                e = a.element(d, c)
                poly = _mod_prime(a.lift(e), a.shadow.field)
                want = None if poly is None else a.shadow.reduce(poly, d)
                cases.append((e, want))
        assert sum(want is None for _, want in cases) == 8
        # the image is read without a lift
        monkeypatch.setattr(GradedAlgebra, "lift", None)
        for e, want in cases:
            assert a._shadow_image(e) == want

    def test_other_basis_monomials_mod_p_rank_over_q(self, monkeypatch):
        # the minor of x0^2, x0*x1 in degree 2 is p, so degree 2 has the
        # basis monomial x1^2 over Q and x0*x1 mod p: its classes have no
        # image, and their maps are ranked over Q
        p = algebra_module.SHADOW_PRIME
        a = from_regular_sequence(gens(
            ["x0^2 + x0*x1", f"x0^2 + {p + 1}*x0*x1 + x1^2"], 2))
        assert (a.piece(2).basis_monomials, a.shadow.piece(2).basis_monomials
                ) == ([(0, 2)], [(1, 1)])
        calls = _count_echelons(monkeypatch)
        top = a.element(2, [3])
        assert a._shadow_image(top) is None
        assert a.map_rank(top, 0) == 1
        x = a.element(1, [1, 2])
        assert a._shadow_image(x) == a.shadow.element(1, [1, 2])
        assert a.map_rank(x, 1) == 1
        # the degree-2 map is ranked over Q, the degree-1 one mod p only
        assert [len(calls[flag]) for flag in (False, True)] == [1, 1]

    def test_pinned_and_quotient_algebras_rank_over_q(self):
        # only a built algebra keeps the shadow: a pinned basis or a quotient
        # has coordinates of its own, ranked over Q
        a = from_regular_sequence(gens(MISS_AT_3, 3))
        p = algebra_module.SHADOW_PRIME
        pinned = a.with_degree_basis(1, gens(["x0 + 2*x1", "x1", "x2"], 3))
        for alg in (pinned, a.quotient_by_ann(a.element(1, [1, 2, 3]))):
            assert alg.shadow is None
            h = alg.dim(1)
            for c in ([1] + [0] * (h - 1), [Fraction(1, p)] + [1] * (h - 1)):
                e = alg.element(1, c)
                assert alg.map_rank(e, 1) == matrix_map_rank(alg, 1, 1, e)


F32003 = FieldSpec.prime(32003)


@st.composite
def generator_sequences(draw):
    """n forms in n variables, 2 <= n <= 5, over F_2, F_3, F_7, F_101,
    F_32003 or Q, with mixed degrees: dense or sparse random forms (regular
    for most draws), one form a multiple of another (not regular), or no
    form with a pure power of x0 (the point (1, 0, ..., 0) is a common zero,
    so not Artinian)."""
    field = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(3),
                                  FieldSpec.prime(7), FieldSpec.prime(101),
                                  F32003, RATIONAL]))
    n = draw(st.integers(2, 4 if field.is_rational else 5))
    top = {2: 4, 3: 3, 4: 3, 5: 2}[n]
    degrees = draw(st.lists(st.integers(1, top), min_size=n, max_size=n)
                   .filter(lambda ds: sum(d - 1 for d in ds) <= 8 - n))
    coeff = st.integers(-3, 3).map(field.from_int)
    forms = []
    for k, d in enumerate(degrees):
        terms = {m: draw(coeff) for m in monomial_basis(n, d)}
        f = Polynomial(n, field, terms)
        if f.is_zero:
            f = Polynomial.from_monomial(
                tuple(d if j == k else 0 for j in range(n)), field)
        forms.append(f)
    kind = draw(st.sampled_from(["dense", "multiple", "no x0 power"]))
    if kind == "multiple":
        j = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1).filter(lambda k: k != j))
        linear = {m: draw(coeff) for m in monomial_basis(n, 1)}
        linear[tuple(int(i == k) for i in range(n))] = field.one()
        forms[k] = Polynomial(n, field, linear) * forms[j]
        degrees[k] = degrees[j] + 1
    elif kind == "no x0 power":
        for k, d in enumerate(degrees):
            terms = {m: c for m, c in forms[k].terms.items()
                     if m[0] != d}
            if not terms:
                terms = {(d - 1, 1) + (0,) * (n - 2): field.one()}
            forms[k] = Polynomial(n, field, terms)
    return forms, degrees


def _all_rows_echelon(forms, degrees, i):
    """The echelon of every Macaulay row of degree i, none skipped."""
    ambient, rows, _ = _macaulay_rows(forms, degrees, i,
                                      [[()] * i for _ in forms])
    return echelon_rows(rows, len(ambient), forms[0].field)


def _all_rows_build(forms, degrees, expected):
    """Echelons from every Macaulay row, and the (degree, expected, found) of
    the first failing check, or None."""
    echelons = []
    for i, h in enumerate(expected):
        ech = _all_rows_echelon(forms, degrees, i)
        if len(ech.nonpivots) != h:
            return echelons, (i, h, len(ech.nonpivots))
        echelons.append(ech)
    top = len(_all_rows_echelon(forms, degrees, len(expected)).nonpivots)
    return echelons, (len(expected), 0, top) if top else None


@given(generator_sequences())
@settings(max_examples=150, deadline=None)
def test_skipped_rows_build_the_same_echelon(case):
    forms, degrees = case
    expected = expected_ci_hilbert(degrees)
    echelons, failure = _all_rows_build(forms, degrees, expected)
    builds = [lambda: _checked_regular_sequence(forms, degrees, expected)]
    if forms[0].field.is_rational:
        # a hit mod SHADOW_PRIME builds the Q pieces lazily
        builds.append(lambda: from_regular_sequence(forms))
    for build in builds:
        try:
            algebra = build()
        except NotRegularSequence as err:
            assert (err.degree, err.expected, err.found) == failure
            continue
        assert failure is None
        for i, want in enumerate(echelons):
            got = algebra.piece(i).echelon
            assert (got.pivots, got.nonpivots, got.coeffs, got.den) == (
                want.pivots, want.nonpivots, want.coeffs, want.den)


@given(generator_sequences().filter(lambda case: case[0][0].field.p))
@settings(max_examples=100, deadline=None)
def test_fp_pieces_equal_the_full_echelon_past_a_failure(case):
    # the pieces read off the degree below equal the echelon of every
    # Macaulay row through degree N + 1, regular or not
    forms, degrees = case
    N = sum(d - 1 for d in degrees)
    for i, piece in enumerate(islice(_fp_pieces(forms, degrees), N + 2)):
        got, want = piece.echelon, _all_rows_echelon(forms, degrees, i)
        assert (got.ncols, got.pivots, got.nonpivots, got.coeffs,
                got.den) == (want.ncols, want.pivots, want.nonpivots,
                             want.coeffs, want.den)


def _ci6_fp_style():
    # six quadrics in six variables, every coefficient nonzero in -9..9
    rng = random.Random(6)
    choices = [v for v in range(-9, 10) if v]
    return [Polynomial(6, F32003, {m: rng.choice(choices)
                                   for m in monomial_basis(6, 2)})
            for _ in range(6)]


REGULAR = {"quadric_ci5": lambda: gens(QUADRIC_CI5.split(";"), 5, F32003),
           "ci6_fp_style": _ci6_fp_style,
           "quadric_ci5_q": lambda: gens(QUADRIC_CI5.split(";"), 5)}


def _count_echelons(monkeypatch):
    """(rows, rank, columns) of every echelon the algebra module runs, split
    by field: True for Q, False for F_p."""
    calls = {False: [], True: []}
    real = algebra_module.echelon_rows

    def counting(rows, ncols, field):
        ech = real(rows, ncols, field)
        calls[field.is_rational].append((len(rows), ech.rank, ncols))
        return ech

    monkeypatch.setattr(algebra_module, "echelon_rows", counting)
    return calls


@pytest.mark.parametrize("name", ["quadric_ci5_q"])
def test_kept_rows_equal_the_rank(monkeypatch, name):
    # for a regular sequence no kept Macaulay row over Q reduces to zero
    forms = REGULAR[name]()
    calls = _count_echelons(monkeypatch)
    a = from_regular_sequence(forms)
    # the F_p shadow is built first and the Q pieces on first read
    a.to_json_dict()
    n = len(forms)
    assert len(calls[True]) == a.socle_degree + 1
    for i, (kept, rank, ncols) in enumerate(calls[True]):
        assert kept == rank == ncols - a.hilbert[i]
    # every Macaulay row of the socle degree would be
    # n * C(n + N - 3, N - 2)
    assert calls[True][-1][0] < n * comb(n + a.socle_degree - 3,
                                         a.socle_degree - 2)


@pytest.mark.parametrize("name", ["quadric_ci5", "ci6_fp_style",
                                  "quadric_ci5_q"])
def test_fp_echelons_read_off_the_degree_below(monkeypatch, name):
    # over F_p, degree i is one echelon over S, the products of the variables
    # with the basis monomials of degree i - 1, on the products of the
    # variables with the reduced rows of degree i - 1 and the generators of
    # degree i; degree 0 needs none
    forms = REGULAR[name]()
    calls = _count_echelons(monkeypatch)
    a = from_regular_sequence(forms)
    fp = a if a.shadow is None else a.shadow
    n = len(forms)
    degrees = [f.homogeneous_degree() for f in forms]
    variables = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    # the last echelon is the rank of the pairing A_1 x A_(N-1) that proves
    # the quotient Artinian
    *pieces, pairing = calls[False]
    h1 = fp.dim(1)
    assert pairing == (h1, h1, fp.dim(fp.socle_degree - 1))
    assert len(pieces) == fp.socle_degree
    for i, (nrows, rank, ncols) in enumerate(pieces, start=1):
        below = fp.piece(i - 1)
        S = {tuple(map(add, m, x)) for m in below.basis_monomials
             for x in variables}
        assert ncols == len(S) <= n * fp.hilbert[i - 1]
        assert rank == len(S) - fp.hilbert[i]
        assert nrows <= n * below.echelon.rank + degrees.count(i)


def _fp_echelons_by_degree(calls, forms, top):
    """(piece, echelons) for each degree 1..top of `_fp_pieces`: the piece
    and the (rows, rank, columns) of each F_p echelon run while it was built,
    recorded in calls by `_count_echelons`."""
    pieces = _fp_pieces(forms, [f.homogeneous_degree() for f in forms])
    next(pieces)
    out = []
    for _ in range(top):
        calls[False].clear()
        out.append((next(pieces), list(calls[False])))
    return out


def test_fp_rows_keep_one_per_chain_component(monkeypatch):
    # of the products x_j * r_m, only one row per leading monomial and chain
    # component is a candidate: on six dense quadrics in six variables
    # degrees 4, 5 and 6 would have 165, 480 and 1045 candidates without the
    # criterion.  Each degree stops at its certified rank, so only
    # rank-many candidates reach the echelon
    forms = _ci6_fp_style()
    calls = _count_echelons(monkeypatch)
    from_regular_sequence(forms)
    pieces = calls[False][:-1]
    assert [nrows for nrows, _, _ in pieces] == [0, 6, 30, 60, 60, 30]
    assert [rank for _, rank, _ in pieces] == [0, 6, 30, 60, 60, 30]
    # with every CI value read as 0 no degree can stop below |S|, and the
    # last echelon of each degree reads every candidate
    monkeypatch.setattr(algebra_module, "expected_ci_hilbert",
                        lambda degrees: [])
    assert [echelons[-1][0] for _, echelons in _fp_echelons_by_degree(
        calls, forms, 6)] == [0, 6, 30, 95, 130, 93]


# a regular sequence over F_7 whose first rank-many candidates of degree 4
# fall short of the certified rank
SHORT_HEAD_F7 = ["2*x0*x1", "6*x0^2 + x0*x2 + 3*x1^2 + 5*x1*x2",
                 "2*x0^2*x1 + 4*x0*x1^2 + 5*x0*x1*x2 + x0*x2^2 + 6*x1*x2^2"
                 " + 5*x2^3"]


@pytest.mark.parametrize("name, fallbacks", [("ci6_fp_style", []),
                                             ("short_head_f7", [4])])
def test_fp_degrees_stop_at_the_certified_rank_or_fall_back(monkeypatch, name,
                                                            fallbacks):
    # a degree whose first |S| - CI_i candidates have that rank stops there;
    # any other runs a second echelon over every candidate.  Both give the
    # echelon of every Macaulay row, through degree N + 1
    forms = (gens(SHORT_HEAD_F7, 3, FieldSpec.prime(7))
             if name == "short_head_f7" else _ci6_fp_style())
    degrees = [f.homogeneous_degree() for f in forms]
    assert from_regular_sequence(forms).hilbert == tuple(
        expected_ci_hilbert(degrees))
    calls = _count_echelons(monkeypatch)
    N = sum(d - 1 for d in degrees)
    seen = []
    for i, (piece, echelons) in enumerate(
            _fp_echelons_by_degree(calls, forms, N + 1), start=1):
        got, want = piece.echelon, _all_rows_echelon(forms, degrees, i)
        assert (got.pivots, got.nonpivots, got.coeffs) == (
            want.pivots, want.nonpivots, want.coeffs)
        (nrows, rank, ncols), *fallback = echelons
        if fallback:
            # the first rows fell short and the second echelon read more
            (more, full, _), = fallback
            assert rank < full == ncols - piece.dim and more > nrows
            seen.append(i)
        else:
            assert nrows == rank == ncols - piece.dim
    assert seen == fallbacks


@pytest.mark.parametrize("n", range(1, 6))
def test_step_maps_are_the_exponent_arithmetic(n):
    # up and down read by position what multiplying and dividing by a
    # variable does to the exponent tuples of monomial_basis
    assert monomial_steps(n, 0) == ({(0,) * n: 0}, [], [])
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for i in range(1, 7):
        index, up, down = monomial_steps(n, i)
        ambient, below = monomial_basis(n, i), monomial_basis(n, i - 1)
        assert index == {m: c for c, m in enumerate(ambient)}
        assert up == [tuple(index[tuple(map(add, m, x_j))] for x_j in units)
                      for m in below]
        assert len(down) == len(ambient)
        for c, m in enumerate(ambient):
            j = min(k for k, e in enumerate(m) if e)
            quotient = tuple(e - (k == j) for k, e in enumerate(m))
            assert down[c] == (j, below.index(quotient))


def _dense_quartic5(field):
    # a quartic in five variables with every coefficient nonzero in -3..3
    rng = random.Random(4)
    choices = [v for v in range(-3, 4) if v]
    return from_inverse_system(Polynomial(
        5, field, {m: rng.choice(choices) for m in monomial_basis(5, 4)}))


def _quadric_ci5_ann():
    alg = from_regular_sequence(gens(QUADRIC_CI5.split(";"), 5))
    return alg.quotient_by_ann(alg.reduce(poly("x0 + 2*x1 - x4", 5)))


CLASS_TABLE_ALGEBRAS = {
    "quadric_ci5_shadow": lambda: from_regular_sequence(
        gens(QUADRIC_CI5.split(";"), 5)).shadow,
    "quadric_ci5_q": lambda: from_regular_sequence(
        gens(QUADRIC_CI5.split(";"), 5)),
    "ci6_fp_style": lambda: from_regular_sequence(_ci6_fp_style()),
    "perazzo": lambda: from_inverse_system(perazzo_form()),
    "dense_quartic5_q": lambda: _dense_quartic5(RATIONAL),
    "dense_quartic5_fp": lambda: _dense_quartic5(F32003),
    "quadric_ci5_q_ann": _quadric_ci5_ann,
}


@pytest.mark.parametrize("name", CLASS_TABLE_ALGEBRAS)
def test_tables_are_the_tables_of_the_classes(name):
    # the tables read off the echelon of the degree above equal those built
    # from the classes of every monomial there, for every constructor
    alg = CLASS_TABLE_ALGEBRAS[name]()
    for i in range(alg.socle_degree):
        assert alg._columns(i) == columns_from_classes(alg, i)


def _pin_first_class(alg, d):
    """alg with degree d's first basis representative b0 pinned as
    b0 + 2*b1."""
    reps = list(alg.piece(d).basis_reps)
    reps[0] = reps[0] + reps[1].scale(2)
    return alg.with_degree_basis(d, reps)


@pytest.mark.parametrize("field", ["fp", "q"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pinned_tables_are_the_tables_of_the_classes(field, d):
    # pinning degree d changes the tables into and out of it, and every
    # table equals the one built from the pinned classes
    built = (_quadric_ci_fp() if field == "fp"
             else from_regular_sequence(gens(QUADRIC_CI5.split(";"), 5)))
    alg = _pin_first_class(built, d)
    for i in range(alg.socle_degree):
        want = columns_from_classes(alg, i)
        assert alg._columns(i) == want
        assert (want == built._columns(i)) == (i not in (d - 1, d))


def _pairing_cases(monomial_ci, perazzo_alg):
    x0 = monomial_ci.reduce(poly("x0 + 2*x1 - x4", 5))
    generic = perazzo_alg.reduce(poly("x0 + 2*x1 + 3*x2 + 4*x3 + 5*x4", 5))
    return {
        "monomial_ci": monomial_ci,
        "perazzo_pinned": perazzo_alg,
        "perazzo_pinned_socle": perazzo_alg.with_degree_basis(
            3, [poly("3*x0*x3^2 - x2*x4^2", 5)]),
        "quotient_by_ann": monomial_ci.quotient_by_ann(x0),
        "perazzo_quotient": perazzo_alg.quotient_by_ann(generic),
        "quadric_ci_fp": _quadric_ci_fp(),
    }


@pytest.mark.parametrize("name", ["monomial_ci", "perazzo_pinned",
                                  "perazzo_pinned_socle", "quotient_by_ann",
                                  "perazzo_quotient", "quadric_ci_fp"])
def test_pairing_reads_socle_coordinates_of_products(monomial_ci, perazzo_alg,
                                                     name):
    alg = _pairing_cases(monomial_ci, perazzo_alg)[name]
    N = alg.socle_degree
    for s in range(N + 1):
        ok, *m = alg.pairing_check(s)
        m = boxed(alg.field, *m)
        assert ok
        assert m.entries == [[alg.multiply(a, b).coords[0]
                              for b in alg.basis(N - s)]
                             for a in alg.basis(s)]
        assert m.entries == _boxed_pairing(alg, s)


def _boxed_pairing(alg, s):
    """The pairing matrix in field arithmetic, one boxed product per pair of
    terms: phi(r_a * r_b), phi the socle coordinate on the top monomials."""
    top = alg.piece(alg.socle_degree)
    phi, = boxed(alg.field, top.echelon.kernel_ints(),
                 top.echelon.den).entries
    if top.basis_inverse is not None:
        ((scale,),), den = top.basis_inverse
        phi = [alg.field.coerce(alg.field.from_fraction(scale, den) * v)
               for v in phi]
    return [[alg.field.coerce(sum(
                (c * c2 * phi[top.index[tuple(map(add, m, m2))]]
                 for m, c in a.terms.items() for m2, c2 in b.terms.items()),
                alg.field.zero()))
             for b in alg.piece(alg.socle_degree - s).basis_reps]
            for a in alg.piece(s).basis_reps]


@given(st.sampled_from([RATIONAL, FieldSpec.prime(5), F32003]),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)),
                min_size=10, max_size=10),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_int_pairing_equals_boxed_pairing(field, coeffs, pin):
    # a cubic in three variables with fractional coefficients over Q, and
    # optionally a pinned socle representative with a scaled coordinate
    terms = {m: field.from_fraction(num, den) for m, (num, den)
             in zip(monomial_basis(3, 3), coeffs)}
    form = Polynomial(3, field, terms)
    try:
        alg = from_inverse_system(form)
    except AlgebraError:
        return
    if pin:
        rep = alg.piece(3).basis_reps[0].scale(field.from_fraction(3, 2))
        alg = alg.with_degree_basis(3, [rep])
    for s in range(alg.socle_degree + 1):
        entries = boxed(field, *alg.pairing_check(s)[1:]).entries
        assert entries == _boxed_pairing(alg, s)
        assert all(type(v) is type(field.one()) for row in entries
                   for v in row)
        if field.p:
            # the int rows are residues over 1, as mul_map's are
            _, rows, den = alg.pairing_check(s)
            assert den == 1 and all(0 <= v < field.p for row in rows
                                    for v in row)


class TestElementArithmetic:
    def test_mismatched_dimensions_raise(self):
        three = from_inverse_system(poly("x0*x1*x2", 3)).element(1, [1, 2, 3])
        one = from_inverse_system(poly("x0^3", 1)).element(1, [1])
        for op in (three.__add__, three.__sub__):
            with pytest.raises(AlgebraError, match="dimensions 3 and 1"):
                op(one)

    def test_mismatched_fields_raise(self):
        q, f7 = (from_inverse_system(poly("x0*x1*x2", 3, field)).element(
            1, [1, 2, 3]) for field in (RATIONAL, FieldSpec.prime(7)))
        for op in (q.__add__, q.__sub__):
            with pytest.raises(AlgebraError, match="over rational and fp:7"):
                op(f7)

    @pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7)])
    def test_sum_difference_and_scale_are_coordinatewise(self, field):
        alg = from_inverse_system(poly("x0*x1*x2", 3, field))
        a = alg.element(1, [Fraction(1, 2), 0, -3])
        b = alg.element(1, [Fraction(3, 4), 5, Fraction(1, 6)])
        assert (a + b).coords == tuple(field.coerce(u + v) for u, v in
                                       zip(a.coords, b.coords))
        assert (a - b).coords == tuple(field.coerce(u - v) for u, v in
                                       zip(a.coords, b.coords))
        half = field.coerce(Fraction(2, 3))
        assert a.scale(Fraction(2, 3)).coords == tuple(
            field.coerce(half * u) for u in a.coords)
        assert (a - a).is_zero and a - a == alg.zero_element(1)

    def test_elements_over_different_fields_are_unequal(self):
        q, f7, f11 = (from_inverse_system(poly("x0*x1*x2", 3, field)).element(
            1, [1, 2, 3]) for field in (RATIONAL, FieldSpec.prime(7),
                                        FieldSpec.prime(11)))
        # equal residues over F_7 and F_11, equal coordinates over Q and F_7
        assert f7.ints == f11.ints and q.coords == f7.coords
        assert f7 != f11 and f11 != f7
        assert q != f7 and f7 != q


def _is_residue(v, p):
    return type(v) is int and 0 <= v < p


@st.composite
def residue_cases(draw):
    """(field, f, g, point, rows, vec, seed): over F_2, F_3, F_7 or F_32003,
    two cubics in three variables parsed from text with int and fractional
    coefficients, a point with negative and fractional entries, an
    unreduced 3x3 int matrix with a vector, and a seed for element
    coordinates."""
    p = draw(st.sampled_from([2, 3, 7, 32003]))
    field = FieldSpec.prime(p)
    value = st.one_of(
        st.integers(-40000, 40000),
        st.builds(Fraction, st.integers(-50, 50),
                  st.integers(1, 4).filter(lambda d: d % p)))

    def text():
        terms = []
        for m in monomial_basis(3, 3):
            c = Fraction(draw(st.one_of(st.just(0), value)))
            if c:
                terms.append(f"{'-' if c < 0 else '+'} {abs(c.numerator)}/"
                             f"{c.denominator}*{monomial_str(m)}")
        return " ".join(terms) or "0"

    f, g = (parse_poly(text(), 3, field) for _ in range(2))
    point = draw(st.lists(value, min_size=3, max_size=3))
    entry = st.integers(-2 * p, 2 * p)
    rows = draw(st.lists(st.lists(entry, min_size=3, max_size=3),
                         min_size=3, max_size=3))
    vec = draw(st.lists(entry, min_size=3, max_size=3))
    return field, f, g, point, rows, vec, draw(st.integers(0, 2 ** 16))


@given(residue_cases())
@settings(max_examples=80, deadline=None)
@example((FieldSpec.prime(7),
          poly("x0^3 + 6*x1^3 + x0*x1*x2", 3, FieldSpec.prime(7)),
          poly("x0^3 + x2^3", 3, FieldSpec.prime(7)), [-1, 8, Fraction(1, 3)],
          [[7, -1, 15], [3, 3, 3], [-8, 0, 14]], [-1, 9, 6], 0))
def test_every_fp_scalar_handed_out_is_a_residue(case):
    field, f, g, point, rows, vec, seed = case
    p = field.p
    half = Fraction(1, 3 if p == 2 else 2)
    assert all(_is_residue(v, p) for v in (
        field.zero(), field.one(), field.from_int(-5 * p - 1),
        field.from_fraction(-3, half.denominator), field.coerce(2 * p + 1),
        field.coerce(-half), *field.from_ints([-p - 1, 0, 3 * p + 2], 5)))
    ops = (contract(poly("x0 + 2*x1", 3, field), f),
           contract(poly("x0*x2 - x1^2", 3, field), g))
    for h in (f, g, f + g, f - g, f * g, f.scale(-7 * half), -f, *ops):
        assert all(_is_residue(c, p) for c in h.terms.values())
    m = Matrix(rows, field)
    assert _is_residue(eval_at(f, point), p) and _is_residue(det_ff(m), p)
    assert all(_is_residue(v, p) for v in m.mul_vector(vec))
    try:
        alg = from_inverse_system(f)
    except AlgebraError:
        return
    rng = random.Random(seed)
    elements = [alg.element(d, [rng.randint(-2 * p, 2 * p)
                                for _ in range(alg.dim(d))])
                for d in range(alg.socle_degree + 1)]
    elements += [alg.multiply(elements[1], elements[-2]),
                 alg.power(elements[1], alg.socle_degree)]
    for e in elements:
        assert all(_is_residue(c, p) for c in e.coords)
        assert all(_is_residue(c, p) for c in alg.lift(e).terms.values())


@cache
def _oracle_algebras():
    """Algebras for the boxed-product oracle: Q with fractional tables, the
    Perazzo fixture with its pinned degree-2 basis, pinned fractional
    representatives, quotients by annihilators over Q and F_7, the Perazzo
    cubic over F_3, the denominator-5 cubic over F_7 and a quadric complete
    intersection over F_32003, plain and with a pinned degree-1 basis."""
    den5_q, den5_f7, _, den5_pinned = _den5_algebras()
    ci = from_regular_sequence(monomial_quadric_ci())
    return {
        "den5_q": den5_q,
        "perazzo_pinned": perazzo_algebra(),
        "den5_q_pinned": den5_pinned,
        "ci_ann_x0": ci.quotient_by_ann(ci.reduce(poly("x0", 5))),
        "quadric_ci_q": from_regular_sequence(
            gens(QUADRIC_CI5.split(";"), 5)),
        "perazzo_f3": from_inverse_system(
            poly("x0*x3^2 + 2*x1*x3*x4 + x2*x4^2", 5, FieldSpec.prime(3))),
        "den5_f7": den5_f7,
        "den5_f7_ann": den5_f7.quotient_by_ann(
            den5_f7.reduce(poly("x3 + 2*x4", 5, den5_f7.field))),
        "quadric_ci_f32003": _quadric_ci_fp(),
        "quadric_ci_f32003_pinned": _pin_degree_one(_quadric_ci_fp()),
    }


@st.composite
def _oracle_elements(draw, alg, degree):
    """Coordinates in one degree: ints, and fractions whose denominators
    are units in every field used here; all zero now and then."""
    h = alg.dim(degree)
    if draw(st.integers(0, 9)) == 0:
        return [0] * h
    entry = st.integers(-40, 40) | st.builds(
        Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4, 5]))
    return draw(st.lists(entry, min_size=h, max_size=h))


def _pin_element(alg, got, degree, want):
    """got, an int element, against want, field-value coordinates: the
    same coords, equal to and hashed as the element built from want and a
    differently scaled copy of it, and zero exactly when want is."""
    assert got.degree == degree and got.coords == want
    assert all(type(c) is type(alg.field.one()) for c in want)
    twin = alg.element(degree, want)
    scaled = alg.element(degree, [2 * c for c in want]).scale(Fraction(1, 2))
    for other in (twin, scaled):
        assert got == other and hash(got) == hash(other)
    assert got.is_zero == (not any(want))
    if any(want):
        assert got != alg.zero_element(degree) and got != got.scale(2)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_int_elements_match_boxed_products(data):
    name = data.draw(st.sampled_from(sorted(_oracle_algebras())))
    alg = _oracle_algebras()[name]
    N = alg.socle_degree
    da = data.draw(st.integers(0, N))
    db = data.draw(st.integers(0, N - da))
    ca = data.draw(_oracle_elements(alg, da))
    cb = data.draw(_oracle_elements(alg, db))
    a, b = alg.element(da, ca), alg.element(db, cb)
    # the parent's element() coerced each coordinate into the field
    boxed_a = tuple(alg.field.coerce(c) for c in ca)
    boxed_b = tuple(alg.field.coerce(c) for c in cb)
    _pin_element(alg, a, da, boxed_a)
    _pin_element(alg, b, db, boxed_b)
    _pin_element(alg, alg.multiply(a, b),
                 *boxed_multiply(alg, (da, boxed_a), (db, boxed_b)))
    if da == 1:
        for k in range(N + 1):
            _pin_element(alg, alg.power(a, k), *boxed_power(alg, boxed_a, k))
    m = data.draw(st.integers(0, N // max(da, 1)))
    i = data.draw(st.integers(0, N - m * da))
    assert (boxed(alg.field, *alg.mul_map(a, i, m)).entries
            == boxed_mul_map(alg, da, boxed_a, i, m))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_int_map_rank_matches_the_matrix_path(data):
    name = data.draw(st.sampled_from(sorted(_oracle_algebras())))
    alg = _oracle_algebras()[name]
    N = alg.socle_degree
    L = alg.element(1, data.draw(_oracle_elements(alg, 1)))
    m = data.draw(st.integers(0, N))
    k = data.draw(st.integers(0, N - m))
    assert alg.map_rank(L, k, m) == matrix_map_rank(alg, k, m, L)
    if alg.shadow is not None:
        image = alg.shadow.reduce(Polynomial(
            alg.n_vars, alg.shadow.field, alg.lift(L).terms), 1)
        assert (alg.shadow.map_rank(image, k, m)
                == matrix_map_rank(alg.shadow, k, m, image))


class TestNoFieldConversionInProducts:
    """Products, powers, the gamma checks and probes read and make int
    elements: no call converts field values to ints or back."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        counts = Counter()
        for name in ("to_ints", "from_ints"):
            real = getattr(FieldSpec, name)

            def counted(self, *args, _real=real, _name=name):
                counts[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(FieldSpec, name, counted)
        return counts

    @pytest.mark.parametrize("name", ["perazzo_pinned", "den5_q_pinned",
                                      "den5_f7", "quadric_ci_f32003"])
    def test_operations_make_no_conversion(self, conversions, name):
        alg = _oracle_algebras()[name]
        N = alg.socle_degree
        # probes that find a witness: a failing probe's symbolic certificate
        # turns mul_map's int rows into field values
        probes = [(SLP, 0), (WLP, 0), (WLP, N - 1)]

        def run():
            rng = random.Random(3)
            x = alg.random_element(1, rng)
            for k in range(N + 1):
                alg.power(x, k)
            for d in range(N + 1):
                alg.multiply(alg.random_element(d, rng),
                             alg.random_element(N - d, rng))
            try:
                sample = sample_gamma(alg, N - 2, seed=4)
                assert check_ker_coker(alg, sample)
            except SLPEvidence:
                sample = GammaSample(N - 2, x, alg.random_element(1, rng), 0)
                check_ker_coker(alg, sample)
            check_ggn(alg, sample)
            assert all(lefschetz_probe(alg, kind, k, trials=4).holds
                       for kind, k in probes)

        # the first run builds the variable tables, which convert each
        # degree's representatives once
        run()
        conversions.clear()
        run()
        assert conversions == {}

    def test_coords_convert_once(self, conversions):
        alg = _oracle_algebras()["den5_q_pinned"]
        x = alg.element(1, [1, 2, 3, 4, 5])
        y = alg.power(x, 2)
        assert conversions == {}
        assert y.coords == y.coords
        assert conversions == {"from_ints": 1}


def _hand_made_101(field):
    """Hilbert vector (1, 0, 1) in one variable: x0 lies in J_1 and x0^2
    does not, so the pieces are no ideal's."""
    pieces = [_Piece(0, monomial_basis(1, 0),
                     Echelon(1, field, [], [0], []), field),
              _Piece(1, monomial_basis(1, 1),
                     Echelon(1, field, [0], [], [[]]), field),
              _Piece(2, monomial_basis(1, 2),
                     Echelon(1, field, [], [0], []), field)]
    return GradedAlgebra(1, field, pieces, {"kind": "hand_made"})


def _random_algebras():
    """Seeded algebras from every constructor: four inverse systems over
    each of Q, F_2, F_3 and F_5, exponents >= p allowed, four regular
    sequences over each of Q and F_32003, and the quotient of each by the
    annihilator of a random degree-1 class."""
    rng = random.Random(27)
    built = []
    for field in (RATIONAL, FieldSpec.prime(2), FieldSpec.prime(3),
                  FieldSpec.prime(5)):
        count = 0
        while count < 4:
            n, d = rng.randint(2, 3), rng.randint(2, 4)
            form = Polynomial(n, field, {m: rng.randint(-3, 3)
                                         for m in monomial_basis(n, d)})
            try:
                built.append(from_inverse_system(form))
                count += 1
            except AlgebraError:
                pass
    for field in (RATIONAL, FieldSpec.prime(32003)):
        count = 0
        while count < 4:
            n = rng.randint(2, 4)
            degrees = [rng.randint(1, 3 if n < 4 else 2) for _ in range(n)]
            try:
                built.append(from_regular_sequence(
                    [Polynomial(n, field, {m: rng.randint(-5, 5)
                                           for m in monomial_basis(n, e)})
                     for e in degrees]))
                count += 1
            except NotRegularSequence:
                pass
    for alg in list(built):
        if alg.socle_degree >= 1 and alg.dim(1):
            alpha = alg.element(1, [rng.randint(0, 4)
                                    for _ in range(alg.dim(1))])
            if not alpha.is_zero:
                built.append(alg.quotient_by_ann(alpha))
    return built


def test_standardness_equals_the_rank_definition():
    algebras = [*_oracle_algebras().values(), *_random_algebras()]
    assert len(algebras) >= 50
    for alg in algebras:
        assert alg.is_standard() == is_standard_by_rank(alg)
    for field in (RATIONAL, FieldSpec.prime(7)):
        alg = _hand_made_101(field)
        assert not alg.is_standard() and not is_standard_by_rank(alg)


def test_standardness_builds_no_table_and_no_echelon(monkeypatch):
    # fresh algebras from every constructor, their pieces built first as
    # `analyze` builds them for the report before it asks
    ci = from_regular_sequence(monomial_quadric_ci())
    algebras = [perazzo_algebra(), ci, _quadric_ci_fp(),
                ci.quotient_by_ann(ci.reduce(poly("x0", 5))),
                _pin_degree_one(from_regular_sequence(monomial_quadric_ci()))]
    for alg in algebras:
        alg.piece(alg.socle_degree)

    def refuse(*args):
        raise AssertionError("table or echelon inside is_standard")

    monkeypatch.setattr(algebra_module, "echelon_rows", refuse)
    monkeypatch.setattr(algebra_module.GradedAlgebra, "_columns", refuse)
    assert all(alg.is_standard() for alg in algebras)
