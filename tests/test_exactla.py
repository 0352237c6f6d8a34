import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from sagakit.apolarity import catalecticant
from sagakit.exactla import (_TYPECODES, Matrix, MatrixError,
                             _echelon_rational, _pack, _residues,
                             _slot_bytes, _unpack, det_ff, echelon_rows)
from sagakit.polyring import (FieldMismatchError, FieldSpec, Polynomial,
                              RATIONAL, parse_poly)

from oracles import (boxed, det_by_permutations, echelon_of, rref_mod_p,
                     rref_rational)

F101 = FieldSpec.prime(101)


class TestRankKernel:
    def test_identity(self):
        r = echelon_of(Matrix([[1, 0], [0, 1]]))
        assert r.rank == 2
        assert boxed(r.field, r.kernel_ints(), r.den).entries == []
        assert r.pivots == [0, 1]

    def test_zero_matrix(self):
        r = echelon_of(Matrix([[0] * 4 for _ in range(3)]))
        assert r.rank == 0
        assert len(boxed(r.field, r.kernel_ints(), r.den).entries) == 4

    def test_perazzo_catalecticant_degree_two(self, perazzo_f):
        cat = boxed(perazzo_f.field, *catalecticant(perazzo_f, 2))
        assert (cat.rows, cat.cols) == (5, 15)
        r = echelon_of(cat)
        assert r.rank == 5
        assert len(boxed(r.field, r.kernel_ints(), r.den).entries) == 10

    def test_rank_plus_kernel_is_cols(self):
        rng = random.Random(5)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
            m = Matrix(rows)
            r = echelon_of(m)
            kernel = boxed(r.field, r.kernel_ints(), r.den).entries
            assert r.rank + len(kernel) == m.cols

    def test_kernel_vectors_map_to_zero(self):
        rng = random.Random(17)
        for _ in range(20):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(5)] for _ in range(3)]
            m = Matrix(rows)
            r = echelon_of(m)
            for vec in boxed(r.field, r.kernel_ints(), r.den).entries:
                assert all(v == 0 for v in m.mul_vector(vec))

    def test_kernel_vectors_map_to_zero_mod_p(self):
        rng = random.Random(23)
        rows = [[F101.from_int(rng.randint(0, 100)) for _ in range(6)]
                for _ in range(4)]
        m = Matrix(rows, F101)
        result = echelon_of(m)
        kernel = boxed(result.field, result.kernel_ints(), result.den).entries
        assert result.rank + len(kernel) == 6
        for vec in kernel:
            assert all(not v for v in m.mul_vector(vec))

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(40)
        for _ in range(10):
            rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(7)]
            m = Matrix(rows)
            transpose = Matrix([list(col) for col in zip(*rows)])
            assert echelon_of(m).rank == echelon_of(transpose).rank


class TestDeterminant:
    def test_antidiagonal(self):
        assert det_ff(Matrix([[0, 1], [1, 0]])) == -1

    def test_singular_rank_one(self):
        m = Matrix([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
        assert det_ff(m) == 0

    def test_matches_permutation_expansion(self):
        rng = random.Random(99)
        for _ in range(12):
            rows = [[Fraction(rng.randint(-6, 6)) for _ in range(4)]
                    for _ in range(4)]
            assert det_ff(Matrix(rows)) == det_by_permutations(rows)

    def test_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)],
                [Fraction(1, 5), Fraction(1, 7)]]
        assert det_ff(Matrix(rows)) == det_by_permutations(rows)

    def test_mod_p(self):
        rng = random.Random(3)
        rows = [[rng.randint(0, 100) for _ in range(5)] for _ in range(5)]
        lifted = det_by_permutations([[Fraction(x) for x in row]
                                      for row in rows])
        m = Matrix([[F101.from_int(x) for x in row] for row in rows], F101)
        assert det_ff(m) == F101.from_int(int(lifted))

    def test_non_square_rejected(self):
        with pytest.raises(MatrixError):
            det_ff(Matrix([[0] * 3 for _ in range(2)]))

    def test_polynomial_entries(self):
        x0 = parse_poly("x0", 2)
        x1 = parse_poly("x1", 2)
        m = Matrix([[x0, x1], [x1, x0]])
        assert det_ff(m) == parse_poly("x0^2 - x1^2", 2)

    def test_polynomial_three_by_three(self):
        # det of a symbolic 3x3 against the permutation oracle
        rng = random.Random(12)
        entries = []
        for _ in range(3):
            row = []
            for _ in range(3):
                terms = {(rng.randint(0, 1), rng.randint(0, 1)):
                         rng.randint(-2, 2)}
                row.append(Polynomial(2, RATIONAL, terms))
            entries.append(row)
        assert det_ff(Matrix(entries)) == det_by_permutations(entries)

    def test_polynomial_size_cap(self):
        one = Polynomial.constant(1, 1)
        entries = [[one] * 7 for _ in range(7)]
        with pytest.raises(MatrixError):
            det_ff(Matrix(entries))


class TestEchelonInvert:
    def test_residual_kills_row_space(self):
        rows = [[1, 2, 0, 1], [0, 1, 1, -1]]
        ech = echelon_rows(rows, 4, RATIONAL)
        for row in rows:
            ints, den = ech.residual(row)
            assert not any(ints) and den


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_kernel_property_random(rows):
    m = Matrix(rows)
    result = echelon_of(m)
    kernel = boxed(result.field, result.kernel_ints(), result.den).entries
    assert result.rank + len(kernel) == 4
    for vec in kernel:
        assert all(v == 0 for v in m.mul_vector(vec))


PRIMES = [2, 3, 7, 101, 32003, 2**31 - 1, 2**61 - 1]


@st.composite
def square_matrices(draw):
    """(rows, p), p None for Q: sizes 0-6, some singular, some with a zero
    row, some whose first column needs a row swap."""
    p = draw(st.sampled_from(PRIMES + [None]))
    if p is None:
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(-9, 9, max_denominator=6))
    else:
        entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n:
        i = draw(st.integers(0, n - 1))
        shape = draw(st.sampled_from(["plain", "singular", "zero row", "swap"]))
        if shape == "singular":
            # row i a combination of the others (a zero row when n == 1)
            mult = draw(st.lists(entry, min_size=n, max_size=n))
            rows[i] = [sum(mult[k] * rows[k][c] for k in range(n) if k != i)
                       for c in range(n)]
        elif shape == "zero row":
            rows[i] = [0] * n
        elif shape == "swap":
            rows[0][0], rows[-1][0] = 0, 1
    return rows, p


@given(square_matrices())
@settings(max_examples=300, deadline=None)
@example(([], None))
@example(([], 2))
@example(([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], None))
@example(([[0, 1], [1, 0]], 3))
@example(([[0, 1, 2], [0, 0, 5], [4, 1, 0]], 7))
def test_det_matches_permutation_expansion(case):
    rows, p = case
    expected = det_by_permutations(rows) if rows else 1
    if p is None:
        assert det_ff(Matrix(rows)) == expected
    else:
        m = Matrix([[x % p for x in row] for row in rows], FieldSpec.prime(p))
        assert det_ff(m) == expected % p


def assert_matches_oracle(rows, ncols, p):
    """echelon_rows over F_p against the cell-by-cell oracle."""
    ech = echelon_rows([[x % p for x in row] for row in rows], ncols,
                       FieldSpec.prime(p))
    pivots, nonpivots, coeffs = rref_mod_p(rows, ncols, p)
    assert ech.pivots == pivots
    assert ech.nonpivots == nonpivots
    assert (ech.coeffs, ech.den) == (coeffs, 1)


@st.composite
def fp_matrices(draw):
    """(rows, ncols, p): drawn rows plus copies and combinations of them,
    shuffled, so duplicate rows and rank deficiency are common."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=10))
    rows = list(base)
    if base:
        pick = st.integers(0, len(base) - 1)
        for a, b, s, t in draw(st.lists(st.tuples(pick, pick, entry, entry),
                                        max_size=8)):
            rows.append([(s * x + t * y) % p
                         for x, y in zip(base[a], base[b])])
    return draw(st.permutations(rows)), ncols, p


@given(fp_matrices())
@settings(max_examples=300, deadline=None)
@example(([], 3, 7))
@example(([[5], [0], [3]], 1, 7))
@example(([[1, 2], [1, 2], [2, 4]], 2, 3))
def test_echelon_prime_matches_oracle(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ncols", [1, 3, 8])
def test_echelon_prime_slot_bound_worst_case(p, ncols):
    # every entry p - 1, more than twice as many rows as columns
    assert_matches_oracle([[p - 1] * ncols for _ in range(2 * ncols + 1)],
                          ncols, p)
    # large entries again, but rank ncols - 1 over 2 * ncols rows: every row
    # takes a product from each pivot row and the reduced rows keep a
    # nonzero column, so a carry out of a slot would change the result
    rng = random.Random(p + ncols)
    big = [p - 1, p - 2, p // 2 + 1]
    base = [[rng.choice(big) for _ in range(ncols)]
            for _ in range(max(ncols - 1, 1))]
    rows = []
    for _ in range(2 * ncols):
        mult = [rng.choice(big) for _ in base]
        rows.append([sum(m * b[c] for m, b in zip(mult, base)) % p
                     for c in range(ncols)])
    assert_matches_oracle(base + rows, ncols, p)


def test_echelon_prime_integer_rows_reduce_mod_p():
    # integer entries are read mod p; a row of multiples of p is a zero row
    f7 = FieldSpec.prime(7)
    ech = echelon_rows([[7, 14], [8, 3], [-6, 10]], 2, f7)
    pivots, nonpivots, coeffs = rref_mod_p([[8, 3], [-6, 10]], 2, 7)
    assert (ech.pivots, ech.nonpivots) == (pivots, nonpivots)
    assert (ech.coeffs, ech.den) == (coeffs, 1)


def oracle_origins(rows, ncols, p):
    """Input index of each pivot row: the pivots of rows[:k + 1] are those of
    rows[:k] plus at most one more, whose row is row k."""
    origin = {}
    for k in range(len(rows)):
        for c in rref_mod_p(rows[:k + 1], ncols, p)[0]:
            origin.setdefault(c, k)
    return [origin[c] for c in sorted(origin)]


@st.composite
def fp_matrices_three_ways(draw):
    """(rows, ncols, p, lifts): a drawn matrix over one of PRIMES, and for
    each entry how to lift its residue x to an unreduced int: x itself,
    x - p (negative), x + p, x + p * (2^64 // p + 1) (at least 2^64), or
    the largest int below 2^(8 * slot width) that is x mod p."""
    rows, ncols, p = draw(fp_matrices())
    kinds = st.sampled_from(["same", "negative", "above", "huge", "top"])
    lifts = draw(st.lists(st.lists(kinds, min_size=ncols, max_size=ncols),
                          min_size=len(rows), max_size=len(rows)))
    return rows, ncols, p, lifts


def lift(x, kind, p, width):
    if kind == "negative":
        return x - p
    if kind == "above":
        return x + p
    if kind == "huge":
        return x + p * (2**64 // p + 1)
    if kind == "top":
        top = (1 << (8 * width)) - 1
        return top - (top - x) % p
    return x


@given(fp_matrices_three_ways())
@settings(max_examples=300, deadline=None)
@example(([[1, 2, 3], [4, 5, 6], [1, 1, 1]], 3, 7,
          [["same"] * 3, ["same", "top", "top"], ["top"] * 3]))
@example(([[1, 2, 3], [4, 5, 6], [1, 1, 1]], 3, 32003,
          [["same"] * 3, ["same", "top", "top"], ["top"] * 3]))
def test_echelon_prime_reads_fp_residue_and_unreduced_rows_alike(case):
    # residue rows are read into an array in C, the others entry by entry;
    # all three must give the oracle's echelon, origins included.  The
    # fractional rows hold (b x + p) / b, which is x in F_p and not an int
    rows, ncols, p, lifts = case
    width = _slot_bytes(p, len(rows))
    field = FieldSpec.prime(p)
    unreduced = [[lift(x, kind, p, width) for x, kind in zip(row, kinds)]
                 for row, kinds in zip(rows, lifts)]
    b = 3 if p == 2 else 2
    fractional = [[Fraction(b * x + p, b) for x in row] for row in rows]
    pivots, nonpivots, coeffs = rref_mod_p(rows, ncols, p)
    origins = oracle_origins(rows, ncols, p)
    for given_rows in (fractional, rows, unreduced):
        ech = echelon_rows(given_rows, ncols, field)
        assert (ech.pivots, ech.nonpivots) == (pivots, nonpivots)
        assert (ech.coeffs, ech.den) == (coeffs, 1)
        assert ech.origins == origins


@pytest.mark.parametrize("p,nrows,width", [
    (2, 1, 1), (7, 3, 1), (7, 10, 2), (101, 1, 2), (101, 10, 4),
    (32003, 4, 4), (32003, 5, 8), (2**31 - 1, 1, 8), (2**31 - 1, 10, 9),
    (2**61 - 1, 1, 16)])
def test_slot_width_rounds_up_to_an_array_item_size(p, nrows, width):
    assert _slot_bytes(p, nrows) == width


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_pack_unpack_round_trip(width):
    # column c sits in the slot at bit offset (ncols - 1 - c) * 8 * width
    rng = random.Random(width)
    top = (1 << (8 * width)) - 1
    for vals in ([], [0], [top], [0, 0, 1], [top, 0, top, 1],
                 [rng.randint(0, top) for _ in range(20)]):
        packed = _pack(vals, width)
        assert packed == sum(v << (8 * width * (len(vals) - 1 - c))
                             for c, v in enumerate(vals))
        assert _unpack(packed, len(vals), width) == vals


@pytest.mark.parametrize("p", PRIMES[:5])
def test_only_residue_rows_skip_the_per_entry_conversion(p):
    tc = _TYPECODES[_slot_bytes(p, 10)]
    assert list(_residues([0, p - 1, 1], tc, p)) == [0, p - 1, 1]
    assert _residues([], tc, p) is not None
    for row in ([0, p, 1], [0, -1, 1], [0, 2**64, 1], [Fraction(1, 2), 0, 1],
                [0, Fraction(1), 1]):
        assert _residues(row, tc, p) is None


# a Fraction entry over F_p is the residue it stands for: 1/2 is 4 in F_7,
# not its truncation int(1/2) = 0, and 1/7 has no value there

def test_fraction_entry_of_an_fp_echelon_is_its_residue():
    ech = echelon_rows([[Fraction(1, 2), 1]], 2, FieldSpec.prime(7))
    assert (ech.pivots, ech.coeffs) == ([0], [[2]])


def test_fraction_entry_of_an_fp_determinant_is_its_residue():
    assert det_ff(Matrix([[Fraction(1, 2)]], FieldSpec.prime(7))) == 4


def test_fraction_with_denominator_p_has_no_value_in_fp():
    f7 = FieldSpec.prime(7)
    with pytest.raises(FieldMismatchError):
        echelon_rows([[Fraction(1, 7), 1]], 2, f7)
    with pytest.raises(FieldMismatchError):
        det_ff(Matrix([[Fraction(1, 7)]], f7))


@pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(7),
                                   FieldSpec.prime(2**61 - 1)],
                         ids=["q", "fp7", "fp_wide"])
@pytest.mark.parametrize("rows,ncols,bad,length", [
    ([[1]], 2, 0, 1),
    ([[1, 2, 3]], 2, 0, 3),
    ([[1, 0], [0, 0, 0]], 2, 1, 3),
    ([[1, 2], [-1]], 2, 1, 1),
])
def test_row_of_wrong_length_is_rejected(field, rows, ncols, bad, length):
    with pytest.raises(MatrixError,
                       match=f"row {bad} has length {length}, expected {ncols}"):
        echelon_rows(rows, ncols, field)


@st.composite
def rows_with_zero_rows(draw, primes=PRIMES + [None]):
    """(rows, ncols, field): drawn rows, combinations of earlier rows and
    zero rows interleaved, over one of primes, None standing for Q."""
    p = draw(st.sampled_from(primes))
    ncols = draw(st.integers(1, 7))
    if p is None:
        field = RATIONAL
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(-9, 9, max_denominator=6))
    else:
        field = FieldSpec.prime(p)
        entry = st.one_of(st.sampled_from([0, 1, p - 1]),
                          st.integers(0, p - 1))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["new", "combo", "zero"]),
                              max_size=10)):
        if kind == "new" or not rows:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
        elif kind == "combo":
            a = draw(st.integers(0, len(rows) - 1))
            b = draw(st.integers(0, len(rows) - 1))
            s, t = draw(entry), draw(entry)
            rows.append([field.coerce(s * x + t * y)
                         for x, y in zip(rows[a], rows[b])])
        else:
            rows.append([field.zero()] * ncols)
    return rows, ncols, field


@given(rows_with_zero_rows())
@settings(max_examples=200, deadline=None)
@example(([[0, 1], [1, 0]], 2, RATIONAL))
@example(([[0, 0], [0, 1], [1, 1]], 2, FieldSpec.prime(2)))
def test_origins_give_the_pivots_of_every_prefix(case):
    rows, ncols, field = case
    ech = echelon_rows(rows, ncols, field)
    assert len(ech.origins) == ech.rank == len(set(ech.origins))
    for k in range(len(rows) + 1):
        prefix = [c for c, o in zip(ech.pivots, ech.origins) if o < k]
        assert prefix == echelon_rows(rows[:k], ncols, field).pivots


@given(rows_with_zero_rows(primes=[None]))
@settings(max_examples=300, deadline=None)
@example(([[0, 0], [Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]], 2,
          RATIONAL))
def test_rational_back_substitution_matches_gauss_jordan(case):
    rows, ncols, _ = case
    ech = _echelon_rational(rows, ncols)
    assert (ech.pivots, ech.nonpivots,
            [RATIONAL.from_ints(row, ech.den) for row in ech.coeffs]
            ) == rref_rational(rows, ncols)
    assert all(type(x) is int for row in ech.coeffs for x in row)


@given(rows_with_zero_rows())
@settings(max_examples=200, deadline=None)
@example(([[0, 0], [Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]], 2,
          RATIONAL))
@example(([[Fraction(-3), Fraction(-6)]], 2, RATIONAL))
@example(([[3, 5], [6, 3]], 2, FieldSpec.prime(7)))
def test_echelon_rows_are_canonical_ints_over_one_denominator(case):
    # the ints over den are the oracle's values, den is the positive lcm of
    # their denominators (1 over F_p), and residues lie in [0, p); so the
    # echelon of the reduced rows, another basis of the same span, is equal
    rows, ncols, field = case
    ech = echelon_rows(rows, ncols, field)
    assert all(type(x) is int for row in ech.coeffs for x in row)
    values = [field.from_ints(row, ech.den) for row in ech.coeffs]
    if field.is_rational:
        assert (ech.pivots, ech.nonpivots, values) == rref_rational(rows, ncols)
        assert ech.den == lcm(*(v.denominator for row in values for v in row))
    else:
        p = field.p
        assert (ech.pivots, ech.nonpivots, values) == rref_mod_p(
            rows, ncols, p)
        assert ech.den == 1
        assert all(0 <= x < p for row in ech.coeffs for x in row)
    again = echelon_rows(ech.full_rows(), ncols, field)
    assert again.origins == list(range(ech.rank))
    again.origins = ech.origins
    assert again == ech


class TestPivotMoves:
    """Stable pivoting moves the pivot row up past the rows between; a move
    over k rows changes the sign of the determinant by (-1)^k."""

    CASES = [
        # the pivot of column 0 sits 2 rows down (no sign change), then the
        # rows are in order: a 3-cycle, det +2*3*5
        ([[0, 2, 0], [0, 0, 3], [5, 0, 0]], 30),
        # column 0 two rows down, then column 1 one row down: det -2*3*5
        ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
        # column 0 three rows down: a 4-cycle, det -2*3*5*7
        ([[0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5], [7, 0, 0, 0]], -210),
        # column 0 three rows down, then column 1 two rows down: det -2*3*5*7
        ([[0, 0, 2, 0], [0, 0, 0, 3], [0, 5, 0, 0], [7, 0, 0, 0]], -210),
    ]

    @pytest.mark.parametrize("rows,det", CASES)
    def test_rational(self, rows, det):
        assert det_by_permutations(rows) == det
        assert det_ff(Matrix(rows)) == det

    @pytest.mark.parametrize("p", [11, 101, 2**61 - 1])
    @pytest.mark.parametrize("rows,det", CASES)
    def test_prime(self, rows, det, p):
        field = FieldSpec.prime(p)
        m = Matrix([[x % p for x in row] for row in rows], field)
        assert det_ff(m) == det % p

    def test_origins_follow_the_moves(self):
        for field in (RATIONAL, FieldSpec.prime(11)):
            ech = echelon_rows([[0, 0, 2, 0], [0, 0, 0, 3], [0, 5, 0, 0],
                                [7, 0, 0, 0]], 4, field)
            assert ech.pivots == [0, 1, 2, 3]
            assert ech.origins == [3, 2, 0, 1]
