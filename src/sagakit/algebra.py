"""Graded Artinian Gorenstein algebras with exact per-degree reduction.

An algebra is represented degree by degree as a quotient of the full
polynomial ring: each graded piece stores the reduced row echelon form of
the ideal piece, and the quotient basis is the set of non-pivot monomials
(deterministic, so serialized bases are stable across runs).  Two
constructions are provided: the annihilator presentation from a single form
(one catalecticant elimination per degree) and the quotient by a regular
sequence, which is accepted exactly when the computed Hilbert function
matches the expected complete-intersection series and the quotient vanishes
one degree above the socle.

Every regular-sequence build takes the degrees in order.  Over F_p, piece
i is read off the reduced rows of piece i-1: the basis monomials of degree
i lie among the products x_j * b with b a basis monomial of degree i-1,
every other monomial is congruent to a vector over those products, and one
echelon over them, on x_j times the reduced rows of degree i-1 and the
generators of degree i, gives the piece (`_fp_pieces`; Mourrain, AAECC
1999).  Its width is at most n * h_(i-1), not the C(n+i-1, i) monomials of
degree i.  Of the products x_j * r with one leading monomial M, only one
per component of Buchberger's chain criterion in degree one reaches it:
x_a * r and x_b * r' are joined when M / (x_a * x_b) is a pivot of degree
i-2 (Buchberger 1979; Gebauer and Moller, JSC 1988).  Those rows are drawn
lazily, and each degree stops at its certified rank: n forms in n variables
have h_i >= CI_i, the complete-intersection value, over any field, so the
echelon has rank at most its width less CI_i, and the first rows of that
rank span it.

Over Q the reduced rows carry large rationals, so a Q piece is one
Macaulay matrix that leaves out the rows m * f_g whose multiplier m is a
leading monomial of the ideal of the generators before g (the F5
criterion; Faugere, ISSAC 2002).  Those leading monomials are read from the
echelon of the lower degree: stable pivoting in `exactla` makes the pivots
whose rows came from the generators before g exactly the leading monomials
of their ideal.  The kept rows span the same space, so every piece is
unchanged; for a regular sequence the kept rows are exactly rank-many,
since all its syzygies are Koszul (Bardet, Faugere and Salvy, J. Symb.
Comput. 2015).

Over Q a regular sequence is built modular-first.  Its generators are
reduced mod SHADOW_PRIME and the F_p algebra is built and checked first.
If it passes, the sequence is regular over Q too (the Macaulay resultant
reduces mod p), so the Q Hilbert vector is certified without a Q echelon;
the Q pieces are then built in degree order, from the F5 rows, on first
read through `piece` (reading degree d builds every lower degree first,
since its rows need their leading monomials), and the F_p algebra is kept
as the algebra's `shadow`, which `map_rank` reads first.  Any miss mod p
falls back to the eager Q build, from the same F5 rows.

Every piece's echelon holds its reduced rows as ints over one denominator
(see `exactla`), and the code below reads those ints directly; field values
are made only where a result leaves the algebra.  Where a monomial meets
a polynomial it is an exponent tuple, the key of `Polynomial.terms`: in each
piece's ambient basis (`monomial_basis` order), its basis monomials, the
keys of its classes and the terms of its representatives.  The F_p build
and the variable tables address monomials by position in that order, and
sum no tuple: `monomial_steps(n, i)`, built once per (n, i) and shared by
every algebra of that shape, holds the position of each degree-i monomial,
the position of x_j * m for each monomial m of degree i-1, and the first
variable of each degree-i monomial with the position of its quotient by
that variable.  Each piece's position dict is that map's.

Products read variable tables instead of multiplying polynomials: for each
degree i below the socle degree and each variable x_j, the coordinates of
x_j times every basis class of degree i, read off the echelon of degree i+1
(Mourrain, AAECC 1999): x_j times a term c*m of a representative is c times
the class of the monomial x_j*m, den times a unit vector when x_j*m is a
basis monomial and minus the `coeffs` row of its pivot otherwise, a lookup
with no reduction.  Only the monomials x_j*m of the representatives' terms
are looked up, and a pinned piece takes the sums into its basis once.
Indexing by variables serves cones too, where degree 1 has fewer classes.
The tables hold ints over one denominator per degree: residues over F_p,
and over Q every entry times the lcm of the entries' denominators; each
column keeps only its nonzero (row, value) pairs.  The terms of each
degree's basis representatives are converted to ints over one denominator
once, pinned bases included.  A product is then a sum of
paths of steps through those columns, one variable per step for each term
of a factor's representatives; a degree-1 factor collapses to one int
weight per variable, so each of its steps costs the nonzero table entries
it reads.  Only products, maps, powers and probes read the tables:
`is_standard` reads the basis monomials alone.
Each step is reduced mod p once over F_p and not at all over Q (delayed
reduction; Dumas, Giorgi and Pernet, ACM TOMS 2008), and the result is
normalized once, to the ints over one denominator that an element holds.
`mul_map(alpha, i, m)` takes m such steps of alpha on the unit vectors of
degree i, so the map of alpha^m never forms the class alpha^m, and `power`
steps x's own vector k - 1 times.  A map leaves the algebra as int rows over
one denominator, which `map_rank` hands to the echelon as they are; a
caller that needs field values converts them with `FieldSpec.from_ints`.

Duality pairings read one linear functional: phi, the socle coordinate on
the degree-N monomials, which the socle echelon gives in closed form as
ints (its kernel vector), read once per algebra.  The pairing of a and b
is phi of the product of their representatives, so it needs no table step
(Macaulay duality); the representatives' coefficients are converted to ints
once, and the pairing is ranked and returned as the int rows it sums.

A graded piece may be re-coordinatized against a pinned basis of class
representatives (`with_degree_basis`); reduction then returns coordinates in
the pinned basis.  The inverse of the representatives' coordinates is read
from one int echelon of [M | I] and stored once, as ints over one
denominator, and the tables and the pairing read the classes through it.
This is how fixture conventions for distinguished bases are honored without
touching the underlying reduction data.
"""

from functools import cache
from itertools import chain, combinations, count, islice
from math import gcd, lcm, prod
from operator import add, mul

from .apolarity import annihilator_echelon, contract
from .exactla import Echelon, echelon_rows
from .polyring import (FieldMismatchError, FieldSpec, Polynomial,
                       monomial_basis)
from .seeding import random_int_coords

# The prime of the modular-first build: below 2^15, so products of residues
# stay single-limb Python ints.
SHADOW_PRIME = 32003


class AlgebraError(ValueError):
    """Invalid algebra construction or element operation."""


class DegreeOverflowError(AlgebraError):
    """A graded operation landed above the socle degree."""


class NotRegularSequence(AlgebraError):
    """The given forms fail the complete-intersection Hilbert check."""

    def __init__(self, degree: int, expected: int, found: int):
        super().__init__(
            f"not a regular sequence: in degree {degree} the quotient has "
            f"dimension {found}, expected {expected}")
        self.degree = degree
        self.expected = expected
        self.found = found


def field_ints(field: FieldSpec, values) -> tuple[list, int]:
    """Scalars (ints or Fractions) as ints over one denominator: plain ints
    as given, anything else through `FieldSpec.coerce`, which checks it.
    Over F_p the reader reduces the ints mod p."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    return field.to_ints([field.coerce(v) for v in values])


@cache
def monomial_steps(n: int, i: int) -> tuple[dict, list, list]:
    """The positions of the degree-i monomials in n variables, in
    `monomial_basis` order, built once per (n, i): index[m] is the position
    of monomial m; up[c][j] is the position of x_j * m for the monomial m at
    position c of degree i - 1; down[c] is (j, c') with x_j the first
    variable of the monomial at position c and c' the position of its
    quotient by x_j.  In degree 0, up and down are empty."""
    ambient = monomial_basis(n, i)
    index = dict(zip(ambient, count()))
    below = monomial_basis(n, i - 1) if i else []
    # a monomial of degree at most i read as the int with its exponents as
    # digits in base i + 1 (Kronecker): x_j * m is m's int plus x_j's weight
    weights = [(i + 1) ** k for k in range(n - 1, -1, -1)]
    # held for the life of the process: rows are tuples, and every position
    # is the one int object among index's values
    at = dict(zip([sum(map(mul, m, weights)) for m in ambient],
                  index.values()))
    up = [tuple([at[k + w] for w in weights])
          for k in [sum(map(mul, m, weights)) for m in below]]
    down = [None] * len(ambient) if i else []
    # x_j * m has first variable j exactly when m has none before x_j
    for c, m in enumerate(below):
        first = next((j for j, e in enumerate(m) if e), n - 1)
        for j in range(first + 1):
            down[up[c][j]] = j, c
    return index, up, down


class AlgebraElement:
    """A class in one graded piece: int coordinates in that piece's basis
    over one denominator, and the field.  Over Q `ints` share no content
    with the positive `den`; over F_p they are residues and `den` is 1.
    `coords`, the coordinates as field values, is built on first read.
    Elements are equal when their fields, degrees and coordinates are."""

    __slots__ = ("degree", "ints", "den", "field", "_coords")

    def __init__(self, degree: int, ints, den: int, field: FieldSpec):
        p = field.p
        if p:
            inv = pow(den, -1, p)
            ints, den = tuple([v * inv % p for v in ints]), 1
        else:
            g = gcd(den, *ints) * (-1 if den < 0 else 1)
            ints = tuple([v // g for v in ints] if g != 1 else ints)
            den //= g
        for name, value in (("degree", degree), ("ints", ints), ("den", den),
                            ("field", field), ("_coords", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            object.__setattr__(self, "_coords", tuple(
                self.field.from_ints(self.ints, self.den)))
        return self._coords

    @property
    def is_zero(self) -> bool:
        return not any(self.ints)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.field, self.degree, self.den, self.ints) == (
            other.field, other.degree, other.den, other.ints)

    def __hash__(self):
        return hash((self.degree, self.den, self.ints))

    def __repr__(self):
        return (f"AlgebraElement(degree={self.degree!r}, "
                f"coords={self.coords!r})")

    def _check(self, other: "AlgebraElement", verb: str):
        if self.degree != other.degree:
            raise AlgebraError(f"cannot {verb} elements of different degrees")
        if self.field != other.field:
            raise AlgebraError(f"cannot {verb} elements over {self.field} "
                               f"and {other.field}")
        if len(self.ints) != len(other.ints):
            raise AlgebraError(
                f"cannot {verb} elements of dimensions {len(self.ints)} and "
                f"{len(other.ints)}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other, "add")
        a, b = self.den, other.den
        return AlgebraElement(self.degree, [u * b + v * a for u, v in
                                            zip(self.ints, other.ints)],
                              a * b, self.field)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other, "subtract")
        a, b = self.den, other.den
        return AlgebraElement(self.degree, [u * b - v * a for u, v in
                                            zip(self.ints, other.ints)],
                              a * b, self.field)

    def scale(self, scalar) -> "AlgebraElement":
        (c,), d = field_ints(self.field, [scalar])
        return AlgebraElement(self.degree, [c * v for v in self.ints],
                              d * self.den, self.field)


class _Piece:
    """Reduction data for one graded piece."""

    __slots__ = ("degree", "ambient", "index", "echelon", "basis_monomials",
                 "basis_reps", "basis_inverse")

    def __init__(self, degree: int, ambient: list[tuple], ech: Echelon,
                 field: FieldSpec):
        self.degree = degree
        self.ambient = ambient
        self.index = monomial_steps(len(ambient[0]), degree)[0]
        self.echelon = ech
        self.basis_monomials = [ambient[c] for c in ech.nonpivots]
        self.basis_reps = [Polynomial.from_monomial(m, field)
                           for m in self.basis_monomials]
        # (rows, den) when a custom basis is pinned: rows[r][c] / den is
        # entry (r, c) of the inverse of the pinned representatives' columns
        self.basis_inverse = None

    @property
    def dim(self) -> int:
        return len(self.basis_monomials)

    def pin(self, vecs: list) -> tuple[list, int]:
        """Int coordinate vectors on the non-pivot monomials, taken into the
        pinned basis, and the factor their denominator gains: vecs and 1
        when no basis is pinned."""
        if self.basis_inverse is None:
            return vecs, 1
        rows, den = self.basis_inverse
        return [[sum(map(mul, row, vec)) for row in rows] for vec in vecs], den

    def coords(self, terms) -> tuple[list, int]:
        """Coordinates of the class of the sum of c*m over the (m, c) in
        terms, the monomials m distinct and of this degree, as ints over one
        denominator."""
        vec = [self.echelon.field.zero()] * len(self.ambient)
        for m, c in terms:
            vec[self.index[m]] = c
        ints, den = self.echelon.residual(vec)
        (ints,), factor = self.pin([ints])
        return ints, den * factor

    def classes(self) -> tuple[dict, int]:
        """The class of every monomial of this degree, keyed by exponents, as
        int vectors over one denominator: den times a unit vector for a
        basis monomial, minus the `coeffs` row of its pivot for any other
        (its reduced row is 1 at the pivot), in the pinned basis if any."""
        ech = self.echelon
        vecs = {c: [-v for v in row] for c, row in zip(ech.pivots, ech.coeffs)}
        for t, c in enumerate(ech.nonpivots):
            vecs[c] = [ech.den * (r == t) for r in range(self.dim)]
        pinned, factor = self.pin(list(vecs.values()))
        return ({self.ambient[c]: v for c, v in zip(vecs, pinned)},
                ech.den * factor)


class GradedAlgebra:
    """A standard graded Artinian algebra with exact reduction per degree."""

    def __init__(self, n_vars: int, field: FieldSpec, pieces,
                 presentation: dict, hilbert=None,
                 shadow: "GradedAlgebra | None" = None):
        """The pieces come in degree order.  Given a certified Hilbert vector
        they may be any iterator, and each is drawn on first read; otherwise
        they are all drawn here and the Hilbert vector is their dimensions."""
        if hilbert is None:
            pieces = list(pieces)
            hilbert = [p.dim for p in pieces]
        self.n_vars = n_vars
        self.field = field
        self._pieces = []
        self._unread = iter(pieces)
        self.presentation = presentation
        self.socle_degree = len(hilbert) - 1
        self.hilbert = tuple(hilbert)
        # the same algebra mod SHADOW_PRIME, when a modular-first build kept it
        self.shadow = shadow
        # the variable tables of each degree, filled by _columns(i), the int
        # terms of each degree's representatives, filled by _rep_terms(d),
        # and the socle functional, filled by pairing_check
        self._sparse = [None] * self.socle_degree
        self._reps = [None] * (self.socle_degree + 1)
        self._phi = None

    # -- basic structure ----------------------------------------------

    def piece(self, degree: int) -> _Piece:
        if not 0 <= degree <= self.socle_degree:
            raise DegreeOverflowError(
                f"degree {degree} outside 0..{self.socle_degree}")
        while len(self._pieces) <= degree:
            piece = next(self._unread)
            if piece.dim != self.hilbert[piece.degree]:
                raise AlgebraError(
                    f"internal: degree {piece.degree} has dimension "
                    f"{piece.dim}, certified {self.hilbert[piece.degree]}")
            self._pieces.append(piece)
        return self._pieces[degree]

    def dim(self, degree: int) -> int:
        """Dimension of the graded piece; zero above the socle degree."""
        if degree < 0:
            raise AlgebraError("negative degree")
        return self.hilbert[degree] if degree <= self.socle_degree else 0

    def basis(self, degree: int) -> list[AlgebraElement]:
        h = self.dim(degree)
        return [AlgebraElement(degree, [int(j == i) for j in range(h)], 1,
                               self.field) for i in range(h)]

    # -- elements -------------------------------------------------------

    def element(self, degree: int, coords) -> AlgebraElement:
        ints, den = field_ints(self.field, coords)
        if len(ints) != self.dim(degree):
            raise AlgebraError(
                f"expected {self.dim(degree)} coordinates in degree {degree}, "
                f"got {len(ints)}")
        return AlgebraElement(degree, ints, den, self.field)

    def zero_element(self, degree: int) -> AlgebraElement:
        return AlgebraElement(degree, [0] * self.dim(degree), 1, self.field)

    def unit(self) -> AlgebraElement:
        return self.element(0, [1])

    def random_element(self, degree: int, rng, low: int = -10, high: int = 10,
                       nonzero: bool = True) -> AlgebraElement:
        h = self.dim(degree)
        if nonzero and h == 0:
            raise AlgebraError(f"degree {degree} has no nonzero element")
        return self.element(degree,
                            random_int_coords(rng, h, low, high, nonzero))

    def reduce(self, p: Polynomial, degree: int | None = None) -> AlgebraElement:
        """Coordinates of the class of p in its graded piece."""
        if p.n_vars != self.n_vars or p.field != self.field:
            raise AlgebraError("polynomial lives over a different ring")
        if p.is_zero:
            if degree is None:
                raise AlgebraError(
                    "pass degree= to reduce the zero polynomial")
            return self.zero_element(degree)
        d = p.homogeneous_degree()
        if d is None:
            raise AlgebraError("reduction requires a homogeneous polynomial")
        if degree is not None and degree != d:
            raise AlgebraError(f"polynomial has degree {d}, expected {degree}")
        if d > self.socle_degree:
            raise DegreeOverflowError(
                f"degree {d} above socle degree {self.socle_degree}")
        return AlgebraElement(d, *self.piece(d).coords(p.terms.items()),
                              self.field)

    def lift(self, e: AlgebraElement) -> Polynomial:
        """A polynomial representative of the class e: the sum of its
        coordinates times the basis representatives, one term per monomial,
        summed as ints over one denominator."""
        reps, d = self._rep_terms(e.degree)
        terms = {}
        for u, rep in zip(e.ints, reps):
            if u:
                for exps, c in rep:
                    terms[exps] = terms.get(exps, 0) + u * c
        values = self.field.from_ints(list(terms.values()), e.den * d)
        return Polynomial(self.n_vars, self.field, dict(zip(terms, values)))

    # -- multiplication ---------------------------------------------------

    def _columns(self, i: int) -> tuple[list, int]:
        """The variable tables of degree i as sparse columns over one
        denominator: cols[j][c] holds the (row, value) pairs of the nonzero
        coordinates of x_j times basis class c, built once from the echelon
        of degree i+1 and divided by their content."""
        if self._sparse[i] is None:
            terms, d = self._rep_terms(i)
            index, above = self.piece(i).index, self.piece(i + 1)
            up = monomial_steps(self.n_vars, i + 1)[1]
            ech = above.echelon
            # the class of the monomial at position c of degree i+1 without
            # a pinned basis: den times unit vector unit[c] for a basis
            # monomial, minus the coeffs row of its pivot for any other
            unit = {c: t for t, c in enumerate(ech.nonpivots)}
            row = dict(zip(ech.pivots, ech.coeffs))
            # each term as the positions of its products with the variables
            terms = [[(up[index[m]], c) for m, c in rep] for rep in terms]
            h = above.dim
            cols = []
            for j in range(self.n_vars):
                for rep in terms:
                    acc = [0] * h
                    for ups, c in rep:
                        m = ups[j]
                        if m in unit:
                            acc[unit[m]] += c * ech.den
                        else:
                            acc = [a - c * v for a, v in zip(acc, row[m])]
                    cols.append(acc)
            cols, factor = above.pin(cols)
            den = ech.den * factor
            g = gcd(den * d, *chain(*cols))
            p = self.field.p
            # reduced before zeros are dropped: a pinned representative's
            # terms can sum to a nonzero multiple of p
            if g > 1:
                cols = [[v // g for v in col] for col in cols]
            if p:
                cols = [[v % p for v in col] for col in cols]
            cols = iter([[(r, t) for r, t in enumerate(col) if t]
                         for col in cols])
            self._sparse[i] = ([list(islice(cols, len(terms)))
                                for _ in range(self.n_vars)], den * d // g)
        return self._sparse[i]

    def _rep_terms(self, d: int) -> tuple[list, int]:
        """The terms (exponents, c) of each basis representative of degree d,
        the c ints over one denominator, converted once."""
        if self._reps[d] is None:
            reps = self.piece(d).basis_reps
            ints, den = self.field.to_ints(
                [c for rep in reps for c in rep.terms.values()])
            cs = iter(ints)
            self._reps[d] = ([list(zip(rep.terms, cs)) for rep in reps], den)
        return self._reps[d]

    def _times(self, a: AlgebraElement, vecs: list, i: int, k: int = 1):
        """a^k times each int coordinate vector of degree i in vecs, and the
        factor their denominator gains.

        a is a sum of paths of table steps, each scaled by an int: a term
        c*m of a representative, times a's coordinate u, is the path of the
        variables of m scaled by u*c.  A step multiplies by a weighted sum of
        variables and reads only the nonzero entries of their columns; a
        degree-1 factor is one step, with one int weight per variable."""
        coords, den = a.ints, a.den
        reps, d = self._rep_terms(a.degree)
        p = self.field.p
        if a.degree == 1:
            weights = [0] * self.n_vars
            for u, rep in zip(coords, reps):
                for exps, c in rep:
                    weights[exps.index(1)] += u * c
            if p:
                weights = [w % p for w in weights]
            paths = [([[(j, w) for j, w in enumerate(weights) if w]], 1)]
        else:
            paths = [([[(j, 1)] for j, e in enumerate(exps) for _ in range(e)],
                      u * c) for u, rep in zip(coords, reps) if u
                     for exps, c in rep]
        factor = 1
        for _ in range(k):
            steps = [self._columns(t) for t in range(i, i + a.degree)]
            factor *= den * d * prod(t for _, t in steps)
            dims = self.hilbert[i + 1:i + 1 + a.degree]
            out = []
            for vec in vecs:
                acc = [0] * self.hilbert[i + a.degree]
                for path, s in paths:
                    w = vec
                    for h, weighted, (cols, _) in zip(dims, path, steps):
                        nxt = [0] * h
                        for c, v in enumerate(w):
                            if v:
                                for j, wj in weighted:
                                    vw = v * wj
                                    for r, t in cols[j][c]:
                                        nxt[r] += vw * t
                        w = nxt if p is None else [x % p for x in nxt]
                    for r, v in enumerate(w):
                        if v:
                            acc[r] += s * v
                out.append(acc)
            vecs = out
            i += a.degree
        return vecs, factor

    def multiply(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        target = a.degree + b.degree
        if target > self.socle_degree:
            raise DegreeOverflowError(
                f"product degree {target} above socle degree {self.socle_degree}")
        if a.degree > b.degree:
            a, b = b, a
        (out,), factor = self._times(a, [b.ints], b.degree)
        return AlgebraElement(target, out, b.den * factor, self.field)

    def power(self, x: AlgebraElement, k: int) -> AlgebraElement:
        """k-th power of a degree-1 element: x's own int vector times x
        k - 1 times, each one sparse step through the variable tables.  x^0
        is the unit, and x^1 takes no step."""
        if x.degree != 1:
            raise AlgebraError("power expects a degree-1 element")
        if k < 0:
            raise AlgebraError("negative exponent")
        if k > self.socle_degree:
            raise DegreeOverflowError(
                f"exponent {k} above socle degree {self.socle_degree}")
        if k == 0:
            return self.unit()
        (out,), factor = self._times(x, [x.ints], 1, k - 1)
        return AlgebraElement(k, out, x.den * factor, self.field)

    def mul_map(self, alpha: AlgebraElement, i: int,
                m: int = 1) -> tuple[list, int]:
        """Rows of the matrix of multiplication by alpha^m from degree i to
        degree i + m*deg(alpha), as ints over one denominator (residues over
        1 on F_p): m steps of alpha through the tables on the unit vectors of
        degree i, so the class alpha^m is never formed."""
        if m < 0:
            raise AlgebraError("negative exponent")
        target = i + m * alpha.degree
        if target > self.socle_degree:
            raise DegreeOverflowError(
                f"multiplication map lands in degree {target}, above socle "
                f"degree {self.socle_degree}")
        h = self.dim(i)
        cols, den = self._times(
            alpha, [[int(r == c) for r in range(h)] for c in range(h)], i, m)
        p = self.field.p
        return [[v % p for v in row] if p else list(row)
                for row in zip(*cols)], den

    def map_rank(self, alpha: AlgebraElement, i: int, m: int = 1) -> int:
        """Rank of multiplication by alpha^m from degree i: the rank of the
        int rows of `mul_map(alpha, i, m)`.

        With a shadow, the map of alpha's class mod p is ranked first, when
        alpha's lift reduces mod p and its degree has the same basis
        monomials there.  The ideal has the same dimension in every degree
        over Q and mod p, so the quotient is free over Z localised at p and
        the rank mod p is at most the rank over Q: a rank mod p of
        min(h_i, h_(i + m*deg alpha)) is the rank over Q.  Only a lower rank
        is recomputed over the algebra's own field.
        """
        if self.shadow is not None:
            image = self._shadow_image(alpha)
            if image is not None:
                full = min(self.dim(i), self.dim(i + m * alpha.degree))
                if self.shadow.map_rank(image, i, m) == full:
                    return full
        rows, _ = self.mul_map(alpha, i, m)
        return echelon_rows(rows, self.dim(i), self.field).rank

    def _shadow_image(self, alpha: AlgebraElement) -> AlgebraElement | None:
        """The class mod p of alpha's lift in the shadow, or None when the
        lift does not reduce mod p or alpha's degree has other basis
        monomials mod p.

        With the same basis monomials, the lift is the sum of ints[t] / den
        times basis monomial t, whose class mod p has the coordinates ints
        times den^-1 mod p.  The ints share no content with den, so some
        coefficient keeps p in its denominator exactly when p divides den.
        Only a built algebra has a shadow, so no piece is pinned."""
        d, field = alpha.degree, self.shadow.field
        if (alpha.den % field.p == 0 or self.piece(d).basis_monomials
                != self.shadow.piece(d).basis_monomials):
            return None
        return AlgebraElement(d, alpha.ints, alpha.den, field)

    # -- duality and structure checks ------------------------------------

    def socle_dim(self) -> int:
        return self.hilbert[self.socle_degree]

    def pairing_check(self, s: int) -> tuple[bool, list, int]:
        """Multiplication pairing of degrees s and N-s into the socle line.

        Returns (perfect, rows, den), the matrix as int rows over one
        denominator (residues over F_p); perfect means it is square of full
        rank.  Entry (a, b) is phi(r_a * r_b) for the representatives
        r_a, r_b of the two basis classes, where phi is the socle coordinate
        on the degree-N monomials: a Gorenstein pairing is one linear
        functional on A_N (Macaulay duality).  With one non-pivot column the
        socle echelon gives phi in closed form, its one kernel vector: den
        at that column and -coeffs[i][0] at pivot i, over den (`classes`).
        """
        N = self.socle_degree
        if not 0 <= s <= N:
            raise AlgebraError(f"degree {s} outside 0..{N}")
        if self.socle_dim() != 1:
            raise AlgebraError("pairing needs a one-dimensional socle")
        # phi, read once per algebra, and the representatives'
        # coefficients as ints over one denominator each
        if self._phi is None:
            classes, den = self.piece(N).classes()
            self._phi = {m: v for m, (v,) in classes.items() if v}, den
        phi, den = self._phi
        (left, d), (right, d2) = self._rep_terms(s), self._rep_terms(N - s)
        p = self.field.p
        rows = [[sum(c * c2 * phi.get(tuple(map(add, m, m2)), 0)
                     for m, c in a for m2, c2 in b) for b in right]
                for a in left]
        rows = [[v % p for v in row] if p else row for row in rows]
        square = self.dim(s) == self.dim(N - s)
        ok = square and echelon_rows(rows, self.dim(N - s),
                                     self.field).rank == self.dim(s)
        return ok, rows, den * d * d2

    def is_standard(self) -> bool:
        """Every piece is spanned by products of degree-1 classes, read from
        the basis monomials alone: for each i < N, every basis monomial b of
        degree i+1 must have a variable x_j with b / x_j a basis monomial of
        degree i.

        Precondition: the pieces are those of a homogeneous ideal J, so
        x_j * J_i lies in J_(i+1), and each echelon's pivots are the
        graded-lex leading monomials of its piece of J.  Every constructor
        guarantees this over every field: each piece is the unique reduced
        echelon of J_i over the graded-lex monomials, with leftmost pivots.

        Proof.  If b = x_j * b' with b' a basis monomial of degree i, the
        class of b is x_j times the class of b', a class of A_i in any pinned
        basis, since x_j * J_i lies in J_(i+1).  The classes of the basis
        monomials span A_(i+1), so the variables times A_i reach all of it.
        Conversely, the basis monomials are the standard monomials of J,
        which form an order ideal (Macaulay's basis theorem): if b / x_j
        were the leading monomial of f in J_i, b would lead x_j * f.  So
        every algebra the constructors build reads True, and False marks
        pieces that are no ideal's, such as a hand-made Hilbert vector
        (1, 0, 1), where x_0 lies in J_1 and x_0^2 does not.
        """
        for i in range(self.socle_degree):
            below = set(self.piece(i).basis_monomials)
            for b in self.piece(i + 1).basis_monomials:
                if not any(e and b[:j] + (e - 1,) + b[j + 1:] in below
                           for j, e in enumerate(b)):
                    return False
        return True

    # -- derived algebras -------------------------------------------------

    def quotient_by_ann(self, alpha: AlgebraElement) -> "GradedAlgebra":
        """Quotient by the annihilator ideal of alpha.

        The quotient of a Gorenstein algebra by (0:alpha) is Gorenstein with
        socle degree N - deg(alpha).  Degenerate inputs that die earlier are
        reported with the top nonzero degree as socle degree.
        """
        if alpha.is_zero:
            raise AlgebraError("quotient by the annihilator of zero")
        e = alpha.degree
        top = self.socle_degree - e
        pieces = []
        for i in range(top + 1):
            old = self.piece(i)
            rows = old.echelon.full_rows()
            ech = echelon_rows(self.mul_map(alpha, i)[0], old.dim,
                               self.field)
            for kv in ech.kernel_ints():
                lifted = self.lift(AlgebraElement(i, kv, ech.den, self.field))
                if not lifted.is_zero:
                    rows.append(lifted.coefficient_vector(old.ambient))
            ech = echelon_rows(rows, len(old.ambient), self.field)
            pieces.append(_Piece(i, old.ambient, ech, self.field))
        while len(pieces) > 1 and pieces[-1].dim == 0:
            pieces.pop()
        presentation = {"kind": "quotient_by_ann",
                        "parent": self.presentation.get("kind"),
                        "alpha_degree": e}
        return GradedAlgebra(self.n_vars, self.field, pieces, presentation)

    def with_degree_basis(self, degree: int,
                          reps: list[Polynomial]) -> "GradedAlgebra":
        """Re-coordinatize one graded piece against pinned representatives."""
        piece = self.piece(degree)
        if len(reps) != piece.dim:
            raise AlgebraError(
                f"need {piece.dim} representatives, got {len(reps)}")
        new_piece = _Piece(degree, piece.ambient, piece.echelon, self.field)
        columns = []
        for rep in reps:
            if (rep.is_zero or rep.homogeneous_degree() != degree
                    or rep.n_vars != self.n_vars or rep.field != self.field):
                raise AlgebraError(
                    "pinned representatives must be nonzero homogeneous of "
                    f"degree {degree} over the algebra's ring")
            columns.append(new_piece.coords(rep.terms.items()))
        # M has the representatives' coordinates as columns; the rows of
        # [M | I], each scaled by the lcm D of their denominators, reduce to
        # [I | M^-1], so the echelon's coeffs over its den are the inverse
        D = lcm(*(den for _, den in columns))
        n = piece.dim
        ech = echelon_rows(
            [[ints[r] * (D // den) for ints, den in columns]
             + [D * (c == r) for c in range(n)] for r in range(n)],
            2 * n, self.field)
        if ech.pivots != list(range(n)):
            raise AlgebraError(
                f"pinned representatives of degree {degree} are linearly "
                "dependent in the quotient")
        new_piece.basis_reps = list(reps)
        new_piece.basis_inverse = (ech.coeffs, ech.den)
        pieces = [self.piece(d) for d in range(self.socle_degree + 1)]
        pieces[degree] = new_piece
        return GradedAlgebra(self.n_vars, self.field, pieces, self.presentation)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        basis = []
        for d in range(self.socle_degree + 1):
            level = []
            for rep in self.piece(d).basis_reps:
                terms = rep.sorted_terms()
                if len(terms) == 1 and terms[0][1] == self.field.one():
                    level.append(list(terms[0][0]))
                else:
                    level.append({"terms": [[str(c), list(m)]
                                            for m, c in terms]})
            basis.append(level)
        pres = {"kind": self.presentation.get("kind")}
        if "form" in self.presentation:
            pres["form"] = self.presentation["form"].to_string()
        if "generators" in self.presentation:
            pres["generators"] = [g.to_string()
                                  for g in self.presentation["generators"]]
        if "alpha_degree" in self.presentation:
            pres["alpha_degree"] = self.presentation["alpha_degree"]
            pres["parent"] = self.presentation.get("parent")
        return {
            "n_vars": self.n_vars,
            "field": str(self.field),
            "presentation": pres,
            "socle_degree": self.socle_degree,
            "hilbert": list(self.hilbert),
            "basis": basis,
        }


# -- constructors -----------------------------------------------------------


def from_inverse_system(form: Polynomial) -> GradedAlgebra:
    """The algebra of differential operators modulo the annihilator of a
    form, piece i read off one elimination of the degree-i catalecticant."""
    d = form.homogeneous_degree()
    if form.is_zero:
        raise AlgebraError("zero form has no inverse-system algebra")
    if d is None or d < 1:
        raise AlgebraError("inverse system needs a homogeneous form of degree >= 1")
    p = form.field.p
    # x^e sends a degree-d form to e! times its x^e coefficient, so over F_p
    # the top piece, the socle, is 0 exactly when each term has an exponent >= p
    if p and all(max(m) >= p for m in form.terms):
        raise AlgebraError(
            f"no degree-{d} socle over {form.field}: each term has an exponent "
            f">= {p}, so every degree-{d} contraction of the form is 0")
    n = form.n_vars
    pieces = [_Piece(i, monomial_basis(n, i), annihilator_echelon(form, i),
                     form.field) for i in range(d + 1)]
    return GradedAlgebra(n, form.field, pieces,
                         {"kind": "inverse_system", "form": form})


def expected_ci_hilbert(degrees) -> list[int]:
    """Coefficients of the product of 1 + t + ... + t^(e-1) over the degrees
    e, which is prod(1 - t^e) / (1 - t)^n for n forms in n variables."""
    out = [1]
    for e in degrees:
        out = [sum(out[max(0, i - e + 1):i + 1])
               for i in range(len(out) + e - 1)]
    return out


def from_regular_sequence(forms: list[Polynomial]) -> GradedAlgebra:
    """Quotient by n+1 forms in n+1 variables, validated as a regular sequence.

    Acceptance is by exact equality of the computed Hilbert function with the
    complete-intersection series, and by the quotient vanishing in degree
    N+1; a failure raises NotRegularSequence at the first failing degree.

    Over Q the forms are first reduced mod SHADOW_PRIME.  When the F_p
    algebra passes both checks the forms are regular over Q as well, the Q
    pieces are built lazily, in degree order from the same F5 rows as the
    eager Q build, and the F_p algebra is kept as the shadow; otherwise the
    Q algebra is built eagerly and checked as over any field.
    """
    if not forms:
        raise AlgebraError("empty generator list")
    n = forms[0].n_vars
    field = forms[0].field
    if len(forms) != n:
        raise AlgebraError(
            f"need exactly {n} forms in {n} variables, got {len(forms)}")
    degrees = []
    for f in forms:
        if f.n_vars != n or f.field != field:
            raise AlgebraError("generators live over different rings")
        e = f.homogeneous_degree()
        if f.is_zero or e is None or e < 1:
            raise AlgebraError(
                "generators must be nonzero homogeneous of degree >= 1")
        degrees.append(e)
    expected = expected_ci_hilbert(degrees)
    if field.is_rational:
        shadow = _modular_shadow(forms, degrees, expected)
        if shadow is not None:
            return GradedAlgebra(n, field, _macaulay_pieces(forms, degrees),
                                 _ci_presentation(forms, degrees), expected,
                                 shadow)
    return _checked_regular_sequence(forms, degrees, expected)


def _ci_presentation(forms, degrees) -> dict:
    return {"kind": "regular_sequence", "generators": list(forms),
            "generator_degrees": tuple(degrees)}


def _macaulay_rows(forms, degrees, i: int, leading):
    """The Macaulay rows of degree i, generator by generator: f_g times every
    monomial of degree i - deg f_g.

    The row m * f_g is left out when m is a leading monomial of I_<g, the
    ideal of the generators before g: `leading[g][d]` holds those of degree
    d as indices into monomial_basis(n, d).  If h in I_<g has leading
    monomial m, then m * f_g = h * f_g - (h - m) * f_g; the first term lies
    in I_<g and the second in the span of rows m' * f_g whose m' comes later
    in the basis, so by induction over g and over m the kept rows span the
    same space and the echelon form does not change.
    This is the F5 criterion (Faugere, ISSAC 2002); for a regular sequence no
    kept row reduces to zero (Bardet, Faugere and Salvy, J. Symb. Comput.
    2015), because every syzygy of a regular sequence is Koszul.

    Also returns the index of each generator's first row.
    """
    n = forms[0].n_vars
    ambient = monomial_basis(n, i)
    index = {m: c for c, m in enumerate(ambient)}
    rows = []
    starts = []
    for g, (f, e) in enumerate(zip(forms, degrees)):
        starts.append(len(rows))
        if e > i:
            continue
        skip = leading[g][i - e]
        for k, mult in enumerate(monomial_basis(n, i - e)):
            if k in skip:
                continue
            vec = [0] * len(ambient)
            for exps, coeff in f.terms.items():
                vec[index[tuple(map(add, exps, mult))]] = coeff
            rows.append(vec)
    return ambient, rows, starts


def _macaulay_pieces(forms, degrees):
    """The pieces of the quotient in degree order, without end, from the rows
    that the F5 criterion keeps: the route over Q, where reduced rows carry
    large rationals (over F_p see _fp_pieces).

    After degree d, leading[g][d] is read off the echelon: the pivots whose
    rows came from generators before g, which by stable pivoting are the
    leading monomials of I_<g in degree d.  The rows of later degrees then
    skip them (see _macaulay_rows).
    """
    field = forms[0].field
    leading = [[] for _ in forms]
    for i in count():
        ambient, rows, starts = _macaulay_rows(forms, degrees, i, leading)
        ech = echelon_rows(rows, len(ambient), field)
        for g, start in enumerate(starts):
            leading[g].append({c for c, o in zip(ech.pivots, ech.origins)
                               if o < start})
        yield _Piece(i, ambient, ech, field)


def _root(link, c, j):
    """The variable that stands for decomposition j of monomial c: its
    component's smallest, following link (see _fp_pieces)."""
    while (c, j) in link:
        j = link[c, j]
    return j


def _residue_rows(sparse, width: int, p: int):
    """Each row of sparse, given as (position, int) pairs, summed into a
    dense row of residues mod p, drawn lazily; zero rows are left out."""
    for pairs in sparse:
        vec = [0] * width
        for k, v in pairs:
            vec[k] += v
        vec = [v % p for v in vec]
        if any(vec):
            yield vec


def _fp_pieces(forms, degrees):
    """The pieces of the quotient over F_p in degree order, without end, each
    read off the reduced rows of the degree below.

    The basis monomials form an order ideal, so those of degree i lie in S,
    the products x_j * b of the variables with the basis monomials b of
    degree i - 1.  Any other monomial M is x_j * m for a pivot m of degree
    i - 1, with j the first variable of M, and m is congruent to minus its
    `coeffs` row, so M is congruent to a vector over S: its representative.
    The ideal in degree i is spanned by x_j times the reduced rows r_m of
    degree i - 1 and by the generators of degree i.  Their representatives
    are the rows of one echelon over S.  The non-pivots of that echelon are
    the basis monomials of degree i, and the reduced row of any other M is M
    less the normal form of its representative (Mourrain, AAECC 1999; F4
    reduces by earlier rows the same way, Faugere, JPAA 1999).

    Most products x_j * r_m are left out, by Buchberger's chain criterion in
    degree one (Buchberger 1979; Gebauer and Moller, JSC 1988).  The row
    x_j * r_m has leading monomial M = x_j * m, since r_m is m plus later
    basis monomials and the columns are graded-lex.  When u = M / (x_a * x_b)
    is a pivot of degree i - 2, expanding x_b * r_u and x_a * r_u in the
    reduced rows of degree i - 1 shows that x_a * r_(x_b * u) less
    x_b * r_(x_a * u) is a combination of rows whose leading monomials come
    after M.  So, by induction from the last M, one row per connected
    component of these pairs spans the rest of the component, and the
    component that holds M's first variable needs none when M lies outside
    S, since that row's representative is 0.  This holds for any forms,
    regular or not, and the reduced echelon is unique, so every piece is
    the one a full Macaulay matrix gives.  Values stay plain residues mod p
    throughout, the form every F_p Echelon holds.

    The kept rows are drawn lazily, in this order: one kept product per
    monomial x_j * m of S, each leading at its own position with entry 1,
    so they are independent; then the other kept products; then the
    generators of degree i.  The first |S| - CI_i rows go to the echelon,
    CI_i the complete-intersection value of degree i (0 past the socle
    degree), and the degree stops there when their rank is |S| - CI_i;
    otherwise one echelon runs over every row.  The stop is exact.  The
    echelon over S has rank |S| - h_i.  For n forms of degrees d_1..d_n in n
    variables over any field, each Macaulay matrix has rank at most that of
    forms with indeterminate coefficients, whose nonzero minors stay nonzero
    polynomials in the coefficients; those generic forms are a regular
    sequence, their resultant being nonzero at x_j^(d_j), so their Hilbert
    function is CI.  So h_i >= CI_i, the rank is at most |S| - CI_i, and rows
    of that rank span every row; the reduced echelon is unique, so the
    piece, and any NotRegularSequence its dimension raises, is the same.

    Every monomial is addressed by its position in `monomial_basis` order,
    through `monomial_steps`: the basis, the reduced rows, S, the chain
    links (x_b * x_a * u is up[up_below[u][a]][b]), the kept products and the
    normal forms.  M / x_j for the first variable x_j of M is read from
    down[M], and the representative of a monomial outside S is built only
    when a drawn row reads it.
    """
    field = forms[0].field
    p, n = field.p, forms[0].n_vars
    ci = expected_ci_hilbert(degrees)
    pairs = list(combinations(range(n), 2))
    generators = {}
    for f, e in zip(forms, degrees):
        generators.setdefault(e, []).append(f.terms.items())
    yield _Piece(0, monomial_basis(n, 0), Echelon(1, field, [], [0], []),
                 field)
    # by position: the basis monomials of the degree below, its reduced rows
    # (pivot -> coeffs row), the pivots of degree i - 2 and the up map from
    # degree i - 2
    basis, reduced, lower, up_below = [0], {}, (), []
    for i in count(1):
        index, up, down = monomial_steps(n, i)
        products = [[up[b][j] for b in basis] for j in range(n)]
        S = sorted(set().union(*products))
        pos = {c: k for k, c in enumerate(S)}
        # shift[j][t]: the position in S of x_j * basis[t]
        shift = [[pos[c] for c in row] for row in products]

        def rep(c):
            """The representative of monomial c as (position, residue)
            pairs: c itself in S, else x_j times minus the row of c / x_j."""
            k = pos.get(c)
            if k is not None:
                return [(k, 1)]
            j, m = down[c]
            return [(q, p - v) for q, v in zip(shift[j], reduced[m]) if v]

        # link[c, j]: a smaller variable in the component of decomposition
        # j of monomial c, joined through a pivot u of degree i - 2; only the
        # decompositions missing from link are the rows kept
        link = {}
        for u in lower:
            for a, b in pairs:
                c = up[up_below[u][a]][b]
                ra, rb = _root(link, c, a), _root(link, c, b)
                if ra != rb:
                    link[c, max(ra, rb)] = min(ra, rb)

        # the kept products x_j * r_m as (monomial, variable, row): first one
        # per monomial of S, then the others; outside S, the first variable
        # gives no row
        head, rest = {}, []
        for m, row in reduced.items():
            for j, c in enumerate(up[m]):
                if (c, j) in link or (c not in pos and down[c][0] == j):
                    continue
                if c in pos and c not in head:
                    head[c] = c, j, row
                else:
                    rest.append((c, j, row))
        rows = _residue_rows(chain(
            (chain(rep(c), zip(shift[j], row))
             for c, j, row in chain(head.values(), rest)),
            ([(k, s * v) for exps, s in terms for k, v in rep(index[exps])]
             for terms in generators.get(i, ()))), len(S), p)
        # the rank is at most bound; rank-many rows span the piece
        bound = len(S) - (ci[i] if i < len(ci) else 0)
        kept = list(islice(rows, bound))
        ech = echelon_rows(kept, len(S), field)
        if ech.rank < bound and (more := list(rows)):
            ech = echelon_rows(kept + more, len(S), field)

        # negated[k]: minus the normal form of position k of S.  A pivot of
        # S gets its own row back and the non-pivots of S are the basis; a
        # monomial x_j * m outside S, m the pivot of row r, gets the sum of
        # -r[t] * negated[k] over the positions k of x_j * basis[t]
        h = len(ech.nonpivots)
        negated = dict(zip(ech.pivots, ech.coeffs))
        for t, k in enumerate(ech.nonpivots):
            negated[k] = [p - 1 if r == t else 0 for r in range(h)]
        free = set(ech.nonpivots)
        pivots, coeffs = [], []
        for c, (j, m) in enumerate(down):
            k = pos.get(c)
            if k in free:
                continue
            if k is None:
                coeffs.append([-sum(map(mul, reduced[m], col)) % p for col in
                               zip(*[negated[q] for q in shift[j]])])
            else:
                coeffs.append(negated[k])
            pivots.append(c)
        basis = [S[k] for k in ech.nonpivots]
        yield _Piece(i, monomial_basis(n, i), Echelon(len(down), field,
                                                      pivots, basis, coeffs),
                     field)
        lower, up_below = reduced, up
        reduced = dict(zip(pivots, coeffs))


def _checked_regular_sequence(forms, degrees, expected) -> GradedAlgebra:
    """The eager build over the forms' own field, with both checks."""
    pieces = (_macaulay_pieces if forms[0].field.is_rational
              else _fp_pieces)(forms, degrees)
    built = []
    # zip reads expected first, so no piece above the socle degree is drawn
    for h, piece in zip(expected, pieces):
        if piece.dim != h:
            raise NotRegularSequence(piece.degree, h, piece.dim)
        built.append(piece)
    algebra = GradedAlgebra(forms[0].n_vars, forms[0].field, built,
                            _ci_presentation(forms, degrees))
    _require_artinian(algebra, pieces)
    return algebra


def _require_artinian(algebra: GradedAlgebra, pieces):
    """Raise NotRegularSequence unless the quotient vanishes in degree N+1.

    The Hilbert function already matches the CI series through N, so
    h_N = 1.  A point P of V(I) over the algebraic closure would make
    evaluation at P a nonzero functional on A_N, so the pairing
    A_1 x A_(N-1) -> A_N would be (a, b) -> a(P) b(P), of rank at most 1.
    A complete intersection is Gorenstein and its pairing is perfect.  So
    with h_1 >= 2 a perfect pairing proves V(I) empty; otherwise, and on the
    error path, the degree-(N+1) piece is drawn from `pieces`, the in-order
    build that stopped at degree N.
    """
    N = algebra.socle_degree
    if algebra.dim(1) >= 2 and algebra.pairing_check(1)[0]:
        return
    top = next(pieces)
    if top.dim:
        raise NotRegularSequence(N + 1, 0, top.dim)


def _mod_prime(p: Polynomial, field: FieldSpec) -> Polynomial | None:
    """The image of a polynomial over Q in F_p[x], or None when a coefficient
    has a denominator divisible by p."""
    try:
        return Polynomial(p.n_vars, field, p.terms)
    except FieldMismatchError:
        return None


def _modular_shadow(forms, degrees, expected) -> GradedAlgebra | None:
    """The forms mod SHADOW_PRIME as a checked F_p algebra, or None on a miss.

    A hit proves the forms regular over Q: their Macaulay resultant reduces
    mod p, and it is nonzero mod p.  Then the ideal has the same dimension
    in every degree over Q and over F_p.
    """
    field = FieldSpec.prime(SHADOW_PRIME)
    reduced = [_mod_prime(f, field) for f in forms]
    if any(g is None or g.is_zero for g in reduced):
        return None
    try:
        return _checked_regular_sequence(reduced, degrees, expected)
    except NotRegularSequence:
        return None


def socle_contraction_value(algebra: GradedAlgebra, e: AlgebraElement):
    """Value of a top-degree class applied to the presenting form.

    Only defined for inverse-system algebras: the class of a degree-N
    operator sends the form to a constant, and that constant depends only on
    the class.
    """
    if algebra.presentation.get("kind") != "inverse_system":
        raise AlgebraError("contraction values need an inverse-system algebra")
    if e.degree != algebra.socle_degree:
        raise AlgebraError("expected a socle-degree class")
    form = algebra.presentation["form"]
    return contract(algebra.lift(e), form).constant_value()
