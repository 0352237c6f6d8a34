"""Lefschetz-property probes, hessians, and the rank/hessian cross-check.

The probes are randomized-witness tests for generic statements: a single
exact witness certifies that the generic multiplication map has maximal
rank, while failure across all trials is (strong) evidence only.  A probe
reads one multiplication map, that of L^m, as the int rows of
`mul_map(L, k, m)`: m steps of L through the algebra's variable tables, with
no class L^m formed first (Maeno and Watanabe, Illinois J. Math. 2009).
For small square cases failure is upgraded to proof by expanding the
determinant of the multiplication map symbolically in the coordinates t of
the probing linear form and checking that it is the zero polynomial.  That
map is the sum, over the monomials b^a of degree m in the degree-1 basis,
of the map of b^a times multinomial(m; a) t^a, its int rows made field
values there.

A probe ranks its map through `GradedAlgebra.map_rank`, so an algebra with
a shadow (a regular sequence over Q, also built mod a prime) is probed mod
p first, with the same integer linear form.  A rank mod p that reaches the
largest possible rank is the rank over Q, and only a lower rank is
recomputed over Q, so every probe returns the Q rank and finds the same
first witness.

The hessian verdict reads the hessian at one seeded integer point first,
straight from the form's terms as ints over one denominator (residues over
F_p), with no second-partial polynomial built.  A nonzero determinant there
proves that the hessian is nonzero (Schwartz 1980; Zippel 1979).  When it
is 0, a cone's hessian vanishes.  Over Q, in at most 4 variables and
degree >= 2, the hessian vanishes only for a cone: the Gordan-Noether
theorem, which the source paper reproves, and which fails in
characteristic p.  A linear form has a zero hessian without being a cone,
so it is left out.  Any other form's determinant is expanded, so the
verdict is exact over every field, including a small F_p on whose points a
nonzero hessian can vanish.  A report's matrix of second partials, and its
symbolic determinant, are otherwise built on first read.  The rank/hessian
cross-check reads the hessian at its points from the same int evaluator.
"""

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from operator import add, mul

from .algebra import (AlgebraElement, AlgebraError, GradedAlgebra,
                      from_inverse_system, socle_contraction_value)
from .apolarity import contract, is_cone
from .exactla import MAX_SYMBOLIC_DET, Matrix, det_ff
from .polyring import PolyError, Polynomial, monomial_basis, scalar_str
from .seeding import DEFAULT_SEED, random_int_coords, rng_for

SLP = "SLP"
WLP = "WLP"

MAX_SOCLE_FACTORIAL = 20


@dataclass
class ProbeReport:
    """Outcome of a randomized maximal-rank probe at one degree."""

    kind: str
    k: int
    target_rank: int
    max_rank_found: int
    witness: AlgebraElement | None
    trials: int
    seed: int
    holds: bool
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "target_rank": self.target_rank,
            "max_rank": self.max_rank_found,
            "holds": self.holds,
            "certified": self.certified,
            "witness": (None if self.witness is None
                        else [scalar_str(c) for c in self.witness.coords]),
            "trials": self.trials,
            "seed": self.seed,
        }


def _exponent(algebra: GradedAlgebra, kind: str, k: int) -> int:
    """The m of the probed map, multiplication by L^m from degree k: N - 2k
    for SLP, 1 for WLP."""
    return algebra.socle_degree - 2 * k if kind == SLP else 1


def lefschetz_probe(algebra: GradedAlgebra, kind: str, k: int,
                    trials: int = 8, seed: int = DEFAULT_SEED) -> ProbeReport:
    """Sample linear forms and report the maximal rank found.

    SLP at degree k tests whether multiplication by the (N-2k)-th power of a
    linear form gives an isomorphism from degree k to degree N-k; WLP tests
    maximal rank of multiplication by the form itself from degree k to k+1.
    A witness achieving the target rank settles the generic property; when
    no witness is found, small square cases are settled symbolically.
    """
    N = algebra.socle_degree
    if kind not in (SLP, WLP):
        raise AlgebraError(f"unknown probe kind {kind!r}")
    if trials < 1:
        raise AlgebraError("need at least one trial")
    m = _exponent(algebra, kind, k)
    if not 0 <= k <= k + m <= N:
        raise AlgebraError(f"{kind} degree {k} out of range for socle {N}")
    h_source, h_target = algebra.dim(k), algebra.dim(k + m)
    target = h_source if kind == SLP else min(h_source, h_target)
    best = 0
    witness = None
    for t in range(trials):
        rng = rng_for(seed, t)
        L = algebra.element(1, random_int_coords(rng, algebra.dim(1)))
        rank = algebra.map_rank(L, k, m)
        if rank > best:
            best = rank
            witness = L
        if best == target:
            break
    holds = best == target
    certified = holds or (
        h_source == h_target and target <= MAX_SYMBOLIC_DET
        and symbolic_probe_determinant(algebra, kind, k).is_zero)
    return ProbeReport(kind=kind, k=k, target_rank=target, max_rank_found=best,
                       witness=witness, trials=trials, seed=seed, holds=holds,
                       certified=certified)


def symbolic_multiplication_matrix(algebra: GradedAlgebra, k: int,
                                   exponent: int) -> list[list[Polynomial]]:
    """Entries of the multiplication map by L^exponent at degree k, as
    polynomials in the coordinates t of L over the degree-1 basis.

    With L = sum t_c b_c and m = exponent, L^m is the sum over a with
    |a| = m of multinomial(m; a) t^a b^a, so entry (r, c) is the sum of
    multinomial(m; a) mul_map(b^a, k)[r][c] t^a, where b^a is the unit
    multiplied by each degree-1 basis class b_c a_c times.
    """
    h1, field = algebra.dim(1), algebra.field
    maps = {}
    for mon in monomial_basis(h1, exponent):
        b_a, scale = algebra.unit(), factorial(exponent)
        for b, e in zip(algebra.basis(1), mon):
            for _ in range(e):
                b_a = algebra.multiply(b_a, b)
            scale //= factorial(e)
        rows, den = algebra.mul_map(b_a, k)
        maps[mon] = (field.from_int(scale),
                     [field.from_ints(row, den) for row in rows])
    return [[Polynomial(h1, field, {mon: s * entries[r][c]
                                    for mon, (s, entries) in maps.items()})
             for c in range(algebra.dim(k))]
            for r in range(algebra.dim(k + exponent))]


def symbolic_probe_determinant(algebra: GradedAlgebra, kind: str,
                               k: int) -> Polynomial:
    """Determinant of the probed map as a polynomial in the coordinates of L."""
    entries = symbolic_multiplication_matrix(algebra, k,
                                             _exponent(algebra, kind, k))
    if not entries or len(entries) != len(entries[0]):
        raise AlgebraError("symbolic certification needs a square map")
    return det_ff(Matrix(entries, algebra.field))


class HessianReport:
    """Whether a form's hessian determinant vanishes identically, with its
    second-partial matrix and that determinant built on first read.

    repr and == show matrix and vanishes only: det is a function of matrix,
    and printing it would expand it.
    """

    def __init__(self, form: Polynomial, vanishes: bool):
        self.form = form
        self.vanishes = vanishes

    @cached_property
    def matrix(self) -> Matrix:
        return Matrix(second_partials(self.form), self.form.field)

    @cached_property
    def det(self) -> Polynomial:
        return det_ff(self.matrix)

    def __eq__(self, other):
        return (isinstance(other, HessianReport)
                and self.vanishes == other.vanishes
                and self.matrix == other.matrix)

    def __repr__(self):
        return (f"HessianReport(matrix={self.matrix!r}, "
                f"vanishes={self.vanishes!r})")


def second_partials(form: Polynomial) -> list[list[Polynomial]]:
    """The matrix of second partials of a homogeneous form: entry (i, j) is
    the contraction of y_i*y_j with it."""
    n, field = form.n_vars, form.field
    ys = [[int(k == i) for k in range(n)] for i in range(n)]
    return [[contract(Polynomial(n, field, {tuple(map(add, a, b)): 1}), form)
             for b in ys] for a in ys]


def _point_hessian(form: Polynomial, point) -> tuple[list, int]:
    """The second-partial matrix of a homogeneous form at a point, as int
    rows over one denominator (residues over F_p, where it is 1).

    With the coefficients and the point as ints, entry (i, j) is the sum over
    the terms c*x^e of c * e_i * (e_j - [i == j]) times the point's value of
    x^(e - u_i - u_j).  Each monomial of degree d-2 is valued once, and only
    i <= j is summed, since the matrix is symmetric.
    """
    n, field, p = form.n_vars, form.field, form.field.p
    d = form.homogeneous_degree()
    xs, pden = field.to_ints([field.coerce(v) for v in point])
    cs, den = field.to_ints(list(form.terms.values()))
    rows = [[0] * n for _ in range(n)]
    if d >= 2:
        # an exponent vector read in base d + 1, so x^e / x_i is key - place[i]
        place = [(d + 1) ** i for i in range(n)]
        value = {}
        for mon in monomial_basis(n, d - 2):
            v = 1
            for x, e in zip(xs, mon):
                v *= x ** e
            value[sum(map(mul, mon, place))] = v % p if p else v
        for e, c in zip(form.terms, cs):
            key = sum(map(mul, e, place))
            support = [i for i in range(n) if e[i]]
            for a, i in enumerate(support):
                ci, ki, row = c * e[i], key - place[i], rows[i]
                for j in support[a:]:
                    f = e[j] - (i == j)
                    if f:
                        row[j] += ci * f * value[ki - place[j]]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if p:
        rows = [[v % p for v in row] for row in rows]
    return rows, den * pden ** max(d - 2, 0)


def hessian(form: Polynomial, cone: bool | None = None) -> HessianReport:
    """Exact hessian verdict (at most 6 variables), with the matrix and its
    determinant built on first read.

    The determinant is taken at one seeded integer point first, on the int
    matrix `_point_hessian` reads from the form's terms; a nonzero value
    there means the hessian does not vanish.  If it is 0, a cone's hessian
    vanishes (sum c_i * d_i f = 0 gives H c = 0).  Over Q a form of degree
    >= 2 in at most 4 variables that is not a cone has a nonzero hessian
    (Gordan and Noether 1876), and the symbolic determinant settles any
    other form.  A caller that knows whether the form is a cone passes it as
    `cone`; otherwise `is_cone` decides, when the point gives 0.
    """
    d = form.homogeneous_degree()
    if d is None:
        raise PolyError("hessian report expects a nonzero homogeneous form")
    if form.n_vars > MAX_SYMBOLIC_DET:
        raise PolyError(
            f"symbolic hessian determinant limited to {MAX_SYMBOLIC_DET} variables")
    point = random_int_coords(rng_for(DEFAULT_SEED, 0), form.n_vars, -1000, 1000)
    rows, _ = _point_hessian(form, point)
    report = HessianReport(form, vanishes=False)
    if not det_ff(Matrix(rows, form.field)):
        gordan_noether = form.field.is_rational and form.n_vars <= 4 and d >= 2
        cone = d > 0 and (is_cone(form) if cone is None else cone)
        report.vanishes = cone or (
            not gordan_noether and report.det.is_zero)
    return report


def hessian_slp_crosscheck(form: Polynomial, L_point, trials: int = 0,
                           seed: int = DEFAULT_SEED) -> bool:
    """Exact check that the power-multiplication pairing matrix built through
    the quotient algebra equals (d-2)! times the hessian evaluated at the
    probing point, at L_point and at `trials` further random integer points."""
    d = form.homogeneous_degree()
    if d is None or d < 2:
        raise PolyError("cross-check needs a homogeneous form of degree >= 2")
    if d > MAX_SOCLE_FACTORIAL:
        raise PolyError(f"degree capped at {MAX_SOCLE_FACTORIAL}")
    algebra = from_inverse_system(form)
    points = [list(L_point)]
    for t in range(trials):
        rng = rng_for(seed, t)
        points.append(random_int_coords(rng, form.n_vars))
    return all(_crosscheck_at(algebra, form, pt) for pt in points)


def _crosscheck_at(algebra, form, point) -> bool:
    n = form.n_vars
    field = form.field
    if len(point) != n:
        raise PolyError(f"point length {len(point)} != {n} variables")
    d = algebra.socle_degree
    variables = [algebra.reduce(Polynomial.variable(i, n, field), 1)
                 for i in range(n)]
    L = sum((x.scale(field.coerce(c)) for x, c in zip(variables, point)),
            algebra.zero_element(1))
    power = algebra.power(L, d - 2)
    # (d-2)! times the hessian at the point, as field values
    fact = factorial(d - 2)
    rows, den = _point_hessian(form, point)
    hess = [field.from_ints([fact * v for v in row], den) for row in rows]
    for i in range(n):
        left_i = algebra.multiply(power, variables[i])
        for j in range(n):
            prod = algebra.multiply(left_i, variables[j])
            if socle_contraction_value(algebra, prod) != hess[i][j]:
                return False
    return True
