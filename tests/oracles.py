"""Independent oracles used to derive expected values.

Everything here goes through sympy (symbolic differentiation, exact ranks)
or brute-force enumeration, never through the package's own reduction or
elimination code, so oracle and implementation can only agree by computing
the same mathematics.  The references at the end are the exception.  The
two stepping references build multiplication by L^m from the package's
one-degree maps, a basis vector at a time, so they check the route through
powers of L against L applied m times.  The annihilator reference builds a
catalecticant one `contract` per column, takes its kernel vectors and
eliminates them a second time, so it checks the one-elimination
annihilator echelon against the long way round.  The second-partials
reference differentiates each term twice by its own loop, so it checks the
contractions by y_i*y_j against term-by-term calculus.  The point-hessian
reference evaluates every `second_partials` polynomial with `eval_at`, and
the power-shift references form each mixed power and each shifted power
(x + t y)^(k+1) afresh, so they check the int readings against field
arithmetic.  The boxed references take products through the algebra's own
tables but convert the coordinates to ints and back on every operation, and
the matrix references read ranks and gamma samples from a Matrix of field
values boxed from `mul_map`'s int rows, so they check the int elements and
the int map rows against the field-value boundary they replace.  The
standardness reference ranks the algebra's own variable tables, stacked, so
it checks `is_standard`'s reading of the basis monomials against the
definition, that the variables times A_i span A_(i+1).  The table
reference builds each variable table from the classes of every monomial of
the degree above, pinned if the piece is, so it checks `_columns`' lookup of
only the monomials the representatives reach.  `boxed` is the one place
where the tests turn the int rows over one denominator that the package
hands out (maps, pairings, catalecticants, kernel vectors) into field
values.  `codimension` and `analysis_matches_expected` are plain
readers of an algebra and of a report, kept here because only tests call
them.
"""

import itertools
import math
from fractions import Fraction

import sympy as sp

from sagakit.apolarity import contract
from sagakit.exactla import Matrix, echelon_rows
from sagakit.lefschetz import second_partials
from sagakit.polyring import PolyError, Polynomial, monomial_basis
from sagakit.seeding import rng_for


def sym_vars(n, letter="x"):
    return sp.symbols(f"{letter}0:{n}")


def sympify_form(text, n):
    return sp.expand(sp.sympify(text.replace("^", "**"),
                                dict(zip([f"x{i}" for i in range(n)],
                                         sym_vars(n)))))


def exponent_tuples(n, d):
    """Degree-d exponent tuples, graded-lex order with x0 largest first."""
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in exponent_tuples(n - 1, d - e):
            out.append((e,) + rest)
    return out


def apply_operator(exps, expr, n):
    """Iterated partial differentiation of a sympy expression."""
    v = sym_vars(n)
    out = expr
    for i, e in enumerate(exps):
        for _ in range(e):
            out = sp.diff(out, v[i])
    return sp.expand(out)


def poly_to_dict(expr, n):
    """Sympy expression -> {exponent tuple: Fraction} (empty for zero)."""
    expr = sp.expand(expr)
    if expr == 0:
        return {}
    poly = sp.Poly(expr, *sym_vars(n))
    out = {}
    for mon, coeff in zip(poly.monoms(), poly.coeffs()):
        out[tuple(mon)] = Fraction(sp.Rational(coeff).p, sp.Rational(coeff).q)
    return out


def catalecticant_rank(text, n, i):
    """Rank of the degree-i contraction matrix of the form given as text."""
    expr = sympify_form(text, n)
    d = sp.Poly(expr, *sym_vars(n)).total_degree()
    cols = exponent_tuples(n, i)
    rows = exponent_tuples(n, d - i)
    row_index = {m: r for r, m in enumerate(rows)}
    M = sp.zeros(len(rows), len(cols))
    for c, op in enumerate(cols):
        image = apply_operator(op, expr, n)
        for mon, coeff in poly_to_dict(image, n).items():
            M[row_index[mon], c] = sp.Rational(coeff.numerator,
                                               coeff.denominator)
    return M.rank()


def inverse_system_hilbert(text, n):
    expr = sympify_form(text, n)
    d = sp.Poly(expr, *sym_vars(n)).total_degree()
    return [catalecticant_rank(text, n, i) for i in range(d + 1)]


def hessian_det(text, n):
    expr = sympify_form(text, n)
    v = sym_vars(n)
    return sp.expand(sp.hessian(expr, v).det(method="berkowitz"))


def det_by_permutations(rows):
    """Determinant by signed permutation expansion (small sizes only).

    Only uses * between entries and +/- between products, so it works for
    ints, Fractions, and polynomial-like entries alike.
    """
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def rref_mod_p(rows, ncols, p):
    """Reduced row echelon form over F_p by cell-by-cell elimination.

    rows hold integers; pivots are chosen leftmost column first, earliest
    row first.  Returns (pivots, nonpivots, coeffs) with coeffs[i] the
    entries of the i-th reduced pivot row at the non-pivot columns, as
    integers in [0, p).
    """
    work = [[x % p for x in row] for row in rows]
    nrows = len(work)
    pivots = []
    piv_r = 0
    for col in range(ncols):
        sel = -1
        for r in range(piv_r, nrows):
            if work[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != piv_r:
            work[piv_r], work[sel] = work[sel], work[piv_r]
        prow = work[piv_r]
        inv = pow(prow[col], p - 2, p)
        for c in range(col, ncols):
            prow[c] = prow[c] * inv % p
        for r in range(piv_r + 1, nrows):
            lead = work[r][col]
            if lead:
                row = work[r]
                for c in range(col, ncols):
                    row[c] = (row[c] - lead * prow[c]) % p
        pivots.append(col)
        piv_r += 1
        if piv_r == nrows:
            break
    for i in range(len(pivots) - 1, -1, -1):
        for j in range(i + 1, len(pivots)):
            lead = work[i][pivots[j]]
            if lead:
                rj = work[j]
                ri = work[i]
                for c in range(pivots[j], ncols):
                    ri[c] = (ri[c] - lead * rj[c]) % p
    pivset = set(pivots)
    nonpivots = [c for c in range(ncols) if c not in pivset]
    coeffs = [[work[i][c] for c in nonpivots] for i in range(len(pivots))]
    return pivots, nonpivots, coeffs


def rref_rational(rows, ncols):
    """Reduced row echelon form over Q by plain Fraction Gauss-Jordan.

    Pivots are chosen leftmost column first, earliest row first.  Returns
    (pivots, nonpivots, coeffs) as rref_mod_p does, coeffs as Fractions.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((k for k in range(r, len(work)) if work[k][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        lead = work[r][col]
        work[r] = [x / lead for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][col]:
                f = work[k][col]
                work[k] = [x - f * y for x, y in zip(work[k], work[r])]
        pivots.append(col)
    pivset = set(pivots)
    nonpivots = [c for c in range(ncols) if c not in pivset]
    coeffs = [[work[i][c] for c in nonpivots] for i in range(len(pivots))]
    return pivots, nonpivots, coeffs


def boxed(field, rows, den):
    """Int rows over the denominator den, as `mul_map`, `pairing_check`,
    `catalecticant` and `Echelon.kernel_ints` give them, as a Matrix of
    field values."""
    return Matrix([field.from_ints(row, den) for row in rows], field)


def stepped_map_rank(algebra, k, m, L):
    """Rank of multiplication by L^m from degree k, with each basis vector
    stepped through the one-degree map of L m times."""
    columns = [e.coords for e in algebra.basis(k)]
    for d in range(k, k + m):
        step = boxed(algebra.field, *algebra.mul_map(L, d))
        columns = [step.mul_vector(col) for col in columns]
    return echelon_rows(columns, algebra.dim(k + m), algebra.field).rank


def stepped_symbolic_matrix(algebra, k, m):
    """Entries of multiplication by L^m at degree k as polynomials in the
    coordinates t of L = sum t_c b_c: each basis vector is stepped through L
    once per degree, a vector with polynomial entries held as its
    coefficient vectors on the monomials in t."""
    h1 = algebra.dim(1)
    columns = [{(0,) * h1: e.coords} for e in algebra.basis(k)]
    for d in range(k, k + m):
        steps = [boxed(algebra.field, *algebra.mul_map(b, d))
                 for b in algebra.basis(1)]
        stepped = []
        for col in columns:
            nxt = {}
            for mon, vec in col.items():
                for c, step in enumerate(steps):
                    key = mon[:c] + (mon[c] + 1,) + mon[c + 1:]
                    w = step.mul_vector(vec)
                    nxt[key] = ([algebra.field.coerce(a + b)
                                 for a, b in zip(nxt[key], w)]
                                if key in nxt else w)
            stepped.append(nxt)
        columns = stepped
    return [[Polynomial(h1, algebra.field, {mon: vec[r]
                                            for mon, vec in col.items()})
             for col in columns]
            for r in range(algebra.dim(k + m))]


def eval_at(poly, point):
    """Exact value of a polynomial at a point of its field, term by term."""
    point = list(point)
    if len(point) != poly.n_vars:
        raise PolyError(
            f"point has length {len(point)}, expected {poly.n_vars}")
    field = poly.field
    vals = [field.coerce(x) for x in point]
    total = field.zero()
    for mon, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(vals, mon):
            term *= v ** e
        total += term
    return field.coerce(total)


def echelon_of(m):
    """The package's reduced echelon of a Matrix's rows."""
    return echelon_rows(m.entries, m.cols, m.field)


def contract_catalecticant(form, i):
    """The degree-i catalecticant of a form, one `contract` per column."""
    n, field = form.n_vars, form.field
    cols = monomial_basis(n, i)
    rows = monomial_basis(n, form.homogeneous_degree() - i)
    row_index = {m: r for r, m in enumerate(rows)}
    entries = [[field.zero()] * len(cols) for _ in rows]
    for c, op_mon in enumerate(cols):
        image = contract(Polynomial.from_monomial(op_mon, field), form)
        for mon, coeff in image.terms.items():
            entries[row_index[mon]][c] = coeff
    return Matrix(entries, field)


def annihilator_echelon_reference(form, i):
    """The degree-i annihilator echelon the long way: full-width kernel
    vectors of the contract-built catalecticant, eliminated again."""
    cat = contract_catalecticant(form, i)
    ech = echelon_of(cat)
    kernel = boxed(cat.field, ech.kernel_ints(), ech.den).entries
    return echelon_rows(kernel, cat.cols, cat.field)


def second_partials_reference(form):
    """The second-partial matrix of a form by its own loop over the terms:
    entry (i, j) takes c * e_i * (e_j - [i == j]) x^(e - u_i - u_j) from
    each term c x^e."""
    n, field = form.n_vars, form.field
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for mon, coeff in form.terms.items():
                e = list(mon)
                scale = e[i]
                if scale == 0:
                    continue
                e[i] -= 1
                scale *= e[j]
                if scale == 0:
                    continue
                e[j] -= 1
                target = tuple(e)
                val = coeff * field.from_int(scale)
                acc[target] = acc[target] + val if target in acc else val
            row.append(Polynomial(n, field, acc))
        out.append(row)
    return out


def point_hessian_reference(form, point):
    """The second-partial matrix of a form at a point, as field values: each
    `second_partials` polynomial evaluated by `eval_at`."""
    return [[eval_at(e, point) for e in row] for row in second_partials(form)]


def stepped_ker_coker(algebra, sample):
    """Every x^(k+1-j) * y^j with j >= 1 is 0, each from two fresh powers."""
    k = sample.k
    return all(algebra.multiply(algebra.power(sample.x, k + 1 - j),
                                algebra.power(sample.y, j)).is_zero
               for j in range(1, k + 2))


def stepped_ggn(algebra, sample, t_values=(1, -1, 2, 7)):
    """(x + t y)^(k+1) == x^(k+1) for each t, with the shifted element formed
    by `scale` and `+` and its power taken afresh."""
    k = sample.k
    baseline = algebra.power(sample.x, k + 1)
    for t in t_values:
        shifted = sample.x + sample.y.scale(algebra.field.coerce(t))
        if algebra.power(shifted, k + 1) != baseline:
            return False
    return True


def _boxed_times(algebra, degree, coords, vecs, i, k=1):
    """The table steps of a product as the parent's element boundary took
    them: a's coordinates, field values, converted to ints on every call."""
    field = algebra.field
    coords, den = field.to_ints(coords)
    reps, d = algebra._rep_terms(degree)
    p = field.p
    if degree == 1:
        weights = [0] * algebra.n_vars
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
        steps = [algebra._columns(t) for t in range(i, i + degree)]
        for _, t in steps:
            factor *= t
        factor *= den * d
        dims = algebra.hilbert[i + 1:i + 1 + degree]
        out = []
        for vec in vecs:
            acc = [0] * algebra.hilbert[i + degree]
            for path, s in paths:
                w = vec
                for h, weighted, (cols, _) in zip(dims, path, steps):
                    nxt = [0] * h
                    for c, v in enumerate(w):
                        for j, wj in weighted:
                            for r, t in cols[j][c]:
                                nxt[r] += v * wj * t
                    w = nxt if p is None else [x % p for x in nxt]
                for r, v in enumerate(w):
                    acc[r] += s * v
            out.append(acc)
        vecs = out
        i += degree
    return vecs, factor


def boxed_multiply(algebra, a, b):
    """(degree, coords) of a * b for classes given as (degree, coords), the
    coords field values, converted to ints and back once per product."""
    field = algebra.field
    if a[0] > b[0]:
        a, b = b, a
    vec, den = field.to_ints(b[1])
    (out,), factor = _boxed_times(algebra, a[0], a[1], [vec], b[0])
    return a[0] + b[0], tuple(field.from_ints(out, den * factor))


def boxed_power(algebra, coords, k):
    """(degree, coords) of x^k for a degree-1 class given by its coords: k
    steps from the unit, x^1 renormalized through ints."""
    field = algebra.field
    if k == 0:
        return 0, (field.one(),)
    if k == 1:
        return 1, tuple(field.from_ints(*field.to_ints(coords)))
    (out,), factor = _boxed_times(algebra, 1, coords, [[1]], 0, k)
    return k, tuple(field.from_ints(out, factor))


def boxed_mul_map(algebra, degree, coords, i, m=1):
    """Rows of the map of alpha^m from degree i, as field values, for the
    class alpha given as (degree, coords)."""
    h = algebra.dim(i)
    cols, factor = _boxed_times(
        algebra, degree, coords,
        [[int(r == c) for r in range(h)] for c in range(h)], i, m)
    return [algebra.field.from_ints(row, factor) for row in zip(*cols)]


def is_standard_by_rank(algebra):
    """Every piece is spanned by products of degree-1 classes, by the
    definition: x_j times each basis class of degree i, stacked from the
    variable tables, has rank h_(i+1) for each i < N.  The variables span
    degree 1, so the (scaled) table columns do."""
    for i in range(algebra.socle_degree):
        h_next = algebra.dim(i + 1)
        stacked = []
        for col in itertools.chain(*algebra._columns(i)[0]):
            dense = [0] * h_next
            for r, t in col:
                dense[r] = t
            stacked.append(dense)
        if echelon_rows(stacked, h_next, algebra.field).rank < h_next:
            return False
    return True


def columns_from_classes(algebra, i):
    """The variable tables of degree i as `GradedAlgebra._columns` returns
    them, built from the classes of degree i+1: x_j times each basis
    representative of degree i, summed term by term over the classes of the
    monomials x_j * m, divided by the content and reduced mod p over F_p,
    nonzero entries only."""
    terms, d = algebra._rep_terms(i)
    up = algebra.piece(i + 1)
    classes, den = up.classes()
    cols = []
    for j in range(algebra.n_vars):
        for rep in terms:
            acc = [0] * up.dim
            for exps, c in rep:
                cls = classes[tuple(e + (t == j) for t, e in enumerate(exps))]
                acc = [a + c * v for a, v in zip(acc, cls)]
            cols.append(acc)
    g = math.gcd(den * d, *itertools.chain(*cols))
    p = algebra.field.p
    cols = iter([[(r, t) for r, t in enumerate(v // g % p if p else v // g
                                               for v in col) if t]
                 for col in cols])
    return ([list(itertools.islice(cols, len(terms)))
             for _ in range(algebra.n_vars)], den * d // g)


def matrix_map_rank(algebra, k, m, L):
    """Rank of multiplication by L^m from degree k, read from `mul_map`'s
    rows boxed as a Matrix of field values."""
    step = boxed(algebra.field, *algebra.mul_map(L, k, m))
    return echelon_rows(step.entries, step.cols, algebra.field).rank


def matrix_sample_gamma(algebra, k, seed):
    """(x coords, y coords, kernel dimension) of a gamma sample drawn as the
    parent drew it: the kernel of x^k from `mul_map`'s rows boxed as a
    Matrix, its kernel vectors boxed as field values, and y by `element`
    from field-value sums of those vectors with the same seeded weights;
    None when that kernel is 0."""
    rng = rng_for(seed, 0)
    for _ in range(32):
        x = algebra.random_element(1, rng)
        xpow = algebra.power(x, k)
        if not xpow.is_zero:
            break
    m = boxed(algebra.field, *algebra.mul_map(xpow, 1))
    ech = echelon_rows(m.entries, m.cols, m.field)
    kernel = boxed(m.field, ech.kernel_ints(), ech.den).entries
    if not kernel:
        return None
    while True:
        weights = [rng.randint(-10, 10) for _ in kernel]
        coords = [algebra.field.coerce(
                      sum(w * vec[i] for w, vec in zip(weights, kernel)))
                  for i in range(algebra.dim(1))]
        if any(coords):
            break
    return x.coords, algebra.element(1, coords).coords, len(kernel)


def codimension(algebra):
    """The number h_1 of independent degree-1 classes (0 for a field)."""
    return algebra.hilbert[1] if algebra.socle_degree >= 1 else 0


def analysis_matches_expected(report, entry):
    """Exact comparison of an analysis report against an expected partial report."""
    expected = entry.expected
    if "hilbert" in expected:
        if report["algebra"]["hilbert"] != expected["hilbert"]:
            return False
    if "cone" in expected:
        if report.get("cone") != expected["cone"]:
            return False
    if "hess_zero" in expected:
        if report.get("hessian_vanishes") != expected["hess_zero"]:
            return False
    for probe_name, want in expected.get("probes", {}).items():
        kind, k = probe_name[:3].upper(), int(probe_name[3:])
        found = None
        for probe in report["probes"]:
            if probe["kind"] == kind and probe["k"] == k:
                found = probe["holds"]
                break
        if found != want:
            return False
    return True
