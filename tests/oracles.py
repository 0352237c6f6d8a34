"""Independent oracles used to derive expected values.

Everything here goes through sympy (symbolic differentiation, exact ranks)
or brute-force enumeration, never through the package's own reduction or
elimination code, so oracle and implementation can only agree by computing
the same mathematics.
"""

import itertools
from fractions import Fraction

import sympy as sp


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
