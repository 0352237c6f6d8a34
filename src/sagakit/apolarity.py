"""Contraction of differential operators on forms, and catalecticant maps.

Operators are polynomials in a parallel variable set (y_i acting as d/dx_i)
sharing the monomial machinery of the coefficient ring.  Contraction is pure
iterated differentiation, with no combinatorial rescaling: the coefficient
picked up by y^k acting on x^e is the falling factorial e(e-1)...(e-k+1).
The degree-i catalecticant of a form G is the matrix of contraction
restricted to degree-i operator monomials; its kernel is the degree-i piece
of the annihilator of G, and one elimination of it, columns reversed, gives
that kernel's reduced echelon.  A catalecticant leaves this module in the
form an algebra's maps do, int rows over one denominator (residues over 1
on F_p), read from the form's coefficients as ints once, and its rows go to
the echelon as they are.
"""

from math import perm, prod
from operator import add, le, sub

from .exactla import Echelon, echelon_rows
from .polyring import PolyError, Polynomial, monomial_basis


def contract(op: Polynomial, form: Polynomial) -> Polynomial:
    """Apply op to form as a constant-coefficient differential operator."""
    if op.n_vars != form.n_vars:
        raise PolyError("operator and form have different variable counts")
    if op.field != form.field:
        raise PolyError(f"mixed coefficient fields: {op.field} vs {form.field}")
    if not form.is_homogeneous():
        raise PolyError("contraction requires a homogeneous form")
    field = form.field
    acc: dict[tuple, object] = {}
    for op_mon, op_coeff in op.terms.items():
        for f_mon, f_coeff in form.terms.items():
            if not all(map(le, op_mon, f_mon)):
                continue
            scale = prod(map(perm, f_mon, op_mon))
            target = tuple(map(sub, f_mon, op_mon))
            val = op_coeff * f_coeff * field.from_int(scale)
            if target in acc:
                acc[target] = acc[target] + val
            else:
                acc[target] = val
    return Polynomial(form.n_vars, field, acc)


def catalecticant(form: Polynomial, i: int) -> tuple[list, int]:
    """Rows of the matrix of the contraction map from degree-i operators
    into degree d-i, as ints over one denominator (residues over 1 on F_p).

    Columns follow the degree-i operator monomials m, rows the degree-(d-i)
    monomials m' of the target, both in `monomial_basis` order; entry
    (m', m) is the coefficient of m' in m applied to the form, which is
    f_(m+m') times the product over t of perm((m+m')_t, m_t).  The
    coefficients are read as ints over their lcm once, so every entry is an
    int times that product.
    """
    d = form.homogeneous_degree()
    if form.is_zero or d is None:
        raise PolyError("catalecticant needs a nonzero homogeneous form")
    if not 0 <= i <= d:
        raise PolyError(f"source degree {i} out of range 0..{d}")
    ints, den = form.field.to_ints(list(form.terms.values()))
    terms = dict(zip(form.terms, ints))
    cols = monomial_basis(form.n_vars, i)
    p = form.field.p
    rows = []
    for row_mon in monomial_basis(form.n_vars, d - i):
        row = []
        for col in cols:
            e = tuple(map(add, row_mon, col))
            f = terms.get(e)
            row.append(f * prod(map(perm, e, col)) if f else 0)
        rows.append([v % p for v in row] if p else row)
    return rows, den


def annihilator_echelon(form: Polynomial, i: int) -> Echelon:
    """Reduced echelon of the degree-i annihilator, over the degree-i
    monomials, from one elimination of the catalecticant's int rows,
    columns reversed.

    Read in column order, a reduced row of it is 1 at its pivot q, its last
    nonzero column, and a_(q,c) at free columns c < q.  So the kernel's
    reduced rows are e_c - sum over pivots q > c of a_(q,c) * e_q, one per
    free column c: its pivots are the free columns, its non-pivots the
    catalecticant's pivots.
    """
    rows, _ = catalecticant(form, i)
    field, ncols = form.field, len(rows[0])
    last, p = ncols - 1, field.p
    rev = echelon_rows([row[::-1] for row in rows], ncols, field)
    # the same ints over the same den, negated, so still canonical
    coeffs = [[-row[j] % p if p else -row[j] for row in reversed(rev.coeffs)]
              for j in reversed(range(len(rev.nonpivots)))]
    return Echelon(ncols, field,
                   [last - c for c in reversed(rev.nonpivots)],
                   [last - c for c in reversed(rev.pivots)], coeffs,
                   den=rev.den)


def annihilator_piece(form: Polynomial, i: int) -> list[Polynomial]:
    """A basis of the degree-i operators annihilating the form.

    Returned as operator polynomials read off the reduced rows of
    `annihilator_echelon`; compare annihilators by span, not by basis.
    """
    cols = monomial_basis(form.n_vars, i)
    return [Polynomial(form.n_vars, form.field,
                       {m: c for m, c in zip(cols, row) if c})
            for row in annihilator_echelon(form, i).full_rows()]


def is_cone(form: Polynomial) -> bool:
    """True when the partial derivatives of the form are linearly dependent."""
    d = form.homogeneous_degree()
    if form.is_zero or d is None or d < 1:
        raise PolyError("cone test needs a nonzero homogeneous form of degree >= 1")
    return annihilator_echelon(form, 1).rank > 0
