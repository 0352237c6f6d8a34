"""Contraction of differential operators on forms, and catalecticant maps.

Operators are polynomials in a parallel variable set (y_i acting as d/dx_i)
sharing the monomial machinery of the coefficient ring.  Contraction is pure
iterated differentiation, with no combinatorial rescaling: the coefficient
picked up by y^k acting on x^e is the falling factorial e(e-1)...(e-k+1).
The degree-i catalecticant of a form G is the matrix of contraction
restricted to degree-i operator monomials; its kernel is the degree-i piece
of the annihilator of G.
"""

from math import perm

from .exactla import Matrix, rank_kernel
from .polyring import Monomial, PolyError, Polynomial, monomial_basis


def contract(op: Polynomial, form: Polynomial) -> Polynomial:
    """Apply op to form as a constant-coefficient differential operator."""
    if op.n_vars != form.n_vars:
        raise PolyError("operator and form have different variable counts")
    if op.field != form.field:
        raise PolyError(f"mixed coefficient fields: {op.field} vs {form.field}")
    if not form.is_homogeneous():
        raise PolyError("contraction requires a homogeneous form")
    field = form.field
    acc: dict[Monomial, object] = {}
    for op_mon, op_coeff in op.terms.items():
        for f_mon, f_coeff in form.terms.items():
            if not op_mon.divides(f_mon):
                continue
            scale = 1
            for e, k in zip(f_mon.exponents, op_mon.exponents):
                scale *= perm(e, k)
            target = Monomial(e - k for e, k in
                              zip(f_mon.exponents, op_mon.exponents))
            val = op_coeff * f_coeff * field.from_int(scale)
            if target in acc:
                acc[target] = acc[target] + val
            else:
                acc[target] = val
    return Polynomial(form.n_vars, field, acc)


def catalecticant(form: Polynomial, i: int) -> Matrix:
    """Matrix of the contraction map from degree-i operators into degree d-i.

    Columns are labeled by the degree-i operator monomials, rows by the
    degree-(d-i) monomials of the target; entry (m', m) is the coefficient
    of m' in m applied to the form.
    """
    d = form.homogeneous_degree()
    if form.is_zero or d is None:
        raise PolyError("catalecticant needs a nonzero homogeneous form")
    if not 0 <= i <= d:
        raise PolyError(f"source degree {i} out of range 0..{d}")
    n = form.n_vars
    field = form.field
    cols = monomial_basis(n, i)
    rows = monomial_basis(n, d - i)
    row_index = {m: r for r, m in enumerate(rows)}
    entries = [[field.zero()] * len(cols) for _ in rows]
    for c, op_mon in enumerate(cols):
        image = contract(Polynomial.from_monomial(op_mon, field), form)
        for mon, coeff in image.terms.items():
            entries[row_index[mon]][c] = coeff
    return Matrix(entries, field, row_labels=rows, col_labels=cols)


def annihilator_piece(form: Polynomial, i: int) -> list[Polynomial]:
    """A basis of the degree-i operators annihilating the form.

    Returned as operator polynomials read off the deterministic kernel basis
    of the catalecticant; compare annihilators by span, not by basis.
    """
    cat = catalecticant(form, i)
    cols = cat.col_labels
    basis = []
    for vec in rank_kernel(cat).kernel_basis:
        basis.append(Polynomial(form.n_vars, form.field,
                                {m: c for m, c in zip(cols, vec) if c}))
    return basis


def is_cone(form: Polynomial) -> bool:
    """True when the partial derivatives of the form are linearly dependent."""
    d = form.homogeneous_degree()
    if form.is_zero or d is None or d < 1:
        raise PolyError("cone test needs a nonzero homogeneous form of degree >= 1")
    return bool(annihilator_piece(form, 1))
