"""Exact dense linear algebra over Q and F_p.

Rank, kernel bases, determinants and inverses all run through one
deterministic elimination per field: pivots are chosen leftmost-column
first, earliest row first, with no randomization, so kernel bases and
quotient-space bases are reproducible across runs.  Over Q the forward pass
is fraction-free (Bareiss single-step division on integer rows) to keep
intermediate entries small, and so is the back-substitution: reduced row i
times the last pivot D is integral (minors over D, by Cramer's rule), and it
is D times forward row i less multiples of the reduced rows below, divided
exactly by row i's own pivot (Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, 1992).  Those ints, and D, divided by their common content
and signed so that D > 0, are the echelon's rows: ints over one denominator,
the lcm of the entries' denominators, so equal echelons have equal ints.  A
determinant is read from the forward pass, before back-substitution: the
sign of its row moves times its last pivot over Q (Bareiss 1968), or times
the product of its leads over F_p.

Pivoting is stable: the pivot row is the earliest remaining row in input
order, and it is moved up past the rows between (a move over k rows has
sign (-1)^k), so the rows below the pivots stay in input order.  A row is
then only ever updated by pivot rows that came from earlier input rows, and
the pivots whose rows came from the first k inputs are the pivots of those k
rows alone: the leading columns of their span.  `Echelon.origins` records
the input index of each pivot row, which is what a caller needs to read the
leading columns of every prefix of its rows from one elimination.

Over F_p each row is packed into one Python int, column c in the slot at bit
offset (ncols - 1 - c) * W, and a row update is one big-int multiply-add
with the reduction mod p delayed (delayed modular reduction, as in Dumas,
Giorgi and Pernet, "Dense linear algebra over word-size prime fields: the
FFLAS and FFPACK packages", ACM TOMS 2008).  A slot starts below p and gains
at most one product below (p - 1)^2 per pivot row, so a slot needs the
least whole number of bytes holding p - 1 + nrows * (p - 1)^2, and then no
carry ever crosses a slot.  W rounds that up to the least item size of the
stdlib `array` module that holds it (1, 2, 4 or 8 bytes), so a row moves
between its residues and its packed int in C: `array.tobytes` and
`frombytes`, with each item byte-swapped on a little-endian host.  Only a
slot wider than 8 bytes (p = 2^31 - 1 over more than three rows, say)
keeps its exact width and a conversion slot by slot.  An input row of
plain ints in [0, p), as the rows that build an algebra's F_p pieces are,
is read into an array whole; any other row (negative ints, ints >= p,
`Fraction`s) is brought into the field entry by entry first, by
`FieldSpec.coerce`.  Once packed, entries are reduced mod p only where they
are read: a lead, a pivot row when it is normalized, a row after
back-substitution.
Back-substitution works on the pivot rows packed again over the non-pivot
columns only, since a reduced row is 0 at every other pivot column.  The
reduced row echelon form is unique, so the result is the one cell-by-cell
elimination gives.  Its rows are kept as residues in [0, p), over the
denominator 1.

So an echelon holds ints on both fields, and its callers read them
directly: `residual` and `kernel_ints` return ints over one denominator, and
only `full_rows` makes field values: Fractions over Q, residues over F_p,
where a field value is a plain int in [0, p) (see `polyring`).  An inverse
is one echelon of [M | I], whose reduced rows hold the inverse over `den`.
The rows that reach an echelon are ints as well: an algebra's maps and
pairings and the catalecticants of `apolarity` are int rows over one
denominator.  A `Matrix` is built only for a determinant, by `det_ff`'s
callers: a hessian, a symbolic certificate or a line of the degenerate-pair
search.
"""

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd

from .polyring import FieldSpec, Polynomial, RATIONAL


class MatrixError(ValueError):
    """Invalid matrix shape or operand mix."""


class Matrix:
    """A dense exact matrix."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries, field: FieldSpec = RATIONAL):
        entries = [list(r) for r in entries]
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(r) != ncols for r in entries):
            raise MatrixError("ragged rows")
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise MatrixError(f"vector length {len(vec)} != {self.cols} columns")
        nonzero = [(c, b) for c, b in enumerate(vec) if b]
        out = []
        for row in self.entries:
            acc = self.field.zero()
            for c, b in nonzero:
                acc += row[c] * b
            out.append(self.field.coerce(acc))
        return out

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


@dataclass
class Echelon:
    """Reduced row-echelon data of a row set.

    `coeffs[i]` holds the entries of the i-th reduced pivot row at the
    non-pivot columns only (the row is 1 at its own pivot and 0 at every
    other pivot column), which is all that reduction and kernel extraction
    need, as ints over the denominator `den`: the entry is coeffs[i][j] /
    den.  Over F_p they are residues in [0, p) and den is 1; over Q den is
    the positive lcm of the entries' denominators.  That form is canonical:
    two echelons of one row space hold equal ints, and compare equal when
    their origins agree.  `origins[i]` is the index, in the rows as passed
    (zero rows included), of the input row the i-th pivot row came from; it
    is None for an echelon assembled from other data, which has no input
    rows.
    """

    ncols: int
    field: FieldSpec
    pivots: list
    nonpivots: list
    coeffs: list
    origins: list | None = None
    den: int = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, vec) -> tuple[list, int]:
        """Coordinates of vec, field values (ints too, over Q), modulo the
        row space, along the non-pivot columns, as ints over one denominator
        (not reduced mod p over F_p)."""
        if len(vec) != self.ncols:
            raise MatrixError(f"vector length {len(vec)} != {self.ncols}")
        ints, den = self.field.to_ints(vec)
        out = [self.den * ints[c] for c in self.nonpivots]
        for p, row in zip(self.pivots, self.coeffs):
            v = ints[p]
            if v:
                out = [a - v * b for a, b in zip(out, row)]
        return out, den * self.den

    def kernel_ints(self):
        """One kernel vector per non-pivot column (full width,
        deterministic), as ints over `den`."""
        basis = []
        for j, free_col in enumerate(self.nonpivots):
            vec = [0] * self.ncols
            vec[free_col] = self.den
            for p, row in zip(self.pivots, self.coeffs):
                vec[p] = -row[j]
            basis.append(vec)
        return basis

    def full_rows(self):
        """Reconstruct the reduced rows at full width."""
        rows = []
        for p, row in zip(self.pivots, self.coeffs):
            vec = [0] * self.ncols
            vec[p] = self.den
            for c, v in zip(self.nonpivots, row):
                vec[c] = v
            rows.append(self.field.from_ints(vec, self.den))
        return rows


def _to_int_rows(rows):
    """Clear denominators and strip content rowwise.

    Row scaling preserves row space and pivots.  Also returns the product of
    the row scales, the factor by which the determinant grew.  A row of plain
    ints is copied as it is.
    """
    out = []
    num = den = 1
    for row in rows:
        if all(type(v) is int for v in row):
            ints, lcm = list(row), 1
        else:
            ints, lcm = RATIONAL.to_ints(row)
        g = gcd(*ints) or 1
        out.append([x // g for x in ints] if g > 1 else ints)
        num *= lcm
        den *= g
    return out, Fraction(num, den)


def _forward_rational(work, ncols):
    """Bareiss forward pass on integer rows, in place.

    Returns the pivot columns, the input index of each pivot row and the
    sign of the row moves.  Rows past the rank end as zero rows, so a
    singular square input ends with entry 0.
    """
    nrows = len(work)
    order = list(range(nrows))
    pivots = []
    sign = 1
    piv_r = 0
    prev = 1
    for col in range(ncols):
        sel = -1
        for r in range(piv_r, nrows):
            if work[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != piv_r:
            work.insert(piv_r, work.pop(sel))
            order.insert(piv_r, order.pop(sel))
            if (sel - piv_r) & 1:
                sign = -sign
        prow = work[piv_r]
        p = prow[col]
        for r in range(piv_r + 1, nrows):
            row = work[r]
            lead = row[col]
            if lead:
                for c in range(col, ncols):
                    row[c] = (row[c] * p - lead * prow[c]) // prev
            elif prev != 1 or p != 1:
                for c in range(col, ncols):
                    row[c] = (row[c] * p) // prev
        pivots.append(col)
        prev = p
        piv_r += 1
        if piv_r == nrows:
            break
    return pivots, order[:piv_r], sign


def _echelon_rational(rows, ncols) -> Echelon:
    for k, row in enumerate(rows):
        _check_length(k, row, ncols)
    kept = [k for k, row in enumerate(rows) if any(row)]
    work, _ = _to_int_rows([rows[k] for k in kept])
    pivots, origins, _ = _forward_rational(work, ncols)
    pivset = set(pivots)
    nonpivots = [c for c in range(ncols) if c not in pivset]
    # back-substitution, last pivot row first, each reduced row times the
    # last pivot kept over the non-pivot columns only, in place of its row
    last = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    for i in range(len(pivots) - 1, -1, -1):
        row = work[i]
        acc = [last * row[c] for c in nonpivots]
        for j in range(i + 1, len(pivots)):
            f = row[pivots[j]]
            if f:
                acc = [x - f * y for x, y in zip(acc, work[j])]
        work[i] = [x // row[pivots[i]] for x in acc]
    # the rows over last, divided by their content shared with it and
    # signed so that the denominator is positive
    g = gcd(last, *chain(*work[:len(pivots)])) * (-1 if last < 0 else 1)
    coeffs = [[x // g for x in work[i]] for i in range(len(pivots))]
    return Echelon(ncols, RATIONAL, pivots, nonpivots, coeffs,
                   [kept[k] for k in origins], last // g)


# An unsigned array typecode for each item size; a slot of one of these
# widths is converted in C, by array.tobytes and frombytes.
_TYPECODES = {array(tc).itemsize: tc for tc in "BHILQ"}
_WIDTHS = sorted(_TYPECODES)
# packed rows are big-endian, slot by slot
_SWAP = sys.byteorder != "big"


def _slot_bytes(p: int, nrows: int) -> int:
    """Bytes per packed slot: room for p - 1 plus one product below (p - 1)^2
    from each of up to nrows pivot rows, so no carry leaves its slot, rounded
    up to the least array item size that holds it, if there is one."""
    exact = ((p - 1 + nrows * (p - 1) ** 2).bit_length() + 7) // 8
    return next((w for w in _WIDTHS if w >= exact), exact)


def _unpack(row: int, nslots: int, width: int) -> list:
    data = row.to_bytes(nslots * width, "big")
    tc = _TYPECODES.get(width)
    if tc is None:
        return [int.from_bytes(data[k:k + width], "big")
                for k in range(0, len(data), width)]
    vals = array(tc, data)
    if _SWAP:
        vals.byteswap()
    return vals.tolist()


def _pack(vals, width: int) -> int:
    tc = _TYPECODES.get(width)
    if tc is None:
        return int.from_bytes(
            b"".join(map(int.to_bytes, vals, repeat(width), repeat("big"))),
            "big")
    vals = array(tc, vals)
    if _SWAP:
        vals.byteswap()
    return int.from_bytes(vals.tobytes(), "big")


def _residues(row, tc, p):
    """row as an array of typecode tc if it holds only plain ints in [0, p),
    else None."""
    try:
        vals = array(tc, row)
    except (TypeError, OverflowError):
        return None
    return vals if max(vals, default=0) < p else None


def _check_length(k, row, ncols):
    if len(row) != ncols:
        raise MatrixError(f"row {k} has length {len(row)}, expected {ncols}")


def _forward_prime(rows, ncols, field: FieldSpec):
    """Packed forward pass over F_p.

    Returns the packed nonzero rows, pivot rows normalized, with their slot
    width, the pivot columns, the input index of each pivot row, the sign of
    the row moves and the product of the leads mod p.
    """
    p = field.p
    width = _slot_bytes(p, len(rows))
    tc = _TYPECODES.get(width)
    bits = 8 * width
    mask = (1 << bits) - 1
    # column c sits in the slot at bit offset (ncols - 1 - c) * bits
    work = []
    order = []
    for k, row in enumerate(rows):
        vals = _residues(row, tc, p) if tc else None
        if vals is None:
            vals = [field.coerce(x) for x in row]
        _check_length(k, vals, ncols)
        packed = _pack(vals, width)
        if packed:
            work.append(packed)
            order.append(k)
    nrows = len(work)
    pivots = []
    sign = leads = 1
    piv_r = 0
    for col in range(ncols):
        shift = (ncols - 1 - col) * bits
        sel = -1
        for r in range(piv_r, nrows):
            if ((work[r] >> shift) & mask) % p:
                sel = r
                break
        if sel < 0:
            continue
        if sel != piv_r:
            work.insert(piv_r, work.pop(sel))
            order.insert(piv_r, order.pop(sel))
            if (sel - piv_r) & 1:
                sign = -sign
        vals = _unpack(work[piv_r] & ((1 << (shift + bits)) - 1), ncols - col,
                       width)
        leads = leads * vals[0] % p
        inv = pow(vals[0] % p, p - 2, p)
        vals = [v * inv % p for v in vals]
        prow = work[piv_r] = _pack(vals, width)
        # (p - lead) * prow turns the pivot slot into a multiple of p; the
        # mask drops it with every slot above
        low = (1 << shift) - 1
        for r in range(piv_r + 1, nrows):
            lead = ((work[r] >> shift) & mask) % p
            if lead:
                work[r] = (work[r] + (p - lead) * prow) & low
        pivots.append(col)
        piv_r += 1
        if piv_r == nrows:
            break
    return work, width, pivots, order[:piv_r], sign, leads


def _echelon_prime(rows, ncols, field: FieldSpec) -> Echelon:
    p = field.p
    work, width, pivots, origins, _, _ = _forward_prime(rows, ncols, field)
    # Back-substitution, last pivot row first, each row repacked over the
    # non-pivot columns only once reduced.  A reduced row is 0 at every
    # other pivot column, so the multiple of row j that row i takes is row
    # i's normalized forward entry at pivot j.
    pivset = set(pivots)
    nonpivots = [c for c in range(ncols) if c not in pivset]
    nfree = len(nonpivots)
    coeffs = [None] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        vals = _unpack(work[i], ncols - col, width)
        acc = _pack([vals[c - col] if c > col else 0 for c in nonpivots], width)
        for j in range(i + 1, len(pivots)):
            lead = vals[pivots[j] - col]
            if lead:
                acc += (p - lead) * work[j]
        coeffs[i] = [v % p for v in _unpack(acc, nfree, width)]
        work[i] = _pack(coeffs[i], width)
    return Echelon(ncols, field, pivots, nonpivots, coeffs, origins)


def echelon_rows(rows, ncols: int, field: FieldSpec) -> Echelon:
    """Deterministic reduced row echelon form of a list of vectors."""
    if field.is_rational:
        return _echelon_rational(rows, ncols)
    return _echelon_prime(rows, ncols, field)


MAX_SYMBOLIC_DET = 6


def _det_polynomial(entries) -> Polynomial:
    n = len(entries)
    if n > MAX_SYMBOLIC_DET:
        raise MatrixError(
            f"symbolic determinant limited to {MAX_SYMBOLIC_DET}x{MAX_SYMBOLIC_DET} "
            f"(got {n}x{n})")
    sample = entries[0][0]
    zero = Polynomial.zero(sample.n_vars, sample.field)
    # expand along rows; dp over column subsets keyed by bitmask
    dp = {0: Polynomial.constant(1, sample.n_vars, sample.field)}
    for r in range(n):
        row_parity = r & 1
        nxt: dict[int, Polynomial] = {}
        for mask, minor in dp.items():
            if minor.is_zero:
                continue
            parity = row_parity
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    parity ^= 1
                    continue
                e = entries[r][c]
                if e.is_zero:
                    continue
                piece = minor.scale(-1) * e if parity else minor * e
                key = mask | bit
                nxt[key] = nxt[key] + piece if key in nxt else piece
        dp = nxt
    return dp.get((1 << n) - 1, zero)


def det_ff(m: Matrix):
    """Exact determinant.

    Scalar matrices are read off the forward pass of their field's
    elimination.  Matrices with Polynomial entries are expanded
    symbolically, capped at 6x6.
    """
    if not m.is_square():
        raise MatrixError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return m.field.one()
    if isinstance(m.entries[0][0], Polynomial):
        return _det_polynomial(m.entries)
    if not m.field.is_rational:
        _, _, pivots, _, sign, leads = _forward_prime(m.entries, n, m.field)
        return sign * leads % m.field.p if len(pivots) == n else 0
    work, factor = _to_int_rows(m.entries)
    _, _, sign = _forward_rational(work, n)
    return sign * work[-1][-1] / factor
