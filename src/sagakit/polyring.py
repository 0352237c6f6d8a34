"""Sparse exact multivariate polynomial arithmetic over Q and prime fields.

A monomial is its exponent tuple, one int >= 0 per variable, the one key
used at every layer: a product is `tuple(map(add, a, b))`, a degree is
`sum`, and `monomial_str` prints one.  Polynomials are stored as maps from
those tuples to nonzero coefficients; the constructor is where keys from
outside come in, so it checks each one.  Coefficients are
`fractions.Fraction` in rational mode and plain int residues in [0, p) in
prime-field mode; all arithmetic is exact.
A residue does not know its p: the `FieldSpec` a polynomial carries does,
and the constructor reduces every coefficient through it, so sums and
products of residues outside a constructor are reduced by their caller.
The order on monomials is graded-lex with x0 > x1 > ... > xn, that is the
key (sum(e), e), and every basis enumeration and printed form follows it
(largest first), which keeps pivot choices and golden outputs
reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import add


class PolyError(ValueError):
    """Invalid polynomial operation (shape, homogeneity, field mix)."""


class PolyParseError(PolyError):
    """Syntax or semantic error while parsing polynomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FieldMismatchError(PolyError):
    """Operands live over different coefficient fields."""


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin: the first twelve primes as bases are exact
    # below 3.18e23, so for every input below 2^64
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_modulus(p):
    """Refuse p unless it is a prime int in 2..2^64 - 1."""
    if not isinstance(p, int) or not 2 <= p < 2 ** 64:
        raise ValueError("prime modulus must be an integer in "
                         f"2..2^64 - 1, got {p!r}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals, or F_p for a prime p.

    The field is its modulus: p is None over Q.  Its values are
    `Fraction`s over Q and plain int residues in [0, p) over F_p; `zero`,
    `one`, `from_int`, `from_fraction`, `coerce` and `from_ints` make them,
    and `to_ints` reads them back.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            _check_modulus(self.p)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls()

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        if p is None:  # cls(None) is Q
            _check_modulus(p)
        return cls(p)

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        """Parse 'rational' or 'fp:<p>'."""
        if text == "rational":
            return cls.rational()
        if text.startswith("fp:"):
            try:
                return cls.prime(int(text[3:]))
            except ValueError as exc:
                raise ValueError(f"bad field spec {text!r}: {exc}") from None
        raise ValueError(f"bad field spec {text!r} (want 'rational' or 'fp:<p>')")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return Fraction(0) if self.is_rational else 0

    def one(self):
        return Fraction(1) if self.is_rational else 1

    def from_int(self, k: int):
        return Fraction(k) if self.is_rational else k % self.p

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if self.is_rational:
            return Fraction(num, den)
        if den % self.p == 0:
            raise FieldMismatchError(
                f"coefficient {num}/{den} not invertible in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p

    def coerce(self, x):
        """Bring an int or Fraction into this field: a Fraction over Q, a
        residue in [0, p) over F_p, where a denominator divisible by p is a
        FieldMismatchError."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            if self.is_rational:
                return x
            return self.from_fraction(x.numerator, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} into {self}")

    def to_ints(self, values) -> tuple[list, int]:
        """A sequence of field values (ints too, over Q) as ints over one
        denominator: the residues as they are over F_p, where the
        denominator is 1, and over Q numerators over the lcm of the
        denominators."""
        if not self.is_rational:
            return list(values), 1
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def from_ints(self, ints, den: int = 1) -> list:
        """The field values v / den for v in ints, each normalized once."""
        if self.is_rational:
            return [Fraction(v, den) for v in ints]
        inv = pow(den, -1, self.p)
        return [v * inv % self.p for v in ints]

    def __str__(self):
        return "rational" if self.is_rational else f"fp:{self.p}"


RATIONAL = FieldSpec.rational()


def monomial_str(mon: tuple, letter: str = "x") -> str:
    """Text of the monomial with exponent tuple mon, as in 'x0^2*x3'."""
    parts = [f"{letter}{i}" + (f"^{e}" if e > 1 else "")
             for i, e in enumerate(mon) if e > 0]
    return "*".join(parts) if parts else "1"


def _exponent_tuples(k: int, rem: int):
    """Exponent tuples of length k summing to rem, lex order, largest first."""
    if k == 1:
        yield (rem,)
        return
    for e in range(rem, -1, -1):
        for rest in _exponent_tuples(k - 1, rem - e):
            yield (e,) + rest


@cache
def _monomials(n_vars: int, d: int) -> tuple:
    return tuple(_exponent_tuples(n_vars, d))


def monomial_basis(n_vars: int, d: int) -> list[tuple]:
    """The exponent tuples of all degree-d monomials in n_vars variables,
    graded-lex order, largest first, as a fresh list."""
    if n_vars < 1:
        raise PolyError("need at least one variable")
    if d < 0:
        raise PolyError("negative degree")
    return list(_monomials(n_vars, d))


class Polynomial:
    """A sparse exact polynomial; immutable once built, safe to share."""

    __slots__ = ("n_vars", "field", "terms")

    def __init__(self, n_vars: int, field: FieldSpec, terms=None):
        clean = {}
        for mon, coeff in (terms or {}).items():
            if (type(mon) is not tuple or len(mon) != n_vars
                    or not all(type(e) is int and e >= 0 for e in mon)):
                raise PolyError(f"monomial {mon!r} is not a tuple of "
                                f"{n_vars} exponents, each an int >= 0")
            c = field.coerce(coeff)
            if c:
                clean[mon] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, field: FieldSpec = RATIONAL) -> "Polynomial":
        return cls(n_vars, field)

    @classmethod
    def constant(cls, value, n_vars: int, field: FieldSpec = RATIONAL) -> "Polynomial":
        return cls(n_vars, field, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, index: int, n_vars: int, field: FieldSpec = RATIONAL,
                 power: int = 1) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise PolyError(f"variable index {index} out of range")
        exps = [0] * n_vars
        exps[index] = power
        return cls(n_vars, field, {tuple(exps): 1})

    @classmethod
    def from_monomial(cls, mon: tuple,
                      field: FieldSpec = RATIONAL) -> "Polynomial":
        return cls(len(mon), field, {mon: 1})

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        return max(map(sum, self.terms), default=None)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if zero or inhomogeneous."""
        degs = set(map(sum, self.terms))
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        """True for zero and for polynomials whose terms share one degree."""
        return len(set(map(sum, self.terms))) <= 1

    def coefficient(self, mon: tuple):
        return self.terms.get(mon, self.field.zero())

    def constant_value(self):
        """The scalar value of a degree-<=0 polynomial."""
        if self.is_zero:
            return self.field.zero()
        if self.degree() != 0:
            raise PolyError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def coefficient_vector(self, basis: list[tuple]):
        """Coefficients read off along an explicit monomial basis."""
        index = {m: i for i, m in enumerate(basis)}
        vec = [self.field.zero()] * len(basis)
        for mon, coeff in self.terms.items():
            if mon not in index:
                raise PolyError(
                    f"monomial {monomial_str(mon)} outside the given basis")
            vec[index[mon]] = coeff
        return vec

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n_vars != other.n_vars:
            raise PolyError("variable count mismatch")
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for mon, coeff in other.terms.items():
            terms[mon] = terms.get(mon, 0) + coeff
        return Polynomial(self.n_vars, self.field, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n_vars, self.field,
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, scalar) -> "Polynomial":
        c = self.field.coerce(scalar)
        if not c:
            return Polynomial.zero(self.n_vars, self.field)
        return Polynomial(self.n_vars, self.field,
                          {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc: dict[tuple, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(map(add, m1, m2))
                prod = c1 * c2
                if mon in acc:
                    acc[mon] = acc[mon] + prod
                else:
                    acc[mon] = prod
        return Polynomial(self.n_vars, self.field, acc)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PolyError("negative power")
        result = Polynomial.constant(1, self.n_vars, self.field)
        for _ in range(k):
            result = result * self
        return result

    # -- text ------------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order, largest monomial first: by degree, then
        by exponent tuple."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def to_string(self, letter: str = "x") -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for mon, coeff in self.sorted_terms():
            sign = "-" if coeff < 0 else "+"
            mag = str(abs(coeff))
            is_one = abs(coeff) == 1
            if not any(mon):
                body = mag
            elif is_one:
                body = monomial_str(mon, letter)
            else:
                body = f"{mag}*{monomial_str(mon, letter)}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.to_string()})"

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.n_vars == other.n_vars
                and self.field == other.field and self.terms == other.terms)


# -- parsing ------------------------------------------------------------

def _tokenize(text: str):
    """(kind, value, position) tokens of polynomial text, ending with
    ("end", None, len(text)).  Integers and variable indices are ASCII
    digits only; any other digit is an unexpected character."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch == "x":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                if j < n and text[j].isdigit():
                    raise PolyParseError(f"unexpected character {text[j]!r}",
                                         j)
                raise PolyParseError("expected variable index after 'x'", i)
            tokens.append(("var", int(text[i + 1:j]), i))
            i = j
        elif ch in "+-*/^":
            tokens.append((ch, None, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def max_variable_index(text: str) -> int:
    """The largest i of any variable xi in polynomial text, or -1 if none.

    Raises PolyParseError for text the tokenizer rejects.
    """
    return max((value for kind, value, _ in _tokenize(text) if kind == "var"),
               default=-1)


def parse_poly(text: str, n_vars: int, field: FieldSpec = RATIONAL) -> "Polynomial":
    """Parse polynomial text over variables x0..x{n_vars-1}.

    Grammar: terms joined by + and -; a term is a product of factors joined
    by '*' (or juxtaposition); a factor is an integer (optionally 'a/b') or a
    variable power 'xi' / 'xi^e'.  Whitespace is ignored.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    acc: dict[tuple, object] = {}

    def parse_term(sign: int):
        kind, _, at = peek()
        if kind not in ("int", "var"):
            raise PolyParseError("expected a coefficient or variable", at)
        coeff = field.from_int(sign)
        exps = [0] * n_vars
        expect_factor = True
        while True:
            kind, value, at = peek()
            if kind == "int" and expect_factor:
                advance()
                if peek()[0] == "/":
                    advance()
                    dkind, den, dat = advance()
                    if dkind != "int":
                        raise PolyParseError("expected integer denominator", dat)
                    try:
                        coeff = coeff * field.from_fraction(value, den)
                    except (ZeroDivisionError, FieldMismatchError) as exc:
                        raise PolyParseError(str(exc), dat) from None
                else:
                    coeff = coeff * field.from_int(value)
                expect_factor = False
            elif kind == "var":
                advance()
                if value >= n_vars:
                    raise PolyParseError(f"unknown variable x{value}", at)
                exp = 1
                if peek()[0] == "^":
                    advance()
                    ekind, ev, eat = advance()
                    if ekind != "int":
                        raise PolyParseError("expected integer exponent", eat)
                    exp = ev
                exps[value] += exp
                expect_factor = False
            elif kind == "*":
                if expect_factor:
                    raise PolyParseError("misplaced '*'", at)
                advance()
                expect_factor = True
            else:
                if expect_factor:
                    raise PolyParseError("dangling operator", at)
                break
        mon = tuple(exps)
        if mon in acc:
            acc[mon] = acc[mon] + coeff
        else:
            acc[mon] = coeff

    # leading sign
    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if advance()[0] == "-" else 1
    if peek()[0] == "end":
        raise PolyParseError("empty polynomial", peek()[2])
    parse_term(sign)
    while peek()[0] != "end":
        kind, _, at = advance()
        if kind not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-'", at)
        parse_term(-1 if kind == "-" else 1)
    return Polynomial(n_vars, field, acc)


def scalar_str(x) -> str:
    """Canonical text form of an exact scalar, for JSON payloads."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)
