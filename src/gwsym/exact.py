"""Exact scalar arithmetic.

Rationals, sparse polynomials in the large parameter ``rho``, the field of
rational functions in ``rho``, and Laurent expansion at ``rho = infinity``.
Every scalar in the engine lives here; there is no floating point on this
path, so asymptotic statements become exact statements about degrees.
"""
from __future__ import annotations

from fractions import Fraction

_FRACTION_ONE = Fraction(1)

#: Sentinel degree of the zero element (compares below every integer).
NEG_INF = float("-inf")


class RhoPoly:
    """Sparse polynomial in rho with rational coefficients.

    Immutable; ``terms`` maps exponent -> nonzero Fraction.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    e = int(e)
                    if e < 0:
                        raise ValueError(
                            "polynomial exponents must be non-negative; "
                            "negative powers live in RhoRational")
                    clean[e] = Fraction(c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RhoPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def _of(terms: dict) -> "RhoPoly":
        """Trusted constructor for ring-operation results.

        ``terms`` must map int exponents >= 0 to nonzero Fractions and must
        not be shared with any other polynomial.
        """
        self = object.__new__(RhoPoly)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @staticmethod
    def const(c) -> "RhoPoly":
        return RhoPoly({0: Fraction(c)})

    @staticmethod
    def monomial(c, e: int) -> "RhoPoly":
        return RhoPoly({e: Fraction(c)})

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        return max(self.terms) if self.terms else NEG_INF

    @property
    def lc(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def eval_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return sum((c * x ** e for e, c in self.terms.items()), Fraction(0))

    # -- ring operations ------------------------------------------------
    def __add__(self, other: "RhoPoly") -> "RhoPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return RhoPoly._of(terms)

    def __neg__(self) -> "RhoPoly":
        return RhoPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "RhoPoly") -> "RhoPoly":
        return self + (-other)

    def __mul__(self, other: "RhoPoly") -> "RhoPoly":
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # shift and scale: a product of nonzero coefficients is nonzero
            (eb, cb), = b.items()
            if cb == 1:
                return RhoPoly._of({e + eb: c for e, c in a.items()})
            return RhoPoly._of({e + eb: c * cb for e, c in a.items()})
        terms: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return RhoPoly._of({e: c for e, c in terms.items() if c})

    def scale(self, c) -> "RhoPoly":
        c = Fraction(c)
        if not c:
            return RhoPoly._of({})
        return RhoPoly._of({e: co * c for e, co in self.terms.items()})

    def __divmod__(self, other: "RhoPoly"):
        dterms = other.terms
        if not dterms:
            raise ZeroDivisionError("polynomial division by zero")
        ddeg = max(dterms)
        dlc = dterms[ddeg]
        monic = dlc == 1
        q: dict = {}
        rem = dict(self.terms)
        if len(dterms) == 1:
            # monomial divisor: shift and scale, no elimination steps
            for e in [e for e in rem if e >= ddeg]:
                c = rem.pop(e)
                q[e - ddeg] = c if monic else c / dlc
            return RhoPoly._of(q), RhoPoly._of(rem)
        lower = [(e - ddeg, c) for e, c in dterms.items() if e != ddeg]
        # Each step cancels the leading term of ``rem`` in place; quotient
        # exponents strictly decrease, so each is written once.
        while rem:
            top = max(rem)
            if top < ddeg:
                break
            c = rem.pop(top)
            if not monic:
                c = c / dlc
            q[top - ddeg] = c
            for de, dc in lower:
                k = top + de
                v = rem.get(k, 0) - c * dc
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return RhoPoly._of(q), RhoPoly._of(rem)

    def __mod__(self, other: "RhoPoly") -> "RhoPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "RhoPoly") -> "RhoPoly":
        return divmod(self, other)[0]

    def monic(self) -> "RhoPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lc)

    # -- equality -------------------------------------------------------
    def _key(self):
        return tuple(sorted(self.terms.items(), reverse=True))

    def __eq__(self, other):
        return isinstance(other, RhoPoly) and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"RhoPoly({format_poly(self)})"


_POLY_ONE = RhoPoly.const(1)


def _poly_gcd(a: RhoPoly, b: RhoPoly) -> RhoPoly:
    """Monic gcd; the zero polynomial only when both arguments are zero."""
    while True:
        # A single-term argument c*rho^k shares only a power of rho with the
        # other: the gcd is rho^min(k, lowest exponent of the other).  This
        # also ends the Euclidean loop once a remainder is a constant.
        for single, other in ((a, b), (b, a)):
            if len(single.terms) == 1:
                k = min(single.terms)
                if other.terms:
                    k = min(k, min(other.terms))
                return _POLY_ONE if k == 0 else RhoPoly._of({k: _FRACTION_ONE})
        if not b.terms:
            return a.monic()
        a, b = b, a % b


class RhoRational:
    """Element of the field Q(rho), kept in canonical reduced form.

    Canonical form: numerator/denominator coprime, denominator monic.
    Structural equality therefore coincides with equality of values.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = RhoPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, (int, Fraction)):
            den = RhoPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if num.is_zero():
            den = _POLY_ONE
        else:
            g = _poly_gcd(num, den)
            if g.degree > 0 or g.lc != 1:
                num = num // g
                den = den // g
            c = den.lc
            if c != 1:
                num = num.scale(1 / c)
                den = den.scale(1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RhoRational is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def _raw(num: RhoPoly, den: RhoPoly) -> "RhoRational":
        """Trusted constructor: inputs already coprime with monic deno."""
        self = object.__new__(RhoRational)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        return self

    @staticmethod
    def const(c) -> "RhoRational":
        return RhoRational(RhoPoly.const(c))

    @staticmethod
    def rho_power(e: int, c=1) -> "RhoRational":
        if e >= 0:
            return RhoRational(RhoPoly.monomial(c, e))
        return RhoRational(RhoPoly.const(c), RhoPoly.monomial(1, -e))

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def infinity_degree(self):
        """deg(num) - deg(den); NEG_INF for the zero element."""
        if self.num.is_zero():
            return NEG_INF
        return self.num.degree - self.den.degree

    def eval_at(self, x) -> Fraction:
        x = Fraction(x)
        d = self.den.eval_at(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at rho={x}")
        return self.num.eval_at(x) / d

    # -- field operations ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            num = self.num + other.num
            if num.is_zero():
                return ZERO
            g = _poly_gcd(num, self.den)
            if g.degree == 0:
                return RhoRational._raw(num, self.den)
            return RhoRational._raw(num // g, self.den // g)
        # a/d1 + c/d2 with g = gcd(d1, d2): the sum's numerator can share a
        # factor with g only, so reduce by gcd(numerator, g) rather than by
        # a gcd against the whole product of the denominators.
        d1, d2 = self.den, other.den
        g = _poly_gcd(d1, d2)
        if g.degree == 0:
            return RhoRational._raw(self.num * d2 + other.num * d1, d1 * d2)
        d1g, d2g = d1 // g, d2 // g
        num = self.num * d2g + other.num * d1g
        if num.is_zero():
            return ZERO
        den = d1 * d2g
        g = _poly_gcd(num, g)
        if g.degree == 0:
            return RhoRational._raw(num, den)
        return RhoRational._raw(num // g, den // g)

    __radd__ = __add__

    def __neg__(self):
        return RhoRational._raw(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        # Cross-reduce so the trusted constructor applies.
        g1 = _poly_gcd(self.num, other.den)
        g2 = _poly_gcd(other.num, self.den)
        n1 = self.num if g1.degree == 0 else self.num // g1
        d2 = other.den if g1.degree == 0 else other.den // g1
        n2 = other.num if g2.degree == 0 else other.num // g2
        d1 = self.den if g2.degree == 0 else self.den // g2
        return RhoRational._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def _inverse(self) -> "RhoRational":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        c = self.num.lc
        if c == 1:
            return RhoRational._raw(self.den, self.num)
        return RhoRational._raw(self.den.scale(1 / c), self.num.scale(1 / c))

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other._inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self._inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RhoRational.const(other)
        return (isinstance(other, RhoRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"RhoRational({format_rho_rational(self)})"


ZERO = RhoRational.const(0)
ONE = RhoRational.const(1)


def _coerce(x) -> RhoRational:
    if isinstance(x, RhoRational):
        return x
    if isinstance(x, (int, Fraction)):
        return RhoRational.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RhoRational")


class LaurentTail:
    """Leading terms of a Laurent expansion at rho = infinity.

    ``terms`` is a tuple of (exponent, coefficient) with strictly decreasing
    exponents; all omitted terms have exponent <= ``error_exponent``
    (NEG_INF when the expansion is exact).
    """

    __slots__ = ("terms", "error_exponent")

    def __init__(self, terms, error_exponent):
        terms = tuple((int(e), Fraction(c)) for e, c in terms if c)
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if e1 <= e2:
                raise ValueError("exponents must be strictly decreasing")
        if error_exponent != NEG_INF:
            error_exponent = int(error_exponent)
            for e, _ in terms:
                if e <= error_exponent:
                    raise ValueError("listed exponent inside the error tail")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "error_exponent", error_exponent)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentTail is immutable")

    def as_rho_rational(self) -> RhoRational:
        total = ZERO
        for e, c in self.terms:
            total = total + RhoRational.rho_power(e, c)
        return total

    def __eq__(self, other):
        return (isinstance(other, LaurentTail)
                and self.terms == other.terms
                and self.error_exponent == other.error_exponent)

    def __hash__(self):
        return hash((self.terms, self.error_exponent))

    def __repr__(self):
        body = " + ".join(f"{c}*rho^{e}" for e, c in self.terms) or "0"
        if self.error_exponent == NEG_INF:
            return f"LaurentTail({body}, exact)"
        return f"LaurentTail({body} + O(rho^{self.error_exponent}))"


def expand_at_infinity(a: RhoRational, n_terms: int) -> LaurentTail:
    """First ``n_terms`` terms of the expansion of ``a`` at rho = infinity.

    The residual ``a - sum(terms)`` has infinity_degree <= error_exponent.
    """
    a = _coerce(a)
    if a.is_zero():
        raise ValueError("cannot expand the zero element at infinity")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    # Long division in descending powers, allowing negative exponents.
    num = dict(a.num.terms)
    den = a.den
    dl = den.lc
    dd = den.degree
    out = []
    while num and len(out) < n_terms:
        e_top = max(num)
        c = num[e_top] / dl
        e = e_top - dd
        out.append((e, c))
        for de, dc in den.terms.items():
            k = e + de
            v = num.get(k, 0) - c * dc
            if v:
                num[k] = v
            else:
                num.pop(k, None)
    if not num:
        return LaurentTail(out, NEG_INF)
    return LaurentTail(out, max(num) - dd)


# ---------------------------------------------------------------------------
# Serialization: "P(rho)" or "(P(rho))/(Q(rho))" with rational coefficients.
# ---------------------------------------------------------------------------

def format_poly(p: RhoPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            rho = "rho" if e == 1 else f"rho^{e}"
            body = rho if c == 1 else f"{c}*{rho}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def format_rho_rational(a: RhoRational) -> str:
    if a.den.degree == 0 and a.den.lc == 1:
        return format_poly(a.num)
    return f"({format_poly(a.num)})/({format_poly(a.den)})"


#: largest |e| accepted in ``x^e``: the power is built by repeated
#: multiplication, so (rho+1)^e costs time growing faster than e
MAX_EXPONENT = 200


class _Parser:
    """Recursive-descent parser for rho expressions.

    Grammar: expr := term (('+'|'-') term)*; term := unary (('*'|'/') unary)*;
    unary := '-'* atom; atom := INT | INT '/' INT | 'rho' | '(' expr ')',
    optionally followed by '^' '-'* INT, with |exponent| <= MAX_EXPONENT.
    """

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(("int", text[i:j]))
                i = j
            elif text.startswith("rho", i):
                tokens.append(("rho", "rho"))
                i += 3
            elif ch in "+-*/^()":
                tokens.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
        return tokens

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise ValueError("unexpected end of expression")
        k, v = self.tokens[self.pos]
        if kind is not None and k != kind:
            raise ValueError(f"expected {kind!r}, found {v!r}")
        self.pos += 1
        return v

    def parse(self) -> RhoRational:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input near {self.tokens[self.pos][1]!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        value = self.atom()
        return value if sign > 0 else -value

    def atom(self):
        kind = self.peek()
        if kind == "int":
            value = RhoRational.const(int(self.take()))
        elif kind == "rho":
            self.take()
            value = RhoRational.rho_power(1)
        elif kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
        else:
            raise ValueError("expected a number, 'rho' or '('")
        if self.peek() == "^":
            self.take()
            neg = False
            while self.peek() == "-":
                self.take()
                neg = not neg
            e = int(self.take("int"))
            if neg:
                e = -e
            if abs(e) > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds {MAX_EXPONENT} in "
                                 f"absolute value")
            base = value
            value = ONE
            for _ in range(abs(e)):
                value = value * base
            if e < 0:
                value = ONE / value
        return value


def parse_rho_rational(text: str) -> RhoRational:
    """Parse an expression in rho (integers, + - * / ^, parentheses).

    Raises ValueError on malformed input, also on nesting too deep for the
    recursive-descent parser.
    """
    try:
        return _Parser(text).parse()
    except RecursionError as exc:
        raise ValueError("expression nested too deeply") from exc
