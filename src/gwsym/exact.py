"""Exact scalar arithmetic.

Rationals, sparse polynomials in the large parameter ``rho`` and the field
of rational functions in ``rho``.  Every scalar in the engine lives here;
there is no floating point on this path, so asymptotic statements become
exact statements about degrees.

A polynomial holds Python int coefficients over one common denominator.
Its ring operations, fraction-free pseudo-division and the primitive
remainder sequence behind every gcd (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 6; Knuth, TAOCP vol. 2, 4.6.1) run on ints;
``Fraction`` appears only at the boundary: ``terms``, ``lc``, ``eval_at``,
the constructors and printing.

Where every denominator is known in advance to be a product of a few
polynomials, ``CoprimeBase`` carries values as a numerator over exponents
on their coprime base, and its sums and products need no polynomial gcd.
Such a value is flat: the numerator's ints and one exponent tuple that
the base holds once for all values with those exponents, so each distinct
value costs one object and its operations build no ``RhoPoly``.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

#: Sentinel degree of the zero element (compares below every integer).
NEG_INF = float("-inf")


class RhoPoly:
    """Sparse polynomial in rho with rational coefficients.

    Immutable.  Held as ``_c``, a dict exponent -> nonzero int, over one
    positive int denominator ``_d`` that shares no factor with all of the
    ``_c`` values (``_d == 1`` for the zero polynomial).  Each polynomial
    thus has one representation and ``==`` is structural.  ``terms`` is
    the rational view: exponent -> nonzero Fraction.
    """

    __slots__ = ("_c", "_d", "_hash")

    def __init__(self, terms=None):
        fracs = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    e = int(e)
                    if e < 0:
                        raise ValueError(
                            "polynomial exponents must be non-negative; "
                            "negative powers live in RhoRational")
                    fracs[e] = c
        # over the lcm of the reduced denominators the content is coprime
        # to the denominator already
        d = lcm(*(c.denominator for c in fracs.values()))
        object.__setattr__(self, "_c", {e: c.numerator * (d // c.denominator)
                                        for e, c in fracs.items()})
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RhoPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def _of(c: dict, d: int) -> "RhoPoly":
        """Trusted constructor for canonical int data.

        ``c`` maps int exponents >= 0 to nonzero ints and is never mutated
        afterwards; ``d`` > 0 shares no factor with all of its values.
        """
        self = object.__new__(RhoPoly)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)
        return self

    @staticmethod
    def const(c) -> "RhoPoly":
        return RhoPoly({0: c})

    @staticmethod
    def monomial(c, e: int) -> "RhoPoly":
        return RhoPoly({e: c})

    # -- queries -------------------------------------------------------
    @property
    def terms(self) -> dict:
        """exponent -> nonzero Fraction (a new dict on every access)."""
        d = self._d
        return {e: Fraction(c, d) for e, c in self._c.items()}

    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self):
        return max(self._c) if self._c else NEG_INF

    @property
    def lc(self) -> Fraction:
        if not self._c:
            return Fraction(0)
        return Fraction(self._c[max(self._c)], self._d)

    def eval_at(self, x: Fraction) -> Fraction:
        """The value at ``x`` = p/q: Horner's rule over the exponents
        present, on the ints, for N = sum c_e p^e q^(D - e), then one
        Fraction N/(d q^D)."""
        c = self._c
        if not c:
            return Fraction(0)
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        top = last = max(c)
        n = 0
        for e in sorted(c, reverse=True):
            n = n * p ** (last - e) + c[e] * q ** (top - e)
            last = e
        return Fraction(n * p ** last, self._d * q ** top)

    # -- ring operations ------------------------------------------------
    def __add__(self, other: "RhoPoly") -> "RhoPoly":
        if not other._c:
            return self
        if not self._c:
            return other
        return RhoPoly._of(*_plus(self._c, self._d, other._c, other._d))

    def __neg__(self) -> "RhoPoly":
        return RhoPoly._of({e: -v for e, v in self._c.items()}, self._d)

    def __mul__(self, other: "RhoPoly") -> "RhoPoly":
        return _poly(_times(self._c, other._c), self._d * other._d)

    def scale(self, c) -> "RhoPoly":
        c = Fraction(c)
        if not c:
            return _POLY_ZERO
        n = c.numerator
        return _poly({e: v * n for e, v in self._c.items()},
                     self._d * c.denominator)

    def __divmod__(self, other: "RhoPoly"):
        b = other._c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a, da, db = self._c, self._d, other._d
        bdeg = max(b)
        if len(b) == 1:
            # monomial divisor (blc/db)*rho^bdeg: shift and scale, no
            # elimination steps
            blc = b[bdeg]
            if blc < 0:
                db, blc = -db, -blc
            q = {e - bdeg: v * db for e, v in a.items() if e >= bdeg}
            r = {e: v for e, v in a.items() if e < bdeg}
            return _poly(q, da * blc), _poly(r, da)
        # s*a = q*b + r over the ints; with A = a/da and B = b/db this is
        # A = (q*db/(s*da))*B + r/(s*da)
        q, r, s = _pseudo_divmod(a, b)
        if db != 1:
            q = {e: v * db for e, v in q.items()}
        return _poly(q, s * da), _poly(r, s * da)

    def __floordiv__(self, other: "RhoPoly") -> "RhoPoly":
        return divmod(self, other)[0]

    def monic(self) -> "RhoPoly":
        c = self._c
        if not c:
            return self
        # (c/d) / (lc/d) = c/lc: the denominator cancels
        lc = c[max(c)]
        if lc < 0:
            c, lc = {e: -v for e, v in c.items()}, -lc
        return _poly(c, lc)

    # -- equality -------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, RhoPoly) and self._d == other._d
                and self._c == other._c)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._d, frozenset(self._c.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # the frozen __setattr__ rejects slot state: rebuild through _of,
        # and let the copy compute its own hash
        return RhoPoly._of, (self._c, self._d)

    def __repr__(self):
        return f"RhoPoly({format_poly(self)})"


def _reduced(c: dict, d: int) -> tuple:
    """``(c, d)`` with the common factor of ``d`` > 0 and the values of
    ``c`` (int exponents >= 0 to nonzero ints) divided out, computed only
    when ``d != 1``."""
    if d != 1:
        g = gcd(d, *c.values())
        if g != 1:
            c = {e: v // g for e, v in c.items()}
            d //= g
    return c, d


def _poly(c: dict, d: int) -> RhoPoly:
    """Trusted constructor for int data that may share a factor.

    ``c`` as for ``RhoPoly._of``; ``d`` > 0.  The common factor of ``d``
    and the values of ``c`` is divided out.
    """
    return RhoPoly._of(*_reduced(c, d))


def _plus(a: dict, da: int, b: dict, db: int) -> tuple:
    """``a/da + b/db`` for nonzero int polynomials over canonical
    denominators, as reduced ``(c, d)``."""
    if da == db:
        c = dict(a)
        mb = 1
    else:
        g = gcd(da, db)
        ma, mb = db // g, da // g
        c = {e: v * ma for e, v in a.items()}
        da *= ma
    for e, v in b.items():
        v = v * mb + c.get(e, 0)
        if v:
            c[e] = v
        else:
            del c[e]
    return _reduced(c, da)


def _times(a: dict, b: dict) -> dict:
    """The product of two int polynomials, not reduced."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # shift and scale: a product of nonzero coefficients is nonzero
        (eb, cb), = b.items()
        if cb == 1:
            return {e + eb: v for e, v in a.items()}
        return {e + eb: v * cb for e, v in a.items()}
    c = {}
    get = c.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c[e] = get(e, 0) + c1 * c2
    return {e: v for e, v in c.items() if v}


def _primitive(c: dict) -> dict:
    """``c`` divided by the gcd of its values."""
    g = gcd(*c.values())
    if g < 2:
        return c
    return {e: v // g for e, v in c.items()}


def _pseudo_divmod(a: dict, b: dict):
    """Fraction-free division of int polynomials, ``b`` with two or more
    terms: ``(q, r, s)`` with s*a = q*b + r, deg r < deg b and int s > 0.

    ``s`` collects only the factors of lc(b) some step needs, so it stays
    1 when lc(b) divides each leading coefficient met on the way.
    """
    bdeg = max(b)
    blc = b[bdeg]
    lower = [(e - bdeg, v) for e, v in b.items() if e != bdeg]
    q: dict = {}
    r = dict(a)
    s = 1
    # Each step cancels the leading term of ``r`` in place; quotient
    # exponents strictly decrease, so each is written once.
    while r:
        top = max(r)
        if top < bdeg:
            break
        c = r.pop(top)
        if c % blc:
            k = abs(blc) // gcd(c, blc)
            s *= k
            c *= k
            r = {e: v * k for e, v in r.items()}
            q = {e: v * k for e, v in q.items()}
        c //= blc
        q[top - bdeg] = c
        for de, dv in lower:
            e = top + de
            v = r.get(e, 0) - c * dv
            if v:
                r[e] = v
            else:
                del r[e]
    return q, r, s


_POLY_ZERO = RhoPoly()
_POLY_ONE = RhoPoly.const(1)


def _poly_gcd(a: RhoPoly, b: RhoPoly) -> RhoPoly:
    """Monic gcd; the zero polynomial only when both arguments are zero.

    A single-term argument c*rho^k shares only a power of rho with the
    other: the gcd is rho^min(k, lowest exponent of the other).  That test
    runs first, before any content is computed.  Otherwise a primitive
    remainder sequence runs on the int coefficients (denominators and
    contents do not change a gcd over Q); it ends at a zero remainder, or
    at a single-term one by the same rule.  Only the last nonzero
    remainder, primitive, is made monic.
    """
    for single, other in ((a, b), (b, a)):
        if len(single._c) == 1:
            return _rho_power_gcd(single._c, other._c)
    if not b._c:
        return a.monic()
    a, b = a._c, _primitive(b._c)
    while True:
        r = _primitive(_pseudo_divmod(a, b)[1])
        if not r:
            lc = b[max(b)]
            if lc < 0:
                b, lc = {e: -v for e, v in b.items()}, -lc
            return RhoPoly._of(b, lc)
        if len(r) == 1:
            return _rho_power_gcd(r, b)
        a, b = b, r


def _rho_power_gcd(single: dict, other: dict) -> RhoPoly:
    """gcd of c*rho^k (``single``) and ``other``."""
    k = min(single)
    if other:
        k = min(k, min(other))
    return _POLY_ONE if k == 0 else RhoPoly._of({k: 1}, 1)


# summing the 1488 terms one by one on sparse wave symbols meets 62 pairs,
# 42 of them with a common factor, in 5266 sums
@functools.lru_cache(maxsize=1024)
def _split(d1: RhoPoly, d2: RhoPoly) -> tuple:
    """``(g, d1 // g, d2 // g)`` with ``g = gcd(d1, d2)``: two denominators
    over their common factor.  Canonical sums meet few distinct pairs of
    denominators, each many times."""
    g = _poly_gcd(d1, d2)
    if g.degree == 0:
        return g, d1, d2
    return g, d1 // g, d2 // g


class RhoRational:
    """Element of the field Q(rho), kept in canonical reduced form.

    Canonical form: numerator/denominator coprime, denominator monic.
    Structural equality therefore coincides with equality of values.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: RhoPoly, den: RhoPoly = None):
        if den is None:
            den = _POLY_ONE
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if num.is_zero():
            den = _POLY_ONE
        else:
            g = _poly_gcd(num, den)
            if g.degree > 0:
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
        # a constant over the denominator 1 is canonical already
        c = Fraction(c)
        num = RhoPoly._of({0: c.numerator}, c.denominator) if c else _POLY_ZERO
        return RhoRational._raw(num, _POLY_ONE)

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
        other = coerce(other)
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
        g, d1g, d2g = _split(d1, d2)
        if g.degree == 0:
            return RhoRational._raw(self.num * d2 + other.num * d1, d1 * d2)
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
        other = coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        if self.den == _POLY_ONE and other.den == _POLY_ONE:
            # two polynomials: nothing to cross-reduce
            return RhoRational._raw(self.num * other.num, _POLY_ONE)
        # a constant scales the other numerator; the denominator stays
        for a, b in ((self, other), (other, self)):
            c = a.num._c
            if len(c) == 1 and 0 in c and a.den.degree == 0:
                return RhoRational._raw(_poly({e: v * c[0] for e, v in
                                               b.num._c.items()},
                                              b.num._d * a.num._d), b.den)
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
        other = coerce(other)
        return self * other._inverse()

    # no package code divides a number by a RhoRational; the benchmark's
    # tracer counts this method by name, so it stays
    def __rtruediv__(self, other):
        return coerce(other) * self._inverse()

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

    def __reduce__(self):
        return RhoRational._raw, (self.num, self.den)

    def __repr__(self):
        return f"RhoRational({format_rho_rational(self)})"


ZERO = RhoRational.const(0)
ONE = RhoRational.const(1)


def coerce(x) -> RhoRational:
    """``x`` as a ``RhoRational``; an int or a ``Fraction`` becomes a
    constant."""
    if isinstance(x, RhoRational):
        return x
    if isinstance(x, (int, Fraction)):
        # sum() starts from the integer 0
        return RhoRational.const(x) if x else ZERO
    raise TypeError(f"cannot coerce {type(x).__name__} to RhoRational")


# ---------------------------------------------------------------------------
# Values over a known coprime base
# ---------------------------------------------------------------------------

def _primitive_poly(p: RhoPoly) -> RhoPoly:
    """``p`` scaled to int coefficients with gcd 1 and a positive leading
    coefficient (its associate over Q)."""
    c = _primitive(p._c)
    if c[max(c)] < 0:
        c = {e: -v for e, v in c.items()}
    return RhoPoly._of(c, 1)


def _derivative(p: RhoPoly) -> RhoPoly:
    return _poly({e - 1: v * e for e, v in p._c.items() if e}, p._d)


def factor_refinement(polys) -> tuple:
    """A coprime base of ``polys`` by factor refinement.

    Returns primitive squarefree polynomials of positive degree with
    positive leading coefficients, pairwise coprime, such that every
    nonzero input is a constant times a product of their powers (Bach,
    Driscoll and Shallit, "Factor refinement", J. Algorithms 15 (1993)).
    Only gcds are used, never a factorization, so an element may still be
    reducible over Q.  Elements come sorted by degree, then by terms.
    """
    base = []
    todo = list(dict.fromkeys(p for p in polys if p.degree > 0))
    while todo:
        p = _primitive_poly(todo.pop())
        if p.degree < 1 or p in base:
            continue
        g = _poly_gcd(p, _derivative(p))
        if g.degree > 0:
            todo += [g, p // g]
            continue
        for i, b in enumerate(base):
            g = _poly_gcd(p, b)
            if g.degree > 0:
                # the multiset loses deg g in total, so refinement ends
                del base[i]
                todo += [g, b // g, p // g]
                break
        else:
            base.append(p)
    return tuple(sorted(base, key=lambda b: (b.degree, sorted(b._c.items()))))


def _positive(exps) -> tuple:
    return tuple(e if e > 0 else 0 for e in exps)


class CoprimeBase:
    """Exact arithmetic over a fixed coprime base of polynomials in rho.

    A ``BaseValue`` is a polynomial numerator times a product of powers of
    the base ``elements`` with signed exponents.  A product multiplies the
    numerators and adds the exponents, looked up per ordered pair of
    exponent tuples in a table the base keeps; a sum brings both operands
    to the smaller exponents by multiplying in cached cofactor powers.
    Neither computes a gcd, so an interior value is not reduced: the
    numerator may keep base factors that a reduced form would cancel.
    ``rational`` returns the canonical ``RhoRational`` with one gcd,
    memoized per distinct value, so equal values convert once, to one
    object.  The base holds each distinct exponent tuple of its values
    once, so values compare exponents by identity first, and ``shared``
    gives a holder of many values (an ``Evaluator``'s node values) one
    object per distinct value.  These tables and the conversion memo live
    as long as the base, so an evaluator's die with it.  ``matrix``
    multiplies by no vector component equal to the lift of one.

    ``lift`` brings a ``RhoRational`` onto the base.  Its denominator must
    divide a product of powers of the elements, as the denominators of the
    inputs of ``factor_refinement`` do; an element that such a denominator
    holds only in part (an element can be reducible over Q) is completed by
    multiplying numerator and denominator by its cofactor.
    """

    def __init__(self, polys):
        self.elements = factor_refinement(polys)
        zeros = (0,) * len(self.elements)
        self._exps = {zeros: zeros}     # each exponent tuple, held once
        self.zero = BaseValue({}, 1, zeros, self)
        self.one = BaseValue({0: 1}, 1, zeros, self)
        self._powers = {}
        self._vectors = {}
        self._lifts = {}
        self._values = {}       # each distinct value, held once
        self._rationals = {}    # value -> its canonical RhoRational
        self._sums = {}         # (exps, exps) -> the interned sum, for *

    def power(self, exps: tuple) -> RhoPoly:
        """The product of the elements to the non-negative ``exps``."""
        p = self._powers.get(exps)
        if p is None:
            p = _POLY_ONE
            for b, k in zip(self.elements, exps):
                for _ in range(k):
                    p = p * b
            self._powers[exps] = p
        return p

    def _divide_out(self, p: RhoPoly, exps: list, sign: int) -> RhoPoly:
        """``p`` with every element divided out as often as it divides;
        each division adds ``sign`` to the element's exponent in ``exps``.
        """
        for i, b in enumerate(self.elements):
            while p.degree >= b.degree:
                q, r = divmod(p, b)
                if r._c:
                    break
                p = q
                exps[i] += sign
        return p

    def lift(self, x) -> "BaseValue":
        """``x`` (a ``RhoRational``, int or Fraction) on this base,
        memoized."""
        hit = self._lifts.get(x)
        if hit is None:
            hit = self._lifts[x] = self._lift(coerce(x))
        return hit

    def _lift(self, x: RhoRational) -> "BaseValue":
        if x.num.is_zero():
            return self.zero
        exps = [0] * len(self.elements)
        num = self._divide_out(x.num, exps, 1)
        den = self._divide_out(x.den, exps, -1)
        for i, b in enumerate(self.elements):
            # an element the denominator holds only in part
            while den.degree > 0:
                g = _poly_gcd(den, b)
                if g.degree < 1:
                    break
                den = den // g
                num = num * (b // g)
                exps[i] -= 1
        if den.degree > 0:
            raise ArithmeticError(
                f"denominator {format_poly(den)} is not on the base")
        num = num.scale(1 / den.lc)
        exps = tuple(exps)
        return BaseValue(num._c, num._d, self._exps.setdefault(exps, exps),
                         self)

    def inverse(self, x) -> "BaseValue":
        """1/x for an ``x`` whose numerator is a constant times a product
        of elements, such as a subset norm."""
        return self.one / self.lift(x)

    def shared(self, v: "BaseValue") -> "BaseValue":
        """The base's one object equal to ``v`` (``v`` itself the first
        time): a holder of many values keeps each distinct one once."""
        return self._values.setdefault(v, v)

    def rational(self, v: "BaseValue") -> RhoRational:
        """The canonical ``RhoRational`` of ``v``: its numerator and
        denominator multiplied out and reduced by the canonical
        constructor, one gcd per value however many operations built it.
        Memoized: equal values get one object, converted once.
        """
        if not v.c:
            return ZERO
        r = self._rationals.get(v)
        if r is None:
            r = self._rationals[v] = self._rational(v)
        return r

    def _rational(self, v: "BaseValue") -> RhoRational:
        num = v.num
        pos = _positive(v.exps)
        if any(pos):
            num = num * self.power(pos)
        neg = _positive(-e for e in v.exps)
        if not any(neg):
            return RhoRational._raw(num, _POLY_ONE)
        return RhoRational(num, self.power(neg))

    def _vector(self, v) -> tuple:
        """The components of a ``CoVec4`` on this base, memoized."""
        hit = self._vectors.get(v)
        if hit is None:
            hit = self._vectors[v] = tuple(self.lift(x) for x in v)
        return hit

    def matrix(self, terms) -> tuple:
        """The canonical 4x4 matrix of outer-product terms (c, left, right)
        with coefficients on this base."""
        rows = [[None] * 4 for _ in range(4)]
        one = self.lift(ONE)
        for c, left, right in terms:
            right = self._vector(right)
            for i, a in enumerate(self._vector(left)):
                if not a.c:
                    continue
                ca = c if a is one else c * a
                row = rows[i]
                for j, b in enumerate(right):
                    if not b.c:
                        continue
                    x = ca if b is one else ca * b
                    row[j] = x if row[j] is None else row[j] + x
        return tuple(tuple(ZERO if x is None else self.rational(x)
                           for x in row) for row in rows)


class BaseValue:
    """The numerator c/d times the product of ``base.elements[i] **
    exps[i]``.

    Flat: ``c`` maps exponents to nonzero ints over the positive int ``d``,
    canonical as ``RhoPoly._c`` over ``RhoPoly._d``, and ``exps`` is the
    base's one object for its tuple; a product reads the exponents of
    its result from the base's table.  Every operation runs on these ints;
    ``num`` is the numerator as a ``RhoPoly``, built on each access.  Not
    reduced: equal values can differ in ``exps``, so ``==`` is structural
    and serves only as a cache key, and the hash reads the same flat
    ``(d, c, exps)``; truth is nonzero value.  Operands of
    ``+``, ``-``, ``*`` and ``/`` share one base, except that an int or
    Fraction factor scales the numerator; a ``RhoRational`` comes onto the
    base by ``lift`` only.  A divisor's numerator must be a constant, as
    ``CoprimeBase.inverse`` requires.
    """

    __slots__ = ("c", "d", "exps", "base", "_hash")

    def __init__(self, c: dict, d: int, exps: tuple, base: CoprimeBase):
        self.c = c
        self.d = d
        self.exps = exps
        self.base = base
        self._hash = None

    @property
    def num(self) -> RhoPoly:
        return RhoPoly._of(self.c, self.d)

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        b = other.c
        if not b:
            return self
        a = self.c
        if not a:
            return other
        base = self.base
        ea, eb = self.exps, other.exps
        if ea is not eb:
            e = tuple(map(min, ea, eb))
            e = base._exps.setdefault(e, e)
            if e is not ea:
                a = _times(a, base.power(tuple(map(int.__sub__, ea, e)))._c)
            if e is not eb:
                b = _times(b, base.power(tuple(map(int.__sub__, eb, e)))._c)
            ea = e
        # the cofactor powers are primitive, so a and b stay canonical over
        # their denominators
        c, d = _plus(a, self.d, b, other.d)
        if not c:
            return base.zero
        return BaseValue(c, d, ea, base)

    def __neg__(self):
        if not self.c:
            return self
        return BaseValue({e: -v for e, v in self.c.items()}, self.d,
                         self.exps, self.base)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if (other.__class__ is not BaseValue
                and isinstance(other, (int, Fraction))):
            if not other:
                return self.base.zero
            n = other.numerator
            c, d = _reduced({e: v * n for e, v in self.c.items()},
                            self.d * other.denominator)
            return BaseValue(c, d, self.exps, self.base)
        a, b = self.c, other.c
        if not a or not b:
            return self.base.zero
        c, d = _reduced(_times(a, b), self.d * other.d)
        base = self.base
        ea, eb = self.exps, other.exps
        e = base._sums.get((ea, eb))
        if e is None:
            e = tuple(map(int.__add__, ea, eb))
            e = base._sums[ea, eb] = base._exps.setdefault(e, e)
        return BaseValue(c, d, e, base)

    def __truediv__(self, other):
        """The quotient by an ``other`` whose numerator is a constant, the
        only divisors whose inverse stays on the base."""
        b = other.c
        if not b:
            raise ZeroDivisionError("division by zero on the base")
        if max(b):
            raise ArithmeticError(
                f"numerator {format_poly(other.num)} is not on the base")
        if not self.c:
            return self
        # times other.d / b[0], the sign carried by the numerator
        n, m = (b[0], other.d) if b[0] > 0 else (-b[0], -other.d)
        c, d = _reduced({e: v * m for e, v in self.c.items()}, self.d * n)
        e = tuple(map(int.__sub__, self.exps, other.exps))
        return BaseValue(c, d, self.base._exps.setdefault(e, e), self.base)

    def __eq__(self, other):
        return (other.__class__ is BaseValue and self.exps == other.exps
                and self.d == other.d and self.c == other.c)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.d, frozenset(self.c.items()),
                                   self.exps))
        return h

    def __repr__(self):
        return f"BaseValue({format_poly(self.num)}, {self.exps})"


# ---------------------------------------------------------------------------
# Serialization: "P(rho)" or "(P(rho))/(Q(rho))" with rational coefficients.
# ---------------------------------------------------------------------------

def format_poly(p: RhoPoly) -> str:
    if p.is_zero():
        return "0"
    terms = p.terms
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
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


#: largest |e| accepted in ``x^e``, and largest degree of the power (|e|
#: times the larger of the degrees of the numerator and the denominator of
#: x): the power is built by repeated multiplication, so (rho+1)^e costs
#: time growing faster than e, and nesting multiplies the degrees
MAX_EXPONENT = 200


#: the digits of a number in an expression: ASCII only, where
#: ``str.isdigit`` would also take other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive-descent parser for rho expressions.

    Grammar: expr := term (('+'|'-') term)*; term := unary (('*'|'/') unary)*;
    unary := '-'* atom; atom := INT | INT '/' INT | 'rho' | '(' expr ')',
    optionally followed by '^' '-'* INT, with |exponent| <= MAX_EXPONENT
    and a power of degree at most MAX_EXPONENT.
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
            elif ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
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
            deg = max(base.num.degree, base.den.degree)
            if abs(e) * deg > MAX_EXPONENT:
                raise ValueError(f"power of degree {abs(e) * deg} exceeds "
                                 f"{MAX_EXPONENT} (base of degree {deg}, "
                                 f"exponent {e})")
            value = ONE
            for _ in range(abs(e)):
                value = value * base
            if e < 0:
                value = ONE / value
        return value


def parse_rho_rational(text: str) -> RhoRational:
    """Parse an expression in rho (integers, + - * / ^, parentheses).

    Raises ValueError on malformed input, also on nesting too deep for the
    recursive-descent parser and on division by zero.
    """
    try:
        return _Parser(text).parse()
    except RecursionError as exc:
        raise ValueError("expression nested too deeply") from exc
    except ZeroDivisionError as exc:
        raise ValueError("division by zero") from exc
