"""Exact scalar arithmetic: canonical forms, degrees, expansion at infinity."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gwsym.exact import (LaurentTail, NEG_INF, RhoPoly, RhoRational,
                         expand_at_infinity, field_arith, format_rho_rational,
                         infinity_degree, parse_rho_rational)


def rr(text):
    return parse_rho_rational(text)


R10 = RhoRational.rho_power(10)


class TestFieldArith:
    def test_like_term_sum(self):
        assert field_arith(R10, R10, "add") == rr("2*rho^10")

    def test_canonical_fraction(self):
        one = RhoRational.const(1)
        got = field_arith(one, rr("2*rho^10 - 2"), "div")
        assert got == rr("1/(2*rho^10 - 2)")
        # canonical form: monic denominator, reduced
        assert got.den.lc == 1
        assert format_rho_rational(got) == "(1/2)/(rho^10 - 1)"

    def test_polynomial_long_division(self):
        # (rho^30 - rho^20) / rho^20 = rho^10 - 1, by hand long division
        got = field_arith(rr("rho^30 - rho^20"), rr("rho^20"), "div")
        assert got == rr("rho^10 - 1")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            field_arith(R10, RhoRational.const(0), "div")
        with pytest.raises(ZeroDivisionError):
            RhoRational(RhoPoly.const(1), RhoPoly())

    def test_structural_equality_is_value_equality(self):
        a = rr("(rho^20 - 1)/(rho^10 - 1)")
        b = rr("rho^10 + 1")
        assert a == b and hash(a) == hash(b)


class TestInfinityDegree:
    def test_monomial(self):
        assert infinity_degree(R10) == 10

    def test_reciprocal(self):
        assert infinity_degree(rr("1/(2*rho^10 - 2)")) == -10

    def test_ratio(self):
        assert infinity_degree(rr("(rho^30 - rho^20)/(2*rho^10)")) == 20

    def test_zero(self):
        assert infinity_degree(RhoRational.const(0)) == NEG_INF


class TestExpandAtInfinity:
    def test_geometric_series(self):
        got = expand_at_infinity(rr("1/(2*rho^10 - 2)"), 2)
        assert got == LaurentTail([(-10, Fraction(1, 2)),
                                   (-20, Fraction(1, 2))], -30)

    def test_polynomial_is_exact(self):
        got = expand_at_infinity(rr("rho^10 - 1"), 2)
        assert got == LaurentTail([(10, 1), (0, -1)], NEG_INF)

    def test_published_chain_coefficient(self):
        # (rho^10-1)^2 rho^20 / ((2 rho^10 - 2)(-2)) = -1/4 rho^30 + 1/4 rho^20
        val = rr("(rho^10 - 1)^2 * rho^20 / ((2*rho^10 - 2) * (-2))")
        got = expand_at_infinity(val, 2)
        assert got == LaurentTail([(30, Fraction(-1, 4)),
                                   (20, Fraction(1, 4))], NEG_INF)

    def test_errors(self):
        with pytest.raises(ValueError):
            expand_at_infinity(RhoRational.const(0), 1)
        with pytest.raises(ValueError):
            expand_at_infinity(R10, 0)


# -- property-based checks ---------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rho_rationals(draw, allow_zero=True):
    num_terms = draw(st.dictionaries(st.integers(-3, 3), coeffs, max_size=3))
    den_terms = draw(st.dictionaries(st.integers(0, 2), coeffs, min_size=1,
                                     max_size=2))
    value = RhoRational.const(0)
    for e, c in num_terms.items():
        value = value + RhoRational.rho_power(10 * e, c)
    den = RhoPoly({10 * e: c for e, c in den_terms.items()})
    if den.is_zero():
        den = RhoPoly.const(1)
    value = value / RhoRational(den)
    if not allow_zero and value.is_zero():
        value = value + 1
    return value


@settings(max_examples=60, deadline=None)
@given(rho_rationals(), rho_rationals(), rho_rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + RhoRational.const(0) == a
    assert a * RhoRational.const(1) == a
    assert a + (-a) == RhoRational.const(0)
    if not a.is_zero():
        assert a * (RhoRational.const(1) / a) == RhoRational.const(1)


@settings(max_examples=60, deadline=None)
@given(rho_rationals(), rho_rationals())
def test_degree_rules(a, b):
    da, db = a.infinity_degree, b.infinity_degree
    assert (a * b).infinity_degree == da + db
    assert (a + b).infinity_degree <= max(da, db)


@settings(max_examples=60, deadline=None)
@given(rho_rationals(allow_zero=False), st.integers(1, 4))
def test_expansion_residual(a, n):
    tail = expand_at_infinity(a, n)
    residual = a - tail.as_rho_rational()
    assert residual.infinity_degree <= tail.error_exponent


@settings(max_examples=60, deadline=None)
@given(rho_rationals())
def test_serialization_round_trip(a):
    assert parse_rho_rational(format_rho_rational(a)) == a


def test_parser_rejects_garbage():
    for bad in ("rho +", "1 ** 2", "(rho", "x + 1", "rho^^2"):
        with pytest.raises(ValueError):
            parse_rho_rational(bad)


# -- polynomial ring operations ------------------------------------------------

poly_terms = st.dictionaries(st.integers(0, 12), coeffs, max_size=5)
single_terms = st.dictionaries(st.integers(0, 12), coeffs.filter(bool),
                               min_size=1, max_size=1)


def _is_canonical(p):
    return all(type(e) is int and e >= 0 and type(c) is Fraction and c != 0
               for e, c in p.terms.items())


def _product(a, b):
    """Term-by-term product through the validating constructor."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return RhoPoly(out)


def _euclid_gcd(a, b):
    """Monic gcd by the plain Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a if a.is_zero() else a.scale(1 / a.lc)


@settings(max_examples=100, deadline=None)
@given(poly_terms, poly_terms.filter(lambda t: any(t.values())))
def test_poly_divmod(a_terms, d_terms):
    a, d = RhoPoly(a_terms), RhoPoly(d_terms)
    q, r = divmod(a, d)
    assert q * d + r == a
    assert r.degree < d.degree
    assert _is_canonical(q) and _is_canonical(r)


@settings(max_examples=100, deadline=None)
@given(poly_terms, poly_terms)
def test_poly_gcd_is_monic_common_divisor(a_terms, b_terms):
    from gwsym.exact import _poly_gcd
    a, b = RhoPoly(a_terms), RhoPoly(b_terms)
    g = _poly_gcd(a, b)
    assert _is_canonical(g)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.lc == 1
    assert (a % g).is_zero() and (b % g).is_zero()
    assert g == _euclid_gcd(a, b)


@settings(max_examples=100, deadline=None)
@given(single_terms, poly_terms)
def test_poly_gcd_single_term_matches_euclid(single, other):
    from gwsym.exact import _poly_gcd
    s, p = RhoPoly(single), RhoPoly(other)
    assert _poly_gcd(s, p) == _poly_gcd(p, s) == _euclid_gcd(p, s)


@settings(max_examples=100, deadline=None)
@given(single_terms, poly_terms)
def test_single_term_product_matches_general(single, other):
    s, p = RhoPoly(single), RhoPoly(other)
    assert s * p == p * s == _product(s, p)
    assert _is_canonical(s * p)


@settings(max_examples=100, deadline=None)
@given(poly_terms, poly_terms, coeffs)
def test_ring_results_are_canonical(a_terms, b_terms, c):
    a, b = RhoPoly(a_terms), RhoPoly(b_terms)
    results = [a + b, a - b, -a, a * b, a.scale(c), a.monic()]
    if not b.is_zero():
        results.extend(divmod(a, b))
    for p in results:
        assert _is_canonical(p)
    assert a * b == _product(a, b)
    assert (a - b) + b == a


@settings(max_examples=60, deadline=None)
@given(rho_rationals(), rho_rationals())
def test_field_results_are_canonical(a, b):
    results = [a + b, a - b, a * b, -a]
    if not b.is_zero():
        results.append(a / b)
    for x in results:
        assert _is_canonical(x.num) and _is_canonical(x.den)
        # canonical: monic denominator sharing no factor with the numerator
        assert x.den.lc == 1
        assert _euclid_gcd(x.num, x.den) == RhoPoly.const(1)
