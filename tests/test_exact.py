"""Exact scalar arithmetic: canonical forms, degrees, gcds, parsing."""
import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gwsym import exact
from gwsym.exact import (NEG_INF, CoprimeBase, RhoPoly, RhoRational,
                         factor_refinement, format_rho_rational,
                         parse_rho_rational)


def rr(text):
    return parse_rho_rational(text)


R10 = RhoRational.rho_power(10)


class TestFieldArith:
    def test_like_term_sum(self):
        assert R10 + R10 == rr("2*rho^10")

    def test_canonical_fraction(self):
        one = RhoRational.const(1)
        got = one / rr("2*rho^10 - 2")
        assert got == rr("1/(2*rho^10 - 2)")
        # canonical form: monic denominator, reduced
        assert got.den.lc == 1
        assert format_rho_rational(got) == "(1/2)/(rho^10 - 1)"

    def test_polynomial_long_division(self):
        # (rho^30 - rho^20) / rho^20 = rho^10 - 1, by hand long division
        got = rr("rho^30 - rho^20") / rr("rho^20")
        assert got == rr("rho^10 - 1")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            R10 / RhoRational.const(0)
        with pytest.raises(ZeroDivisionError):
            RhoRational(RhoPoly.const(1), RhoPoly())

    def test_structural_equality_is_value_equality(self):
        a = rr("(rho^20 - 1)/(rho^10 - 1)")
        b = rr("rho^10 + 1")
        assert a == b and hash(a) == hash(b)


class TestInfinityDegree:
    def test_monomial(self):
        assert R10.infinity_degree == 10

    def test_reciprocal(self):
        assert rr("1/(2*rho^10 - 2)").infinity_degree == -10

    def test_ratio(self):
        assert rr("(rho^30 - rho^20)/(2*rho^10)").infinity_degree == 20

    def test_zero(self):
        assert RhoRational.const(0).infinity_degree == NEG_INF


# -- property-based checks ---------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rho_rationals(draw):
    num_terms = draw(st.dictionaries(st.integers(-3, 3), coeffs, max_size=3))
    den_terms = draw(st.dictionaries(st.integers(0, 2), coeffs, min_size=1,
                                     max_size=2))
    value = RhoRational.const(0)
    for e, c in num_terms.items():
        value = value + RhoRational.rho_power(10 * e, c)
    den = RhoPoly({10 * e: c for e, c in den_terms.items()})
    if den.is_zero():
        den = RhoPoly.const(1)
    return value / RhoRational(den)


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
@given(st.one_of(st.integers(-10 ** 6, 10 ** 6), coeffs))
def test_const_is_canonical(c):
    got = RhoRational.const(c)
    want = RhoRational(RhoPoly.const(c))
    assert got.num == want.num and got.den == want.den
    assert hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(rho_rationals())
def test_serialization_round_trip(a):
    assert parse_rho_rational(format_rho_rational(a)) == a


@pytest.mark.parametrize("num, den", [
    (RhoPoly.const(0), RhoPoly.const(1)),
    (RhoPoly.const(Fraction(-3, 7)), RhoPoly.const(1)),
    (RhoPoly({10: 1}), RhoPoly.const(1)),
    (RhoPoly({2: 3, 0: 1}), RhoPoly({1: 2, 0: 5}))],
    ids=["zero", "constant", "rho^10", "non-monic-quotient"])
def test_pickle_and_deepcopy_round_trip(num, den):
    # the oracle child sends exact values to its parent as pickles
    x = RhoRational(num, den)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x)
        assert y == RhoRational(num, den)


def test_parser_rejects_garbage():
    for bad in ("rho +", "1 ** 2", "(rho", "x + 1", "rho^^2"):
        with pytest.raises(ValueError):
            parse_rho_rational(bad)


def test_parser_bounds_exponents():
    assert parse_rho_rational("rho^200") == RhoRational.rho_power(200)
    assert parse_rho_rational("rho^-200") == RhoRational.rho_power(-200)
    for text, e in (("(rho+1)^20000", "20000"), ("rho^201", "201"),
                    ("2^--300", "300"), ("rho^-201", "-201")):
        with pytest.raises(ValueError, match=f"exponent {e} exceeds 200"):
            parse_rho_rational(text)


def test_parser_bounds_nested_powers():
    # each exponent is within the bound, the degree of the power is not
    for text, deg in (("((rho+1)^40)^40", 1600),
                      ("((rho+1)^200)^200", 40000),
                      ("(1/(rho+1)^20)^-11", 220)):
        with pytest.raises(ValueError,
                           match=f"power of degree {deg} exceeds 200"):
            parse_rho_rational(text)
    assert parse_rho_rational("(rho+1)^200").num.degree == 200
    assert parse_rho_rational("((rho+1)^20)^10").num.degree == 200
    assert parse_rho_rational("(1/rho^2)^-100") == RhoRational.rho_power(200)


def test_parser_rejects_division_by_zero():
    for text in ("1/0", "1/(rho-rho)", "0^-1", "(rho-rho)^-2"):
        with pytest.raises(ValueError, match="^division by zero$"):
            parse_rho_rational(text)


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
    assert divmod(a, g)[1].is_zero() and divmod(b, g)[1].is_zero()
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
    results = [a + b, a + (-b), -a, a * b, a.scale(c), a.monic()]
    if not b.is_zero():
        results.extend(divmod(a, b))
    for p in results:
        assert _is_canonical(p)
    assert a * b == _product(a, b)
    assert (a + (-b)) + b == a


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


@settings(max_examples=100, deadline=None)
@given(poly_terms, poly_terms, poly_terms.filter(lambda t: any(t.values())),
       st.sampled_from(["both", "left", "right"]))
def test_product_with_unit_denominator(n1_terms, n2_terms, d_terms, which):
    # one or both operands are polynomials: the product must equal the
    # reduced quotient of the plain products, in canonical form
    n1, n2, d = RhoPoly(n1_terms), RhoPoly(n2_terms), RhoPoly(d_terms)
    one = RhoPoly.const(1)
    d1 = d if which == "right" else one
    d2 = d if which == "left" else one
    a, b = RhoRational(n1, d1), RhoRational(n2, d2)
    for x in (a * b, b * a):
        assert x == RhoRational(n1 * n2, d1 * d2)
        assert _is_canonical(x.num) and _is_canonical(x.den)
        assert x.den.lc == 1
        assert _euclid_gcd(x.num, x.den) == one
        if which == "both":
            assert x.den == one


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from((1, -1)), st.integers(-10 ** 6, 10 ** 6),
                coeffs), rho_rationals(), st.booleans())
def test_product_with_constant(c, a, left):
    # a constant scales the numerator and leaves the denominator alone
    k = RhoRational.const(c)
    x = k * a if left else a * k
    assert x == RhoRational(a.num.scale(c), a.den)
    assert _is_canonical(x.num) and x.den.lc == 1
    if c and a.den.degree > 0:
        assert x.den is a.den


def _divide_out(p, base):
    """p with every base element divided out as often as it divides."""
    for b in base:
        while p.degree >= b.degree:
            q, r = divmod(p, b)
            if not r.is_zero():
                break
            p = q
    return p


small_factors = st.lists(
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), min_size=1,
                    max_size=3).map(RhoPoly).filter(lambda p: p.degree > 0),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_factors, st.lists(st.integers(1, 3),
                                                  min_size=4, max_size=4)),
                min_size=1, max_size=4))
def test_factor_refinement(products):
    # inputs are products of powers of small, possibly shared factors
    polys = []
    for factors, powers in products:
        p = RhoPoly.const(1)
        for f, k in zip(factors, powers):
            for _ in range(k):
                p = p * f
        polys.append(p)
    base = factor_refinement(polys)
    one = RhoPoly.const(1)
    for i, b in enumerate(base):
        # primitive, squarefree, pairwise coprime
        assert b.degree > 0 and b.lc > 0
        assert all(type(c) is int for c in b._c.values()) and b._d == 1
        assert gcd(*b._c.values()) == 1
        deriv = RhoPoly({e - 1: e * c for e, c in b.terms.items() if e})
        assert _euclid_gcd(b, deriv) == one
        for other in base[i + 1:]:
            assert _euclid_gcd(b, other) == one
    for p in polys:
        assert _divide_out(p, base).degree == 0


# -- differential check against a plain {exponent: Fraction} reference ---------

wide_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
ref_terms = st.dictionaries(st.integers(0, 8), wide_coeffs, max_size=5)
ref_divisors = st.one_of(
    st.dictionaries(st.integers(0, 8), wide_coeffs.filter(bool),
                    min_size=1, max_size=1),
    st.dictionaries(st.integers(0, 6), wide_coeffs.filter(bool),
                    min_size=2, max_size=4))


def _ref(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_divmod(a, b):
    top, lc = max(b), b[max(b)]
    q, r = {}, dict(a)
    while r and max(r) >= top:
        e = max(r)
        c = r[e] / lc
        q[e - top] = c
        r = _ref_add(r, {e - top + k: -c * v for k, v in b.items()})
    return q, r


def _ref_monic(a):
    return {e: c / a[max(a)] for e, c in a.items()} if a else {}


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _same(p, ref):
    """``p`` equals the reference and holds the canonical int form."""
    c, d = p._c, p._d
    assert type(d) is int and d > 0
    assert all(type(e) is int and e >= 0 and type(v) is int and v
               for e, v in c.items())
    assert gcd(d, *c.values()) == 1, (c, d)
    assert p.terms == ref
    assert p == RhoPoly(ref)


@settings(max_examples=150, deadline=None)
@given(ref_terms, ref_terms, wide_coeffs)
def test_ring_matches_fraction_reference(a_terms, b_terms, c):
    a, b = _ref(a_terms), _ref(b_terms)
    pa, pb = RhoPoly(a_terms), RhoPoly(b_terms)
    _same(pa, a)
    _same(pa + pb, _ref_add(a, b))
    _same(pa + (-pb), _ref_add(a, {e: -v for e, v in b.items()}))
    _same(-pa, {e: -v for e, v in a.items()})
    _same(pa * pb, _ref_mul(a, b))
    _same(pa.scale(c), {e: v * c for e, v in a.items() if v * c})
    _same(pa.monic(), _ref_monic(a))


@settings(max_examples=150, deadline=None)
@given(ref_terms, ref_divisors)
def test_divmod_matches_fraction_reference(a_terms, b_terms):
    a, b = _ref(a_terms), _ref(b_terms)
    q, r = divmod(RhoPoly(a_terms), RhoPoly(b_terms))
    ref_q, ref_r = _ref_divmod(a, b)
    _same(q, ref_q)
    _same(r, ref_r)
    _same(RhoPoly(a_terms) // RhoPoly(b_terms), ref_q)
    _same(divmod(RhoPoly(a_terms), RhoPoly(b_terms))[1], ref_r)


@settings(max_examples=150, deadline=None)
@given(ref_divisors, ref_terms, ref_terms)
def test_gcd_matches_fraction_reference(f_terms, g_terms, h_terms):
    from gwsym.exact import _poly_gcd
    # a common factor f makes the remainder sequence run several steps
    f, g, h = _ref(f_terms), _ref(g_terms), _ref(h_terms)
    a, b = _ref_mul(f, g), _ref_mul(f, _ref_add(h, {1: Fraction(1, 3)}))
    for x, y in ((a, b), (b, a), (a, h), (g, h)):
        _same(_poly_gcd(RhoPoly(x), RhoPoly(y)), _ref_gcd(x, y))


@settings(max_examples=150, deadline=None)
@given(ref_terms, st.one_of(st.integers(-10 ** 6, 10 ** 6), wide_coeffs,
                            st.fractions(max_denominator=10 ** 9)))
def test_eval_at_matches_fraction_reference(terms, x):
    # Horner's rule on the ints gives the value of the Fraction sum
    p = RhoPoly(terms)
    got = p.eval_at(x)
    assert type(got) is Fraction
    assert got == sum((c * Fraction(x) ** e for e, c in p.terms.items()),
                      Fraction(0))


# -- memos of repeated work ----------------------------------------------------

#: denominators on the base of rho, rho^2 - 1 and rho^2 + 2; those with
#: rho + 1 or rho - 1 hold the element rho^2 - 1 only in part
ON_BASE = ("1", "rho", "rho^2", "rho + 1", "(rho + 1)^2", "rho - 1",
           "rho^2 - 1", "rho^2 + 2", "rho*(rho^2 + 2)",
           "(rho + 1)*(rho^2 + 2)^2")


def _random_poly(rng, degree=3):
    return RhoPoly({e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for e in range(degree + 1)})


def _memo_case(seed):
    """A base of three elements, one of them non-monomial, and operand
    pairs drawn from ``seed``: values lifted from denominators in
    ``ON_BASE``, and sums and products of them, so that they meet many
    exponent tuples; and, for ``/``, divisors with a constant numerator."""
    rng = random.Random(seed)
    base = CoprimeBase([rr(t).num for t in ("rho", "rho^2 - 1",
                                            "rho^2 + 2")])
    values = [base.lift(RhoRational(_random_poly(rng),
                                    rr(rng.choice(ON_BASE)).num))
              for _ in range(10)]
    for _ in range(10):
        a, b = rng.sample(values, 2)
        values.append(a * b if rng.random() < 0.5 else a + b)
    divisors = []
    for _ in range(4):
        x = RhoRational.const(Fraction(rng.choice((-3, -1, 2, 5)),
                                       rng.randint(1, 4)))
        for element in base.elements:
            k = rng.randint(-2, 2)
            factor = RhoRational(element)
            for _ in range(abs(k)):
                x = x * factor if k > 0 else x / factor
        divisors.append(base.lift(x))
    pairs = [tuple(rng.sample(values, 2)) for _ in range(40)]
    return base, pairs, [(a, b) for a in values[::3] for b in divisors]


def _memo_results(base, pairs, quotients):
    """(base value, expected canonical value) for every operation."""
    conv = base.rational
    out = []
    for a, b in pairs:
        x, y = conv(a), conv(b)
        out += [(a + b, x + y), (a - b, x - y), (a * b, x * y)]
    out += [(a / b, conv(a) / conv(b)) for a, b in quotients]
    return out


def _table_sizes(base):
    return len(base._exps), len(base._sums)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_base_exponent_tables(seed):
    # * reads the exponents of its result from the base's table: every
    # result of +, -, * and / converts to the canonical arithmetic on the
    # converted operands and holds the base's one tuple for its exponents,
    # and repeating the operations adds no table entry
    base, pairs, quotients = _memo_case(seed)
    assert len(base.elements) == 3
    assert any(len(e._c) > 1 for e in base.elements)
    assert all(b.c.keys() == {0} for _, b in quotients)
    results = _memo_results(base, pairs, quotients)
    for got, want in results:
        assert base.rational(got) == want
        assert got.exps is base._exps[got.exps]
    sizes = _table_sizes(base)
    assert all(sizes)
    again = _memo_results(base, pairs, quotients)
    assert _table_sizes(base) == sizes
    assert [(v, v.exps) for v, _ in again] == [(v, v.exps) for v, _ in results]


def test_sum_across_denominators_with_a_common_factor():
    # the cached split of two denominators over their gcd gives the
    # canonical sum, on the first meeting of the pair and on every later one
    rng = random.Random(35)
    shared = [rr(t).num for t in ("rho", "rho + 1", "rho^2 + 2")]
    others = [rr(t).num for t in ("1", "rho", "rho - 1", "rho^2 + 3")]
    met = 0
    for _ in range(30):
        g = rng.choice(shared)
        a = RhoRational(_random_poly(rng, 2), g * rng.choice(others))
        b = RhoRational(_random_poly(rng, 2), g * rng.choice(others))
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        met += d1 != d2 and RhoRational(d1, d2).den != d2
        for _ in range(2):
            for got in (a + b, b + a):
                assert got == RhoRational(n1 * d2 + n2 * d1, d1 * d2)
    assert met >= 10


def test_repeated_matrix_sum_splits_each_pair_once():
    # summing two matrices again meets only denominator pairs the split
    # cache holds: its misses are the distinct pairs of unequal ones
    rng = random.Random(37)
    dens = [rr(t).num for t in ("rho", "rho + 1", "rho*(rho + 1)",
                                "rho^2 + 2", "(rho + 1)*(rho^2 + 2)")]

    def matrix():
        return [[RhoRational(_random_poly(rng, 2), rng.choice(dens))
                 for _ in range(4)] for _ in range(4)]

    a, b = matrix(), matrix()
    entries = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    want = [RhoRational(x.num * y.den + y.num * x.den, x.den * y.den)
            for x, y in entries]
    pairs = {(x.den, y.den) for x, y in entries
             if not x.is_zero() and not y.is_zero() and x.den != y.den}
    exact._split.cache_clear()
    for _ in range(3):
        assert [x + y for x, y in entries] == want
    assert exact._split.cache_info().misses == len(pairs) >= 5
