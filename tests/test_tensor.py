"""Tensor core: pairings, sandwiches, outer products, exact metric inverse."""
import random
from fractions import Fraction

import pytest

from gwsym.exact import RhoRational, parse_rho_rational
from gwsym.interaction import mat_max_degree
from gwsym.tensor import (CoVec4, MINKOWSKI, Metric4, Sym2T, ZERO_SYM2,
                          chain_sandwich, norm_sq, pairing, rank, rank_one,
                          sym_outer)


def rr(text):
    return parse_rho_rational(text)


NON_DIAGONAL = Metric4(((-2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 1, 0),
                       (0, 0, 0, 5)))


def _rows(t):
    return t.m if isinstance(t, Sym2T) else t


PAIRING_TABLE = {
    (1, 2): "1", (1, 3): "-1/(2*rho^10)", (1, 4): "-rho^10",
    (2, 3): "1/(2*rho^10)", (2, 4): "rho^10", (3, 4): "-1",
}


def test_pairing_table(config):
    for (i, j), text in PAIRING_TABLE.items():
        assert pairing(MINKOWSKI, config.zeta(i), config.zeta(j)) == rr(text)


def test_single_covectors_are_null(config):
    for i in range(1, 5):
        assert norm_sq(MINKOWSKI, config.zeta(i)).is_zero()


def test_triple_norms(config):
    norms = config.triple_norm_table()
    assert norms[(1, 2, 3)] == rr("2")
    assert norms[(1, 2, 4)] == rr("2")
    # leading parts 2 rho^10 - 2 and -2 rho^10 - 2 with rho^-10 tails
    n234 = norms[(2, 3, 4)]
    assert (n234 - rr("2*rho^10 - 2")).infinity_degree == -10
    n134 = norms[(1, 3, 4)]
    assert (n134 - rr("-2*rho^10 - 2")).infinity_degree == -10


def test_sandwich_examples(config):
    z3, z4, z1 = config.zeta(3), config.zeta(4), config.zeta(1)
    assert chain_sandwich(MINKOWSKI, [rank_one(z3)], z4) == rr("1")
    assert chain_sandwich(MINKOWSKI, [rank_one(z1)], z4) == rr("rho^20")
    assert chain_sandwich(MINKOWSKI, [ZERO_SYM2], z4).is_zero()


def test_double_sandwich_factorizes(config):
    # rank-one arguments collapse to a product of three pairings
    z1, z2, z4 = config.zeta(1), config.zeta(2), config.zeta(4)
    got = chain_sandwich(MINKOWSKI, [rank_one(z1), rank_one(z2)], z4)
    assert got == rr("-rho^20")
    expect = (pairing(MINKOWSKI, z1, z4) * pairing(MINKOWSKI, z2, z4)
              * pairing(MINKOWSKI, z1, z2))
    assert got == expect


def test_double_sandwich_matches_matrix_product(config):
    # brute-force triple matrix product oracle; the non-diagonal metric and
    # the non-symmetric chain member read the index order of each
    # contraction and the symmetry of the inverse
    z1 = config.zeta(1)
    s1, s2 = rank_one(config.zeta(3)), rank_one(config.zeta(4))
    skew = tuple(tuple(rr(text) for text in row) for row in (
        ("1", "rho", "0", "2"), ("0", "-1", "1/rho", "0"),
        ("3", "0", "rho + 1", "0"), ("0", "1", "0", "-2")))
    for metric, chain in ((MINKOWSKI, [s1, s2]), (NON_DIAGONAL, [s1, s2]),
                          (NON_DIAGONAL, [skew, s2])):
        hinv = metric.inv
        mats = [hinv, _rows(chain[0]), hinv, _rows(chain[1]), hinv]
        prod = mats[0]
        for m in mats[1:]:
            prod = tuple(tuple(sum((prod[i][k] * m[k][j] for k in range(4)),
                                   RhoRational.const(0)) for j in range(4))
                         for i in range(4))
        brute = RhoRational.const(0)
        for p in range(4):
            for q in range(4):
                brute = brute + prod[p][q] * z1[p] * z1[q]
        assert chain_sandwich(metric, chain, z1) == brute


def test_sym_outer(config):
    z = config.zeta(1)
    doubled = sym_outer(z, z)
    assert doubled == rank_one(z).scale(2)
    a14 = sym_outer(z, config.zeta(4))
    assert mat_max_degree(a14.m) == 10
    e0 = CoVec4((1, 0, 0, 0))
    e1 = CoVec4((0, 1, 0, 0))
    m = sym_outer(e0, e1)
    assert m[0][1] == RhoRational.const(1) and m[1][0] == RhoRational.const(1)
    assert sum(1 for i in range(4) for j in range(4)
               if not m[i][j].is_zero()) == 2


def test_metric_inverse_is_exact():
    # the second metric has rho-dependent, non-monomial entries
    rho_metric = Metric4(tuple(tuple(rr(text) for text in row) for row in (
        ("-rho - 1", "1", "0", "rho"), ("1", "rho^2 - 1", "0", "0"),
        ("0", "0", "rho", "1/(rho + 2)"), ("rho", "0", "1/(rho + 2)", "5"))))
    for m in (NON_DIAGONAL, rho_metric):
        prod = [[sum((m[i][k] * m.inv[k][j] for k in range(4)),
                     RhoRational.const(0)) for j in range(4)]
                for i in range(4)]
        for i in range(4):
            for j in range(4):
                want = RhoRational.const(1 if i == j else 0)
                assert prod[i][j] == want


def test_singular_metric_rejected():
    with pytest.raises(ValueError):
        Metric4(((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_sym2t_rejects_asymmetric():
    rows = [[0] * 4 for _ in range(4)]
    rows[0][1] = 1
    with pytest.raises(ValueError):
        Sym2T(rows)


def test_sym2t_repr_shows_denominators():
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0], rows[1][1] = RhoRational.rho_power(-10), 1
    text = repr(Sym2T(rows))
    assert text.startswith("Sym2T([['(1)/(rho^10)', '0', '0', '0'], "
                           "['0', '1', '0', '0'], ")


def _random_covec(rng):
    return CoVec4(tuple(RhoRational.const(Fraction(rng.randint(-4, 4),
                                                   rng.randint(1, 3)))
                        for _ in range(4)))


def test_pairing_symmetric_bilinear():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (_random_covec(rng) for _ in range(3))
        s = RhoRational.const(Fraction(rng.randint(-3, 3), 2))
        assert pairing(MINKOWSKI, a, b) == pairing(MINKOWSKI, b, a)
        lhs = pairing(MINKOWSKI, a.scale(s) + c, b)
        rhs = s * pairing(MINKOWSKI, a, b) + pairing(MINKOWSKI, c, b)
        assert lhs == rhs


def test_rank_one_sandwich_identity():
    rng = random.Random(5)
    for _ in range(20):
        a, xi = _random_covec(rng), _random_covec(rng)
        p = pairing(MINKOWSKI, a, xi)
        assert chain_sandwich(MINKOWSKI, [rank_one(a)], xi) == p * p
        assert chain_sandwich(MINKOWSKI, [sym_outer(a, a)], xi) == 2 * p * p


def test_chain_sandwich_generalizes(config):
    z3, z4 = config.zeta(3), config.zeta(4)
    p = pairing(MINKOWSKI, z3, z4)
    assert chain_sandwich(MINKOWSKI, [rank_one(z3)], z4) == p * p


def test_rank(config):
    assert rank([z.c for z in config.zetas]) == 4
    rows = [list(z.c) for z in config.zetas]
    rows[3] = list(config.zeta(1).c)
    assert rank(rows) == 3


def _random_poly(rng):
    """A small integer polynomial in rho of degree at most 2."""
    return sum((RhoRational.rho_power(e, rng.randint(-3, 3))
                for e in range(3)), RhoRational.const(0))


def _planted(rng, rows, cols, r):
    """A rows x cols matrix of small polynomials with an r x r identity
    block on random rows and columns, so its rank is r."""
    m = [[_random_poly(rng) for _ in range(cols)] for _ in range(rows)]
    picked_rows = rng.sample(range(rows), r)
    picked_cols = rng.sample(range(cols), r)
    for a, i in enumerate(picked_rows):
        for b, j in enumerate(picked_cols):
            m[i][j] = RhoRational.const(1 if a == b else 0)
    return m


def test_planted_rank():
    # seed 11: for each rank r in 0..4 and width k in {4, 10}, three
    # products M = A B of a 4 x r and an r x k planted matrix (30 in all)
    rng = random.Random(11)
    for r in range(5):
        for k in (4, 10):
            for _ in range(3):
                a, b = _planted(rng, 4, r, r), _planted(rng, r, k, r)
                m = [[sum((a[i][t] * b[t][j] for t in range(r)),
                          RhoRational.const(0)) for j in range(k)]
                     for i in range(4)]
                transposed = [list(col) for col in zip(*m)]
                assert rank(m) == rank(transposed) == r
