"""Null configuration construction and flat-model causal checks."""
import random
from fractions import Fraction

import pytest

from gwsym.exact import RhoRational, parse_rho_rational
from gwsym.nullcone import (ConfigError, FlatPoint, NullConfig,
                            backtrace_sources, base_directions,
                            causally_unrelated, in_causal_future,
                            solve_null_scale)
from gwsym.tensor import CoVec4, MINKOWSKI, norm_sq


def rr(text):
    return parse_rho_rational(text)


def test_standard_config_components(config):
    assert config.zeta(2) == CoVec4((-1, 0, 0, -1))
    assert config.zeta(3) == CoVec4((rr("1/(2*rho^10)"), rr("1/(2*rho^10)"),
                                     rr("0"), rr("0")))
    assert config.zeta(4) == CoVec4((rr("rho^10"), rr("-rho^10"), 0, 0))


def test_standard_config_invariants(config):
    # construction validates: each null, independent, null sum
    assert norm_sq(MINKOWSKI, config.subset_sum(range(1, 5))).is_zero()


def test_invalid_configs_rejected(config):
    zs = config.zetas
    with pytest.raises(ConfigError):
        NullConfig((zs[0], zs[0], zs[2], zs[3]))  # dependent
    not_null = CoVec4((1, 0, 0, 0))
    with pytest.raises(ConfigError):
        NullConfig((not_null, zs[1], zs[2], zs[3]))
    with pytest.raises(ConfigError):
        NullConfig((zs[0], zs[1], zs[2], zs[3].scale(2)))  # sum not null


def test_subset_sums_and_norms_are_memoized(config, monkeypatch):
    # a fresh configuration sums each multiset of waves once, by one
    # addition to its prefix; the memos take no part in equality
    fresh = NullConfig(config.zetas)
    subsets = [[w for w in range(1, 5) if bits >> (w - 1) & 1]
               for bits in range(1, 16)]
    want = {}
    for waves in subsets:
        want[tuple(waves)] = config.zeta(waves[0])
        for w in waves[1:]:
            want[tuple(waves)] = want[tuple(waves)] + config.zeta(w)
    adds = [0]
    add = CoVec4.__add__

    def counted(a, b):
        adds[0] += 1
        return add(a, b)

    monkeypatch.setattr(CoVec4, "__add__", counted)
    for _ in range(2):
        for waves in subsets:
            assert fresh.subset_sum(waves[::-1]) == want[tuple(waves)]
            assert fresh.subset_norm(waves) is fresh.subset_norm(
                waves[::-1])
            assert fresh.subset_norm(waves) == norm_sq(
                MINKOWSKI, fresh.subset_sum(waves))
    assert adds[0] <= 11
    assert fresh.subset_norm((1, 1)).is_zero()
    assert fresh == config and hash(fresh) == hash(config)
    with pytest.raises(ValueError, match="empty index set"):
        fresh.subset_sum(())


def test_solve_null_scale_published_value():
    a3 = solve_null_scale(1, -1, RhoRational.rho_power(10), base_directions())
    assert a3 == rr("-1/(2*rho^10)")


def test_solve_null_scale_cross_term_only():
    # alpha1 = alpha2 = 0: only the alpha3*alpha4 cross term survives
    a3 = solve_null_scale(0, 0, RhoRational.rho_power(10), base_directions())
    assert a3.is_zero()


def test_solve_null_scale_substitution_oracle():
    rng = random.Random(9)
    tz = base_directions()
    for _ in range(10):
        a1 = RhoRational.const(rng.randint(1, 4))
        a2 = RhoRational.const(rng.randint(-4, -1))
        a4 = RhoRational.rho_power(10, rng.randint(1, 3))
        a3 = solve_null_scale(a1, a2, a4, tz)
        total = (tz[0].scale(a1) + tz[1].scale(a2) + tz[2].scale(a3)
                 + tz[3].scale(a4))
        assert norm_sq(MINKOWSKI, total).is_zero()


def test_solve_null_scale_degenerate():
    # all coefficients of alpha3 vanish when the three pairings cancel
    with pytest.raises(ConfigError):
        solve_null_scale(0, 0, 0, base_directions())


def test_causally_unrelated_examples():
    o = FlatPoint.of(0, 0, 0, 0)
    assert causally_unrelated(o, FlatPoint.of(0, 5, 0, 0))       # spacelike
    assert not causally_unrelated(o, FlatPoint.of(2, 1, 0, 0))   # timelike
    assert not causally_unrelated(o, FlatPoint.of(1, 1, 0, 0))   # null boundary
    assert in_causal_future(o, FlatPoint.of(1, 1, 0, 0))


def test_causally_unrelated_symmetric():
    rng = random.Random(4)
    for _ in range(30):
        p = FlatPoint.of(*(Fraction(rng.randint(-5, 5), 2) for _ in range(4)))
        q = FlatPoint.of(*(Fraction(rng.randint(-5, 5), 2) for _ in range(4)))
        assert causally_unrelated(p, q) == causally_unrelated(q, p)


GOLDEN_PAIR_TABLE = {(1, 2): True, (1, 3): True, (1, 4): True,
                     (2, 3): True, (2, 4): True, (3, 4): True}


def test_backtrace_golden_table(config):
    res = backtrace_sources(FlatPoint.of(0, 0, 0, 0), config, Fraction(2),
                            (1, 1, 1, 1))
    assert res.pair_table == GOLDEN_PAIR_TABLE
    assert res.all_unrelated
    assert res.independent_directions
    # all sources sit at equal coordinate time -1 by the normalization
    assert all(s.x0 == Fraction(-1) for s in res.sources)


def test_backtrace_degenerate_time(config):
    res = backtrace_sources(FlatPoint.of(0, 0, 0, 0), config, Fraction(2),
                            (0, 1, 1, 1))
    # the zero-time source coincides with the meeting point, which lies on
    # the future cones of the other three
    assert not res.all_unrelated


def test_backtrace_argument_validation(config):
    q0 = FlatPoint.of(0, 0, 0, 0)
    with pytest.raises(ValueError):
        backtrace_sources(q0, config, Fraction(1), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        backtrace_sources(q0, config, Fraction(2), (1, 1, 1))
    with pytest.raises(ValueError):
        backtrace_sources(q0, config, Fraction(2), (1, 1, 1, -1))
