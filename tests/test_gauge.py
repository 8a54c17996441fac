"""Gauge and conservation constraint residuals and solution dimensions."""
import random
from fractions import Fraction

from gwsym.exact import RhoRational, parse_rho_rational
from gwsym.gauge import (ConstraintKind, constraint_space_dim,
                         conservation_residual, harmonic_gauge_residual)
from gwsym.tensor import (CoVec4, MINKOWSKI, Sym2T, ZERO_MAT, mat_add,
                          pairing, rank_one, sym_outer)


def rr(text):
    return parse_rho_rational(text)


IDENTITY = Sym2T(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def _is_zero_covec(v):
    return all(x.is_zero() for x in v)


def test_polarizations_satisfy_both_constraints(config):
    for i in range(1, 5):
        z = config.zeta(i)
        a = rank_one(z)
        assert _is_zero_covec(harmonic_gauge_residual(MINKOWSKI, z, a))
        assert _is_zero_covec(conservation_residual(MINKOWSKI, z, a))


def test_harmonic_gauge_identity_example(config):
    # component 0 equals xi_0 + (1/2) xi_0 * 2 = 2 for the first covector
    res = harmonic_gauge_residual(MINKOWSKI, config.zeta(1), IDENTITY)
    assert res[0] == rr("2")
    assert not _is_zero_covec(res)


def test_harmonic_gauge_zero_tensor(config):
    res = harmonic_gauge_residual(MINKOWSKI, config.zeta(1), ZERO_MAT)
    assert _is_zero_covec(res)


def test_conservation_examples(config):
    z1, z2 = config.zeta(1), config.zeta(2)
    res = conservation_residual(MINKOWSKI, z1, rank_one(z2))
    # h(z1, z2) = 1, so the residual is z2 itself
    assert res == z2
    # orthogonal outer product gives zero
    v = CoVec4((0, 0, 1, 0))
    w = CoVec4((0, 0, 0, 1))
    eta = CoVec4((1, 1, 0, 0))
    assert pairing(MINKOWSKI, eta, v).is_zero()
    assert _is_zero_covec(conservation_residual(MINKOWSKI, eta,
                                                sym_outer(v, w)))
    assert _is_zero_covec(conservation_residual(MINKOWSKI, eta, ZERO_MAT))


def test_residual_linearity(config):
    rng = random.Random(12)

    def rand_sym():
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5), 2)
        return Sym2T(rows)

    z = config.zeta(2)
    for residual in (conservation_residual, harmonic_gauge_residual):
        a, b = rand_sym(), rand_sym()
        lhs = residual(MINKOWSKI, z, mat_add(a, b))
        rhs = residual(MINKOWSKI, z, a) + residual(MINKOWSKI, z, b)
        assert lhs == rhs


def random_null_covector(rng):
    """Light-like covector with rational or rho-monomial components.

    Spatial part from the Pythagorean parametrization (a^2 - b^2, 2ab, 0)
    with norm a^2 + b^2, shuffled over axes and scaled by a rho power.
    """
    a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    if a == abs(b):
        b += 1
    spatial = [a * a - b * b, 2 * a * b, Fraction(0)]
    rng.shuffle(spatial)
    t = a * a + b * b
    scale = RhoRational.rho_power(10 * rng.randint(-1, 1),
                                  Fraction(rng.choice((1, -1))
                                           * rng.randint(1, 3)))
    return CoVec4(tuple(scale * RhoRational.const(x)
                        for x in (t, *spatial)))


def test_dimension_six_for_randomized_null_covectors():
    rng = random.Random(77)
    for _ in range(100):
        cov = random_null_covector(rng)
        from gwsym.tensor import norm_sq
        assert norm_sq(MINKOWSKI, cov).is_zero()
        for kind in (ConstraintKind.ConservationLaw,
                     ConstraintKind.HarmonicGauge):
            res = constraint_space_dim(kind, MINKOWSKI, cov)
            assert res.dimension == 6 and res.rank == 4


def test_dimension_values(config):
    for kind in (ConstraintKind.ConservationLaw, ConstraintKind.HarmonicGauge):
        res = constraint_space_dim(kind, MINKOWSKI, config.zeta(1))
        assert res.dimension == 6 and res.fiber_dimension == 10
    res = constraint_space_dim(ConstraintKind.MaxwellConservation, MINKOWSKI,
                               config.zeta(1))
    assert res.dimension == 3 and res.fiber_dimension == 4
    degenerate = constraint_space_dim(ConstraintKind.ConservationLaw,
                                      MINKOWSKI, CoVec4((0, 0, 0, 0)))
    assert degenerate.dimension == 10 and degenerate.degenerate
    degenerate = constraint_space_dim(ConstraintKind.MaxwellConservation,
                                      MINKOWSKI, CoVec4((0, 0, 0, 0)))
    assert degenerate.dimension == 4 and degenerate.degenerate


def test_suite_gauge_reads_the_configuration_metric(config):
    # the one-entry frame shear A = I + 1/2 e0 e1^T: the metric A^T eta A
    # and the covectors A^T zeta_i, which are not light-like under eta, so
    # a suite that reads eta fails nine verdicts here
    from gwsym.cli import suite_gauge
    from gwsym.nullcone import NullConfig
    from gwsym.report import Report
    from gwsym.scenario import Scenario
    from gwsym.tensor import Metric4
    shear = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    shear[0][1] = Fraction(1, 2)
    eta = (-1, 1, 1, 1)
    metric = Metric4(tuple(
        tuple(sum(shear[k][i] * eta[k] * shear[k][j] for k in range(4))
              for j in range(4)) for i in range(4)))
    zetas = [CoVec4(tuple(sum((RhoRational.const(shear[k][i]) * z[k]
                               for k in range(4)), RhoRational.const(0))
                          for i in range(4)))
             for z in config.zetas]
    report = suite_gauge(Report(), Scenario(NullConfig(zetas, metric)))
    (section,) = report.sections
    assert len([e for e in section.entries if hasattr(e, "passed")]) == 14
    assert report.failures() == []
