"""Claims about every valid configuration, on seeded random ones.

``valid_configs`` draws a configuration as the standard one is built: four
rational null directions, three scales +-c rho^k, the fourth scale solved
by ``solve_null_scale`` so the sum is light-like, and only draws that
``NullConfig`` validates.  Other tests may import it.
"""
from fractions import Fraction

from hypothesis import given, reject, seed, settings, strategies as st

from gwsym.exact import RhoRational
from gwsym.forms import SlotValue
from gwsym.interaction import Evaluator, mat_is_zero
from gwsym.nullcone import ConfigError, NullConfig, solve_null_scale
from gwsym.oracle import exact_total_jet
from gwsym.tensor import CoVec4, Metric4, Sym2T

#: the plane coordinates the null directions project from; larger ones
#: give longer coefficients and a slower exact jet
PLANE = (0, 1, -1, 2)


def null_direction(u, v) -> CoVec4:
    """The light-like covector (1 + s, 2u, 2v, s - 1), s = u^2 + v^2: the
    inverse stereographic projection of (u, v) onto the unit sphere, as a
    spatial direction, scaled by 1 + s."""
    s = u * u + v * v
    return CoVec4((1 + s, 2 * u, 2 * v, s - 1))


@st.composite
def valid_configs(draw):
    points = draw(st.lists(st.tuples(st.sampled_from(PLANE),
                                     st.sampled_from(PLANE)),
                           min_size=4, max_size=4, unique=True))
    t1, t2, t3, t4 = (null_direction(u, v) for u, v in points)
    a1, a2, a4 = (RhoRational.rho_power(draw(st.integers(-1, 1)),
                                        draw(st.sampled_from((1, -1, 2, -2))))
                  for _ in range(3))
    try:
        a3 = solve_null_scale(a1, a2, a4, (t1, t2, t3, t4))
        return NullConfig((t1.scale(a1), t2.scale(a2), t3.scale(a3),
                           t4.scale(a4)))
    except ConfigError:
        reject()


# 3 examples from seed 3: about 2 s with Python 3.11 on two cores, 0.10-0.14 s
# per engine total and 0.3-0.9 s per exact jet (CPU time).  Seeds 31, 1 and 2
# draw dearer configurations (jets up to 1.6 s) on which the claim held too
@seed(3)
@settings(max_examples=3, deadline=None)
@given(config=valid_configs())
def test_rank_one_total_vanishes_and_equals_the_jet(config):
    # the rank-one wave symbols are pure gauge, so the total vanishes
    # identically in rho; the jet over Q(rho) is the independent route
    total = Evaluator(config).total()["matrix"]
    assert mat_is_zero(total)
    assert exact_total_jet(config) == total


def _sheared(frame, rows):
    """frame^T rows frame, for a 4x4 frame and rows of Q(rho) values."""
    return tuple(tuple(sum((frame[k][i] * rows[k][l] * frame[l][j]
                            for k in range(4) for l in range(4)),
                           RhoRational.const(0))
                       for j in range(4)) for i in range(4))


def test_shear_frame_covariance(config, tt_evaluator, tt_symbols):
    # the one-entry frame shear A = I + 1/2 e0 e1^T: the metric A^T eta A,
    # whose inverse is not diagonal, the covectors A^T zeta_i and the tt
    # amplitudes A^T M_i A; the total is a covariant 2-tensor
    const = RhoRational.const
    frame = [[const(int(i == j)) for j in range(4)] for i in range(4)]
    frame[0][1] = const(Fraction(1, 2))
    eta = [[const((-1, 1, 1, 1)[i] if i == j else 0) for j in range(4)]
           for i in range(4)]
    metric = Metric4(_sheared(frame, eta))
    zetas = [CoVec4(tuple(sum((frame[k][i] * z[k] for k in range(4)),
                              const(0)) for i in range(4)))
             for z in config.zetas]
    sheared = NullConfig(zetas, metric)
    amplitudes = {i: _sheared(frame, [[const(x) for x in row] for row in m])
                  for i, m in tt_symbols.items()}
    ev = Evaluator(sheared, leaf_symbols={
        i: SlotValue(Sym2T(m), sheared.zeta(i))
        for i, m in amplitudes.items()})
    total = ev.total()["matrix"]
    assert total == _sheared(frame, tt_evaluator.total()["matrix"])
    assert not mat_is_zero(total)
    assert exact_total_jet(sheared, amplitudes) == total
    rank_one = Evaluator(sheared).total()["matrix"]
    assert mat_is_zero(rank_one)
    assert exact_total_jet(sheared) == rank_one
