"""Conformal weight calculus."""
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gwsym.conformal import (NonHomogeneousError, _fit_exponent,
                             canonical_chain, compose_total_weight,
                             q_diag_weight, verified_degree_table,
                             wave_operator_degree)
from gwsym.exact import RhoRational
from gwsym.forms import SlotValue
from gwsym.interaction import Evaluator, FormNode, Leaf, QNode
from gwsym.nullcone import NullConfig
from gwsym.tensor import (MINKOWSKI, mat_is_zero, mat_scale, mat_sub,
                          rank_one)


EXPECTED_TABLE = {("P", 2): -4, ("P", 3): -6, ("P", 4): -8,
                  ("Hhat", 2): -4, ("Hhat", 3): -6, ("Hhat", 4): -8}


def test_degree_table():
    assert verified_degree_table() == EXPECTED_TABLE


def test_wave_operator_degree():
    assert wave_operator_degree() == -2


def test_q_diag_weight():
    assert q_diag_weight() == 2


def test_q_diag_weight_checks_under_optimize():
    # the check must not be an assert: python -O would strip it
    code = ("import gwsym.conformal as c\n"
            "def broken():\n"
            "    raise c.NonHomogeneousError('wave operator')\n"
            "c.wave_operator_degree = broken\n"
            "try:\n"
            "    c.q_diag_weight()\n"
            "except c.NonHomogeneousError:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(
        sys.modules["gwsym.conformal"].__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "raised\n"


def test_compose_total_weight():
    assert compose_total_weight(canonical_chain()) == -9
    assert compose_total_weight(()) == 0
    net = compose_total_weight(("q_flowout_source", "q_flowout_target"))
    assert net == 2


def test_nested_composition_scaling(config):
    # P2(v_j, Q(P2(v3, v4))): two forms at -4 each and one causal inverse
    # at +2 compose to lambda^-6 with unscaled slot data
    lam = Fraction(3)
    ast = FormNode(("P", 2), (Leaf(2), QNode(
        FormNode(("P", 2), (Leaf(3), Leaf(4))))))
    base = Evaluator(config).eval(ast)
    scaled_metric = MINKOWSKI.scale_conformal(RhoRational.const(lam * lam))
    scaled = Evaluator(NullConfig(config.zetas, scaled_metric)).eval(ast)
    want = mat_scale(base.matrix, RhoRational.const(Fraction(1, lam ** 6)))
    assert mat_is_zero(mat_sub(scaled.matrix, want))


def test_end_to_end_minus_12(config):
    lam = Fraction(2)
    for ast in (
        FormNode(("Hhat", 4), (Leaf(1), Leaf(2), Leaf(3), Leaf(4))),
        FormNode(("P", 2), (Leaf(1), QNode(
            FormNode(("Hhat", 2), (Leaf(2), QNode(
                FormNode(("P", 2), (Leaf(3), Leaf(4)))))))))):
        base = Evaluator(config).eval(ast)
        scaled_metric = MINKOWSKI.scale_conformal(RhoRational.const(lam * lam))
        lam_inv = RhoRational.const(Fraction(1, lam))
        leaf = {i: SlotValue(mat_scale(rank_one(config.zeta(i)), lam_inv),
                             config.zeta(i),
                             outer=((lam_inv, config.zeta(i), config.zeta(i)),))
                for i in range(1, 5)}
        scaled = Evaluator(NullConfig(config.zetas, scaled_metric),
                           leaf_symbols=leaf).eval(ast)
        want = mat_scale(base.matrix,
                         RhoRational.const(Fraction(1, lam ** 12)))
        assert mat_is_zero(mat_sub(scaled.matrix, want))


def test_non_homogeneous_detection():
    with pytest.raises(NonHomogeneousError):
        # a deliberately broken fit: compare matrices that are not related
        # by a pure power
        from gwsym.conformal import _fit_exponent
        from gwsym.exact import ZERO, ONE
        base = ((ONE, ZERO, ZERO, ZERO),) + (((ZERO,) * 4),) * 3
        other = ((ONE + ONE, ZERO, ZERO, ONE),) + (((ZERO,) * 4),) * 3
        _fit_exponent(base, other, Fraction(2))
    with pytest.raises(NonHomogeneousError):
        # a zero evaluation matches every power: it has no weight
        from gwsym.tensor import ZERO_MAT
        _fit_exponent(ZERO_MAT, ZERO_MAT, Fraction(2))



class TestFitExponent:
    """``_fit_exponent`` reads the ratio at the first nonzero entry and
    checks it on every entry."""

    LAM = Fraction(2)
    BASE = ((RhoRational.const(3), RhoRational.rho_power(2)),
            (RhoRational.const(0), RhoRational.rho_power(-1)))

    def test_pure_power(self):
        for w in (-16, -4, 0, 3, 16):
            scaled = mat_scale(self.BASE, RhoRational.const(self.LAM ** w))
            assert _fit_exponent(self.BASE, scaled, self.LAM) == w

    def test_first_ratio_alone_is_not_enough(self):
        # the first entry scales by lam^-4, one other entry does not: a
        # nonzero one, or one that is zero in the base
        scaled = mat_scale(self.BASE, RhoRational.const(self.LAM ** -4))
        for i, j, x in ((0, 1, RhoRational.rho_power(2)),
                        (1, 0, RhoRational.const(1))):
            broken = [list(row) for row in scaled]
            broken[i][j] = x
            with pytest.raises(NonHomogeneousError, match="not a pure power"):
                _fit_exponent(self.BASE, broken, self.LAM)

    @pytest.mark.parametrize("factor", [
        RhoRational.const(Fraction(2) ** 17), RhoRational.const(3),
        RhoRational.rho_power(1)])
    def test_ratio_outside_the_powers(self, factor):
        with pytest.raises(NonHomogeneousError, match="not a pure power"):
            _fit_exponent(self.BASE, mat_scale(self.BASE, factor), self.LAM)
