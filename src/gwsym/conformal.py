"""Conformal weight calculus for the interaction coefficient forms.

A weight is a plain int w, standing for the factor lambda^w picked up when
the background metric is rescaled by lambda^2 at the interaction point.
Form weights are verified by exact evaluation at two rational sample
factors; the transport rules for the causal inverse are recorded constants,
and chains compose additively.
"""
from __future__ import annotations

from fractions import Fraction

from .exact import RhoRational
from .forms import SlotValue, symbols_of_forms
from .interaction import form_family
from .nullcone import standard_config
from .tensor import MINKOWSKI, norm_sq


class NonHomogeneousError(ArithmeticError):
    pass


def _fit_exponent(base_matrix, scaled_matrix, lam: Fraction) -> int:
    """The w in -16..16 with scaled == lam^w * base, else raises; the ratio
    at base's first nonzero entry is the one candidate, checked once."""
    pairs = [(b, x) for brow, srow in zip(base_matrix, scaled_matrix)
             for b, x in zip(brow, srow)]
    ratio = next((x / b for b, x in pairs if not b.is_zero()), None)
    if ratio is None:
        raise NonHomogeneousError("a zero evaluation has no weight")
    w = {RhoRational.const(lam ** k): k for k in range(-16, 17)}.get(ratio)
    if w is None or any(x != ratio * b for b, x in pairs):
        raise NonHomogeneousError("ratio of evaluations is not a pure power")
    return w


def _weights(evaluate) -> list:
    """Verified weight of each matrix of ``evaluate`` (metric -> list of
    matrices) under rescaling.

    Evaluates on the background metric and on its rescaling by lambda^2,
    for two different rational lambda, and fits the exact integer
    exponent of each matrix; the two fits must agree.
    """
    base = evaluate(MINKOWSKI)
    lams = (Fraction(2), Fraction(3))
    scaled = [evaluate(MINKOWSKI.scale_conformal(RhoRational.const(lam * lam)))
              for lam in lams]
    weights = []
    for i, matrix in enumerate(base):
        exponents = {_fit_exponent(matrix, values[i], lam)
                     for lam, values in zip(lams, scaled)}
        if len(exponents) != 1:
            raise NonHomogeneousError(f"exponent fit disagrees: {exponents}")
        weights.append(exponents.pop())
    return weights


def wave_operator_degree() -> int:
    """Weight of the principal wave-operator coefficient (one inverse metric)."""
    xi = standard_config().subset_sum((1, 2, 3))
    (weight,) = _weights(lambda metric: [((norm_sq(metric, xi),),)])
    if weight != -2:
        raise NonHomogeneousError(
            f"wave operator scaling came out as {weight}")
    return weight


def q_diag_weight() -> int:
    """Transport weight of the causal inverse on the diagonal: +2.

    Consistency: the principal symbol of the second-order operator is the
    squared covector norm, which scales by lambda^-2; its inverse scales by
    lambda^+2.  ``wave_operator_degree`` recomputes the norm's weight by
    direct evaluation (raising unless it is -2); this is its negative.
    """
    return -wave_operator_degree()


#: Transport rules along the flow-out, recorded as constants of the calculus.
CHAIN_RULES = {
    "wave_symbol": -1,
    "coefficient": -8,
    "q_flowout_source": 3,
    "q_flowout_target": -1,
    "q_flowout_target_normalized": 0,  # unit factor on the data region
}


def compose_total_weight(chain) -> int:
    """Sum of the recorded rule weights of a chain of kinds.

    The canonical chain of four wave symbols, the coefficient forms and the
    flow-out transport composes to -9.
    """
    return sum(CHAIN_RULES[kind] for kind in chain)


def canonical_chain():
    """Four waves, the coefficient scaling, and the flow-out transport."""
    return ("wave_symbol", "wave_symbol", "wave_symbol", "wave_symbol",
            "coefficient", "q_flowout_source", "q_flowout_target_normalized")


def verified_degree_table() -> dict:
    """All six form weights, each verified by exact evaluation on fixed
    wave slot data.  Per metric, one ``CoprimeBase`` of the denominators of
    all six forms' slots serves every form walk."""
    keys = (("P", 2), ("P", 3), ("P", 4), ("Hhat", 2), ("Hhat", 3),
            ("Hhat", 4))
    config = standard_config()
    waves = {s: SlotValue.wave(config.zeta(s)) for s in range(1, 5)}
    items = []
    for key in keys:
        form = form_family()[key]
        items.append((form, {s: waves[s] for s in range(1, form.arity + 1)}))
    return dict(zip(keys, _weights(
        lambda metric: symbols_of_forms(items, metric))))
