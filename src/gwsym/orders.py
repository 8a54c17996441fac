"""Rule engine for microlocal order arithmetic.

Orders are exact rationals tagged with the Lagrangian they live on.  Every
transition happens through a named rule that emits a proof-trace line into
the caller's ``Trace``, so order claims stay auditable end to end.
"""
from __future__ import annotations

from fractions import Fraction

LABELS = ("source-conormal", "flowout", "interaction-cone",
          "point-conormal", "paired")


class MicroOrder:
    """Exact rational order on a labelled Lagrangian."""

    __slots__ = ("value", "lagrangian")

    def __init__(self, value: Fraction, lagrangian: str):
        object.__setattr__(self, "value", Fraction(value))
        if lagrangian not in LABELS:
            raise ValueError(f"unknown Lagrangian label {lagrangian!r}")
        object.__setattr__(self, "lagrangian", lagrangian)

    def __setattr__(self, name, value):
        raise AttributeError("MicroOrder is immutable")

    def shifted(self, delta) -> "MicroOrder":
        return MicroOrder(self.value + Fraction(delta), self.lagrangian)

    def __str__(self):
        return f"{self.value} on {self.lagrangian}"


class Trace:
    """Accumulates human-readable rule applications."""

    def __init__(self):
        self.lines = []

    def rule(self, name: str, statement: str, result: MicroOrder):
        self.lines.append(f"[{name}] {statement} => {result}")
        return result


#: Second index of the paired-Lagrangian class produced by the causal
#: inverse; recorded but never composed.
PAIRED_SECOND_INDEX = Fraction(-1, 2)


def distorted_wave_order(source_order: MicroOrder, trace: Trace):
    """Orders of the wave generated by a conormal source.

    The source sits one order above the convention base: writing its order
    as mu + 1, the causal inverse produces order mu - 1/2 on the flow-out
    and mu - 1 on the source conormal away from it.  Returns both orders,
    the flow-out one first.
    """
    if source_order.lagrangian != "source-conormal":
        raise ValueError("source must live on the source conormal")
    mu = source_order.value - 1
    on_flowout = trace.rule(
        "causal-inverse-flowout",
        f"source of order mu+1 = {source_order.value} gives the wave order "
        f"mu - 1/2 on the flow-out (paired second index {PAIRED_SECOND_INDEX})",
        MicroOrder(mu - Fraction(1, 2), "flowout"))
    on_source = trace.rule(
        "causal-inverse-residual",
        "away from the flow-out the wave keeps order mu - 1 on the source "
        "conormal",
        MicroOrder(mu - 1, "source-conormal"))
    return on_flowout, on_source


def interaction_order(mu_list, derivative_count: int, inner_q_count: int,
                      trace: Trace) -> MicroOrder:
    """Order of a four-wave interaction product on the interaction cone.

    The affine rule mu~ + 3/2 + derivatives - 2 * (inner causal inverses)
    is the unique rule consistent with the five catalogued interaction
    patterns and with the once/twice-iterated term classes.
    """
    if derivative_count < 0 or inner_q_count < 0:
        raise ValueError("counts must be non-negative")
    values = []
    for m in mu_list:
        values.append(m.value if isinstance(m, MicroOrder) else Fraction(m))
    mu_tilde = sum(values, Fraction(0))
    result = MicroOrder(
        mu_tilde + Fraction(3, 2) + derivative_count - 2 * inner_q_count,
        "interaction-cone")
    trace.rule(
        "interaction-product",
        f"four waves of total order {mu_tilde}, {derivative_count} "
        f"derivatives, {inner_q_count} inner causal inverses give "
        "mu~ + 3/2 + d - 2q",
        result)
    return result


def restriction_order(m: MicroOrder, trace: Trace) -> MicroOrder:
    """Restriction to a transversal curve: order m becomes m + 3/4.

    The intersection is assumed transversal at a single point; the result
    lives on the conormal of that point.
    """
    result = MicroOrder(m.value + Fraction(3, 4), "point-conormal")
    trace.rule(
        "curve-restriction",
        f"restriction of a codimension-one conormal distribution of order "
        f"{m.value} to a transversal curve (transversality assumed)",
        result)
    return result


def geodesic_perturbation_orders(wave_order: MicroOrder, trace: Trace):
    """Order ledger of the observed geodesic perturbation terms.

    Starting from a metric perturbation of order mu conormal to the wave
    cone: the connection coefficients gain one derivative (mu + 1), restrict
    to the observer curve with + 3/4, and two time integrations give the
    displacement order mu - 1 + 3/4.  The pullback term keeps mu + 3/4, so
    it dominates the displacement term by exactly one order; the frame term
    vanishes along the curve.  Returns the ledger of these orders.
    """
    mu = wave_order.value
    christoffel = trace.rule(
        "one-derivative",
        f"connection coefficients of a perturbation of order {mu} carry "
        "one extra derivative",
        MicroOrder(mu + 1, wave_order.lagrangian))
    restricted = restriction_order(christoffel, trace)
    solved = trace.rule(
        "double-time-integration",
        "solving the linearized geodesic equation integrates twice in time "
        "(order - 2)",
        restricted.shifted(-2))
    direct = restriction_order(MicroOrder(mu, wave_order.lagrangian), trace)
    trace.rule(
        "frame-term-vanishes",
        "the frame-derivative term vanishes identically along the observer "
        "curve (normal-coordinate Jacobian is the identity there)",
        MicroOrder(Fraction(0), "point-conormal"))
    ledger = {
        "christoffel": christoffel,
        "restricted_coefficient": restricted,
        "displacement": solved,
        "metric_pullback": direct,
        "frame_term_zero": True,
        "dominance_gap": direct.value - solved.value,
    }
    return ledger


def standard_claims():
    """Every order claim of the calculus with its proof trace.

    Returns a list of (name, expected, computed, trace_lines) entries used
    by the verification reports.
    """
    out = []

    trace = Trace()
    flow, src = distorted_wave_order(MicroOrder(Fraction(-16),
                                                "source-conormal"), trace)
    out.append(("wave-order-flowout", Fraction(-35, 2), flow.value,
                tuple(trace.lines)))
    out.append(("wave-order-source", Fraction(-18), src.value,
                tuple(trace.lines)))

    mu = Fraction(-5)  # generic sample order
    for name, (d, q, expect) in {
        "interaction-plain": (0, 0, 4 * mu + Fraction(3, 2)),
        "interaction-one-derivative-one-inverse": (1, 1, 4 * mu + Fraction(1, 2)),
        "interaction-two-derivatives-two-inverses": (2, 2, 4 * mu - Fraction(1, 2)),
    }.items():
        trace = Trace()
        got = interaction_order([mu] * 4, d, q, trace)
        out.append((name, expect, got.value, tuple(trace.lines)))

    # The once-iterated two-derivative interaction classes: waves of order
    # mu - 1/2, two derivatives per coefficient node, one inverse per
    # nesting level.
    trace = Trace()
    top = interaction_order([mu - Fraction(1, 2)] * 4, 4, 1, trace)
    out.append(("iterated-two-derivative", 4 * mu + Fraction(3, 2), top.value,
                tuple(trace.lines)))
    trace = Trace()
    lower = interaction_order([mu - Fraction(1, 2)] * 4, 3, 1, trace)
    out.append(("iterated-one-derivative", 4 * mu + Fraction(1, 2),
                lower.value, tuple(trace.lines)))

    trace = Trace()
    restricted = restriction_order(MicroOrder(4 * mu + Fraction(3, 2),
                                              "interaction-cone"), trace)
    out.append(("restriction", 4 * mu + Fraction(9, 4), restricted.value,
                tuple(trace.lines)))

    trace = Trace()
    ledger = geodesic_perturbation_orders(MicroOrder(mu, "interaction-cone"),
                                          trace)
    out.append(("geodesic-displacement", mu - Fraction(1, 4),
                ledger["displacement"].value, tuple(trace.lines)))
    out.append(("geodesic-pullback", mu + Fraction(3, 4),
                ledger["metric_pullback"].value, tuple(trace.lines)))
    out.append(("geodesic-dominance-gap", Fraction(1),
                ledger["dominance_gap"], tuple(trace.lines)))
    return out
