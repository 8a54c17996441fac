"""Microlocal order rule engine."""
from fractions import Fraction

import pytest

from gwsym.orders import (MicroOrder, Trace, distorted_wave_order,
                          geodesic_perturbation_orders, interaction_order,
                          restriction_order, standard_claims,
                          SOURCE_ORDER_BOUND, PAIRED_SECOND_INDEX)


def test_distorted_wave_order_boundary_case():
    # source written as mu + 1 = -16, i.e. mu = -17
    trace = Trace()
    flow, src = distorted_wave_order(
        MicroOrder(Fraction(-16), "source-conormal"), trace)
    assert flow.value == Fraction(-35, 2) and flow.lagrangian == "flowout"
    assert src.value == -18 and src.lagrangian == "source-conormal"
    assert len(trace.lines) == 2


def test_distorted_wave_order_simple():
    flow, src = distorted_wave_order(MicroOrder(1, "source-conormal"),
                                     Trace())
    assert flow.value == Fraction(-1, 2)
    assert src.value == -1


def test_distorted_wave_requires_source_label():
    with pytest.raises(ValueError):
        distorted_wave_order(MicroOrder(0, "flowout"), Trace())


def test_interaction_patterns():
    mu = [Fraction(-5)] * 4
    tilde = Fraction(-20)
    assert interaction_order(mu, 0, 0, Trace()).value == tilde + Fraction(3, 2)
    assert interaction_order(mu, 1, 1, Trace()).value == tilde + Fraction(1, 2)
    assert interaction_order(mu, 2, 2, Trace()).value == tilde - Fraction(1, 2)
    # once-iterated two-derivative class: waves mu - 1/2, four derivatives,
    # one inner inverse
    waves = [Fraction(-11, 2)] * 4
    got = interaction_order(waves, 4, 1, Trace())
    assert got.value == 4 * Fraction(-5) + Fraction(3, 2)
    assert got.lagrangian == "interaction-cone"


def test_interaction_rejects_negative_counts():
    with pytest.raises(ValueError):
        interaction_order([0] * 4, -1, 0, Trace())
    with pytest.raises(ValueError):
        interaction_order([0] * 4, 0, -2, Trace())


def test_restriction():
    got = restriction_order(MicroOrder(0, "interaction-cone"), Trace())
    assert got.value == Fraction(3, 4)
    assert got.lagrangian == "point-conormal"
    # composition with two time integrations: mu + 1 + 3/4 - 2 = mu - 1/4
    mu = Fraction(-7)
    val = restriction_order(MicroOrder(mu + 1, "interaction-cone"),
                            Trace()).value - 2
    assert val == mu - Fraction(1, 4)


def test_geodesic_ledger():
    mu = Fraction(-7)
    trace = Trace()
    ledger = geodesic_perturbation_orders(
        MicroOrder(mu, "interaction-cone"), trace)
    assert ledger["christoffel"].value == mu + 1
    assert ledger["restricted_coefficient"].value == mu + Fraction(7, 4)
    assert ledger["displacement"].value == mu - Fraction(1, 4)
    assert ledger["metric_pullback"].value == mu + Fraction(3, 4)
    assert ledger["frame_term_zero"] is True
    assert ledger["dominance_gap"] == 1
    assert trace.lines  # proof trace emitted


def test_standard_claims_all_hold():
    claims = standard_claims()
    assert claims
    for name, expected, computed, trace_lines in claims:
        assert expected == computed, name
        assert trace_lines


def test_recorded_constants():
    assert SOURCE_ORDER_BOUND == -17
    assert PAIRED_SECOND_INDEX == Fraction(-1, 2)


def test_labels_validated():
    with pytest.raises(ValueError):
        MicroOrder(0, "nowhere")
