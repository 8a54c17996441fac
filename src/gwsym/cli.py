"""Command-line entry point for the verification engine.

Subcommands reproduce and audit every hand computation of the interaction
analysis: pairing tables, mechanical derivation of the coefficient forms,
gauge constraint checks, the nested-chain cancellation, the eight top-order
families, the grand total with its dual-path oracle, conformal weights and
the microlocal order calculus.  Where the engine's exact result differs
from a published constant, the discrepancy is reported as a failing verdict
with the cross-validated value, never silently corrected.
"""
from __future__ import annotations

import argparse
import contextlib
import decimal
import sys
from fractions import Fraction

from .exact import (NEG_INF, RhoRational, format_rho_rational,
                    parse_rho_rational)
from .conformal import (canonical_chain, compose_total_weight,
                        q_diag_weight, verified_degree_table)
from .forms import (SlotValue, explicit_hhat2, reduced_ricci_expansion,
                    symbol_of_form_by_assignment, symbols_of_forms)
from .gauge import ConstraintKind, constraint_space_dim, conservation_residual, \
    harmonic_gauge_residual
from .interaction import (classify_rho40_terms, coefficient_of, form_family,
                          item_value, nested_chain, shared_evaluator,
                          total_symbol)
from .nullcone import (FlatPoint, NullConfig, backtrace_sources,
                       standard_config)
from .oracle import (FLOAT_CONTEXT, exact_total_jet, float_oracle,
                     in_child, max_rel_diff)
from .orders import standard_claims
from .report import Report
from .scenario import (Scenario, ScenarioError, check_oracle_rho,
                       load_scenario, parse_rho, rho_name)
from .tensor import (MINKOWSKI, mat_add, mat_eval_at, mat_is_zero,
                     mat_max_degree, mat_scale, mat_sub, rank_one, sym_outer)

USAGE_EXIT = 2
FAIL_EXIT = 1


def _fmt(x: RhoRational) -> str:
    return format_rho_rational(x)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_pairing_table(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("pairing table")
    expected = {(1, 2): "1", (1, 3): "(-1/2)/(rho^10)", (1, 4): "-rho^10",
                (2, 3): "(1/2)/(rho^10)", (2, 4): "rho^10", (3, 4): "-1"}
    table = cfg.pairing_table()
    for key in sorted(table):
        value = _fmt(table[key])
        s.value(f"h(zeta{key[0]}, zeta{key[1]})", value)
        if not scenario.custom_config:
            s.verdict(f"pairing-{key[0]}{key[1]}", value == expected[key],
                      f"h(zeta{key[0]},zeta{key[1]}) = {expected[key]}")
    norms = cfg.triple_norm_table()
    for triple in sorted(norms):
        s.value("|zeta{}+zeta{}+zeta{}|^2".format(*triple), _fmt(norms[triple]))
    if not scenario.custom_config:
        n123 = norms[(1, 2, 3)]
        s.verdict("triple-123", n123 == RhoRational.const(2),
                  "|zeta1+zeta2+zeta3|^2 equals 2 exactly")
        n234 = norms[(2, 3, 4)]
        lead = (RhoRational.rho_power(10, 2) - 2)
        s.verdict("triple-234", (n234 - lead).infinity_degree <= -10,
                  "|zeta2+zeta3+zeta4|^2 = 2 rho^10 - 2 + lower order")
    s.verdict("sum-null", cfg.subset_norm(range(1, 5)).is_zero(),
              "the sum of the four covectors is light-like exactly")

    s2 = report.section("third-scale solve")
    from .nullcone import base_directions, solve_null_scale
    a3 = solve_null_scale(1, -1, RhoRational.rho_power(10), base_directions())
    s2.value("alpha3", _fmt(a3))
    want = RhoRational.const(Fraction(-1, 2)) / RhoRational.rho_power(10)
    s2.verdict("alpha3-value", a3 == want,
               "solving the light-like-sum condition gives alpha3 = -1/2 rho^-10")

    s3 = report.section("causal backtrace")
    # the loader checked the first sample value: every component is defined
    # there and no pair norm vanishes, so no covector raises to a spatial
    # vector
    result = backtrace_sources(FlatPoint.of(0, 0, 0, 0), cfg,
                               scenario.oracle_rho[0], (1, 1, 1, 1))
    for pair in sorted(result.pair_table):
        s3.value(f"unrelated-{pair[0]}{pair[1]}",
                 str(result.pair_table[pair]).lower())
    s3.verdict("six-pairs-unrelated", result.all_unrelated,
               "equal-time sources are pairwise causally unrelated")
    s3.verdict("independent-directions", result.independent_directions,
               "the four ray directions at the meeting point are independent")
    return report


def suite_derive_forms(report: Report, scenario: Scenario):
    fam = form_family()
    s = report.section("derived expansion forms")
    for k in (2, 3, 4):
        parts = reduced_ricci_expansion(k)
        quasi = parts["quasilinear"].scale(2)
        s.verdict(f"quasilinear-{k}", quasi == fam[("P", k)],
                  f"mechanically expanded quasilinear part of homogeneity {k} "
                  "matches the closed chain form")
        s.verdict(f"discard-count-{k}", parts["discarded_count"] == 0,
                  "no sub-two-derivative monomials arise in the constant "
                  "background frame")
        s.value(f"monomials-P{k}", len(fam[("P", k)].monomials))
        s.value(f"monomials-Hhat{k}", len(fam[("Hhat", k)].monomials))
    s.verdict("hhat2-explicit", fam[("Hhat", 2)] == explicit_hhat2(),
              "the derived quadratic semilinear form equals its explicit "
              "formula term for term")
    # Dual evaluation paths must agree on every form: on the wave symbols,
    # and on a non-symmetric slot matrix, where the order of a factor's two
    # indices shows.  Every decomposition walk runs on one base.
    cfg = standard_config()
    shift = tuple(tuple(RhoRational.const(i + 1 if j == (i + 1) % 4 else 0)
                        for j in range(4)) for i in range(4))
    items = [(form, {k: slot(cfg.zeta(k)) for k in range(1, form.arity + 1)})
             for _, form in sorted(fam.items())
             for slot in (SlotValue.wave, lambda z: SlotValue(shift, z))]
    symbols = symbols_of_forms(items)
    for i, key in enumerate(sorted(fam)):
        pair = slice(2 * i, 2 * i + 2)
        s.verdict(f"dual-evaluation-{key[0]}{key[1]}",
                  all(symbol == symbol_of_form_by_assignment(form, slots)
                      for symbol, (form, slots) in zip(symbols[pair],
                                                       items[pair])),
                  "decomposition and index-assignment evaluations agree")
    listing = report.section("form monomial listings")
    for key, form in sorted(fam.items()):
        listing.value(f"form-{key[0]}{key[1]}-monomials",
                      len(form.monomials))
        for line in form.pretty().splitlines():
            listing.trace(f"{key[0]}{key[1]}: {line}")
    k1 = reduced_ricci_expansion(1)
    wave = k1["quasilinear"]
    s.verdict("wave-operator-part",
              wave is not None and len(wave.monomials) == 1
              and wave.monomials[0].coeff == Fraction(-1, 2),
              "the homogeneity-1 part is -1/2 h^{pq} d_p d_q u exactly")
    for key, form in sorted(fam.items()):
        s.verdict(f"two-derivatives-{key[0]}{key[1]}",
                  form.derivative_counts() == [2],
                  "every monomial carries exactly two derivatives")
    return report


def suite_gauge(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("gauge and conservation constraints")
    for i in range(1, 5):
        zeta = cfg.zeta(i)
        pol = rank_one(zeta)
        hg = harmonic_gauge_residual(cfg.metric, zeta, pol)
        cl = conservation_residual(cfg.metric, zeta, pol)
        s.value(f"gauge-residual-{i}",
                "(" + ", ".join(_fmt(x) for x in hg) + ")")
        s.value(f"conservation-residual-{i}",
                "(" + ", ".join(_fmt(x) for x in cl) + ")")
        s.verdict(f"polarization-gauge-{i}",
                  all(x.is_zero() for x in hg),
                  f"rank-one polarization of wave {i} satisfies the "
                  "linearized gauge condition")
        s.verdict(f"polarization-conservation-{i}",
                  all(x.is_zero() for x in cl),
                  f"rank-one polarization of wave {i} satisfies the "
                  "linearized conservation law")
    for kind in (ConstraintKind.ConservationLaw, ConstraintKind.HarmonicGauge):
        for i in (1, 4):
            res = constraint_space_dim(kind, cfg.metric, cfg.zeta(i))
            s.value(f"dim-{kind.value}-wave{i}",
                    f"{res.dimension} (rank {res.rank} on a "
                    f"{res.fiber_dimension}-dimensional fiber)")
            s.verdict(f"dim-{kind.value}-wave{i}", res.dimension == 6,
                      f"{kind.value} solution space on wave {i} has "
                      "dimension 6")
    res = constraint_space_dim(ConstraintKind.MaxwellConservation, cfg.metric,
                               cfg.zeta(1))
    s.verdict("dim-maxwell", res.dimension == 3,
              "current conservation on a light-like covector has dimension 3")
    zero = constraint_space_dim(ConstraintKind.ConservationLaw, cfg.metric,
                                cfg.zeta(1).scale(0))
    s.verdict("dim-degenerate", zero.dimension == 10 and zero.degenerate,
              "the zero covector imposes no constraint (degeneracy flagged)")
    return report


_CHAIN_PUBLISHED = {
    (1, 2, 3): "-1/4*rho^30 + 1/4*rho^20",
    (2, 1, 3): "1/4*rho^30 + 1/4*rho^20",
    (1, 3, 2): "1/4*rho^20",
    (3, 1, 2): "1/4*rho^30 - 1/2*rho^20",
    (2, 3, 1): "1/4*rho^20",
    (3, 2, 1): "-1/4*rho^30 - 1/2*rho^20",
}

_CHAIN_LABELS = {(1, 2, 3): "a", (2, 1, 3): "b", (1, 3, 2): "c",
                 (3, 1, 2): "d", (2, 3, 1): "e", (3, 2, 1): "f"}


def _chain_terms(cfg):
    """The six nested-chain terms' values, keyed by their first three
    waves, and the terms' unsigned sum: family 4's members, and minus its
    matrix, since class 5 enters with sign -1."""
    family = item_value(4, cfg)
    ev = shared_evaluator(cfg)
    terms = {t.perm[:3]: ev.eval(t.ast) for t in family["members"]}
    return terms, mat_scale(family["matrix"], RhoRational.const(-1))


def suite_cancellation(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("nested-chain cancellation")
    terms, total = _chain_terms(cfg)
    a4 = rank_one(cfg.zeta(4))
    for key in sorted(terms, key=_CHAIN_LABELS.__getitem__):
        label = _CHAIN_LABELS[key]
        coeff = coefficient_of(terms[key].matrix, a4)
        s.value(f"term-{label}-coefficient",
                _fmt(coeff) if coeff is not None else "not a polarization "
                                                      "multiple")
        if not scenario.custom_config:
            published = parse_rho_rational(_CHAIN_PUBLISHED[key])
            # Engine values carry the honest factor (-1)^3 from the six
            # derivatives; the published table omits it uniformly.
            diff = (RhoRational.const(-1) * coeff) - published
            s.verdict(f"term-{label}-leading",
                      diff.infinity_degree <= 10,
                      f"term ({label}) leading coefficient matches the "
                      "published value up to the fixed global sign")
    sum_coefficient = coefficient_of(total, a4)
    if sum_coefficient is not None:
        s.value("sum-coefficient", _fmt(sum_coefficient))
    if not scenario.custom_config:
        s.verdict("sum-cancels", sum_coefficient.infinity_degree <= 30,
                  "the six-term sum cancels to coefficient order at most 30 "
                  f"(engine: order {sum_coefficient.infinity_degree})")
        orders = sorted(v.entry_order() for v in terms.values())
        s.value("individual-entry-orders", str(orders))
        s.verdict("max-entry-order-50", max(orders) == 50,
                  "the largest individual term has matrix entry order 50 "
                  "(four of the six attain it; the other two sit at 40)")
    return report


def _leads_with(cfg, matrix, c, sign) -> bool:
    """Whether ``matrix`` agrees with c rho^30 (A14 + sign A24) at entry
    order 40 and above: every published leading form has that shape.  A14
    and A24 are the symmetric outer products of waves 1 and 2 with wave 4.
    """
    a14 = sym_outer(cfg.zeta(1), cfg.zeta(4))
    a24 = sym_outer(cfg.zeta(2), cfg.zeta(4))
    lead = RhoRational.const(c) * RhoRational.rho_power(30)
    form = mat_scale(mat_add(a14, mat_scale(a24, RhoRational.const(sign))),
                     lead)
    return mat_max_degree(mat_sub(matrix, form)) < 40


def suite_items(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("top-order families")
    a4 = rank_one(cfg.zeta(4))
    a14 = sym_outer(cfg.zeta(1), cfg.zeta(4))
    a24 = sym_outer(cfg.zeta(2), cfg.zeta(4))
    r20 = RhoRational.rho_power(20)

    items = {n: item_value(n, cfg) for n in range(1, 9)}
    for n in range(1, 9):
        s.value(f"item-{n}-entry-order", mat_max_degree(items[n]["matrix"]))
        matrix = items[n]["matrix"]
        if not a14[0][2].is_zero() and not a24[0][3].is_zero():
            s.value(f"item-{n}-projection-14", _fmt(matrix[0][2] / a14[0][2]))
            s.value(f"item-{n}-projection-24", _fmt(matrix[0][3] / a24[0][3]))

    if scenario.custom_config:
        s.trace("published comparisons are defined on the standard "
                "configuration only; values reported above")
        return report

    ev = shared_evaluator(cfg)
    s.verdict("items-1-2-cancel",
              mat_max_degree(ev.sum(items[1]["members"]
                                    + items[2]["members"])) < 40,
              "families 1 and 2 cancel at the top entry order")
    c1 = coefficient_of(items[1]["matrix"], a4)
    c2 = coefficient_of(items[2]["matrix"], a4)
    s.value("item-1-coefficient", _fmt(c1))
    s.value("item-2-coefficient", _fmt(c2))
    s.verdict("item-2-published", c2 == r20,
              "family 2 equals rho^20 times the fourth polarization exactly")

    for n, (p_want, h_want, h_published) in {
            3: (Fraction(-1, 2), Fraction(3, 4), Fraction(3, 2)),
            8: (Fraction(1, 2), Fraction(-3, 4), Fraction(-3, 2))}.items():
        cp = coefficient_of(items[n]["p_part"], a4)
        ch = coefficient_of(items[n]["hhat_part"], a4)
        s.value(f"item-{n}-quasilinear-coefficient", _fmt(cp))
        s.value(f"item-{n}-semilinear-coefficient", _fmt(ch))
        s.verdict(f"item-{n}-quasilinear-published",
                  (cp - RhoRational.const(p_want) * r20).infinity_degree < 20,
                  f"family {n} quasilinear part leads with {p_want} rho^20")
        s.verdict(f"item-{n}-semilinear-published",
                  (ch - RhoRational.const(h_published) * r20).infinity_degree < 20,
                  f"family {n} semilinear part leads with {h_published} rho^20 "
                  "as published",
                  detail=f"engine (cross-validated): {h_want} rho^20; the "
                         "published value drops the squared-norm denominator "
                         "of the inner pair, a factor 2")
    s.verdict("items-3-8-cancel",
              mat_max_degree(ev.sum(items[3]["members"]
                                    + items[8]["members"])) < 40,
              "families 3 and 8 cancel at the top entry order")

    s.verdict("item-5-published",
              _leads_with(cfg, items[5]["matrix"], Fraction(-3, 8), -1),
              "family 5 leads with -3/8 rho^30 (A14 - A24)")
    s.verdict("item-7-published",
              _leads_with(cfg, items[7]["matrix"], Fraction(-3, 8), -1),
              "family 7 leads with 3/8 rho^30 (A24 - A14)")
    s.verdict("item-6-outer3-published",
              _leads_with(cfg, items[6]["subcase_outer3"], Fraction(3, 8), -1),
              "family 6, outer-wave-3 subcase, leads with 3/8 rho^30 (A14 - A24)")
    s.verdict("item-6-inner34-published",
              _leads_with(cfg, items[6]["subcase_inner34"], Fraction(3, 4),
                          -1),
              "family 6, inner-pair-(3,4) subcase, leads with 3/4 rho^30 "
              "(A14 - A24) as published",
              detail="engine (cross-validated): 3/8 rho^30 (A14 - A24); the "
                     "published evaluation of its own symbol expression "
                     "drops the 1/2 from the triple-norm reciprocal")
    five67 = ev.sum(items[5]["members"] + items[6]["members"]
                    + items[7]["members"])
    s.verdict("items-5-6-7-cancel", mat_max_degree(five67) < 40,
              "families 5, 6 and 7 cancel at the top entry order")

    cls = classify_rho40_terms(cfg)
    s.value("extra-top-order-terms", len(cls["outside_at_top"]))
    for term, order in cls["outside_at_top"]:
        s.trace(f"extra top-order term: class {term.hclass} shape "
                f"{term.shape} perm {term.perm} forms "
                f"{tuple(f[0] + str(f[1]) for f in term.forms)} order {order}")
    s.verdict("extra-top-order-found", len(cls["outside_at_top"]) == 4,
              "four additional chain terms reach the top entry order through "
              "near-characteristic pair denominators (absent from the "
              "published case analysis)")
    return report


def _published_form_matches(cfg, matrix) -> dict:
    """Map each published leading form to whether ``matrix`` matches it.

    The forms are +-(3/8) rho^30 (A14 - A24) ("difference-form") and
    +-(3/8) rho^30 (A14 + A24) ("sum-form"), compared at the standard
    configuration's entry order 40; the comparison means nothing on other
    configurations.
    """
    return {f"{tag}{name}": _leads_with(cfg, matrix, Fraction(3 * c, 8), sign)
            for name, sign in (("difference-form", -1), ("sum-form", 1))
            for c, tag in ((1, "+"), (-1, "-"))}


def _total_dual_path(cfg, matrix, rho):
    """``(exact_agrees, float_err, oracle)`` of an enumerated total at one
    rho: whether the exact jet over Q(rho) equals it there entry by entry,
    and the largest relative difference of the float total of ``oracle``,
    the ``float_oracle`` at rho, measured against its cancellation scale.
    The exact jet is read first, while no float value is held; inside
    ``oracle.in_child`` both are the child's values."""
    exact_at = mat_eval_at(matrix, rho)
    exact_agrees = mat_eval_at(exact_total_jet(cfg), rho) == exact_at
    oracle = float_oracle(cfg, rho)
    float_err = max_rel_diff(exact_at, oracle.total, floor=oracle.scale)
    return exact_agrees, float_err, oracle


def _scientific(x) -> str:
    """A ``Decimal`` as ``1.234e+30``: four significant digits, rounded as
    ``FLOAT_CONTEXT`` rounds, and an exponent of at least two digits."""
    with decimal.localcontext(FLOAT_CONTEXT):
        mantissa, exponent = f"{x:.3e}".split("e")
    # a zero's printed exponent follows its stored one: 0 gives 0.000e+3
    return f"{mantissa}e{int(exponent) if x else 0:+03d}"


def suite_total(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("grand total")
    tot = total_symbol(cfg)
    s.value("entry-order", tot["entry_order"])
    for i, row in enumerate(tot["matrix"]):
        s.value(f"total-row-{i}", "[" + ", ".join(_fmt(x) for x in row) + "]")
    zero = tot["entry_order"] == NEG_INF
    s.verdict("total-vanishes", zero,
              "the exact sum of all interaction terms vanishes identically "
              "for the rank-one polarization choice (pure-gauge waves)")
    if scenario.custom_config:
        s.trace("published leading forms are defined on the standard "
                "configuration only; no comparison reported")
    else:
        matches = _published_form_matches(cfg, tot["matrix"])
        for name, matched in sorted(matches.items()):
            s.value(f"matches-{name}", str(matched).lower())
        s.verdict("published-forms", not any(matches.values()),
                  "the exact total matches neither published leading form "
                  "(both are nonzero; the total is zero)")

    _certify_total(s, cfg)
    for rho in scenario.oracle_rho:
        _total_at(s, cfg, tot["matrix"], rho)
    return report


def _certify_total(s, cfg):
    """The verdict that the enumerated total is the exact jet over Q(rho):
    both are canonical, so the matrices are equal exactly when their
    entries are equal rational functions.  Inside ``oracle.in_child`` the
    jet is the child's value, read after the engine's total so that the
    two are computed side by side."""
    total = total_symbol(cfg)["matrix"]
    s.verdict("total-exact-certificate", exact_total_jet(cfg) == total,
              "enumerated exact total equals the independent exact jet "
              "iteration as a matrix of rational functions of rho")


def _total_at(s, cfg, matrix, rho):
    """``suite_total``'s checks at one rho; its ``float_oracle`` dies here."""
    agree, err, oracle = _total_dual_path(cfg, matrix, rho)
    name = rho_name(rho)
    s.verdict(f"exact-dual-path-rho-{name}", agree,
              f"enumerated exact total equals the independent exact jet "
              f"iteration at rho = {name} (structural equality)")
    s.value(f"float-oracle-cancellation-scale-rho-{name}",
            _scientific(oracle.scale))
    s.value(f"float-oracle-max-rel-diff-rho-{name}", f"{err:.3e}")
    s.verdict(f"float-dual-path-rho-{name}", err <= 1e-9,
              f"floating-point jet oracle agrees to 1e-9 relative at "
              f"rho = {name} (relative to the cancelled-term scale where "
              "entries vanish)",
              detail="the exact dual path above is the decisive check; "
                     "roundoff in the float path is proportional to the "
                     "largest cancelled summand")


def suite_conformal(report: Report, scenario: Scenario):
    s = report.section("conformal weights")
    table = verified_degree_table()
    expected = {("P", 2): -4, ("P", 3): -6, ("P", 4): -8,
                ("Hhat", 2): -4, ("Hhat", 3): -6, ("Hhat", 4): -8}
    for key in sorted(table):
        name = f"{key[0]}{key[1]}"
        s.value(f"degree-{name}", table[key])
        s.verdict(f"degree-{name}-expected", table[key] == expected[key],
                  f"form {name} scales with weight {expected[key]}")
    s.verdict("q-diagonal-weight", q_diag_weight() == 2,
              "the causal inverse scales with weight +2 on the diagonal "
              "(verified on the principal symbol)")
    total = compose_total_weight(canonical_chain())
    s.value("composed-weight", total)
    s.verdict("composed-minus-9", total == -9,
              "four wave symbols, the coefficient weight and the flow-out "
              "transport compose to -9")

    # End-to-end: one complete interaction term under metric rescaling.
    from .interaction import Evaluator, FormNode
    cfg = standard_config()
    lam = Fraction(2)
    ast = FormNode(("Hhat", 2), nested_chain(1, 2, 3).children)
    base = Evaluator(cfg).eval(ast)
    scaled_metric = MINKOWSKI.scale_conformal(RhoRational.const(lam * lam))
    lam_inv = RhoRational.const(Fraction(1, 2))
    leaf = {i: SlotValue(mat_scale(rank_one(cfg.zeta(i)), lam_inv),
                         cfg.zeta(i),
                         outer=((lam_inv, cfg.zeta(i), cfg.zeta(i)),))
            for i in range(1, 5)}
    scaled = Evaluator(NullConfig(cfg.zetas, scaled_metric),
                       leaf_symbols=leaf).eval(ast)
    want = mat_scale(base.matrix, RhoRational.const(Fraction(1, 2 ** 12)))
    s.verdict("end-to-end-minus-12", mat_is_zero(mat_sub(scaled.matrix, want)),
              "a complete interaction term with rescaled metric and "
              "1/lambda wave symbols scales by exactly lambda^-12")
    return report


def suite_orders(report: Report, scenario: Scenario):
    s = report.section("microlocal order calculus")
    for name, expected, computed, trace_lines in standard_claims():
        for line in trace_lines:
            s.trace(line)
        s.verdict(f"order-{name}", expected == computed,
                  f"{name}: expected {expected}, computed {computed}")
    return report


def suite_oracle(report: Report, scenario: Scenario):
    cfg = scenario.config
    s = report.section("floating-point oracle")
    terms, _ = _chain_terms(cfg)
    _certify_total(s, cfg)
    for rho in scenario.oracle_rho:
        _oracle_at(s, cfg, terms, rho)
    return report


def _oracle_at(s, cfg, terms, rho):
    """``suite_oracle``'s checks at one rho; its ``float_oracle`` dies here."""
    agree, err, oracle = _total_dual_path(cfg, total_symbol(cfg)["matrix"],
                                          rho)
    name = rho_name(rho)
    for key, value in sorted(terms.items(),
                             key=lambda kv: _CHAIN_LABELS[kv[0]]):
        label = _CHAIN_LABELS[key]
        term_err = max_rel_diff(mat_eval_at(value.matrix, rho),
                                oracle.chains[key])
        s.verdict(f"term-{label}-rho-{name}", term_err <= 1e-9,
                  f"term ({label}) dual-path agreement at rho = {name} "
                  f"(max rel diff {term_err:.2e})")
    s.value(f"total-float-max-rel-diff-rho-{name}", f"{err:.3e}")
    s.verdict(f"total-float-dual-path-rho-{name}", err <= 1e-9,
              f"floating-point jet total agrees with the enumerated "
              f"total to 1e-9 relative at rho = {name}")
    s.verdict(f"total-exact-jet-rho-{name}", agree,
              f"exact jet total equals the enumerated total at rho = {name}")


SUITES = {
    "gauge": suite_gauge,
    "cancellation": suite_cancellation,
    "items": suite_items,
    "total": suite_total,
    "conformal": suite_conformal,
    "orders": suite_orders,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gwsym",
        description="exact verification engine for four-wave interaction "
                    "symbol calculus")
    parser.add_argument("--scenario", help="path to a scenario file")
    parser.add_argument("--format", choices=("text", "machine"),
                        help="report format (overrides scenario)")
    parser.add_argument("--out", help="also write the report to this path")
    sub = parser.add_subparsers(dest="command")
    rep = sub.add_parser("report", help="print configuration tables")
    rep.add_argument("what", choices=("pairing-table",))
    der = sub.add_parser("derive", help="mechanical form derivations")
    der.add_argument("what", choices=("forms",))
    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("what", choices=tuple(SUITES) + ("all",))
    orc = sub.add_parser("oracle", help="floating-point dual-path checks")
    orc.add_argument("--rho", type=str, default=None,
                     help="decimal sample value (default: scenario values)")
    return parser


def _output_error(path, exc: OSError) -> int:
    print(f"output error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return USAGE_EXIT


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_help()
        return USAGE_EXIT

    try:
        scenario = (load_scenario(args.scenario) if args.scenario
                    else Scenario.default())
    except (OSError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if args.format:
        scenario.format = args.format
    if args.out:
        scenario.out = args.out

    if args.command == "oracle" and args.rho is not None:
        try:
            rho = parse_rho(args.rho, "--rho")
            check_oracle_rho(scenario.config, (rho,))
        except ScenarioError as exc:
            print(f"bad rho value: {exc}", file=sys.stderr)
            return USAGE_EXIT
        scenario.oracle_rho = (rho,)
    if scenario.out:
        # a path that cannot be opened is reported before any suite runs
        try:
            with open(scenario.out, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            return _output_error(scenario.out, exc)

    report = Report()
    # the commands that read the oracles compute them beside the engine
    reads_oracles = (args.command == "oracle" or args.command == "verify"
                     and args.what in ("all", "total"))
    with (in_child(scenario.config, scenario.oracle_rho) if reads_oracles
          else contextlib.nullcontext()):
        try:
            if args.command == "report":
                suite_pairing_table(report, scenario)
            elif args.command == "derive":
                suite_derive_forms(report, scenario)
            elif args.command == "verify":
                if args.what == "all":
                    suite_pairing_table(report, scenario)
                    suite_derive_forms(report, scenario)
                    for suite in SUITES.values():
                        suite(report, scenario)
                else:
                    SUITES[args.what](report, scenario)
            elif args.command == "oracle":
                suite_oracle(report, scenario)
        except Exception as exc:  # surface engine failures as verdicts
            command = ("verify " + args.what if args.command == "verify"
                       else args.command)
            section = report.section("internal error")
            section.verdict("engine", False,
                            f"evaluation failed in {command}: "
                            f"{type(exc).__name__}: {exc}")

    text = (report.to_machine() if scenario.format == "machine"
            else report.to_text())
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return _output_error("stdout", exc)
    if scenario.out:
        # a write can still fail on a path that opened, say on a full disk
        try:
            with open(scenario.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _output_error(scenario.out, exc)
    return 0 if report.all_passed() else FAIL_EXIT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
