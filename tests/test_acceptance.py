"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criteria 8 and 9 check every published target value they encode.  Where a
published value holds, it is asserted.  Two published values are refuted by
the engine's exact arithmetic: the inner-pair-(3,4) subcase of family 6
(3/4 rho^30 published, 3/8 exact, confirmed by the exact and the float walk
of each member) and the nonzero grand total (identically zero exactly,
confirmed by the independent exact jet iteration of the full nonlinear
operator and by the float jet).  For those, the criteria assert the exact
value and that the published value is not reproduced, and the PASS line
names the refuted constant.  A changed engine value or a reproduced
published constant fails.
"""
import decimal
import time
from fractions import Fraction

from gwsym.cli import _published_form_matches
from gwsym.exact import NEG_INF, RhoRational, parse_rho_rational
from gwsym.forms import (SlotValue, build_form_family, explicit_hhat2,
                         reduced_ricci_expansion, symbols_of_forms)
from gwsym.gauge import ConstraintKind, constraint_space_dim, \
    conservation_residual, harmonic_gauge_residual
from gwsym.interaction import (classify_rho40_terms, enumerate_all,
                               eval_I_cancellation, item_value, mat_add,
                               mat_eval_at, mat_is_zero, mat_max_degree,
                               mat_of, mat_scale, mat_sub, shared_evaluator,
                               total_symbol, coefficient_of)
from gwsym.nullcone import (FlatPoint, NullConfig, backtrace_sources,
                            base_directions, solve_null_scale,
                            standard_config)
from gwsym.oracle import (FLOAT_CONTEXT, JetContext, _float_at, _jet_base,
                          _walk, exact_total_jet, float_oracle,
                          max_rel_diff)
from gwsym.orders import standard_claims
from gwsym.conformal import (canonical_chain, compose_total_weight,
                             verified_degree_table)
from gwsym.tensor import (MINKOWSKI, chain_sandwich, pairing, rank_one,
                          sym_outer)


def rr(text):
    return parse_rho_rational(text)


def _verdict(number, ok, summary):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {summary}")
    return ok


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def ok(self):
        return self.elapsed() < self.limit


def test_criterion_01_pairing_table(config):
    budget = Budget(1.0)
    expected = {(1, 2): "1", (1, 3): "-1/(2*rho^10)", (1, 4): "-rho^10",
                (2, 3): "1/(2*rho^10)", (2, 4): "rho^10", (3, 4): "-1"}
    table = config.pairing_table()
    ok = all(table[k] == rr(v) for k, v in expected.items()) and budget.ok()
    assert _verdict(1, ok, "six pairings match exactly, structurally")


def test_criterion_02_triple_norms(config):
    budget = Budget(1.0)
    norms = config.triple_norm_table()
    n123 = norms[(1, 2, 3)]
    tail = n123 - rr("2")
    ok = tail.infinity_degree <= -20
    n234 = norms[(2, 3, 4)]
    ok = ok and (n234 - rr("2*rho^10 - 2")).infinity_degree < 10
    ok = ok and (n234 - rr("2*rho^10 - 2")) == rr("1/rho^10")
    ok = ok and budget.ok()
    assert _verdict(2, ok, "triple norms: constant 2 with deep tail; "
                           "2 rho^10 - 2 leading part")


def test_criterion_03_scale_solver():
    budget = Budget(1.0)
    a3 = solve_null_scale(1, -1, RhoRational.rho_power(10), base_directions())
    ok = a3 == rr("-1/(2*rho^10)") and budget.ok()
    assert _verdict(3, ok, "third scale solves to -1/2 rho^-10 exactly")


def test_criterion_04_gauge_dimensions(config):
    budget = Budget(5.0)
    ok = True
    for i in range(1, 5):
        z = config.zeta(i)
        a = rank_one(z)
        ok = ok and all(x.is_zero()
                        for x in harmonic_gauge_residual(MINKOWSKI, z, a))
        ok = ok and all(x.is_zero()
                        for x in conservation_residual(MINKOWSKI, z, a))
    import random
    from test_gauge import random_null_covector
    rng = random.Random(2024)
    for _ in range(100):
        cov = random_null_covector(rng)
        for kind in (ConstraintKind.ConservationLaw,
                     ConstraintKind.HarmonicGauge):
            ok = ok and constraint_space_dim(kind, MINKOWSKI,
                                             cov).dimension == 6
    ok = ok and budget.ok()
    assert _verdict(4, ok, "polarization residuals vanish; dimension 6 on "
                           f"100 random null covectors ({budget.elapsed():.1f}s)")


def test_criterion_05_derived_forms():
    fam = build_form_family()
    ok = True
    for k in (2, 3, 4):
        parts = reduced_ricci_expansion(k)
        ok = ok and parts["quasilinear"].scale(2) == fam[("P", k)]
    ok = ok and fam[("Hhat", 2)] == explicit_hhat2()
    assert _verdict(5, ok, "mechanical expansion matches the closed "
                           "quasilinear chains and the explicit quadratic "
                           "semilinear form")


def test_criterion_06_rank_one_identities(config):
    ok = True
    zetas = {i: config.zeta(i) for i in range(1, 5)}
    for i in range(1, 5):
        for j in range(1, 5):
            p = pairing(MINKOWSKI, zetas[i], zetas[j])
            ok = ok and chain_sandwich(MINKOWSKI, [rank_one(zetas[i])],
                                       zetas[j]) == p * p
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                got = chain_sandwich(MINKOWSKI, [rank_one(zetas[i]),
                                                 rank_one(zetas[j])],
                                     zetas[k])
                want = (pairing(MINKOWSKI, zetas[i], zetas[k])
                        * pairing(MINKOWSKI, zetas[j], zetas[k])
                        * pairing(MINKOWSKI, zetas[i], zetas[j]))
                ok = ok and got == want
    # the published 3/2 multiplies the i^2 of the two derivatives, which
    # the real symbol folds
    fam = build_form_family()
    for i, j in ((1, 2), (3, 4), (1, 4)):
        a, b = symbols_of_forms(
            [(fam[("Hhat", 2)], {1: SlotValue.wave(zetas[i]),
                                 2: SlotValue.wave(zetas[j])}),
             (fam[("Hhat", 2)], {1: SlotValue.wave(zetas[j]),
                                 2: SlotValue.wave(zetas[i])})])
        total = mat_add(a, b)
        h = pairing(MINKOWSKI, zetas[i], zetas[j])
        want = mat_of(sym_outer(zetas[i], zetas[j]).scale(
            RhoRational.const(Fraction(-3, 2)) * h * h))
        ok = ok and total == want
    assert _verdict(6, ok, "rank-one sandwich identities and the symmetrized "
                           "quadratic semilinear value i^2 3/2 [h]^2 A^(ij)")


PUBLISHED_CHAIN = {
    (1, 2, 3): "-1/4*rho^30 + 1/4*rho^20",
    (2, 1, 3): "1/4*rho^30 + 1/4*rho^20",
    (1, 3, 2): "1/4*rho^20",
    (3, 1, 2): "1/4*rho^30 - 1/2*rho^20",
    (2, 3, 1): "1/4*rho^20",
    (3, 2, 1): "-1/4*rho^30 - 1/2*rho^20",
}


def test_criterion_07_chain_terms(config):
    budget = Budget(5.0)
    res = eval_I_cancellation(config)
    matching_sign = None
    for sign in (1, -1):
        if all(((RhoRational.const(sign) * res["coefficients"][key])
                - rr(text)).infinity_degree <= 10
               for key, text in PUBLISHED_CHAIN.items()):
            matching_sign = sign
            break
    ok = matching_sign is not None
    ok = ok and res["sum_coefficient"].infinity_degree <= 30
    ok = ok and budget.ok()
    assert _verdict(7, ok, "all six chain coefficients match the published "
                           f"values with one global sign ({matching_sign}); "
                           "the exact sum cancels to coefficient order "
                           f"{res['sum_coefficient'].infinity_degree} <= 30")


def test_criterion_08_items(config):
    budget = Budget(30.0)
    a4 = mat_of(rank_one(config.zeta(4)))
    a14 = mat_of(sym_outer(config.zeta(1), config.zeta(4)))
    a24 = mat_of(sym_outer(config.zeta(2), config.zeta(4)))
    r30 = RhoRational.rho_power(30)
    c38 = RhoRational.const(Fraction(3, 8))
    c34 = RhoRational.const(Fraction(3, 4))
    items = {n: item_value(n, config) for n in (1, 2, 5, 6, 7)}

    c1 = coefficient_of(items[1]["matrix"], a4)
    c2 = coefficient_of(items[2]["matrix"], a4)
    ok_12 = (c1 + c2).infinity_degree < 20
    ok_7 = mat_max_degree(mat_sub(items[7]["matrix"],
                                  mat_scale(mat_sub(a24, a14),
                                            c38 * r30))) < 40
    ok_5 = mat_max_degree(mat_sub(items[5]["matrix"],
                                  mat_scale(mat_sub(a14, a24),
                                            -c38 * r30))) < 40
    ok_6_outer3 = mat_max_degree(mat_sub(items[6]["subcase_outer3"],
                                         mat_scale(mat_sub(a14, a24),
                                                   c38 * r30))) < 40
    ok_6_inner34_published = mat_max_degree(
        mat_sub(items[6]["subcase_inner34"],
                mat_scale(mat_sub(a14, a24), c34 * r30))) < 40
    engine_6_inner34 = mat_max_degree(
        mat_sub(items[6]["subcase_inner34"],
                mat_scale(mat_sub(a14, a24), c38 * r30))) < 40
    # independent path for the subcase: exact and float walk of each member
    rho = Fraction(2)
    inner34 = [t for t in items[6]["members"] if t.perm[0] != 3]
    inner34_at = mat_eval_at(items[6]["subcase_inner34"], rho)
    fctx = JetContext(config, _float_at(rho))
    with decimal.localcontext(FLOAT_CONTEXT):
        walks = [(t.sign, _walk(fctx, t.ast)[0]) for t in inner34]
        float_sum = [[sum(c * m[i][j] for c, m in walks) for j in range(4)]
                     for i in range(4)]
    float_ok = max_rel_diff(inner34_at, float_sum) <= 1e-9
    base = _jet_base(config)
    ctx = JetContext(config, base.lift)
    signed = [(t.sign, _walk(ctx, t.ast)[0]) for t in inner34]
    exact_ok = all(
        base.rational(sum((m[i][j] * c for c, m in signed), ctx.zero))
        .eval_at(rho) == inner34_at[i][j]
        for i in range(4) for j in range(4))
    # relative signs: families 5 and 7 oppose family 6 in the A14 direction
    sign_consistent = ok_5 and ok_7 and ok_6_outer3
    ok = (ok_12 and ok_7 and ok_5 and ok_6_outer3 and sign_consistent
          and engine_6_inner34 and float_ok and exact_ok
          and not ok_6_inner34_published and budget.ok())
    _verdict(8, ok, "per-item leading values: the published table holds "
                    "except the inner-pair-(3,4) subcase, whose published "
                    "3/4 rho^30 (A14 - A24) is refuted; the engine gives "
                    f"3/8 rho^30 (A14 - A24) ({budget.elapsed():.1f}s)")
    assert ok_12, "families 1 + 2 must cancel at the rho^20 level"
    assert ok_7 and ok_5 and ok_6_outer3 and sign_consistent, (
        "families 5, 7 and the outer-wave-3 subcase of family 6 must lead "
        "with the published 3/8 rho^30 values and relative signs")
    assert float_ok, (
        "the inner-pair-(3,4) subcase must agree to 1e-9 at rho = 2 with the "
        "sum of its members' independent float evaluations")
    assert exact_ok, (
        "the inner-pair-(3,4) subcase must equal at rho = 2 the sum of its "
        "members' exact walks")
    assert engine_6_inner34, (
        "the inner-pair-(3,4) subcase must lead with 3/8 rho^30 (A14 - A24), "
        "the exact value confirmed by the per-member walks above")
    assert not ok_6_inner34_published, (
        "the published inner-pair-(3,4) subcase value 3/4 rho^30 (A14 - A24) "
        "is reproduced, contradicting the exact 3/8 rho^30 (A14 - A24) "
        "confirmed by the per-member walks; the published "
        "evaluation of its own displayed symbol expression drops the factor "
        "1/2 from the triple-norm reciprocal 1/(2 rho^10 - 2)")
    assert budget.ok(), (
        f"criterion 8 took {budget.elapsed():.1f}s, over its "
        f"{budget.limit:.0f}s budget")


def test_criterion_09_total(config):
    budget = Budget(30.0)
    tot = total_symbol(config)
    order = tot["entry_order"]
    # dual paths first: exact jet equality and float agreement
    dual_ok = True
    for rho in (Fraction(2), Fraction(3)):
        exact_at = mat_eval_at(tot["matrix"], rho)
        jet_at = mat_eval_at(exact_total_jet(config), rho)
        dual_ok = dual_ok and jet_at == exact_at
        oracle = float_oracle(config, rho)
        err = max_rel_diff(exact_at, oracle.total, floor=oracle.scale)
        dual_ok = dual_ok and err <= 1e-9
    # the comparison `gwsym verify total` reports: neither form matches
    match_report = _published_form_matches(config, tot["matrix"])
    stated = not any(match_report.values())
    engine_zero = order == NEG_INF and mat_is_zero(tot["matrix"])
    published_38 = (order == 40 and _max_abs_leading_coeff(tot["matrix"])
                    == Fraction(3, 8))
    ok = (dual_ok and stated and engine_zero and not published_38
          and budget.ok())
    _verdict(9, ok, "grand total: the published nonzero leading matrix "
                    "(entry order 40, maximal entry 3/8) is refuted; the "
                    f"exact total has entry order {order}, dual-path "
                    f"agreement {dual_ok}, leading-form match report "
                    f"{match_report} ({budget.elapsed():.1f}s)")
    assert dual_ok, (
        "the enumerated exact total must equal the independent exact jet "
        "iteration structurally at rho = 2, 3 and agree with the float jet "
        "to 1e-9 relative to the cancelled-term scale")
    assert stated, "the total must match neither published leading form"
    assert engine_zero, (
        "the exact total of all 1488 interaction terms must be identically "
        "zero (entry order -inf) for the published rank-one polarization "
        "choice, as the exact jet iteration at rho = 2, 3 confirms above")
    assert not published_38, (
        "the published nonzero leading matrix (entry order 40, maximal "
        "entry 3/8) is reproduced, contradicting the identically zero total "
        "confirmed by the exact jet iteration.  The published polarizations "
        "are pure gauge (each symbol is the covector square of its phase); "
        "the published nonzero value traces to three arithmetic slips "
        "(missing inner-pair norm denominators in two semilinear items and "
        "a dropped 1/2 in one subcase), and with those corrected the eight "
        "published families cancel pairwise at the top order.  The "
        "interaction functional itself is nonzero: transverse-traceless "
        "polarizations give a nonvanishing total (see the oracle tests).")
    assert budget.ok(), (
        f"criterion 9 took {budget.elapsed():.1f}s, over its "
        f"{budget.limit:.0f}s budget")


def _max_abs_leading_coeff(matrix):
    # the denominator is monic, so the numerator's leading coefficient is
    # the leading coefficient at rho = infinity
    best = None
    for row in matrix:
        for x in row:
            if x.is_zero():
                continue
            if x.infinity_degree == mat_max_degree(matrix):
                c = abs(x.num.lc)
                best = c if best is None else max(best, c)
    return best


def test_criterion_10_conformal():
    budget = Budget(5.0)
    table = verified_degree_table()
    ok = table == {("P", 2): -4, ("P", 3): -6, ("P", 4): -8,
                   ("Hhat", 2): -4, ("Hhat", 3): -6, ("Hhat", 4): -8}
    ok = ok and compose_total_weight(canonical_chain()) == -9
    # end-to-end lambda^-12 on a complete term
    from gwsym.interaction import Evaluator, FormNode, Leaf, QNode
    config = standard_config()
    lam = Fraction(2)
    ast = FormNode(("Hhat", 2), (Leaf(1), QNode(
        FormNode(("P", 2), (Leaf(2), QNode(
            FormNode(("P", 2), (Leaf(3), Leaf(4)))))))))
    base = Evaluator(config).eval(ast)
    scaled_metric = MINKOWSKI.scale_conformal(RhoRational.const(lam * lam))
    lam_inv = RhoRational.const(Fraction(1, lam))
    leaf = {i: SlotValue(rank_one(config.zeta(i)).scale(lam_inv),
                         config.zeta(i),
                         outer=((lam_inv, config.zeta(i), config.zeta(i)),))
            for i in range(1, 5)}
    scaled = Evaluator(NullConfig(config.zetas, scaled_metric),
                       leaf_symbols=leaf).eval(ast)
    want = mat_scale(base.matrix, RhoRational.const(Fraction(1, lam ** 12)))
    ok = ok and mat_is_zero(mat_sub(scaled.matrix, want)) and budget.ok()
    assert _verdict(10, ok, "degree table, composed weight -9, end-to-end "
                            "lambda^-12")


def test_criterion_11_orders():
    budget = Budget(1.0)
    claims = standard_claims()
    ok = all(expected == computed for _, expected, computed, _ in claims)
    ok = ok and all(traces for _, _, _, traces in claims) and budget.ok()
    assert _verdict(11, ok, f"{len(claims)} order claims reproduced with "
                            "proof traces")


def test_criterion_12_cross_module(config):
    budget = Budget(60.0)
    ev = shared_evaluator(config)
    ok = True
    for term in enumerate_all():
        bound = shared_evaluator(config).order_bound(term.ast)
        exact = ev.eval(term.ast).entry_order()
        if exact > bound:
            ok = False
            break
    cls = classify_rho40_terms(config)
    for n, members in cls["families"].items():
        for term, value, order in members:
            if order != shared_evaluator(config).order_bound(term.ast):
                ok = False
    ok = ok and budget.ok()
    assert _verdict(12, ok, "exact order never exceeds the prediction over "
                            "all 1488 terms; family members attain it "
                            f"({budget.elapsed():.1f}s)")


def test_criterion_13_causal_configuration(config):
    budget = Budget(1.0)
    res = backtrace_sources(FlatPoint.of(0, 0, 0, 0), config, Fraction(2),
                            (1, 1, 1, 1))
    golden = {(i, j): True for i in range(1, 5) for j in range(i + 1, 5)}
    ok = (res.pair_table == golden and res.all_unrelated
          and res.independent_directions and budget.ok())
    assert _verdict(13, ok, "six pairwise causally-unrelated verdicts match "
                            "the golden table")
