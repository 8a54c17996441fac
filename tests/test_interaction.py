"""Interaction term trees: enumeration, exact evaluation, families, totals."""
import functools
import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from gwsym import forms, interaction
from gwsym.exact import BaseValue, NEG_INF, RhoRational, parse_rho_rational
from gwsym.forms import SlotValue, matrix_of_outer
from gwsym.interaction import (CharacteristicDenominatorError, Evaluator,
                               FormNode, Leaf, QNode, classify_rho40_terms,
                               enumerate_H, enumerate_all,
                               eval_I_cancellation, item_value, nested_chain,
                               shared_evaluator, summed_terms, total_symbol,
                               _SUMMED, coefficient_of, _family_keys, _terms)
from gwsym.nullcone import NullConfig, base_directions, standard_config
from gwsym.scenario import load_scenario
from gwsym.tensor import (CoVec4, MINKOWSKI, Sym2T, ZERO_MAT, mat_add,
                          mat_max_degree, mat_scale, mat_sub, pairing,
                          rank_one, sym_outer)

DENSE_SCENARIO = Path(__file__).resolve().parent.parent / "bench" / "dense.scn"


def rr(text):
    return parse_rho_rational(text)


@pytest.fixture(scope="module")
def dense_evaluator():
    """An evaluator on the stride-1 configuration of the dense benchmark
    scenario, whose denominator is not a monomial."""
    return Evaluator(load_scenario(DENSE_SCENARIO).config)


def add_all(mats):
    """The matrices added one by one with ``mat_add``."""
    return functools.reduce(mat_add, mats, ZERO_MAT)


def plain_signed_sum(ev, terms):
    """Signed term-by-term matrix sum, the reference for the engine's sums."""
    return add_all(mat_scale(ev.eval(term.ast).matrix,
                             RhoRational.const(term.sign)) for term in terms)


def merged_signed_sum(ev, terms):
    """Signed sum of terms added in the outer-product basis, one list of
    coefficients per (left, right) pair: a reference that builds one
    matrix for the whole sum, not one per term."""
    merged = {}
    for term in terms:
        for c, left, right in ev.eval(term.ast).outer:
            merged.setdefault((left, right), []).append(c * term.sign)
    return matrix_of_outer(tuple(
        (sum(cs[1:], cs[0]), left, right)
        for (left, right), cs in merged.items()))


def class_sums(ev):
    """Each class as the ``Evaluator.sum`` of its trees with P_k + Hhat_k
    at every coefficient node."""
    return {k: ev.sum(_terms(k, (_SUMMED,))) for k in range(1, 6)}


GOLDEN_SHAPE_COUNTS = {1: 24, 2: 72, 3: 48, 4: 24, 5: 96}
GOLDEN_CONCRETE_COUNTS = {1: 48, 2: 288, 3: 192, 4: 192, 5: 768}


def test_enumeration_counts():
    for k in range(1, 6):
        # the summed trees of Evaluator.total(): one per shape and
        # permutation
        assert len(_terms(k, (_SUMMED,))) == GOLDEN_SHAPE_COUNTS[k]
        assert len(enumerate_H(k)) == GOLDEN_CONCRETE_COUNTS[k]
    assert len(enumerate_all()) == sum(GOLDEN_CONCRETE_COUNTS.values())
    assert len(summed_terms()) == sum(GOLDEN_SHAPE_COUNTS.values())


def waves_of(ast) -> tuple:
    """The waves of the leaves of ``ast``, in preorder."""
    if isinstance(ast, Leaf):
        return (ast.wave,)
    if isinstance(ast, QNode):
        return waves_of(ast.child)
    return sum((waves_of(c) for c in ast.children), ())


def test_signs_and_leaves():
    signs = {1: -1, 2: 1, 3: 1, 4: -1, 5: -1}
    for k in range(1, 6):
        for term in enumerate_H(k):
            assert term.sign == signs[k]
            assert sorted(waves_of(term.ast)) == [1, 2, 3, 4]


def _hand_trees(f):
    """Every (class, shape) tree written out for the permutation (1, 2, 3, 4),
    with coefficient forms ``f`` in preorder."""
    F, Q = FormNode, QNode
    w1, w2, w3, w4 = Leaf(1), Leaf(2), Leaf(3), Leaf(4)
    return {
        (1, 0): F(f[0], (w1, w2, w3, w4)),
        (2, 0): F(f[0], (w1, w2, Q(F(f[1], (w3, w4))))),
        (2, 1): F(f[0], (w1, Q(F(f[1], (w2, w3))), w4)),
        (2, 2): F(f[0], (Q(F(f[1], (w1, w2))), w3, w4)),
        (3, 0): F(f[0], (Q(F(f[1], (w1, w2, w3))), w4)),
        (3, 1): F(f[0], (w1, Q(F(f[1], (w2, w3, w4))))),
        (4, 0): F(f[0], (Q(F(f[1], (w1, w2))), Q(F(f[2], (w3, w4))))),
        (5, 0): F(f[0], (w1, Q(F(f[1], (w2, Q(F(f[2], (w3, w4)))))))),
        (5, 1): F(f[0], (w1, Q(F(f[1], (Q(F(f[2], (w2, w3))), w4))))),
        (5, 2): F(f[0], (Q(F(f[1], (w1, Q(F(f[2], (w2, w3)))))), w4)),
        (5, 3): F(f[0], (Q(F(f[1], (Q(F(f[2], (w1, w2))), w3))), w4)),
    }


class TestShapes:
    def test_identity_permutation_matches_hand_written_trees(self):
        seen = set()
        for term in enumerate_all():
            if term.perm != (1, 2, 3, 4):
                continue
            key = (term.hclass, term.shape)
            assert term.ast == _hand_trees(term.forms + (None, None))[key], key
            seen.add(key)
        assert seen == set(_hand_trees((None,) * 3))

    def test_node_arities_equal_child_counts(self):
        def check(node):
            if isinstance(node, QNode):
                check(node.child)
            elif isinstance(node, FormNode):
                assert node.form[1] == len(node.children)
                for child in node.children:
                    check(child)

        for term in enumerate_all():
            check(term.ast)

    def test_nested_chain_is_class_5_shape_0(self):
        P2 = ("P", 2)
        chains = {term.perm[:3]: term.ast for term in enumerate_H(5)
                  if term.shape == 0 and term.perm[3] == 4
                  and term.forms == (P2, P2, P2)}
        assert len(chains) == 6
        for key, ast in chains.items():
            assert nested_chain(*key) == ast

    def test_item_members_are_enumerated_terms(self, config):
        index = {(t.hclass, t.shape, t.perm, t.forms): t
                 for t in enumerate_all()}
        for n in range(1, 9):
            members = item_value(n, config)["members"]
            assert members == [index[key] for key in _family_keys()[n]]

    def test_bad_class(self):
        for hclass in (0, 6):
            with pytest.raises(ValueError, match=f"got {hclass}"):
                enumerate_H(hclass)


def test_leaf_evaluation(config, evaluator):
    value = evaluator.eval(Leaf(1))
    assert value.matrix == rank_one(config.zeta(1))
    assert value.covector == config.zeta(1)


# Exact coefficients of the six nested-chain permutation terms (each a
# multiple of the fourth polarization), frozen after cross-validation
# against the independent jet iteration and the closed sandwich formulas.
CHAIN_COEFFS = {
    (1, 2, 3): "(1/4*rho^60 - 1/4*rho^50 + 3/8*rho^40 - 1/4*rho^30"
               " + 3/16*rho^20 - 1/16*rho^10 + 1/32)/(rho^30)",
    (2, 1, 3): "(-1/4*rho^60 - 1/4*rho^50 - 3/8*rho^40 - 1/4*rho^30"
               " - 3/16*rho^20 - 1/16*rho^10 - 1/32)/(rho^30)",
    (1, 3, 2): "(-1/4*rho^40 + 1/2*rho^30 - 7/16*rho^20 + 3/16*rho^10"
               " - 1/32)/(rho^20)",
    (3, 1, 2): "-1/4*rho^30 + 1/2*rho^20 - 1/4*rho^10",
    (2, 3, 1): "(-1/4*rho^40 - 1/2*rho^30 - 7/16*rho^20 - 3/16*rho^10"
               " - 1/32)/(rho^20)",
    (3, 2, 1): "1/4*rho^30 + 1/2*rho^20 + 1/4*rho^10",
}

# Published leading parts; the engine carries the honest (-1)^3 of the six
# derivatives, which the published table drops uniformly.
CHAIN_PUBLISHED_LEADING = {
    (1, 2, 3): "-1/4*rho^30 + 1/4*rho^20",
    (2, 1, 3): "1/4*rho^30 + 1/4*rho^20",
    (1, 3, 2): "1/4*rho^20",
    (3, 1, 2): "1/4*rho^30 - 1/2*rho^20",
    (2, 3, 1): "1/4*rho^20",
    (3, 2, 1): "-1/4*rho^30 - 1/2*rho^20",
}


class TestChainCancellation:
    def test_exact_coefficients(self, config):
        res = eval_I_cancellation(config)
        for key, text in CHAIN_COEFFS.items():
            assert res["coefficients"][key] == rr(text), key

    def test_published_leading_parts(self, config):
        res = eval_I_cancellation(config)
        for key, text in CHAIN_PUBLISHED_LEADING.items():
            diff = RhoRational.const(-1) * res["coefficients"][key] - rr(text)
            assert diff.infinity_degree <= 10, key

    def test_sum_cancels_two_levels(self, config):
        res = eval_I_cancellation(config)
        # the rho^30 and rho^20 coefficient levels cancel exactly; the sum
        # is O(1) as a coefficient (entry order 20)
        assert res["sum_coefficient"] == rr("(-11/8*rho^20 - 3/16)/(rho^20)")
        assert res["sum_coefficient"].infinity_degree == 0
        assert res["sum_entry_order"] == 20

    def test_individual_entry_orders(self, config):
        res = eval_I_cancellation(config)
        orders = {key: v.entry_order() for key, v in res["terms"].items()}
        assert orders[(1, 2, 3)] == 50 and orders[(2, 1, 3)] == 50
        assert orders[(3, 1, 2)] == 50 and orders[(3, 2, 1)] == 50
        assert orders[(1, 3, 2)] == 40 and orders[(2, 3, 1)] == 40

    def test_terms_proportional_to_fourth_polarization(self, config):
        res = eval_I_cancellation(config)
        a4 = rank_one(config.zeta(4))
        for key, v in res["terms"].items():
            assert coefficient_of(v.matrix, a4) is not None


class TestItems:
    def test_item_1_and_2(self, config):
        v1 = item_value(1, config)["matrix"]
        v2 = item_value(2, config)["matrix"]
        a4 = rank_one(config.zeta(4))
        c1 = coefficient_of(v1, a4)
        c2 = coefficient_of(v2, a4)
        assert c1 == rr("(-rho^40 - rho^20 - 1/4)/(rho^20)")
        assert c2 == rr("rho^20")
        # cancellation at the rho^20 * A4 level
        assert (c1 + c2).infinity_degree == 0

    def test_item_3_and_8_parts(self, config):
        a4 = rank_one(config.zeta(4))
        r3 = item_value(3, config)
        assert coefficient_of(r3["p_part"], a4) == \
            rr("(-1/2*rho^40 - 1/2*rho^20 - 1/8)/(rho^20)")
        assert coefficient_of(r3["hhat_part"], a4) == \
            rr("(3/4*rho^40 + 3/4*rho^20 + 3/16)/(rho^20)")
        r8 = item_value(8, config)
        assert coefficient_of(r8["p_part"], a4) == rr("1/2*rho^20")
        assert coefficient_of(r8["hhat_part"], a4) == rr("-3/4*rho^20")
        total = mat_add(r3["matrix"], r8["matrix"])
        assert mat_max_degree(total) < 40

    def _projections(self, config, matrix):
        a14 = sym_outer(config.zeta(1), config.zeta(4))
        a24 = sym_outer(config.zeta(2), config.zeta(4))
        c14 = matrix[0][2] / a14[0][2]
        c24 = matrix[0][3] / a24[0][3]
        resid = mat_sub(matrix, mat_scale(a14, c14))
        resid = mat_sub(resid, mat_scale(a24, c24))
        return c14, c24, mat_max_degree(resid)

    def test_item_5(self, config):
        c14, c24, resid = self._projections(config,
                                            item_value(5, config)["matrix"])
        assert (c14 - rr("-3/8*rho^30")).infinity_degree < 30
        assert (c24 - rr("3/8*rho^30")).infinity_degree < 30
        assert resid <= 20

    def test_item_7_exact(self, config):
        c14, c24, resid = self._projections(config,
                                            item_value(7, config)["matrix"])
        assert c14 == rr("-3/8*rho^30 - 3/4*rho^20 - 3/8*rho^10")
        assert c24 == rr("3/8*rho^30 - 3/4*rho^20 + 3/8*rho^10")
        assert resid == NEG_INF

    def test_item_6_subcases(self, config):
        r = item_value(6, config)
        # both sub-families lead with 3/8 rho^30 (A14 - A24); the outer-3
        # subcase is exactly polynomial
        c14, c24, resid = self._projections(config, r["subcase_outer3"])
        assert c14 == rr("3/8*rho^30 - 1/4*rho^20")
        assert c24 == rr("-3/8*rho^30 - 1/4*rho^20")
        assert resid == NEG_INF
        c14, c24, _ = self._projections(config, r["subcase_inner34"])
        assert (c14 - rr("3/8*rho^30")).infinity_degree < 30
        assert (c24 - rr("-3/8*rho^30")).infinity_degree < 30

    def test_items_5_6_7_cancel_at_top(self, config):
        total = add_all(item_value(n, config)["matrix"] for n in (5, 6, 7))
        assert mat_max_degree(total) < 40

    def test_item_4_is_minus_chain_sum(self, config):
        res = eval_I_cancellation(config)
        minus_sum = mat_scale(res["sum_matrix"], RhoRational.const(-1))
        assert item_value(4, config)["matrix"] == minus_sum

    def test_bad_item_number(self, config):
        with pytest.raises(ValueError):
            item_value(9, config)


class TestClassification:
    def test_families_attain_top_order(self, config):
        cls = classify_rho40_terms(config)
        for n, members in cls["families"].items():
            assert members, f"family {n} empty"
            for term, value, order in members:
                if n == 4:
                    assert order in (40, 50)
                else:
                    assert order == 40

    def test_four_extra_top_order_terms(self, config):
        # the published case analysis misses four chain terms whose small
        # near-characteristic pair denominators boost them to entry order 40
        cls = classify_rho40_terms(config)
        keys = {(t.hclass, t.shape, t.perm) for t, _ in cls["outside_at_top"]}
        assert keys == {
            (4, 0, (3, 1, 2, 4)), (4, 0, (3, 2, 1, 4)),
            (5, 1, (1, 3, 2, 4)), (5, 1, (2, 3, 1, 4)),
        }
        assert all(all(f == ("P", 2) for f in t.forms)
                   for t, _ in cls["outside_at_top"])

    def test_everything_else_below_top(self, config):
        cls = classify_rho40_terms(config)
        assert cls["outside_max_order"] == 40  # attained only by the extras

    @pytest.mark.parametrize("scan", ["evaluator", "dense_evaluator"])
    def test_branch_and_bound_equals_exhaustive_scan(self, scan, request):
        # on a fresh evaluator the classification answers as a scan of all
        # 1488 terms does; on the dense configuration every term sits far
        # below order 40, so only the best exact order so far stops the scan
        ev = request.getfixturevalue(scan)
        interaction.shared_evaluator.cache_clear()
        cls = classify_rho40_terms(ev.config)
        fresh = shared_evaluator(ev.config)
        assert fresh is not ev
        evaluated = sum(len(v.leaves) == 4 for v in fresh.cache.values())
        if scan == "evaluator":
            assert evaluated <= 100
        family_of = {key: n for n, keys in _family_keys().items()
                     for key in keys}
        families = {n: [] for n in family_of.values()}
        outside_at_top, outside_max = [], NEG_INF
        for term in enumerate_all():
            value = ev.eval(term.ast)
            order = value.entry_order()
            n = family_of.get((term.hclass, term.shape, term.perm,
                               term.forms))
            if n is not None:
                families[n].append((term, value, order))
                continue
            if order >= 40:
                outside_at_top.append((term, order))
            outside_max = max(outside_max, order)
        # the values of two evaluators, compared by their fields
        def fields(found):
            return {n: [(t, v.covector, v.leaves, v.outer, o)
                        for t, v, o in members]
                    for n, members in found.items()}
        assert fields(cls["families"]) == fields(families)
        assert cls["outside_at_top"] == outside_at_top
        assert cls["outside_max_order"] == outside_max


class TestSum:
    """``Evaluator.sum``, the one summation path, against the term-by-term
    reference."""

    @pytest.mark.parametrize("name", ["tt", "dense"])
    @seed(27)
    @settings(max_examples=30, deadline=None)
    @given(picks=st.sets(st.integers(0, 1487), max_size=24))
    def test_random_subset_matches_term_by_term(self, name, picks,
                                                tt_evaluator,
                                                dense_evaluator):
        # 30 examples per evaluator: subsets of up to 24 of the 1488 terms
        ev = {"tt": tt_evaluator, "dense": dense_evaluator}[name]
        terms = enumerate_all()
        chosen = [terms[i] for i in sorted(picks)]
        assert ev.sum(chosen) == plain_signed_sum(ev, chosen)

    def test_empty_sum(self, evaluator):
        assert evaluator.sum([]) == ZERO_MAT

    def test_family_unions_and_chain_sum(self, config, evaluator):
        # the sums behind the items-*-cancel verdicts and the cancellation
        items = {n: item_value(n, config) for n in range(1, 9)}
        for families in ((1, 2), (3, 8), (5, 6, 7)):
            members = [t for n in families for t in items[n]["members"]]
            want = plain_signed_sum(evaluator, members)
            assert evaluator.sum(members) == want
            assert mat_max_degree(want) < 40
        chains = [nested_chain(*key)
                  for key in itertools.permutations((1, 2, 3))]
        want = add_all(evaluator.eval(ast).matrix for ast in chains)
        assert eval_I_cancellation(config)["sum_matrix"] == want


class TestTotal:
    def test_total_is_identically_zero(self, config):
        tot = total_symbol(config)
        assert tot["entry_order"] == NEG_INF
        assert all(x.is_zero() for row in tot["matrix"] for x in row)

    def test_per_class_subtotals(self, config):
        per_class = class_sums(shared_evaluator(config))
        orders = {k: mat_max_degree(v) for k, v in per_class.items()}
        assert orders == {1: 20, 2: 40, 3: 40, 4: 30, 5: 30}
        assert total_symbol(config)["matrix"] == add_all(per_class.values())

    def test_per_class_matches_term_by_term_sum(self, evaluator,
                                                tt_evaluator,
                                                dense_evaluator):
        # the total sums one tree per shape and permutation with
        # P_k + Hhat_k at every coefficient node; by multilinearity each
        # class equals the signed sum of its terms one by one.  The
        # reference is the plain matrix sum on the standard configuration;
        # elsewhere it is the terms' sum in the outer-product basis, merged
        # by a dict of its own, which spares building 1488 term matrices.
        for ev, reference in ((evaluator, plain_signed_sum),
                              (tt_evaluator, merged_signed_sum),
                              (dense_evaluator, merged_signed_sum)):
            per_class = class_sums(ev)
            for k in range(1, 6):
                assert per_class[k] == reference(ev, enumerate_H(k)), k
            assert any(mat_max_degree(m) > NEG_INF
                       for m in per_class.values())
            assert ev.total()["matrix"] == add_all(per_class.values())

    def test_override_total_matches_term_by_term_sum(self, tt_evaluator):
        # the total of an evaluator with overridden wave symbols uses the
        # same summation, and is computed once
        tot = tt_evaluator.total()
        plain = plain_signed_sum(tt_evaluator, enumerate_H(4))
        assert tt_evaluator.sum(_terms(4, (_SUMMED,))) == plain
        assert mat_max_degree(plain) > NEG_INF
        assert tt_evaluator.total() is tot


def _reducible_config():
    """The standard covectors on (rho^2 - 1) * Minkowski: the inverse
    metric puts rho^2 - 1 = (rho - 1)(rho + 1) into the base whole."""
    return NullConfig(standard_config().zetas,
                      MINKOWSKI.scale_conformal(rr("rho^2 - 1")))


#: name -> (evaluator, leaf values, nonzero subset norms), built on demand
_BASE_CASES = {}


def _base_case(name):
    case = _BASE_CASES.get(name)
    if case is None:
        cfg = {"standard": standard_config,
               "dense": lambda: load_scenario(DENSE_SCENARIO).config,
               "reducible": _reducible_config}[name]()
        ev = Evaluator(cfg)
        subsets = [tuple(w for w in range(1, 5) if bits >> (w - 1) & 1)
                   for bits in range(1, 16)]
        covs = [cfg.subset_sum(s) for s in subsets]
        leaves = [pairing(cfg.metric, covs[i], covs[j])
                  for i in (0, 2, 5, 14) for j in (1, 3, 8, 14)]
        leaves += [x for cov in covs[:4] for x in cov if not x.is_zero()]
        # polynomial leaves share a proper factor with rho^2 - 1
        leaves += [rr("rho - 1"), rr("rho + 1"), rr("-3/2")]
        norms = [n for n in (pairing(cfg.metric, c, c) for c in covs)
                 if not n.is_zero()]
        case = _BASE_CASES[name] = (ev, leaves, norms)
    return case


def _expressions():
    leaf = st.tuples(st.just("leaf"), st.integers(0, 100))
    return st.recursive(leaf, lambda inner: st.one_of(
        st.tuples(st.just("+"), inner, inner),
        st.tuples(st.just("*"), inner, inner),
        st.tuples(st.just("/"), inner, st.integers(0, 100))), max_leaves=8)


def _value(tree, leaf, norm_inverse):
    op = tree[0]
    if op == "leaf":
        return leaf(tree[1])
    if op == "/":
        return _value(tree[1], leaf, norm_inverse) * norm_inverse(tree[2])
    a = _value(tree[1], leaf, norm_inverse)
    b = _value(tree[2], leaf, norm_inverse)
    return a + b if op == "+" else a * b


class TestSharedTrees:
    def test_equal_subtrees_are_one_object(self, config):
        # the builders share one node per distinct subtree, across calls
        roots = [t.ast for t in enumerate_all() + enumerate_all()]
        roots += [t.ast for t in summed_terms()]
        for n in range(1, 9):
            roots += [t.ast for t in item_value(n, config)["members"]]
        roots += [nested_chain(*p) for p in itertools.permutations((1, 2, 3))]
        seen = {}
        todo = list(roots)
        while todo:
            node = todo.pop()
            first = seen.setdefault(node, node)
            if first is not node:
                pytest.fail(f"two objects for one subtree: {node!r}")
            if isinstance(node, QNode):
                todo.append(node.child)
            elif isinstance(node, FormNode):
                todo.extend(node.children)


def _tt_seed_0_evaluator(config):
    """A fresh evaluator on the benchmark's tt-total wave symbols, seed 0,
    after that workload's term loop."""
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    raw = child.tt_polarizations(0)
    ev = Evaluator(config, leaf_symbols={
        i: SlotValue(Sym2T(raw[i]), config.zeta(i)) for i in raw})
    for term in enumerate_all():
        ev.eval(term.ast).matrix
    return ev


class TestSharedValues:
    @pytest.mark.parametrize("name", ["standard", "dense", "tt"])
    def test_held_coefficients_are_one_object_per_value(self, name, config,
                                                        dense_evaluator):
        if name == "tt":
            ev = _tt_seed_0_evaluator(config)
        else:
            ev = dense_evaluator if name == "dense" else Evaluator(config)
            ev.total()
        held = [c for v in ev.cache.values() for c, _, _ in v.outer]
        first = {}
        assert all(first.setdefault(c, c) is c for c in held)
        assert len(held) > 2 * len(first)
        if name == "tt":
            # each distinct matrix entry converted once
            entries = [x for v in ev.cache.values() if len(v.leaves) == 4
                       for row in v.matrix for x in row if not x.is_zero()]
            assert len({id(x) for x in entries}) <= 1.05 * len(set(entries))

    def test_equal_values_convert_to_one_rational(self, dense_evaluator):
        base = dense_evaluator.base
        x, z = base.lift(rr("rho^3 + 2")), base.lift(rr("-5/3"))
        y = base.inverse(RhoRational(base.elements[-1]))
        n = base.inverse(dense_evaluator._norm((1, 2)))
        for a, b in (((x * y) * z, z * (y * x)),
                     (x * (y + n), n * x + y * x),
                     ((x + y) * n, n * y + x * n)):
            assert a is not b and a == b
            assert base.rational(a) is base.rational(b)
            assert base.shared(a) is base.shared(b)

    def test_node_hash_is_cached_and_structural(self, evaluator):
        # a directly built tree is its shared twin and finds its memo entry
        shared = nested_chain(1, 2, 3)
        value = evaluator.eval(shared)
        P2 = ("P", 2)
        direct = FormNode(P2, (Leaf(1), QNode(FormNode(P2, (
            Leaf(2), QNode(FormNode(P2, (Leaf(3), Leaf(4)))))))))
        assert direct is shared
        assert evaluator.cache[direct] is value


class TestCoprimeBase:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["standard", "dense", "reducible"]),
           _expressions())
    def test_base_arithmetic_converts_to_field_arithmetic(self, name, tree):
        # sums, products and quotients by subset norms on an evaluator's
        # base give the canonical value of the same expression in Q(rho)
        ev, leaves, norms = _base_case(name)
        base = ev.base
        want = _value(tree, lambda i: leaves[i % len(leaves)],
                      lambda j: RhoRational.const(1) / norms[j % len(norms)])
        got = base.rational(_value(
            tree, lambda i: base.lift(leaves[i % len(leaves)]),
            lambda j: base.inverse(norms[j % len(norms)])))
        assert (got.num, got.den, hash(got)) == (want.num, want.den,
                                                 hash(want))

    def test_reducible_element_in_part(self):
        # rho^2 - 1 stays one element; values holding only one of its
        # factors lift and convert exactly
        ev, _, _ = _base_case("reducible")
        base = ev.base
        assert rr("rho^2 - 1").num in base.elements
        for text in ("1/(rho + 1)", "(rho^3 + 2)/(rho - 1)^2",
                     "(rho^2 + 1)/(rho*(rho + 1)^2)"):
            x = rr(text)
            v = base.lift(x)
            assert base.rational(v) == x
            assert base.rational(v * base.lift(rr("rho + 1"))) == x * rr(
                "rho + 1")

    def test_evaluators_share_no_base(self, config):
        # the base lives on its evaluator, one per evaluator
        dense = _base_case("dense")[0]
        a, b = Evaluator(config), Evaluator(config)
        assert a.base is not b.base
        assert a.base.elements == b.base.elements
        assert shared_evaluator(config).base is not a.base
        assert dense.base is not a.base
        assert set(dense.base.elements) != set(a.base.elements)
        value = a.eval(nested_chain(1, 2, 3))
        assert all(c.base is a.base for c, _, _ in value.outer)


class TestEvaluationProperties:
    def test_every_denominator_non_characteristic(self, config, evaluator):
        # evaluating everything raises nowhere
        for term in enumerate_all():
            evaluator.eval(term.ast)

    def test_characteristic_error(self):
        t1, t2, t3, t4 = base_directions()
        # scale the third direction so the first three sum to a null vector:
        # |t1 + t2 + s*t3|^2 = -2 + 4 s vanishes at s = 1/2
        cfg = NullConfig((t1, t2, t3.scale(rr("1/2")), t4), validate=False)
        ast = QNode(FormNode(("P", 3), (Leaf(1), Leaf(2), Leaf(3))))
        with pytest.raises(CharacteristicDenominatorError) as err:
            Evaluator(cfg).eval(ast)
        assert err.value.waves == (1, 2, 3)

    def test_characteristic_error_on_repeated_wave(self, config):
        # a validated configuration has no null pair or triple sum, but a
        # tree that repeats a wave does: |2 zeta1|^2 = 0
        ast = QNode(FormNode(("P", 2), (Leaf(1), Leaf(1))))
        with pytest.raises(CharacteristicDenominatorError) as err:
            Evaluator(config).eval(ast)
        assert err.value.waves == (1, 1)

    def test_permutation_relabel_invariance(self, config):
        # relabeling waves 1 <-> 2 permutes the enumeration, so any
        # permutation-summed class subtotal is unchanged
        swapped = NullConfig((config.zeta(2), config.zeta(1),
                              config.zeta(3), config.zeta(4)))
        ev_a = shared_evaluator(config)
        ev_b = Evaluator(swapped)
        for k in (1, 4):
            assert (plain_signed_sum(ev_a, enumerate_H(k))
                    == plain_signed_sum(ev_b, enumerate_H(k)))

    def test_linearity_in_leaf_symbol(self, config):
        c = rr("5/3")
        z1 = config.zeta(1)
        scaled = {1: SlotValue(mat_scale(rank_one(z1), c), z1,
                               outer=((c, z1, z1),))}
        ast = enumerate_H(5)[0].ast
        base = Evaluator(config).eval(ast)
        got = Evaluator(config, leaf_symbols=scaled).eval(ast)
        assert got.matrix == mat_scale(base.matrix, c)

    def test_shared_evaluator_holds_one_configuration(self, config):
        # a new configuration drops the evaluator of the one before it
        interaction.shared_evaluator.cache_clear()
        swapped = NullConfig((config.zeta(2), config.zeta(1),
                              config.zeta(3), config.zeta(4)))
        first = shared_evaluator(config)
        assert shared_evaluator(config) is first
        held = weakref.ref(first)
        del first
        second = shared_evaluator(swapped)
        gc.collect()
        assert held() is None
        assert shared_evaluator(swapped) is second

    def test_leaf_symbol_at_another_covector_rejected(self, config):
        moved = {2: SlotValue.wave(config.zeta(1))}
        with pytest.raises(ValueError, match="wave 2"):
            Evaluator(config, leaf_symbols=moved)

    def test_covector_sums(self, config, evaluator):
        term = enumerate_H(5)[0]
        value = evaluator.eval(term.ast)
        assert value.covector == config.subset_sum(range(1, 5))

    def test_each_pairing_computed_once(self, config, monkeypatch):
        # one pairing cache, keyed by the two vectors, serves every form
        # evaluation of an evaluator
        calls = []

        def counted(metric, u, v):
            calls.append((u, v))
            return pairing(metric, u, v)

        monkeypatch.setattr(forms, "pairing", counted)
        ev = Evaluator(config)
        for term in enumerate_H(5):
            ev.eval(term.ast)
        assert len(calls) == len(set(calls)) == len(ev.pairings)

    def test_each_pairing_product_computed_once(self, config, monkeypatch):
        # one product cache, keyed by the multiset of pairing values,
        # serves every form evaluation of an evaluator
        calls = []
        product = forms._product

        def counted(values):
            calls.append(values)
            return product(values)

        monkeypatch.setattr(forms, "_product", counted)
        ev = Evaluator(config)
        for term in enumerate_H(5):
            ev.eval(term.ast)
        assert calls
        assert len(calls) == len(set(calls)) == len(ev.products)

    def test_total_multiplications(self, config, monkeypatch):
        # the slot coefficients of a leaf are multiplied in once per output
        # pair, not once per monomial and level: walking each monomial on
        # its own, a cold total made 39608 products.  Evaluation multiplies
        # on the evaluator's base, so both scalars are counted.
        count = [0]

        def counted(mul):
            def wrapper(a, b):
                count[0] += 1
                return mul(a, b)
            return wrapper

        ev = Evaluator(config)
        for cls in (RhoRational, BaseValue):
            monkeypatch.setattr(cls, "__mul__", counted(cls.__mul__))
        ev.total()
        assert count[0] <= 20000

    def test_node_covectors_summed_once(self, config, monkeypatch):
        # a node's covector and a causal inverse's norm are memoized by the
        # multiset of the node's waves, shared by bounds and values
        adds = [0]
        add = CoVec4.__add__

        def counted(a, b):
            adds[0] += 1
            return add(a, b)

        multisets = set()

        def collect(ast):
            multisets.add(tuple(sorted(waves_of(ast))))
            if isinstance(ast, QNode):
                collect(ast.child)
            elif isinstance(ast, FormNode):
                for child in ast.children:
                    collect(child)

        terms = enumerate_all()
        for term in terms:
            collect(term.ast)
        ev = Evaluator(config)
        monkeypatch.setattr(CoVec4, "__add__", counted)
        for term in terms:
            ev.order_bound(term.ast)
        ev.total()
        assert adds[0] <= len(multisets)


class TestOrderPrediction:
    def test_prediction_bounds_all_terms(self, config, evaluator):
        for term in enumerate_all():
            bound = shared_evaluator(config).order_bound(term.ast)
            exact = evaluator.eval(term.ast).entry_order()
            assert exact <= bound

    def test_prediction_counts_metric_pairs(self, config):
        # on rho^-2 * Minkowski every inverse-metric pair carries rho^2;
        # the bound must count it to stay above every exact order
        cfg = NullConfig(config.zetas, metric=MINKOWSKI.scale_conformal(
            RhoRational.rho_power(-2)))
        ev = Evaluator(cfg)
        bounds, orders = [], []
        for term in enumerate_all():
            bounds.append(ev.order_bound(term.ast))
            orders.append(ev.eval(term.ast).entry_order())
            assert orders[-1] <= bounds[-1], term
        assert max(orders) == max(bounds)

    def test_family_members_attain_prediction(self, config, evaluator):
        cls = classify_rho40_terms(config)
        for n, members in cls["families"].items():
            for term, value, order in members:
                assert order == shared_evaluator(config).order_bound(
                    term.ast)
