"""The engine's records: equality, hashing, immutability, defaults and the
text they put into messages."""
from fractions import Fraction

import pytest

from gwsym.forms import (Factor, FormalTensorPoly, FormError, Monomial,
                         SlotValue, _Step)
from gwsym.gauge import DimensionResult
from gwsym.interaction import (Evaluator, FormNode, Leaf, QNode, SignedTerm,
                               SymbolValue, nested_chain)
from gwsym.nullcone import BacktraceResult, FlatPoint
from gwsym.orders import MicroOrder
from gwsym.report import Report, Section, TraceLine, Value, Verdict
from gwsym.scenario import Scenario


def chain():
    """A nested chain built by hand, not by the term builders."""
    P2 = ("P", 2)
    return FormNode(P2, (Leaf(1), QNode(FormNode(P2, (Leaf(2), Leaf(3))))))


class TestEquality:
    def test_factor_and_monomial(self):
        a = Monomial(Fraction(1, 2), (Factor(1, ("mu", "a"), ("b",)),),
                     (("a", "b"),))
        b = Monomial(Fraction(1, 2), (Factor(1, ("mu", "a"), ("b",)),),
                     (("a", "b"),))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != Monomial(Fraction(1, 2), (Factor(1, ("mu", "a"),
                                                     ("c",)),),
                             (("a", "b"),))
        assert Factor(1, ("a", "b")) != Factor(2, ("a", "b"))

    def test_term_nodes(self):
        # nodes are interned: a tree built twice is one object
        a, b = chain(), chain()
        assert a is b and hash(a) == hash(b)
        assert len({a, b, nested_chain(1, 2, 3)}) == 2
        assert Leaf(1) is Leaf(1)
        assert Leaf(1) != Leaf(2) and QNode(Leaf(1)) != Leaf(1)
        assert FormNode(("P", 2), (Leaf(1), Leaf(2))) != \
            FormNode(("Hhat", 2), (Leaf(1), Leaf(2)))

    def test_node_hash_is_cached(self):
        class Counted:
            calls = 0

            def __hash__(self):
                Counted.calls += 1
                return 7

        # a node hashes by identity, so no memo keyed by nodes hashes a
        # subtree; building its twin hashes only the children's tuple
        child = Counted()
        node = QNode(FormNode(("P", 2), (child, Leaf(1))))
        built = Counted.calls
        memo = {node: 1}
        for _ in range(3):
            assert memo[node] == 1
        assert Counted.calls == built == 1
        assert QNode(FormNode(("P", 2), (child, Leaf(1)))) is node
        assert Counted.calls == 2

    def test_symbol_values_of_two_evaluators(self, config):
        a = Evaluator(config).eval(nested_chain(1, 2, 3))
        b = Evaluator(config).eval(nested_chain(1, 2, 3))
        assert a is not b and a == b
        assert a != Evaluator(config).eval(nested_chain(2, 1, 3))


FROZEN = [
    (Factor(1, ("a", "b")), "slot"),
    (Monomial(Fraction(1), ()), "coeff"),
    (_Step(Fraction(1), (), (), (0, 1), (0, 2)), "coeff"),
    (Leaf(1), "wave"),
    (QNode(Leaf(1)), "child"),
    (FormNode(("P", 2), (Leaf(1), Leaf(2))), "children"),
    (SymbolValue(None, (1,), ()), "outer"),
    (SlotValue(None, None, ()), "outer"),
    (SignedTerm(1, Leaf(1), 1, 0, (1, 2, 3, 4), ()), "sign"),
    (Verdict("v", True, "claim"), "passed"),
    (Value("k", "v"), "value"),
    (TraceLine("t"), "text"),
    (FlatPoint.of(0, 0, 0, 0), "x0"),
    (BacktraceResult((), {}, True, (), True), "all_unrelated"),
    (DimensionResult(1, 2, 1, False), "rank"),
    (MicroOrder(0, "flowout"), "value"),
]


@pytest.mark.parametrize("record, name", FROZEN,
                         ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_reject_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    assert getattr(record, name) == before


class TestConstruction:
    def test_defaults(self):
        assert Verdict("v", True, "claim").detail == ""
        assert Verdict(name="v", passed=False, claim="c", detail="d") == \
            Verdict("v", False, "c", "d")
        assert Factor(1, ("a", "b")).derivs == ()
        assert Factor(slot=1, idx=("a", "b"), derivs=("c",)).derivs == ("c",)
        assert Monomial(Fraction(1), ()).hinv == ()
        assert Monomial(coeff=Fraction(1), factors=(),
                        hinv=(("a", "b"),)).hinv == (("a", "b"),)

    def test_mutable_records_get_their_own_lists(self, config):
        a, b = Report(), Report()
        a.section("s").value("k", 1)
        assert b.sections == [] and Section("t").entries == []
        scenario = Scenario(config)
        assert (scenario.oracle_rho, scenario.format, scenario.out,
                scenario.custom_config) == ((2, 3), "text", None, False)
        scenario.out = "report.txt"
        assert scenario.out == "report.txt"

    def test_micro_order_checks_its_label(self):
        assert MicroOrder(1, "flowout").value == Fraction(1)
        assert str(MicroOrder(Fraction(-1, 2), "paired")) == "-1/2 on paired"
        with pytest.raises(ValueError, match="unknown Lagrangian label 'x'"):
            MicroOrder(0, "x")


class TestMessages:
    def test_reprs(self):
        assert repr(chain()) == (
            "FormNode(form=('P', 2), children=(Leaf(wave=1), "
            "QNode(child=FormNode(form=('P', 2), children=(Leaf(wave=2), "
            "Leaf(wave=3))))))")
        assert repr(Verdict("v", True, "c")) == \
            "Verdict(name='v', passed=True, claim='c', detail='')"

    def test_form_error_names_the_monomial(self):
        twice = Monomial(Fraction(1), (Factor(1, ("mu", "mu")),))
        with pytest.raises(FormError) as info:
            FormalTensorPoly([twice])
        assert str(info.value) == (
            "free index mu repeated in Monomial(coeff=Fraction(1, 1), "
            "factors=(Factor(slot=1, idx=('mu', 'mu'), derivs=()),), "
            "hinv=())")

    def test_not_a_term_node(self, config):
        with pytest.raises(TypeError) as info:
            Evaluator(config).eval(Factor(1, ("a", "b")))
        assert str(info.value) == \
            "not a term node: Factor(slot=1, idx=('a', 'b'), derivs=())"
