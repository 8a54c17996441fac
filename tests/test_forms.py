"""Mechanical expansion forms: derivation, canonicalization, evaluation."""
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathlib import Path

from gwsym import interaction
from gwsym.exact import CoprimeBase, RhoRational, ZERO, parse_rho_rational
from gwsym.forms import (FREE_PAIR, Factor, FormalTensorPoly,
                         FormError, Monomial, SlotValue, build_form_family,
                         explicit_hhat2, form_denominators, matrix_of_outer,
                         reduced_ricci_expansion,
                         symbol_of_form_by_assignment, symbol_outer_of_form,
                         symbols_of_forms, _canonical_monomial)
from gwsym.nullcone import NullConfig, standard_config
from gwsym.scenario import load_scenario
from gwsym.tensor import (MINKOWSKI, ZERO_MAT, CoVec4, Metric4, Sym2T,
                          mat_add, mat_scale, pairing, rank_one, sym_outer)


DENSE_SCENARIO = Path(__file__).resolve().parent.parent / "bench" / "dense.scn"


def rr(text):
    return parse_rho_rational(text)


def symbol_of(form, assignment, metric=MINKOWSKI):
    """The real symbol matrix of one form: ``symbols_of_forms`` of one
    item."""
    (symbol,) = symbols_of_forms([(form, assignment)], metric)
    return symbol


def on_base(assignment, metric=MINKOWSKI):
    """(base, slots): the slots of ``assignment`` lifted onto a base of
    their ``form_denominators``, as ``symbols_of_forms`` lifts them."""
    base = CoprimeBase(form_denominators(metric, assignment.values()))
    return base, {s: SlotValue(v.matrix, v.covector,
                               tuple((base.lift(c), l, r)
                                     for c, l, r in v.outer))
                  for s, v in assignment.items()}


def by_pair(terms, base):
    """Walk terms as (left, right) -> canonical coefficient; each pair
    comes once, with a nonzero coefficient."""
    got = {(l, r): base.rational(c) for c, l, r in terms}
    assert len(got) == len(terms)
    assert not any(c.is_zero() for c in got.values())
    return got


def walk_matches_flat_product(form, assignment):
    base, lifted = on_base(assignment)
    terms, _ = symbol_outer_of_form(form, lifted, MINKOWSKI, {}, {})
    flat = {(l, r): c for c, l, r in flat_outer_of_form(form, assignment)}
    return by_pair(terms, base) == flat


def rational_matrix(terms):
    """The 4x4 matrix of outer-product terms with ``RhoRational``
    coefficients, summed entry by entry."""
    return tuple(tuple(sum((c * l[i] * r[j] for c, l, r in terms), ZERO)
                       for j in range(4)) for i in range(4))


class TestReducedExpansion:
    def test_wave_operator_part(self):
        parts = reduced_ricci_expansion(1)
        wave = parts["quasilinear"]
        assert len(wave.monomials) == 1
        m = wave.monomials[0]
        assert m.coeff == Fraction(-1, 2)
        assert len(m.factors) == 1 and len(m.factors[0].derivs) == 2
        assert parts["semilinear"] is None
        assert parts["discarded_count"] == 0

    def test_derived_matches_closed_forms(self):
        fam = build_form_family()
        for k in (2, 3, 4):
            parts = reduced_ricci_expansion(k)
            assert parts["quasilinear"].scale(2) == fam[("P", k)]
            assert parts["semilinear"].scale(2) == fam[("Hhat", k)]
            assert parts["discarded_count"] == 0

    def test_hhat2_matches_explicit_formula(self):
        assert build_form_family()[("Hhat", 2)] == explicit_hhat2()

    def test_every_monomial_has_two_derivatives(self):
        fam = build_form_family()
        for form in fam.values():
            assert form.derivative_counts() == [2]

    def test_contraction_counts_give_conformal_weights(self):
        fam = build_form_family()
        for (kind, k), form in fam.items():
            assert {len(m.hinv) for m in form.monomials} == {k}

    def test_each_call_gets_its_own_dict(self):
        # the expansion runs once per k, but no caller can change what the
        # next one reads
        parts = reduced_ricci_expansion(3)
        semi = parts["semilinear"]
        parts["semilinear"] = None
        again = reduced_ricci_expansion(3)
        assert again is not parts and again["semilinear"] is semi

    def test_bad_homogeneity(self):
        with pytest.raises(ValueError):
            reduced_ricci_expansion(0)
        with pytest.raises(ValueError):
            reduced_ricci_expansion(5)


class TestFormArithmetic:
    """``scale`` and ``+`` merge canonical monomials without canonicalizing
    them again; the canonicalizing constructor is the reference."""

    @staticmethod
    def canonical(monomials, arity):
        return FormalTensorPoly(list(monomials), arity=arity)

    def test_monomials_are_their_own_canonical_keys(self):
        for _, form in family_and_summed_forms():
            for m in form.monomials:
                assert _canonical_monomial(m) == (m.factors, m.hinv)

    @pytest.mark.parametrize("c", [2, Fraction(-1, 3), 0])
    def test_scale_matches_constructor(self, c):
        for _, form in family_and_summed_forms():
            scaled = form.scale(c)
            assert scaled == self.canonical(
                (Monomial(m.coeff * c, m.factors, m.hinv)
                 for m in form.monomials), form.arity)
            assert bool(scaled.monomials) == (c != 0)

    def test_sum_matches_constructor(self):
        fam = build_form_family()
        for k in (2, 3, 4):
            p, h = fam[("P", k)], fam[("Hhat", k)]
            for a, b in ((p, h), (h, p), (p, p.scale(Fraction(-1, 3)))):
                assert a + b == self.canonical(a.monomials + b.monomials, k)
            assert not (h + h.scale(-1)).monomials
            assert (h + h.scale(-1)).arity == k

    def test_sum_of_different_arities(self):
        fam = build_form_family()
        with pytest.raises(FormError, match="different arity"):
            fam[("P", 2)] + fam[("P", 3)]


class TestSymbolEvaluation:
    def test_dual_paths_agree(self, config):
        fam = build_form_family()
        for key, form in sorted(fam.items()):
            assignment = {s: SlotValue.wave(config.zeta(s))
                          for s in range(1, form.arity + 1)}
            a = symbol_of(form, assignment)
            assert a == symbol_of_form_by_assignment(form, assignment)
            # the walk reports the power of i it folded
            _, lifted = on_base(assignment)
            assert symbol_outer_of_form(form, lifted, MINKOWSKI, {},
                                        {})[1] == 2

    def test_entry_basis_dual_paths_agree(self, config):
        # slots without a decomposition get the shared entry basis;
        # pairings are keyed by the value of their two vectors and live as
        # long as the dict the caller passes (an Evaluator keeps its dict
        # for its lifetime, here each call makes its own)
        fam = build_form_family()
        for key, form in sorted(fam.items()):
            assignment = {s: SlotValue(rank_one(config.zeta(s)),
                                       config.zeta(s))
                          for s in range(1, form.arity + 1)}
            a = symbol_of(form, assignment)
            assert a == symbol_of_form_by_assignment(form, assignment), key

    def test_p2_sandwich_value(self, config):
        # rank-one inner slot and an outer derivative covector reduce to the
        # squared pairing times the outer matrix, times the i^2 = -1 of the
        # two derivatives
        fam = build_form_family()
        z3, z4 = config.zeta(3), config.zeta(4)
        assignment = {1: SlotValue.wave(z3), 2: SlotValue.wave(z4)}
        rows = symbol_of(fam[("P", 2)], assignment)
        from gwsym.tensor import pairing
        p = pairing(MINKOWSKI, z3, z4)
        want = mat_scale(rank_one(z4), -p * p)
        assert rows == want

    def test_hhat2_symmetrized_gives_published_pattern(self, config):
        # both argument orders summed give i^2 3/2 [h(zi,zj)]^2 A^(ij): the
        # published 3/2 multiplies the i^2 of the two derivatives, which the
        # real symbol folds
        fam = build_form_family()
        for i, j in ((1, 2), (1, 4), (3, 4)):
            zi, zj = config.zeta(i), config.zeta(j)
            one = {1: SlotValue.wave(zi), 2: SlotValue.wave(zj)}
            two = {1: SlotValue.wave(zj), 2: SlotValue.wave(zi)}
            a = symbol_of(fam[("Hhat", 2)], one)
            b = symbol_of(fam[("Hhat", 2)], two)
            total = tuple(tuple(x + y for x, y in zip(ra, rb))
                          for ra, rb in zip(a, b))
            from gwsym.tensor import pairing
            h = pairing(MINKOWSKI, zi, zj)
            want = mat_scale(sym_outer(zi, zj),
                             RhoRational.const(Fraction(-3, 2)) * h * h)
            assert total == want

    def test_multilinearity(self, config):
        fam = build_form_family()
        form = fam[("Hhat", 3)]
        z = [config.zeta(i) for i in (1, 2, 3)]
        base = {s: SlotValue.wave(z[s - 1]) for s in (1, 2, 3)}
        scaled = dict(base)
        c = rr("3/2")
        scaled[2] = SlotValue(mat_scale(rank_one(z[1]), c), z[1],
                              outer=((c, z[1], z[1]),))
        a = symbol_of(form, base)
        b = symbol_of(form, scaled)
        assert b == tuple(tuple(c * x for x in row) for row in a)
        # additivity in a slot
        w = config.zeta(4)
        added = dict(base)
        summed_matrix = mat_add(rank_one(z[1]), rank_one(w))
        added[2] = SlotValue(summed_matrix, z[1],
                             outer=((rr("1"), z[1], z[1]), (rr("1"), w, w)))
        other = dict(base)
        other[2] = SlotValue.wave(w)
        # covector must match for derivative terms; use same covector z[1]
        other[2] = SlotValue(rank_one(w), z[1], outer=((rr("1"), w, w),))
        av = symbol_of(form, added)
        bv = symbol_of(form, other)
        assert av == tuple(tuple(x + y for x, y in zip(ra, rb))
                           for ra, rb in zip(a, bv))

    def test_missing_slot(self, config):
        fam = build_form_family()
        with pytest.raises(FormError):
            symbol_of(fam[("P", 2)], {1: SlotValue.wave(config.zeta(1))})

    def test_odd_derivative_count_rejected(self):
        # a symbol i times a real value would need an odd count; a monomial
        # holds mu and nu once and every other index twice, so its count
        # is even, and one that leaves mu out to carry one derivative is
        # rejected when built
        odd = Monomial(Fraction(1), (Factor(1, ("a", "b"), ("c",)),
                                     Factor(2, ("d", "nu"))),
                       (("a", "b"), ("c", "d")))
        with pytest.raises(FormError, match="free index mu missing"):
            FormalTensorPoly([odd], 2)

    def test_mixed_derivative_counts_rejected(self, config):
        # no derivative, next to the two of P2's monomial: no real symbol,
        # on either route
        extra = Monomial(Fraction(1), (Factor(1, ("mu", "a")),
                                       Factor(2, ("b", "nu"))), (("a", "b"),))
        form = FormalTensorPoly(
            [extra, *build_form_family()[("P", 2)].monomials], 2)
        assignment = {s: SlotValue.wave(config.zeta(s)) for s in (1, 2)}
        for route in (symbol_of, symbol_of_form_by_assignment):
            with pytest.raises(FormError, match="not one count"):
                route(form, assignment)

    @pytest.mark.parametrize("monomial, message", [
        # two slot factors contracted directly, with no h pair between
        (Monomial(Fraction(1), (Factor(1, ("mu", "a")),
                                Factor(2, ("a", "nu")))),
         r"contraction \w+ not mediated by a metric pair"),
        # mu sits on an h pair only
        (Monomial(Fraction(1), (Factor(1, ("a", "nu")),), (("mu", "a"),)),
         "every monomial must carry both free indices"),
        # c joins two h pairs and no slot factor
        (Monomial(Fraction(1), (Factor(1, ("mu", "a")),
                                Factor(2, ("b", "nu"))),
                  (("a", "c"), ("c", "b"))),
         r"contraction \w+ joins two metric pairs"),
    ])
    def test_contraction_errors(self, config, monomial, message):
        # valid forms that the contraction cannot evaluate; the error
        # comes again on a second call, so no plan is kept for them
        form = FormalTensorPoly([monomial], len(monomial.factors))
        wave = SlotValue.wave(config.zeta(1))
        assignment = {s: wave for s in range(1, form.arity + 1)}
        for _ in range(2):
            with pytest.raises(FormError, match=message):
                symbol_outer_of_form(form, assignment, MINKOWSKI, {}, {})

    def test_entry_basis_decomposition(self, config):
        # a slot without an explicit decomposition falls back to the entry
        # basis and still evaluates identically
        fam = build_form_family()
        z1, z2 = config.zeta(1), config.zeta(2)
        with_outer = {1: SlotValue.wave(z1), 2: SlotValue.wave(z2)}
        without = {1: SlotValue(rank_one(z1), z1),
                   2: SlotValue(rank_one(z2), z2)}
        a = symbol_of(fam[("Hhat", 2)], with_outer)
        b = symbol_of(fam[("Hhat", 2)], without)
        assert a == b

    def test_entry_basis_is_shared(self, config):
        # two slots built without a decomposition hold the same four basis
        # covectors, so pairing and output-pair lookups meet one object
        full = tuple((RhoRational.const(1),) * 4 for _ in range(4))
        a = SlotValue(full, config.zeta(1))
        b = SlotValue(full, config.zeta(2))
        basis = {}
        for _, left, right in a.outer + b.outer:
            for v in (left, right):
                assert basis.setdefault(v, v) is v
        assert len(basis) == 4

    def test_outer_matrix_consistency(self, config):
        fam = build_form_family()
        assignment = {s: SlotValue.wave(config.zeta(s)) for s in (1, 2)}
        _, lifted = on_base(assignment)
        terms, _ = symbol_outer_of_form(fam[("Hhat", 2)], lifted,
                                        MINKOWSKI, {}, {})
        rows = symbol_of(fam[("Hhat", 2)], assignment)
        assert matrix_of_outer(terms) == rows
        assert matrix_of_outer(()) == ZERO_MAT

    def test_slots_off_a_base_rejected(self, config):
        # the walk runs on one CoprimeBase: RhoRational slots, or slots on
        # two bases, name the entry point that lifts them
        form = build_form_family()[("Hhat", 2)]
        rational = {s: SlotValue.wave(config.zeta(s)) for s in (1, 2)}
        _, one = on_base(rational)
        _, other = on_base(rational)
        for slots in (rational, {1: rational[1], 2: one[2]},
                      {1: one[1], 2: other[2]}):
            with pytest.raises(TypeError, match="call symbols_of_forms"):
                symbol_outer_of_form(form, slots, MINKOWSKI, {}, {})


class TestReferenceRoute:
    """``symbol_of_form_by_assignment`` as an independent second route."""

    NON_DIAGONAL = Metric4(((-2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 1, 0),
                            (0, 0, 0, 5)))

    @staticmethod
    def waves(config, form):
        return {s: SlotValue.wave(config.zeta(s))
                for s in range(1, form.arity + 1)}

    def test_non_diagonal_metric(self, config):
        for key, form in sorted(build_form_family().items()):
            assignment = self.waves(config, form)
            a = symbol_of(form, assignment, self.NON_DIAGONAL)
            b = symbol_of_form_by_assignment(form, assignment,
                                             self.NON_DIAGONAL)
            assert a == b, key
            # the metric reaches the value: Minkowski gives another one
            assert a != symbol_of(form, assignment), key

    def test_non_symmetric_slot(self, config):
        # both routes evaluate the canonical monomials as written, so they
        # agree on a slot whose matrix is not symmetric, where transposing
        # a factor's two indices would change the value
        rows = [[ZERO] * 4 for _ in range(4)]
        rows[0][1] = RhoRational.const(1)
        rows[2][3] = RhoRational.rho_power(1, 2)
        rows[3][0] = RhoRational.const(-3)
        skew = tuple(tuple(r) for r in rows)
        for key, form in sorted(build_form_family().items()):
            for s in range(1, form.arity + 1):
                assignment = self.waves(config, form)
                assignment[s] = SlotValue(skew, config.zeta(s))
                assert (symbol_of(form, assignment)
                        == symbol_of_form_by_assignment(form, assignment)), \
                    (key, s)

    def test_closed_sub_products(self, config):
        # a trace h^{ab} u_{ab} and a pairing of two derivative covectors
        # sum out to scalars apart from the (mu, nu) factor
        monomials = [
            Monomial(Fraction(1), (Factor(1, ("a", "b"), ("p",)),
                                   Factor(2, FREE_PAIR, ("q",))),
                     (("a", "b"), ("p", "q"))),
            Monomial(Fraction(-3, 2), (Factor(1, ("a", "b"), ("p",)),
                                       Factor(2, ("c", "d"), ("q",)),
                                       Factor(3, FREE_PAIR)),
                     (("a", "b"), ("p", "q"), ("c", "d"))),
        ]
        for mono in monomials:
            form = FormalTensorPoly([mono], len(mono.factors))
            # traceless wave slots would make every value vanish
            assignment = {s: SlotValue(sym_outer(config.zeta(s),
                                                 config.zeta(s + 1)),
                                       config.zeta(s + 1))
                          for s in range(1, form.arity + 1)}
            want = symbol_of(form, assignment)
            assert symbol_of_form_by_assignment(form, assignment) == want
            assert any(not x.is_zero() for r in want for x in r)

    def test_reads_the_matrix_not_the_decomposition(self, config):
        # an outer decomposition that contradicts the matrix: the reference
        # route follows the matrix, the decomposition route the outer terms
        z1, z2, z3 = (config.zeta(i) for i in (1, 2, 3))
        one = RhoRational.const(1)
        form = build_form_family()[("Hhat", 2)]
        honest = {1: SlotValue.wave(z1), 2: SlotValue.wave(z2)}
        lying = {1: SlotValue(rank_one(z1), z1, outer=((one, z3, z3),)),
                 2: SlotValue.wave(z2)}
        want = symbol_of_form_by_assignment(form, honest)
        assert symbol_of_form_by_assignment(form, lying) == want
        assert symbol_of(form, honest) == want
        assert symbol_of(form, lying) != want

    @pytest.mark.parametrize("case", ["dense", "scaled-metric"])
    def test_non_monomial_denominators(self, config, case):
        # the base symbols_of_forms builds covers every denominator the walk
        # meets: those of the dense scenario's covectors, or of the inverse
        # of (rho^2 + 1) * Minkowski
        if case == "dense":
            cfg = load_scenario(DENSE_SCENARIO).config
        else:
            cfg = NullConfig(config.zetas, MINKOWSKI.scale_conformal(
                rr("rho^2 + 1")))
        for key, form in sorted(build_form_family().items()):
            for assignment in (
                    {s: SlotValue.wave(cfg.zeta(s))
                     for s in range(1, form.arity + 1)},
                    {s: SlotValue(rank_one(cfg.zeta(s)), cfg.zeta(s))
                     for s in range(1, form.arity + 1)}):
                want = symbol_of_form_by_assignment(form, assignment,
                                                    cfg.metric)
                assert symbol_of(form, assignment, cfg.metric) == want
                assert any(not x.is_zero() for r in want for x in r)

    def test_entries_are_exact(self, config):
        # on sparse entry-basis slots most entries vanish; those are exact
        # zeros too, not the integer 0 of an empty sum
        for key, form in sorted(build_form_family().items()):
            assignment = {s: SlotValue(rank_one(config.zeta(s)),
                                       config.zeta(s))
                          for s in range(1, form.arity + 1)}
            rows = symbol_of_form_by_assignment(form, assignment)
            assert len(rows) == 4 and all(len(r) == 4 for r in rows), key
            assert all(type(x) is RhoRational for r in rows for x in r), key
            assert any(x.is_zero() for r in rows for x in r), key


def flat_outer_of_form(form, assignment, metric=MINKOWSKI):
    """Reference for ``symbol_outer_of_form``: every choice of one outer
    term per factor, in product order, with the whole coefficient product
    formed before the metric pairs are checked, and a factor i per
    derivative."""
    merged = {}
    for mono in form.monomials:
        sign = (-1) ** (mono.derivative_count() // 2)  # i^d, d even
        values = [assignment[f.slot] for f in mono.factors]
        for choice in itertools.product(*(v.outer for v in values)):
            vector = {}
            for f, v, (_, left, right) in zip(mono.factors, values, choice):
                vector[f.idx[0]], vector[f.idx[1]] = left, right
                for d in f.derivs:
                    vector[d] = v.covector
            scalar = RhoRational.const(mono.coeff * sign)
            for c, _, _ in choice:
                scalar = scalar * c
            for a, b in mono.hinv:
                scalar = scalar * pairing(metric, vector[a], vector[b])
            if not scalar.is_zero():
                key = (vector["mu"], vector["nu"])
                merged[key] = merged.get(key, ZERO) + scalar
    return tuple((c, l, r) for (l, r), c in merged.items() if not c.is_zero())


def flat_leaf_groups(form, assignment, metric=MINKOWSKI):
    """The groups a leaf of ``symbol_outer_of_form`` adds up, found by
    flat enumeration: for every choice of one outer term per slot, the
    monomials with no zero pairing, grouped by output vector pair and
    pairing-value multiset.  Yields (multiset as a Counter, coefficients)."""
    outers = [assignment[s].outer for s in range(1, form.arity + 1)]
    for choice in itertools.product(*(range(len(o)) for o in outers)):
        groups = {}
        for mono in form.monomials:
            vector = {}
            for f in mono.factors:
                _, left, right = outers[f.slot - 1][choice[f.slot - 1]]
                vector[f.idx[0]], vector[f.idx[1]] = left, right
                for d in f.derivs:
                    vector[d] = assignment[f.slot].covector
            values = Counter(pairing(metric, vector[a], vector[b])
                             for a, b in mono.hinv)
            if any(v.is_zero() for v in values):
                continue
            key = (vector["mu"], vector["nu"], frozenset(values.items()))
            groups.setdefault(key, (values, []))[1].append(mono.coeff)
        yield from groups.values()


def family_and_summed_forms():
    """The six family forms, then P_k + Hhat_k for k = 2, 3, 4."""
    summed = [(interaction._SUMMED, k) for k in (2, 3, 4)]
    return (sorted(build_form_family().items())
            + [(key, interaction._form_of(key)) for key in summed])


# One pool of covectors whose pairings are all nonzero, none of them
# null; slots drawing their outer terms and covectors from it share
# vectors across slots, and no monomial is pruned.
_POOL = [CoVec4([rr(x) for x in row])
         for row in (("2", "1", "0", "0"), ("1", "0", "2", "0"),
                     ("0", "1", "1", "rho"))]
_POOL_COEFFS = [rr("2"), rr("-1/3"), rr("rho"), rr("1")]


def shared_slot_value(outer, covector):
    """A slot whose outer terms (left, right, coefficient) and covector
    index into the pool."""
    terms = tuple((_POOL_COEFFS[c], _POOL[left], _POOL[right])
                  for left, right, c in outer)
    return SlotValue(rational_matrix(terms), _POOL[covector], outer=terms)


shared_slot = st.tuples(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                       st.integers(0, 3)), min_size=1, max_size=2),
    st.integers(0, 2))

# Sparse symmetric slot matrices: entries +-1, +-2 and +-rho^k on one to
# three mirrored positions; on the entry basis most metric pairs vanish.
_ENTRIES = [RhoRational.rho_power(k, c) for c in (1, -1) for k in (-10, 10)]
_ENTRIES += [RhoRational.const(c) for c in (1, -1, 2, -2)]
sparse_slot = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(_ENTRIES)),
    min_size=1, max_size=3)


class TestDepthFirstContraction:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(sparse_slot, min_size=4, max_size=4),
           st.lists(st.integers(1, 4), min_size=4, max_size=4))
    def test_matches_flat_product_and_assignment_sum(self, slots, waves):
        # the same wave in two slots gives a null covector pairing, which
        # drops a monomial before the walk starts
        config = standard_config()
        assignment = {}
        for s, (entries, wave) in enumerate(zip(slots, waves), start=1):
            rows = [[ZERO] * 4 for _ in range(4)]
            for i, j, x in entries:
                rows[i][j] = rows[j][i] = x
            assignment[s] = SlotValue(Sym2T(rows), config.zeta(wave))
        family = sorted(build_form_family().items())
        for key, form in family:
            assert walk_matches_flat_product(form, assignment), key
        for key, form in family:
            assert (symbol_of(form, assignment)
                    == symbol_of_form_by_assignment(form, assignment)), key


    @settings(max_examples=6, deadline=None)
    @given(st.lists(sparse_slot, min_size=4, max_size=4),
           st.lists(st.integers(1, 4), min_size=4, max_size=4))
    def test_summed_forms_match_flat_product(self, slots, waves):
        # P_k + Hhat_k, the forms of the total, mix the monomials of both
        # families in one walk
        config = standard_config()
        assignment = {}
        for s, (entries, wave) in enumerate(zip(slots, waves), start=1):
            rows = [[ZERO] * 4 for _ in range(4)]
            for i, j, x in entries:
                rows[i][j] = rows[j][i] = x
            assignment[s] = SlotValue(Sym2T(rows), config.zeta(wave))
        for k in (2, 3, 4):
            form = interaction._form_of((interaction._SUMMED, k))
            assert walk_matches_flat_product(form, assignment), k

    @settings(max_examples=10, deadline=None)
    @given(st.lists(shared_slot, min_size=4, max_size=4))
    def test_shared_vectors_match_flat_product(self, slots):
        # every vector comes from one pool, so at a leaf monomials meet on
        # one output pair and one multiset of pairing values
        assignment = {s: shared_slot_value(*slot)
                      for s, slot in enumerate(slots, start=1)}
        for key, form in family_and_summed_forms():
            assert walk_matches_flat_product(form, assignment), key

    def test_leaf_groups_merge_monomials(self):
        # the same two outer terms and covector in every slot: some leaf
        # group holds monomials of different coefficients whose pairing
        # multiset repeats a value
        slot = shared_slot_value([(0, 1, 0), (1, 0, 2)], 2)
        assignment = {s: slot for s in range(1, 5)}
        covered = False
        for key, form in family_and_summed_forms():
            for values, coeffs in flat_leaf_groups(form, assignment):
                covered |= (len(set(coeffs)) > 1
                            and max(values.values()) > 1)
            assert walk_matches_flat_product(form, assignment), key
        assert covered
