"""Multilinear expansion forms of the reduced curvature operator.

A FormalTensorPoly is a sum of index monomials in abstract wave slots.  Each
monomial has a rational coefficient, wave factors carrying two lower tensor
indices plus derivative indices, and explicit inverse-metric pairs h^{ab}.
Abstract index names appearing twice are summed; the free names ``mu`` and
``nu`` (``FREE_PAIR``) stay open.  This is just enough structure to expand
the reduced curvature tensor around a constant background (with the inverse
metric and the Christoffel contraction as internal steps), split the result
into quasilinear (P) and two-derivative semilinear (Hhat) families, and
evaluate principal symbols.

Symbols are evaluated two independent ways: through the slots' outer-product
decompositions, where metric pairs collapse to vector pairings
(``symbols_of_forms``), and, as the reference for cross-checks, by summing
every index over 0..3 with one exact sparse contraction per monomial on
the nonzero entries of the slot matrices, covectors and inverse metric
(``symbol_of_form_by_assignment``).  The first
route walks the slots once for all monomials of a form: every monomial
holds each slot once, so one choice of outer term per slot gives all of
them the same product of slot coefficients, which is formed once per
branch and multiplied in once per output vector pair (the distributive
law, as in Aji and McEliece, "The generalized distributive law", 2000).
The walk runs on one scalar: the slot coefficients lie on one
``CoprimeBase`` (``BaseValue``), each metric pairing is lifted onto it once,
and every sum and product stays on it.  An ``Evaluator`` keeps its node
values on its own base; ``symbols_of_forms`` builds one base from the
denominators the walk meets (``form_denominators``) and lifts its
``RhoRational`` slots onto it.  Matrices are built only at the output
boundary, by ``CoprimeBase.matrix``, with canonical ``RhoRational`` entries.

Every derivative is a factor i times the covector.  A monomial holds
``mu`` and ``nu`` once each and every other index twice, so its derivative
count is even, and a form whose monomials all carry 2m derivatives has the
real symbol i^(2m) = (-1)^m times its covector contraction; both routes
return that real value, and a form with mixed counts raises ``FormError``.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .exact import CoprimeBase, ONE, RhoRational, ZERO
from .tensor import CoVec4, MINKOWSKI, Metric4, ZERO_MAT, pairing

FREE_PAIR = ("mu", "nu")


#: one wave-slot occurrence: u^(slot)_{idx[0] idx[1]} with derivatives
Factor = namedtuple("Factor", "slot idx derivs", defaults=((),))


class Monomial(namedtuple("Monomial", "coeff factors hinv", defaults=((),))):
    """coeff * product of factors * product of explicit h^{ab} pairs."""

    __slots__ = ()

    def names(self):
        out = []
        for f in self.factors:
            out.extend(f.idx)
            out.extend(f.derivs)
        for a, b in self.hinv:
            out.append(a)
            out.append(b)
        return out

    def derivative_count(self) -> int:
        return sum(len(f.derivs) for f in self.factors)


class FormError(ValueError):
    pass


def _check_monomial(m: Monomial, arity):
    counts = {}
    for n in m.names():
        counts[n] = counts.get(n, 0) + 1
    for n in FREE_PAIR:
        c = counts.pop(n, 0)
        if c > 1:
            raise FormError(f"free index {n} repeated in {m}")
        if not c:
            raise FormError(f"free index {n} missing from {m}")
    for n, c in counts.items():
        if c != 2:
            raise FormError(f"index {n} appears {c} times in {m}")
    slots = sorted(f.slot for f in m.factors)
    if slots != list(range(1, arity + 1)):
        raise FormError(f"slots {slots} do not cover 1..{arity}")


def _canonical_monomial(m: Monomial) -> tuple:
    """Lexicographically minimal renaming-invariant form of a monomial.

    Factors are ordered by slot.  Candidates range over the symmetric-index
    flip of each factor and the orderings of each factor's derivative
    indices; contracted names are renamed in first-walk order, h pairs are
    then sorted.  The minimum over candidates is the canonical tuple.
    """
    factors = sorted(m.factors, key=lambda f: f.slot)
    flip_choices = []
    for f in factors:
        opts = {(f.idx, d) for d in itertools.permutations(f.derivs)}
        opts |= {((f.idx[1], f.idx[0]), d)
                 for d in itertools.permutations(f.derivs)}
        flip_choices.append(sorted(opts))
    best = None
    for combo in itertools.product(*flip_choices):
        rename = {}

        def nm(n):
            if n in FREE_PAIR:
                return n
            if n not in rename:
                rename[n] = f"c{len(rename)}"
            return rename[n]

        fac_rep = tuple(
            (f.slot, (nm(idx[0]), nm(idx[1])), tuple(nm(d) for d in ds))
            for f, (idx, ds) in zip(factors, combo))
        h_rep = tuple(sorted(tuple(sorted((nm(a), nm(b))))
                             for a, b in m.hinv))
        rep = (fac_rep, h_rep)
        if best is None or rep < best:
            best = rep
    return best


class FormalTensorPoly:
    """Canonicalized sum of monomials with free indices (mu, nu) and the
    arity its caller states: every monomial holds each slot 1..arity once."""

    __slots__ = ("monomials", "arity", "_plan")

    def __init__(self, monomials, arity):
        monomials = tuple(monomials)
        for m in monomials:
            _check_monomial(m, arity)
        merged = {}
        for m in monomials:
            key = _canonical_monomial(m)
            merged[key] = merged.get(key, 0) + m.coeff
        canon = []
        for key, coeff in sorted(merged.items()):
            if coeff == 0:
                continue
            fac_rep, h_rep = key
            canon.append(Monomial(
                coeff,
                tuple(Factor(s, idx, ds) for s, idx, ds in fac_rep),
                tuple(tuple(p) for p in h_rep)))
        object.__setattr__(self, "monomials", tuple(canon))
        object.__setattr__(self, "arity", arity)

    @staticmethod
    def _of(monomials, arity) -> "FormalTensorPoly":
        """Trusted constructor for canonical monomials: each is its own
        canonical key ``(factors, hinv)``, the keys are distinct and sorted
        and no coefficient is zero."""
        self = object.__new__(FormalTensorPoly)
        object.__setattr__(self, "monomials", tuple(monomials))
        object.__setattr__(self, "arity", arity)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FormalTensorPoly is immutable")

    def scale(self, c: Fraction) -> "FormalTensorPoly":
        c = Fraction(c)
        return FormalTensorPoly._of(
            (Monomial(m.coeff * c, m.factors, m.hinv)
             for m in self.monomials if c), self.arity)

    def __add__(self, other: "FormalTensorPoly") -> "FormalTensorPoly":
        """The sum, merged like the constructor merges but without
        canonicalizing again: both operands' monomials are canonical."""
        if self.arity != other.arity:
            raise FormError("cannot add forms with different arity")
        coeffs = {}
        for m in self.monomials + other.monomials:
            key = (m.factors, m.hinv)
            coeffs[key] = coeffs.get(key, 0) + m.coeff
        return FormalTensorPoly._of(
            (Monomial(c, *key) for key, c in sorted(coeffs.items()) if c),
            self.arity)

    def __eq__(self, other):
        return (isinstance(other, FormalTensorPoly)
                and self.arity == other.arity
                and self.monomials == other.monomials)

    def derivative_counts(self):
        return sorted({m.derivative_count() for m in self.monomials})

    def pretty(self) -> str:
        lines = []
        for m in self.monomials:
            bits = [str(m.coeff)]
            for a, b in m.hinv:
                bits.append(f"h^{{{a}{b}}}")
            for f in m.factors:
                d = "".join(f"d_{x} " for x in f.derivs)
                bits.append(f"{d}u{f.slot}_{{{f.idx[0]}{f.idx[1]}}}")
            lines.append(" ".join(bits))
        return "\n".join(lines) if lines else "0"


# ---------------------------------------------------------------------------
# Construction of the expansion
# ---------------------------------------------------------------------------

class _Names:
    def __init__(self):
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"n{self.n}"


def _chain(slots, a: str, b: str, names: _Names):
    """Inverse-metric series chain connecting names a and b.

    Returns (factors, hinv, sign) realizing (-1)^k (h u)^k h between the two
    endpoint names, with k = len(slots).  k = 0 is the bare h^{ab}.
    """
    k = len(slots)
    if k == 0:
        return (), ((a, b),), 1
    factors = []
    hinv = []
    left = a
    for i, slot in enumerate(slots):
        i0 = names.fresh()
        i1 = names.fresh()
        hinv.append((left, i0))
        factors.append(Factor(slot, (i0, i1)))
        left = i1
    hinv.append((left, b))
    return tuple(factors), tuple(hinv), (-1) ** k


def _g_variants(slot: int, lam: str, alpha: str, beta: str):
    """The three one-derivative pieces of the Christoffel contraction.

    G_{lam alpha beta}(u) = 1/2 (d_beta u_{lam alpha} + d_alpha u_{lam beta}
    - d_lam u_{alpha beta}); yields (coeff, Factor).
    """
    half = Fraction(1, 2)
    yield half, Factor(slot, (lam, alpha), (beta,))
    yield half, Factor(slot, (lam, beta), (alpha,))
    yield -half, Factor(slot, (alpha, beta), (lam,))


def _expansion_monomials(k: int):
    """Monomials of homogeneity k of the reduced curvature tensor.

    Background frame: constant metric, vanishing background Christoffel
    symbols.  The three contributing pieces are
      T1 = -1/2 g^{pq} d_p d_q u_{mu nu},
      T2 = g^{ab} g^{sg} G_{s mu b}(u) G_{g nu a}(u),
      T3 = 1/2 [ G_{nu a b}(u) g^{aq} g^{bd} d_mu u_{qd} + (mu <-> nu) ],
    with every inverse metric expanded as a series in u.  Slot numbers are
    assigned in construction order: series factors first, then derivative
    carriers.
    """
    monos = []

    def add(coeff, factors, hinv):
        monos.append(Monomial(Fraction(coeff), tuple(factors), tuple(hinv)))

    # T1: series factors are slots 1..k-1, the d^2 carrier is slot k.
    if k >= 1:
        names = _Names()
        chain_f, chain_h, sign = _chain(list(range(1, k)), "p", "q", names)
        factors = chain_f + (Factor(k, FREE_PAIR, ("p", "q")),)
        add(Fraction(-sign, 2), factors, chain_h)

    # T2: two series chains of orders k1, k2 with k1 + k2 = k - 2,
    # then the two Christoffel factors.
    if k >= 2:
        for k1 in range(0, k - 1):
            k2 = k - 2 - k1
            names = _Names()
            s1 = list(range(1, k1 + 1))
            s2 = list(range(k1 + 1, k1 + k2 + 1))
            g1_slot = k - 1
            g2_slot = k
            c1f, c1h, sg1 = _chain(s1, "a", "b", names)
            c2f, c2h, sg2 = _chain(s2, "s", "g", names)
            for cg1, fg1 in _g_variants(g1_slot, "s", "mu", "b"):
                for cg2, fg2 in _g_variants(g2_slot, "g", "nu", "a"):
                    add(sg1 * sg2 * cg1 * cg2,
                        c1f + c2f + (fg1, fg2), c1h + c2h)

    # T3: chains g^{aq} g^{bd}, Christoffel carrier, plain-derivative
    # carrier; plus the (mu <-> nu) partner.
    if k >= 2:
        for k1 in range(0, k - 1):
            k2 = k - 2 - k1
            for fm, sm in ((FREE_PAIR, 1), ((FREE_PAIR[1], FREE_PAIR[0]), 1)):
                mu, nu = fm
                names = _Names()
                s1 = list(range(1, k1 + 1))
                s2 = list(range(k1 + 1, k1 + k2 + 1))
                g_slot = k - 1
                du_slot = k
                c1f, c1h, sg1 = _chain(s1, "a", "q", names)
                c2f, c2h, sg2 = _chain(s2, "b", "d", names)
                du = Factor(du_slot, ("q", "d"), (mu,))
                for cg, fg in _g_variants(g_slot, nu, "a", "b"):
                    add(Fraction(sm * sg1 * sg2, 2) * cg,
                        c1f + c2f + (fg, du), c1h + c2h)

    return monos


def reduced_ricci_expansion(k: int):
    """Homogeneity-k part of the reduced curvature expansion.

    Returns a dict with the quasilinear part (two derivatives on one slot),
    the two-derivative semilinear part, and the count of discarded
    sub-two-derivative monomials (zero in this constant-background frame).
    The expansion runs once per k; each call gets a new dict of the same
    immutable forms.
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    return dict(_expansion_parts(k))


@functools.cache
def _expansion_parts(k: int) -> tuple:
    """The items of ``reduced_ricci_expansion(k)``, computed once."""
    monos = _expansion_monomials(k)
    quasi, semi, discarded = [], [], 0
    for m in monos:
        per_factor = [len(f.derivs) for f in m.factors]
        if sum(per_factor) < 2:
            discarded += 1
            continue
        if 2 in per_factor:
            quasi.append(m)
        else:
            semi.append(m)
    return (("quasilinear", FormalTensorPoly(quasi, arity=k) if quasi else None),
            ("semilinear", FormalTensorPoly(semi, arity=k) if semi else None),
            ("discarded_count", discarded))


# ---------------------------------------------------------------------------
# Closed-form families (the shapes the interaction evaluator binds to)
# ---------------------------------------------------------------------------

def _closed_p(k: int) -> FormalTensorPoly:
    """P_k(w_1..w_k) = (-1)^k (h w_1 h ... w_{k-1} h)^{pq} d_p d_q w_k.

    The chain carries the series sign (-1)^(k-1); the quasilinear shapes
    enter the once-iterated system with the opposite sign.
    """
    names = _Names()
    chain_f, chain_h, sign = _chain(list(range(1, k)), "p", "q", names)
    factors = chain_f + (Factor(k, FREE_PAIR, ("p", "q")),)
    return FormalTensorPoly([Monomial(Fraction(-sign), factors, chain_h)],
                            arity=k)


def _closed_hhat(k: int) -> FormalTensorPoly:
    """Two-derivative semilinear family, twice the curvature-level part."""
    part = reduced_ricci_expansion(k)["semilinear"]
    return part.scale(2)


def build_form_family() -> dict:
    """All interaction coefficient forms keyed by ('P'|'Hhat', k).

    P forms follow the quasilinear closed shapes; Hhat forms are twice the
    semilinear curvature parts, matching the once-iterated wave system.
    """
    family = {}
    for k in (2, 3, 4):
        family[("P", k)] = _closed_p(k)
        family[("Hhat", k)] = _closed_hhat(k)
    return family


def explicit_hhat2() -> FormalTensorPoly:
    """The quadratic two-derivative semilinear form, written directly.

    2 h^{ab} h^{lg} G_{l mu b}(w1) G_{g nu a}(w2)
    + G_{nu a b}(w1) h^{aq} h^{bd} d_mu w2_{qd} + (mu <-> nu).
    """
    monos = []
    for c1, f1 in _g_variants(1, "l", "mu", "b"):
        for c2, f2 in _g_variants(2, "g", "nu", "a"):
            monos.append(Monomial(Fraction(2) * c1 * c2, (f1, f2),
                                  (("a", "b"), ("l", "g"))))
    for mu, nu in (FREE_PAIR, (FREE_PAIR[1], FREE_PAIR[0])):
        for c1, f1 in _g_variants(1, nu, "a", "b"):
            du = Factor(2, ("q", "d"), (mu,))
            monos.append(Monomial(c1, (f1, du), (("a", "q"), ("b", "d"))))
    return FormalTensorPoly(monos, arity=2)


# ---------------------------------------------------------------------------
# Symbol evaluation
# ---------------------------------------------------------------------------

#: the entry basis, shared by every slot built without an ``outer``
_ENTRY_BASIS = tuple(CoVec4([ONE if k == i else ZERO for k in range(4)])
                     for i in range(4))


class SlotValue:
    """Symbol data bound to a slot.

    ``matrix`` is a 4x4 tuple of row tuples of ``RhoRational`` (see
    ``tensor``), a ``Sym2T`` or not: a non-symmetric one lets a cross-check
    see the order of a factor's two indices.  ``outer`` decomposes the
    matrix as a sum of scaled outer products, a tuple of (coeff, left
    CoVec4, right CoVec4); evaluation uses it to collapse index sums into
    metric pairings.  When none is given it is built once, on the shared
    sparse entry basis.
    """

    __slots__ = ("matrix", "covector", "outer")

    def __init__(self, matrix: tuple, covector: CoVec4, outer: tuple = None):
        if outer is None:
            outer = tuple((matrix[i][j], _ENTRY_BASIS[i], _ENTRY_BASIS[j])
                          for i in range(4) for j in range(4)
                          if not matrix[i][j].is_zero())
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "covector", covector)
        object.__setattr__(self, "outer", outer)

    def __setattr__(self, name, value):
        raise AttributeError("SlotValue is immutable")

    @staticmethod
    def wave(zeta: CoVec4) -> "SlotValue":
        from .tensor import rank_one
        return SlotValue(rank_one(zeta), zeta,
                         outer=((RhoRational.const(1), zeta, zeta),))


def matrix_of_outer(terms) -> tuple:
    """The canonical 4x4 matrix of outer-product terms (c, left, right)
    whose coefficients lie on one ``CoprimeBase``."""
    return terms[0][0].base.matrix(terms) if terms else ZERO_MAT


class MissingSlotError(FormError):
    pass


def _prepare_slots(form: FormalTensorPoly, assignment):
    """(slots, i_power, negate): both routes' one sign rule, i^(2m) =
    (-1)^m, for a form whose monomials all carry 2m derivatives."""
    slots = dict(assignment)
    for s in range(1, form.arity + 1):
        if s not in slots:
            raise MissingSlotError(f"no symbol bound to slot {s}")
    dcounts = form.derivative_counts()
    i_power = dcounts[0] if dcounts else 0
    if len(dcounts) > 1:
        raise FormError(f"derivative counts {dcounts} are not one count")
    return slots, i_power, i_power % 4 == 2


def symbol_outer_of_form(form: FormalTensorPoly, assignment,
                         metric: Metric4, pairings: dict, products: dict):
    """Evaluate a form's real symbol to an outer-product decomposition;
    (terms, i_power), the power of i folded into the terms.

    Slot matrices are expanded into their outer decompositions; every
    metric pair then collapses to a pairing of two vectors, so a monomial
    contributes scalar * (mu-vector) (x) (nu-vector) per decomposition
    choice.  Every monomial holds each slot once, so one depth-first walk
    over the slots 1..arity serves all monomials: a level picks one outer
    term of its slot and pairs, per live monomial, the metric pairs whose
    vectors are now fixed.  A monomial leaves the branch at its first zero
    pairing, and the branch ends when none is left.  The product of the
    slot coefficients is formed once per branch.  At a leaf the live
    monomials are grouped by output vector pair and by the multiset of
    their pairing values; each group's rational coefficients are added and
    multiplied by the group's pairing product, and the branch's slot
    product is multiplied in once per output pair.  The terms hold each
    output vector pair once, with a nonzero coefficient, in no promised
    order, each negated when the folded power of i gives -1.

    The slot coefficients must be ``BaseValue`` on one ``CoprimeBase``,
    which covers the denominators of ``form_denominators``; the terms'
    coefficients are on it too.  ``symbols_of_forms`` evaluates slots with
    ``RhoRational`` coefficients.

    ``pairings`` caches the metric pairings by their two vectors and
    ``products`` the pairing products by their multiset of values.  A
    caller that evaluates many forms on one metric passes the same dicts
    to every call.
    """
    slots, i_power, negate = _prepare_slots(form, assignment)
    plan = _plan_of(form)
    depth = form.arity
    decomps = [slots[s].outer for s in range(1, depth + 1)]
    bases = {getattr(terms[0][0], "base", None) for terms in decomps if terms}
    if None in bases or len(bases) > 1:
        raise TypeError("slot coefficients are not on one CoprimeBase; "
                        "call symbols_of_forms for RhoRational slots")
    if not bases or not all(decomps):
        return (), i_power
    (base,) = bases
    # vectors[level] = (covector, left, right) of the level's slot and
    # chosen outer term, indexed by the second half of a ref
    vectors = [(slots[s].covector, None, None) for s in range(1, depth + 1)]
    acc = {}    # (mu-vector, nu-vector) -> summed coefficient

    def paired(pairs, ps):
        """``ps`` extended by the pairings of ``pairs``; None at a zero."""
        for (la, ka), (lb, kb) in pairs:
            key = (vectors[la][ka], vectors[lb][kb])
            p = pairings.get(key)
            if p is None:
                p = pairings[key] = base.lift(pairing(metric, *key))
            if p.is_zero():
                return None
            ps += (p,)
        return ps

    def leaf(prefix, live):
        groups = {}  # output pair -> {pairing multiset: summed coeff}
        for step, ps in live:
            (lm, km), (ln, kn) = step.mu, step.nu
            out = (vectors[lm][km], vectors[ln][kn])
            # the multiset, sorted by hash: two unequal values with one
            # hash can only split a group, never merge two
            key = tuple(sorted(ps, key=hash))
            group = groups.get(out)
            if group is None:
                group = groups[out] = {}
            group[key] = group.get(key, 0) + step.coeff
        for out, group in groups.items():
            total = None
            for key, coeff in group.items():
                if not coeff:
                    continue
                value = products.get(key)
                if value is None:
                    value = products[key] = _product((base.one, *key))
                if coeff != 1:
                    value = value * coeff
                total = value if total is None else total + value
            if total is None or total.is_zero():
                continue
            total = prefix * total
            acc[out] = acc[out] + total if out in acc else total

    def walk(level, prefix, live):
        if level == depth:
            leaf(prefix, live)
            return
        cov = vectors[level][0]
        for term in decomps[level]:
            vectors[level] = (cov, term[1], term[2])
            kept = []
            for step, ps in live:
                ps = paired(step.pairs_at[level], ps)
                if ps is not None:
                    kept.append((step, ps))
            if kept:
                walk(level + 1,
                     term[0] if prefix is None else prefix * term[0], kept)

    live = []
    for step in plan:
        ps = paired(step.before, ())
        if ps is not None:
            live.append((step, ps))
    if live:
        walk(0, None, live)
    terms = tuple((-c if negate else c, *out) for out, c in acc.items()
                  if not c.is_zero())
    return terms, i_power


def form_denominators(metric: Metric4, slots) -> list:
    """Every denominator a form walk on the ``SlotValue``s ``slots`` meets:
    those of the inverse metric, the slot covectors and the outer terms."""
    polys = [x.den for row in metric.inv for x in row]
    for sv in slots:
        polys += [x.den for x in sv.covector]
        for c, left, right in sv.outer:
            polys += [c.den, *(x.den for x in left), *(x.den for x in right)]
    return polys


def symbols_of_forms(items, metric: Metric4 = MINKOWSKI) -> list:
    """Evaluate each (form, assignment) of ``items`` on its slot symbols;
    returns one real symbol matrix per item.

    Each slot's tensor is replaced by its symbol matrix and each derivative
    by i times the slot's covector component.  A matrix is a plain 4x4
    tuple matrix of canonical ``RhoRational``: a single slot-ordered
    monomial need not be symmetric, only permutation-summed combinations
    are.  Each value is built from the outer-product decomposition, and
    every walk runs on one ``CoprimeBase`` of the ``form_denominators`` of
    all the items' slots, onto which the slot coefficients are lifted, and
    shares one dict of metric pairings and one of pairing products.
    """
    items = [(form, dict(assignment)) for form, assignment in items]
    base = CoprimeBase([p for _, slots in items
                        for p in form_denominators(metric, slots.values())])
    pairings, products = {}, {}
    out = []
    for form, slots in items:
        lifted = {s: SlotValue(v.matrix, v.covector,
                               tuple((base.lift(c), l, r)
                                     for c, l, r in v.outer))
                  for s, v in slots.items()}
        terms, _ = symbol_outer_of_form(form, lifted, metric, pairings,
                                        products)
        out.append(base.matrix(terms))
    return out


def symbol_of_form_by_assignment(form: FormalTensorPoly, assignment,
                                 metric: Metric4 = MINKOWSKI):
    """``symbols_of_forms`` of one form, summed over concrete index
    assignments.

    The reference route for cross-checks: it reads only the slot matrices
    and covectors, never an outer-product decomposition.  Each monomial is
    one exact sparse contraction (``_contract``), with a factor's slot
    matrix on its two indices, the slot covector on each derivative index
    and the inverse metric on each h pair, summed down to (mu, nu).
    """
    slots, _, negate = _prepare_slots(form, assignment)
    inv = _nonzero(metric.inv)
    matrix = {s: _nonzero(v.matrix) for s, v in slots.items()}
    covector = {s: {(a,): x for a, x in enumerate(v.covector.c)
                    if not x.is_zero()} for s, v in slots.items()}
    rows = [[ZERO] * 4 for _ in range(4)]
    for mono in form.monomials:
        operands = []
        for f in mono.factors:
            operands.append((f.idx, matrix[f.slot]))
            operands += [((d,), covector[f.slot]) for d in f.derivs]
        operands += [(pair, inv) for pair in mono.hinv]
        coeff = RhoRational.const(-mono.coeff if negate else mono.coeff)
        for (mu, nu), x in _contract(operands).items():
            rows[mu][nu] = rows[mu][nu] + x * coeff
    return tuple(map(tuple, rows))


def _nonzero(rows) -> dict:
    """The nonzero entries of a 4x4 matrix, by (row, column)."""
    return {(i, j): rows[i][j] for i in range(4) for j in range(4)
            if not rows[i][j].is_zero()}


def _contract(operands) -> dict:
    """The product of sparse tensors summed over every index name but mu
    and nu, as {(mu value, nu value): nonzero value}.

    An operand is (names, entries), ``entries`` mapping a tuple of index
    values, one per name, to a nonzero value.  One summed name at a time,
    the operands holding it are multiplied together and the name summed
    out, starting with the name whose operands have the fewest entries in
    all.
    """
    for names, _ in operands:
        if len(set(names)) < len(names):
            raise FormError(f"index repeated within {names}")
    ops = list(operands)
    summed = {n for names, _ in ops for n in names} - set(FREE_PAIR)
    while summed:
        name = min(summed, key=lambda n: (
            math.prod(len(e) for names, e in ops if n in names), n))
        summed.remove(name)
        held = [op for op in ops if name in op[0]]
        ops = [op for op in ops if name not in op[0]]
        ops.append(_sum_out(_join(held), name))
    names, entries = _join(ops)
    mu = names.index("mu")
    return {(key[mu], key[1 - mu]): x for key, x in entries.items()}


def _join(ops) -> tuple:
    """The product of sparse operands, over the union of their names."""
    names, entries = ops[0]
    for names2, entries2 in ops[1:]:
        shared = [n for n in names2 if n in names]
        at1 = [names.index(n) for n in shared]
        at2 = [names2.index(n) for n in shared]
        rest = [k for k, n in enumerate(names2) if n not in names]
        by_shared = {}
        for key, y in entries2.items():
            by_shared.setdefault(tuple(key[k] for k in at2), []).append(
                (tuple(key[k] for k in rest), y))
        entries = {key + tail: x * y for key, x in entries.items()
                   for tail, y in by_shared.get(tuple(key[k] for k in at1),
                                                ())}
        names = names + tuple(names2[k] for k in rest)
    return names, entries


def _sum_out(op, name) -> tuple:
    """An operand summed over the values of one of its names; zero sums
    are dropped."""
    names, entries = op
    k = names.index(name)
    sums = {}
    for key, x in entries.items():
        rest = key[:k] + key[k + 1:]
        sums[rest] = sums[rest] + x if rest in sums else x
    return (names[:k] + names[k + 1:],
            {key: x for key, x in sums.items() if not x.is_zero()})


class _Step:
    """Contraction plan of one monomial.

    A ref is (level, 0 for the slot covector or 1|2 for the left|right
    vector of the level's outer term), the level being the slot minus one.
    ``before`` holds the metric pairs of two covectors, paired before the
    walk; ``pairs_at[level]`` the pairs whose last outer vector is fixed
    at that level; ``mu`` and ``nu`` the refs of the free indices.  A
    slotted class, not a named tuple: the walk reads its fields in its
    innermost loops, and a slot read costs about half a named-tuple field
    read on CPython 3.11.
    """

    __slots__ = ("coeff", "before", "pairs_at", "mu", "nu")

    def __init__(self, coeff: Fraction, before: tuple, pairs_at: tuple,
                 mu: tuple, nu: tuple):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "pairs_at", pairs_at)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    def __setattr__(self, name, value):
        raise AttributeError("_Step is immutable")


def _step_of(mono: Monomial, depth: int) -> _Step:
    positions = {}  # name -> refs of its factor positions
    for f in mono.factors:
        level = f.slot - 1
        positions.setdefault(f.idx[0], []).append((level, 1))
        positions.setdefault(f.idx[1], []).append((level, 2))
        for d in f.derivs:
            positions.setdefault(d, []).append((level, 0))
    if "mu" not in positions or "nu" not in positions:
        raise FormError("every monomial must carry both free indices")
    for name, refs in positions.items():
        if len(refs) != 1:
            raise FormError(
                f"contraction {name} not mediated by a metric pair")

    def ref(name):
        if name not in positions:
            raise FormError(f"contraction {name} joins two metric pairs")
        return positions[name][0]

    before = []
    pairs_at = [[] for _ in range(depth)]
    for a, b in mono.hinv:
        ra, rb = ref(a), ref(b)
        # a covector is fixed before the walk, an outer vector at the level
        # of its slot
        level = max(ra[0] if ra[1] else -1, rb[0] if rb[1] else -1)
        (pairs_at[level] if level >= 0 else before).append((ra, rb))
    return _Step(mono.coeff, tuple(before), tuple(map(tuple, pairs_at)),
                 positions["mu"][0], positions["nu"][0])


def _plan_of(form: FormalTensorPoly) -> tuple:
    """The ``_Step`` of every monomial, compiled once per form.

    A form that fails to compile keeps no plan, so it fails again on the
    next call.
    """
    try:
        return form._plan
    except AttributeError:
        plan = tuple(_step_of(m, form.arity) for m in form.monomials)
        object.__setattr__(form, "_plan", plan)
        return plan


def _product(values):
    """Product of a nonempty tuple of values."""
    return functools.reduce(operator.mul, values)


def entry_order_bound(form: FormalTensorPoly, slot_info,
                      pair_degree) -> float:
    """Upper bound on the evaluated symbol's max entry degree.

    ``slot_info`` maps slot -> (matrix_degree_bound, covector_degree_bound)
    and ``pair_degree`` bounds the degree of every inverse-metric entry.
    The bound is the max over monomials of the summed factor bounds plus
    ``pair_degree`` per metric pair: index sums never raise the degree
    beyond it.
    """
    best = None
    for mono in form.monomials:
        total = len(mono.hinv) * pair_degree
        for f in mono.factors:
            mdeg, cdeg = slot_info[f.slot]
            total = total + mdeg + len(f.derivs) * cdeg
        best = total if best is None else max(best, total)
    return best
