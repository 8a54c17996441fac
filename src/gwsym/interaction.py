"""Term trees for the four-wave interaction and their exact symbol values.

Terms are trees of wave leaves, causal-inverse nodes and coefficient-form
nodes.  The 1488 interaction terms come from one table of 11 shapes in five
classes (``_SHAPES``): ``_build`` instantiates a shape for a permutation of
the four waves and a P or Hhat form at each coefficient node.  Evaluation
is exact over the rational-function field.  Every denominator it meets is
a product of powers of a few polynomials known in advance: those of the
covectors, the inverse metric, the leaf symbols and the subset norms.  An
``Evaluator`` refines them into a ``CoprimeBase`` and keeps the
coefficients of its node values on it, so its sums and products run no
polynomial gcd; each matrix it returns is canonical ``RhoRational``,
converted once per entry.  Every sum of signed terms goes through
``Evaluator.sum``, which adds their coefficients on the base and builds
one matrix for the sum.  A form node's value is the real symbol
``forms`` returns.  An overall (2*pi)^-3 is factored out of every
complete four-wave term.

Only what a result reads is evaluated.  The total uses multilinearity: the
terms of one shape and permutation sum to one tree with P_k + Hhat_k at
every coefficient node, so 264 trees replace 1488 terms.  The top-order
classification evaluates the family members and then scans the other
terms by branch and bound on a compositional degree bound
(``Evaluator.order_bound``), which proves most of them below the top order
without evaluating them.
"""
from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .exact import CoprimeBase, NEG_INF, RhoRational, ZERO
# ZERO_MAT is imported from this module by the benchmark and the tests
from .forms import (SlotValue, ZERO_MAT, build_form_family,
                    entry_order_bound, form_denominators, matrix_of_outer,
                    symbol_outer_of_form)
from .nullcone import NullConfig
from .tensor import CoVec4, Sym2T, rank_one

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


def _frozen(self, name, value):
    raise AttributeError(f"{type(self).__name__} is immutable")


class _Node:
    """The record body of the term-tree nodes: the fields a class lists in
    ``_fields``, set once.  Nodes are interned: building a node whose
    class and field values are those of one built before returns that one
    object, so a tree built twice is one tree, and nodes hash and compare
    by identity.  A node's children are nodes already, so no lookup walks
    a subtree."""

    __slots__ = ()
    _fields = ()

    def __new__(cls, *values):
        return _interned(cls, values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

    __setattr__ = _frozen


@functools.cache
def _interned(cls, values):
    """The one node of class ``cls`` with field values ``values``; bounded
    by the finite set of trees built."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, values, strict=True):
        object.__setattr__(node, name, value)
    return node


class Leaf(_Node):
    __slots__ = _fields = ("wave",)


class QNode(_Node):
    __slots__ = _fields = ("child",)


class FormNode(_Node):
    __slots__ = _fields = ("form", "children")  # form: ('P'|'Hhat', k)


class CharacteristicDenominatorError(ArithmeticError):
    """A causal-inverse node was applied across a light-like total covector."""

    def __init__(self, waves):
        self.waves = tuple(sorted(waves))
        super().__init__(
            f"covector sum over waves {self.waves} is characteristic")


# ---------------------------------------------------------------------------
# Matrices: plain 4x4 tuples of RhoRational (not necessarily symmetric)
# ---------------------------------------------------------------------------

def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, s):
    return tuple(tuple(s * x for x in row) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_max_degree(a):
    return max(x.infinity_degree for row in a for x in row)


def mat_eval_at(a, rho):
    return [[x.eval_at(rho) for x in row] for row in a]


def mat_of(tensor) -> tuple:
    if isinstance(tensor, Sym2T):
        return tensor.m
    return tuple(tuple(row) for row in tensor)


class SymbolValue:
    """Evaluated term: total covector, leaves, real matrix.

    ``outer`` is the value's outer-product decomposition, carried so nested
    evaluation can keep collapsing index contractions into pairings; from
    an ``Evaluator`` its coefficients are ``BaseValue`` on the evaluator's
    base.  The 4x4 ``matrix`` of canonical ``RhoRational`` is built from it
    on first access only: inner nodes and summed terms need only the
    decomposition.
    """

    __slots__ = ("covector", "leaves", "outer", "_matrix")

    def __init__(self, covector: CoVec4, leaves: tuple, outer: tuple):
        object.__setattr__(self, "covector", covector)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "_matrix", None)

    def __eq__(self, other):
        if other.__class__ is not SymbolValue:
            return NotImplemented
        return (self.covector == other.covector and self.leaves == other.leaves
                and self.outer == other.outer)

    __setattr__ = _frozen

    @property
    def matrix(self) -> tuple:
        m = self._matrix
        if m is None:
            m = matrix_of_outer(self.outer)
            object.__setattr__(self, "_matrix", m)
        return m

    def entry_order(self):
        return mat_max_degree(self.matrix)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: form kind of a coefficient node that carries P_k + Hhat_k (``total``)
_SUMMED = "P+Hhat"

#: the P and Hhat forms of the family, built once per process
form_family = functools.cache(build_form_family)


@functools.cache
def _form_of(key):
    """The form of a coefficient node: a family form, or for
    ``(_SUMMED, k)`` the sum P_k + Hhat_k, kept out of ``form_family``."""
    kind, k = key
    if kind != _SUMMED:
        return form_family()[key]
    return _form_of(("P", k)) + _form_of(("Hhat", k))


class Evaluator:
    """Caching exact evaluator for one configuration, on its metric.

    ``leaf_symbols`` maps a wave to the SlotValue that replaces its
    rank-one symbol; the SlotValue's covector must be the wave's.
    ``eval`` memoizes the value of every node, ``order_bound`` a degree
    bound on it, and one dict of metric pairings, one of pairing products
    and one ``base`` serve every form evaluation.  A node's covector and a
    causal inverse's norm are the configuration's memoized ``subset_sum``
    and ``subset_norm`` of the node's waves.  Every coefficient a node
    value holds is the base's one object for that value
    (``CoprimeBase.shared``), so equal coefficients of many nodes are
    stored once and their matrix entries are converted once.
    """

    def __init__(self, config: NullConfig, leaf_symbols: dict = None):
        self.config = config
        self.metric = config.metric
        overrides = leaf_symbols or {}
        self.slots = {}
        for i in range(1, 5):
            if i in overrides:
                if overrides[i].covector != config.zeta(i):
                    raise ValueError(f"leaf symbol of wave {i} is not at "
                                     "the configuration's covector")
                self.slots[i] = overrides[i]
            else:
                self.slots[i] = SlotValue.wave(config.zeta(i))
        self.cache = {}
        self.pairings = {}
        self.products = {}
        self._bounds = {}
        self._pair_degree = mat_max_degree(self.metric.inv)
        self._total = None

    @functools.cached_property
    def base(self) -> CoprimeBase:
        """The coprime base of every denominator evaluation meets, built
        at the first evaluation: the ``form_denominators`` of the leaf
        symbols, those of the components of the 15 subset covectors, and
        the numerators and denominators of the subset norms."""
        polys = form_denominators(self.metric, self.slots.values())
        for bits in range(1, 16):
            waves = [i for i in range(1, 5) if bits >> (i - 1) & 1]
            polys += [x.den for x in self.config.subset_sum(waves)]
            try:
                n = self._norm(waves)
            except CharacteristicDenominatorError:
                continue  # a null sum, such as one wave, is never inverted
            polys += [n.num, n.den]
        return CoprimeBase(polys)

    def eval(self, ast) -> SymbolValue:
        hit = self.cache.get(ast)
        if hit is not None:
            return hit
        value = self._eval(ast)
        self.cache[ast] = value
        return value

    def order_bound(self, ast):
        """Upper bound on ``eval(ast).entry_order()``, found without
        evaluating; attained absent cancellation."""
        return self._bound(ast)[0]

    def _bound(self, ast):
        hit = self._bounds.get(ast)
        if hit is None:
            hit = self._bounds[ast] = self._bound_of(ast)
        return hit

    def _bound_of(self, ast):
        """(degree bound, leaves) of a node, compositionally."""
        if isinstance(ast, Leaf):
            sv = self.slots[ast.wave]
            return mat_max_degree(mat_of(sv.matrix)), (ast.wave,)
        if isinstance(ast, QNode):
            degree, leaves = self._bound(ast.child)
            return degree - self._norm(leaves).infinity_degree, leaves
        infos = [self._bound(c) for c in ast.children]
        covector = self.config.subset_sum
        slot_info = {slot: (degree, max(x.infinity_degree
                                        for x in covector(leaves)))
                     for slot, (degree, leaves) in enumerate(infos, start=1)}
        leaves = tuple(itertools.chain.from_iterable(l for _, l in infos))
        return (entry_order_bound(_form_of(ast.form), slot_info,
                                  self._pair_degree), leaves)

    def _norm(self, waves) -> RhoRational:
        """The configuration's ``subset_norm`` of a multiset of waves;
        raises if it is characteristic."""
        n = self.config.subset_norm(waves)
        if n.is_zero():
            raise CharacteristicDenominatorError(waves)
        return n

    def _eval(self, ast) -> SymbolValue:
        share = self.base.shared
        if isinstance(ast, Leaf):
            sv = self.slots[ast.wave]
            lift = self.base.lift
            return SymbolValue(sv.covector, (ast.wave,),
                               tuple((share(lift(c)), l, r)
                                     for c, l, r in sv.outer))
        if isinstance(ast, QNode):
            child = self.eval(ast.child)
            s = self.base.inverse(self._norm(child.leaves))
            return SymbolValue(child.covector, child.leaves,
                               tuple((share(c * s), l, r)
                                     for c, l, r in child.outer))
        if isinstance(ast, FormNode):
            children = [self.eval(c) for c in ast.children]
            outer, _ = symbol_outer_of_form(
                _form_of(ast.form), dict(enumerate(children, 1)),
                self.metric, self.pairings, self.products)
            outer = tuple((share(c), l, r) for c, l, r in outer)
            leaves = tuple(itertools.chain.from_iterable(
                c.leaves for c in children))
            return SymbolValue(self.config.subset_sum(leaves), leaves, outer)
        raise TypeError(f"not a term node: {ast!r}")

    def total(self) -> dict:
        """Exact sum of every enumerated interaction term on this evaluator.

        A term is linear in each coefficient form, so the terms of one
        shape and permutation sum to one tree with the form P_k + Hhat_k
        at every coefficient node: the 1488 terms add up as the 264
        ``summed_terms``, which one ``sum`` adds.  The result holds the
        ``matrix`` and its ``entry_order``.  It is computed once per
        evaluator; callers must not modify it.
        """
        if self._total is None:
            matrix = self.sum(summed_terms())
            self._total = {"matrix": matrix,
                           "entry_order": mat_max_degree(matrix)}
        return self._total

    def sum(self, terms) -> tuple:
        """The canonical matrix of the exact signed sum of ``terms``, each
        a ``SignedTerm`` or a tuple that starts ``(sign, ast)``, with sign
        +1 or -1: the one summation path.

        The signed ``outer`` triples of all terms are grouped by their
        (left, right) covector pair and their coefficients added on the
        base, so ``matrix_of_outer`` builds one matrix for the whole sum
        rather than one per term.
        """
        merged = {}
        for sign, ast, *_ in terms:
            for c, left, right in self.eval(ast).outer:
                if sign < 0:
                    c = -c
                key = (left, right)
                hit = merged.get(key)
                merged[key] = c if hit is None else hit + c
        return matrix_of_outer(tuple((c, l, r) for (l, r), c in merged.items()
                                     if c))


#: the process-wide evaluator of a configuration (terms are shared across
#: analyses); only the last configuration's evaluator is held: a new
#: configuration drops the one before it
shared_evaluator = functools.lru_cache(maxsize=1)(Evaluator)


# ---------------------------------------------------------------------------
# Enumeration of the interaction terms
# ---------------------------------------------------------------------------

_PERMS = tuple(itertools.permutations((1, 2, 3, 4)))

#: interaction class -> sign of its permutation sum
CLASS_SIGNS = {1: -1, 2: 1, 3: 1, 4: -1, 5: -1}

#: class -> its shapes, in shape order.  In a shape an int is a position in
#: the permutation, a QNode is a causal inverse and a tuple is a
#: coefficient node; ``_build`` instantiates one.
_SHAPES = {
    1: ((0, 1, 2, 3),),
    2: ((0, 1, QNode((2, 3))),
        (0, QNode((1, 2)), 3),
        (QNode((0, 1)), 2, 3)),
    3: ((QNode((0, 1, 2)), 3),
        (0, QNode((1, 2, 3)))),
    4: ((QNode((0, 1)), QNode((2, 3))),),
    5: ((0, QNode((1, QNode((2, 3))))),
        (0, QNode((QNode((1, 2)), 3))),
        (QNode((0, QNode((1, 2)))), 3),
        (QNode((QNode((0, 1)), 2)), 3)),
}


def _build(shape, perm: tuple, forms: tuple):
    """The term tree of ``shape`` with leaves ``perm[i]`` and coefficient
    forms ``forms`` assigned in preorder."""
    forms = iter(forms)

    def node(s):
        if isinstance(s, int):
            return Leaf(perm[s])
        if isinstance(s, QNode):
            return QNode(node(s.child))
        form = next(forms)
        return FormNode(form, tuple(node(c) for c in s))
    return node(shape)


def _arities(shape) -> tuple:
    """Arities of the coefficient nodes of ``shape``, in preorder."""
    if isinstance(shape, int):
        return ()
    if isinstance(shape, QNode):
        return _arities(shape.child)
    return sum((_arities(c) for c in shape), (len(shape),))


#: one concrete interaction term with its sign and provenance
SignedTerm = namedtuple("SignedTerm", "sign ast hclass shape perm forms")


def _signed_term(hclass: int, shape: int, perm: tuple, forms: tuple):
    ast = _build(_SHAPES[hclass][shape], perm, forms)
    return SignedTerm(CLASS_SIGNS[hclass], ast, hclass, shape, perm, forms)


def _terms(hclass: int, kinds: tuple):
    """Signed terms of a class: every shape and permutation, with each
    coefficient node of arity k expanded into the forms (kind, k)."""
    if hclass not in _SHAPES:
        raise ValueError(f"interaction class must be 1..5, got {hclass}")
    out = []
    for shape_idx, shape in enumerate(_SHAPES[hclass]):
        form_options = [tuple((kind, a) for kind in kinds)
                        for a in _arities(shape)]
        for perm in _PERMS:
            for forms in itertools.product(*form_options):
                out.append(_signed_term(hclass, shape_idx, perm, forms))
    return out


def summed_terms():
    """The 264 signed trees that sum to the total of all 1488 terms."""
    return [t for hclass in range(1, 6) for t in _terms(hclass, (_SUMMED,))]


def enumerate_H(hclass: int):
    """All concrete signed terms of one interaction class.

    Every permutation of the four waves is instantiated for every shape,
    and every coefficient node is expanded into its quasilinear (P) and
    two-derivative semilinear (Hhat) variants.
    """
    return _terms(hclass, ("P", "Hhat"))


def enumerate_all():
    out = []
    for hclass in range(1, 6):
        out.extend(enumerate_H(hclass))
    return out


# ---------------------------------------------------------------------------
# Families, items, totals
# ---------------------------------------------------------------------------

def _family_keys():
    """Structural membership keys (hclass, shape, perm, forms) per family.

    Families follow the eight top-order groups of the interaction analysis;
    family 4 is the six-permutation nested chain whose members individually
    sit two orders above the others and cancel in the sum.
    """
    P2, P3, H2 = ("P", 2), ("P", 3), ("Hhat", 2)
    fam = {n: [] for n in range(1, 9)}
    for i, j in ((1, 2), (2, 1)):
        fam[1].append((2, 0, (i, j, 3, 4), (P3, P2)))
        fam[2].append((3, 1, (3, i, j, 4), (P2, P3)))
        fam[3].append((4, 0, (i, j, 3, 4), (P2, P2, P2)))
        fam[3].append((4, 0, (i, j, 3, 4), (P2, H2, P2)))
        fam[5].append((5, 0, (i, j, 3, 4), (H2, P2, P2)))
        fam[5].append((5, 2, (j, 3, 4, i), (H2, P2, P2)))
        fam[6].append((5, 0, (i, j, 3, 4), (P2, H2, P2)))    # inner pair (3,4)
        fam[6].append((5, 1, (i, 3, 4, j), (P2, H2, P2)))
        fam[6].append((5, 0, (3, i, j, 4), (P2, H2, P2)))    # outer wave 3
        fam[6].append((5, 1, (3, i, 4, j), (P2, H2, P2)))
        fam[7].append((5, 0, (3, i, j, 4), (P2, P2, H2)))
        fam[7].append((5, 0, (3, i, 4, j), (P2, P2, H2)))
        fam[8].append((5, 1, (3, i, j, 4), (P2, P2, P2)))
        fam[8].append((5, 1, (3, i, j, 4), (P2, P2, H2)))
    for perm in itertools.permutations((1, 2, 3)):
        fam[4].append((5, 0, perm + (4,), (P2, P2, P2)))
    return fam


def classify_rho40_terms(config: NullConfig):
    """Group the top-order terms into the eight families, by branch and bound.

    The 34 family members are evaluated exactly.  The other terms are
    visited in decreasing order of ``Evaluator.order_bound`` and evaluated
    until the first whose bound is below 40 and not above the best exact
    order found so far: every term after it provably stays below both, so
    the scan is as exact as one over all 1488 terms.

    Returns a dict with the families (lists of (SignedTerm, SymbolValue,
    order)), the exact maximal order outside them, and the terms outside
    them at order 40 or more ((SignedTerm, order), in enumeration order).
    """
    ev = shared_evaluator(config)
    keys = _family_keys()
    key_to_family = {}
    for n, members in keys.items():
        for key in members:
            key_to_family[key] = n
    families = {n: [] for n in keys}
    others = []
    for term in enumerate_all():
        fam = key_to_family.get((term.hclass, term.shape, term.perm,
                                 term.forms))
        if fam is None:
            others.append(term)
        else:
            value = ev.eval(term.ast)
            families[fam].append((term, value, value.entry_order()))
    bounds = [ev.order_bound(term.ast) for term in others]
    outside_max = NEG_INF
    at_top = []
    for i in sorted(range(len(others)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < 40 and bounds[i] <= outside_max:
            break
        order = ev.eval(others[i].ast).entry_order()
        outside_max = max(outside_max, order)
        if order >= 40:
            at_top.append((i, order))
    return {
        "families": families,
        "outside_max_order": outside_max,
        "outside_at_top": [(others[i], order) for i, order in sorted(at_top)],
    }


def item_value(n: int, config: NullConfig):
    """Exact signed sum of one top-order family (1..8).

    For family 6 the result carries the two sub-family sums as well (inner
    pair (3,4) versus outer wave 3).
    """
    if not 1 <= n <= 8:
        raise ValueError("item number must be 1..8")
    ev = shared_evaluator(config)
    terms = [_signed_term(*key) for key in _family_keys()[n]]
    result = {"matrix": ev.sum(terms), "members": terms}
    if n == 6:
        result["subcase_inner34"] = ev.sum(t for t in terms
                                           if t.perm[0] != 3)
        result["subcase_outer3"] = ev.sum(t for t in terms if t.perm[0] == 3)
    if n == 3 or n == 8:
        result["p_part"] = ev.sum(t for t in terms
                                  if all(f[0] == "P" for f in t.forms))
        result["hhat_part"] = ev.sum(t for t in terms
                                     if any(f[0] == "Hhat" for f in t.forms))
    return result


def nested_chain(a: int, b: int, c: int) -> FormNode:
    """The nested-chain term P2(a, Q(P2(b, Q(P2(c, 4)))))."""
    P2 = ("P", 2)
    return _build(_SHAPES[5][0], (a, b, c, 4), (P2, P2, P2))


def eval_I_cancellation(config: NullConfig):
    """The six nested-chain permutation terms and their exact sum.

    Values are the raw (unsigned) term symbols; within the full interaction
    they enter with an overall minus.  Each term is a multiple of the
    polarization of wave 4; the per-term coefficients and the cancelling
    exact sum are returned.
    """
    ev = shared_evaluator(config)
    chains = {key: nested_chain(*key)
              for key in itertools.permutations((1, 2, 3))}
    terms = {key: ev.eval(ast) for key, ast in chains.items()}
    a4 = mat_of(rank_one(config.zeta(4)))
    total = ev.sum((1, ast) for ast in chains.values())
    return {
        "terms": terms,
        "coefficients": {key: coefficient_of(value.matrix, a4)
                         for key, value in terms.items()},
        "sum_matrix": total,
        "sum_coefficient": coefficient_of(total, a4),
        "sum_entry_order": mat_max_degree(total),
    }


def coefficient_of(matrix, direction):
    """The scalar c with matrix == c * direction, or None if not parallel."""
    coeff = None
    for i in range(4):
        for j in range(4):
            d = direction[i][j]
            if d.is_zero():
                if not matrix[i][j].is_zero():
                    return None
                continue
            c = matrix[i][j] / d
            if coeff is None:
                coeff = c
            elif coeff != c:
                return None
    return coeff if coeff is not None else ZERO


def total_symbol(config: NullConfig):
    """``Evaluator.total`` of the shared evaluator of ``config``."""
    return shared_evaluator(config).total()
