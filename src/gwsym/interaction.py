"""Term trees for the four-wave interaction and their exact symbol values.

Terms are trees of wave leaves, causal-inverse nodes and coefficient-form
nodes.  Evaluation is exact over the rational-function field; one factor of
the imaginary unit per derivative is tracked and folded as i^(2m) = (-1)^m,
so matrices are real and the accumulated i-power is reported for auditing.
An overall (2*pi)^-3 is factored out of every complete four-wave term.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .exact import NEG_INF, RhoRational, ZERO
from .forms import (SlotValue, build_form_family, entry_order_bound,
                    matrix_of_outer, merge_outer, symbol_outer_of_form)
from .nullcone import NullConfig
from .tensor import CoVec4, Metric4, Sym2T, norm_sq, rank_one

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    wave: int


@dataclass(frozen=True)
class QNode:
    child: object


@dataclass(frozen=True)
class FormNode:
    form: tuple  # ('P'|'Hhat', k)
    children: tuple


class CharacteristicDenominatorError(ArithmeticError):
    """A causal-inverse node was applied across a light-like total covector."""

    def __init__(self, waves):
        self.waves = tuple(sorted(waves))
        super().__init__(
            f"covector sum over waves {self.waves} is characteristic")


def leaves_of(ast) -> tuple:
    if isinstance(ast, Leaf):
        return (ast.wave,)
    if isinstance(ast, QNode):
        return leaves_of(ast.child)
    return tuple(itertools.chain.from_iterable(
        leaves_of(c) for c in ast.children))


# ---------------------------------------------------------------------------
# Matrices: plain 4x4 tuples of RhoRational (not necessarily symmetric)
# ---------------------------------------------------------------------------

ZERO_MAT = tuple((ZERO,) * 4 for _ in range(4))


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


@dataclass(frozen=True)
class SymbolValue:
    """Evaluated term: total covector, folded i-power, real matrix.

    ``outer`` is the value's outer-product decomposition, carried so nested
    evaluation can keep collapsing index contractions into pairings.  The
    4x4 ``matrix`` is built from it on first access only: inner nodes and
    summed terms need only the decomposition.
    """

    covector: CoVec4
    i_power: int
    leaves: tuple
    outer: tuple

    @cached_property
    def matrix(self) -> tuple:
        return matrix_of_outer(self.outer)

    @property
    def prefactor_2pi(self) -> int:
        """Power of (2*pi)^-3 units carried; one per complete 4-wave term."""
        return 1 if len(self.leaves) == 4 else 0

    def entry_order(self):
        return mat_max_degree(self.matrix)

    def scale(self, s) -> "SymbolValue":
        return SymbolValue(self.covector, self.i_power, self.leaves,
                           tuple((c * s, l, r) for c, l, r in self.outer))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_FORM_FAMILY = None


def form_family():
    global _FORM_FAMILY
    if _FORM_FAMILY is None:
        _FORM_FAMILY = build_form_family()
    return _FORM_FAMILY


class Evaluator:
    """Caching exact evaluator for one configuration and metric."""

    def __init__(self, config: NullConfig, metric: Metric4 = None,
                 leaf_symbols: dict = None):
        self.config = config
        self.metric = metric if metric is not None else config.metric
        overrides = dict(leaf_symbols or {})
        self.slots = {}
        for i in range(1, 5):
            if i in overrides:
                self.slots[i] = overrides[i]
            else:
                self.slots[i] = SlotValue.wave(config.zeta(i))
        self.cache = {}
        #: ``total_symbol`` of the configuration, once computed
        self.total = None

    def eval(self, ast) -> SymbolValue:
        hit = self.cache.get(ast)
        if hit is not None:
            return hit
        value = self._eval(ast)
        self.cache[ast] = value
        return value

    def _eval(self, ast) -> SymbolValue:
        if isinstance(ast, Leaf):
            sv = self.slots[ast.wave]
            return SymbolValue(sv.covector, 0, (ast.wave,), sv.ensure_outer())
        if isinstance(ast, QNode):
            child = self.eval(ast.child)
            n = norm_sq(self.metric, child.covector)
            if n.is_zero():
                raise CharacteristicDenominatorError(child.leaves)
            return child.scale(RhoRational.const(1) / n)
        if isinstance(ast, FormNode):
            children = [self.eval(c) for c in ast.children]
            # the outer route reads only the decomposition, not the matrix
            assignment = {
                slot: SlotValue(matrix=None, covector=c.covector,
                                outer=c.outer)
                for slot, c in enumerate(children, start=1)}
            form = form_family()[ast.form]
            outer, node_power = symbol_outer_of_form(form, assignment,
                                                     self.metric)
            if node_power % 2:
                raise ArithmeticError("odd derivative count in a retained form")
            if (node_power // 2) % 2:
                minus = RhoRational.const(-1)
                outer = tuple((minus * c, l, r) for c, l, r in outer)
            cov = children[0].covector
            for c in children[1:]:
                cov = cov + c.covector
            i_power = sum(c.i_power for c in children) + node_power
            leaves = tuple(itertools.chain.from_iterable(
                c.leaves for c in children))
            return SymbolValue(cov, i_power, leaves, outer)
        raise TypeError(f"not a term node: {ast!r}")


def eval_term(ast, config: NullConfig, metric: Metric4 = None,
              leaf_symbols: dict = None) -> SymbolValue:
    """Evaluate one term tree on a configuration (convenience wrapper)."""
    if metric is None and leaf_symbols is None:
        return shared_evaluator(config).eval(ast)
    return Evaluator(config, metric=metric, leaf_symbols=leaf_symbols).eval(ast)


_EVALUATORS = {}


def shared_evaluator(config: NullConfig) -> Evaluator:
    """Process-wide evaluator cache (terms are shared across analyses)."""
    ev = _EVALUATORS.get(config)
    if ev is None:
        ev = Evaluator(config)
        _EVALUATORS[config] = ev
    return ev


# ---------------------------------------------------------------------------
# Enumeration of the interaction terms
# ---------------------------------------------------------------------------

_PERMS = tuple(itertools.permutations((1, 2, 3, 4)))

#: interaction class -> sign of its permutation sum
CLASS_SIGNS = {1: -1, 2: 1, 3: 1, 4: -1, 5: -1}


def _shape_builders(hclass: int):
    """Shape templates: callables (perm, форм-choices) -> AST.

    Each returns the nested tree with G-placeholders instantiated by the
    given concrete forms, in preorder.
    """
    L = Leaf
    if hclass == 1:
        return (
            lambda p, f: FormNode(f[0], (L(p[0]), L(p[1]), L(p[2]), L(p[3]))),
        )
    if hclass == 2:
        return (
            lambda p, f: FormNode(f[0], (L(p[0]), L(p[1]),
                                         QNode(FormNode(f[1], (L(p[2]), L(p[3])))))),
            lambda p, f: FormNode(f[0], (L(p[0]),
                                         QNode(FormNode(f[1], (L(p[1]), L(p[2])))),
                                         L(p[3]))),
            lambda p, f: FormNode(f[0], (QNode(FormNode(f[1], (L(p[0]), L(p[1])))),
                                         L(p[2]), L(p[3]))),
        )
    if hclass == 3:
        return (
            lambda p, f: FormNode(f[0], (QNode(FormNode(f[1], (L(p[0]), L(p[1]), L(p[2])))),
                                         L(p[3]))),
            lambda p, f: FormNode(f[0], (L(p[0]),
                                         QNode(FormNode(f[1], (L(p[1]), L(p[2]), L(p[3])))))),
        )
    if hclass == 4:
        return (
            lambda p, f: FormNode(f[0], (QNode(FormNode(f[1], (L(p[0]), L(p[1])))),
                                         QNode(FormNode(f[2], (L(p[2]), L(p[3])))))),
        )
    if hclass == 5:
        return (
            lambda p, f: FormNode(f[0], (L(p[0]),
                                         QNode(FormNode(f[1], (L(p[1]),
                                                               QNode(FormNode(f[2], (L(p[2]), L(p[3]))))))))),
            lambda p, f: FormNode(f[0], (L(p[0]),
                                         QNode(FormNode(f[1], (QNode(FormNode(f[2], (L(p[1]), L(p[2])))),
                                                               L(p[3])))))),
            lambda p, f: FormNode(f[0], (QNode(FormNode(f[1], (L(p[0]),
                                                               QNode(FormNode(f[2], (L(p[1]), L(p[2]))))))),
                                         L(p[3]))),
            lambda p, f: FormNode(f[0], (QNode(FormNode(f[1], (QNode(FormNode(f[2], (L(p[0]), L(p[1])))),
                                                               L(p[2])))),
                                         L(p[3]))),
        )
    raise ValueError(f"interaction class must be 1..5, got {hclass}")


_ARITIES = {1: (4,), 2: (3, 2), 3: (2, 3), 4: (2, 2, 2), 5: (2, 2, 2)}


@dataclass(frozen=True)
class SignedTerm:
    """One concrete interaction term with its sign and provenance."""

    sign: int
    ast: object
    hclass: int
    shape: int
    perm: tuple
    forms: tuple


def enumerate_shapes(hclass: int):
    """Shape instances (before choosing P vs Hhat for each node)."""
    out = []
    for shape_idx, _ in enumerate(_shape_builders(hclass)):
        for perm in _PERMS:
            out.append((hclass, shape_idx, perm))
    return out


def enumerate_H(hclass: int):
    """All concrete signed terms of one interaction class.

    Every permutation of the four waves is instantiated for every shape,
    and every coefficient node is expanded into its quasilinear (P) and
    two-derivative semilinear (Hhat) variants.
    """
    builders = _shape_builders(hclass)
    arities = _ARITIES[hclass]
    sign = CLASS_SIGNS[hclass]
    out = []
    for shape_idx, build in enumerate(builders):
        form_options = [(("P", a), ("Hhat", a)) for a in arities]
        for perm in _PERMS:
            for forms in itertools.product(*form_options):
                out.append(SignedTerm(sign=sign, ast=build(perm, forms),
                                      hclass=hclass, shape=shape_idx,
                                      perm=perm, forms=forms))
    return out


def enumerate_all():
    out = []
    for hclass in range(1, 6):
        out.extend(enumerate_H(hclass))
    return out


# ---------------------------------------------------------------------------
# Entry-order prediction (degree bound, attained absent cancellation)
# ---------------------------------------------------------------------------

def predict_entry_order(ast, config: NullConfig):
    """Compositional upper bound on the evaluated term's max entry degree."""
    metric = config.metric

    def cov_degree(cov: CoVec4):
        return max(x.infinity_degree for x in cov)

    def walk(node):
        if isinstance(node, Leaf):
            sv = SlotValue.wave(config.zeta(node.wave))
            return (mat_max_degree(mat_of(sv.matrix)), sv.covector)
        if isinstance(node, QNode):
            mdeg, cov = walk(node.child)
            n = norm_sq(metric, cov)
            if n.is_zero():
                raise CharacteristicDenominatorError(leaves_of(node.child))
            return (mdeg - n.infinity_degree, cov)
        kind, k = node.form
        infos = [walk(c) for c in node.children]
        cov = infos[0][1]
        for _, c in infos[1:]:
            cov = cov + c
        slot_info = {slot: (mdeg, cov_degree(c))
                     for slot, (mdeg, c) in enumerate(infos, start=1)}
        form = form_family()[node.form]
        return (entry_order_bound(form, slot_info), cov)

    bound, _cov = walk(ast)
    return bound


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
    """Exhaustive scan: group the top-order terms into the eight families.

    Returns a dict with the families (lists of (SignedTerm, SymbolValue)),
    the verified maximal orders, and the certification that no term outside
    the families reaches the top entry order.
    """
    ev = shared_evaluator(config)
    keys = _family_keys()
    key_to_family = {}
    for n, members in keys.items():
        for key in members:
            key_to_family[key] = n
    families = {n: [] for n in keys}
    outside_max = NEG_INF
    outside_at_40 = []
    for term in enumerate_all():
        value = ev.eval(term.ast)
        order = value.entry_order()
        key = (term.hclass, term.shape, term.perm, term.forms)
        fam = key_to_family.get(key)
        if fam is not None:
            families[fam].append((term, value, order))
        else:
            if order >= 40:
                outside_at_40.append((term, order))
            if order > outside_max:
                outside_max = order
    return {
        "families": families,
        "outside_max_order": outside_max,
        "outside_at_top": outside_at_40,
    }


def _sum_terms(ev: Evaluator, members) -> tuple:
    """Exact signed sum of terms, added in the outer-product basis.

    The signed ``outer`` triples of all members are grouped by their
    (left, right) covector pair and their coefficients added (term signs
    are +1 or -1), so the 4x4 matrix is built once for the whole sum
    rather than once per term.
    """
    signed = []
    for term in members:
        outer = ev.eval(term.ast).outer
        if term.sign == 1:
            signed.extend(outer)
        else:
            signed.extend((-c, l, r) for c, l, r in outer)
    return matrix_of_outer(merge_outer(signed))


def _terms_for_keys(keys):
    index = {}
    for term in enumerate_all():
        index[(term.hclass, term.shape, term.perm, term.forms)] = term
    return [index[k] for k in keys]


def item_value(n: int, config: NullConfig):
    """Exact signed sum of one top-order family (1..8).

    For family 6 the result carries the two sub-family sums as well (inner
    pair (3,4) versus outer wave 3).
    """
    if not 1 <= n <= 8:
        raise ValueError("item number must be 1..8")
    ev = shared_evaluator(config)
    keys = _family_keys()[n]
    terms = _terms_for_keys(keys)
    total = _sum_terms(ev, terms)
    result = {"matrix": total, "members": terms}
    if n == 6:
        k3 = [t for t in terms if t.perm[0] != 3]
        i3 = [t for t in terms if t.perm[0] == 3]
        result["subcase_inner34"] = _sum_terms(ev, k3)
        result["subcase_outer3"] = _sum_terms(ev, i3)
    if n == 3 or n == 8:
        p_part = [t for t in terms if all(f[0] == "P" for f in t.forms)]
        h_part = [t for t in terms if any(f[0] == "Hhat" for f in t.forms)]
        result["p_part"] = _sum_terms(ev, p_part)
        result["hhat_part"] = _sum_terms(ev, h_part)
    return result


def eval_I_cancellation(config: NullConfig):
    """The six nested-chain permutation terms and their exact sum.

    Values are the raw (unsigned) term symbols; within the full interaction
    they enter with an overall minus.  Each term is a multiple of the
    polarization of wave 4; the per-term coefficients and the cancelling
    exact sum are returned.
    """
    ev = shared_evaluator(config)
    order = []
    for a, b, c in itertools.permutations((1, 2, 3)):
        ast = FormNode(("P", 2), (Leaf(a), QNode(
            FormNode(("P", 2), (Leaf(b), QNode(
                FormNode(("P", 2), (Leaf(c), Leaf(4)))))))))
        order.append(((a, b, c), ev.eval(ast)))
    a4 = mat_of(rank_one(config.zeta(4)))
    coeffs = {}
    total = ZERO_MAT
    for key, value in order:
        coeffs[key] = _coefficient_of(value.matrix, a4)
        total = mat_add(total, value.matrix)
    total_coeff = _coefficient_of(total, a4)
    return {
        "terms": dict(order),
        "coefficients": coeffs,
        "sum_matrix": total,
        "sum_coefficient": total_coeff,
        "sum_entry_order": mat_max_degree(total),
    }


def _coefficient_of(matrix, direction):
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
    """Exact sum of every enumerated interaction term.

    Also compares the result against the two candidate closed leading forms
    built from the wave-1/wave-2 against wave-4 outer products:
    (3/8) rho^30 (A14 - A24) and (3/8) rho^30 (A14 + A24), up to sign.
    The comparison uses the standard configuration's entry order 40.

    The result is computed once per configuration and kept on its shared
    evaluator; callers must not modify it.
    """
    ev = shared_evaluator(config)
    if ev.total is not None:
        return ev.total
    total = ZERO_MAT
    per_class = {}
    for hclass in range(1, 6):
        sub = _sum_terms(ev, enumerate_H(hclass))
        per_class[hclass] = sub
        total = mat_add(total, sub)
    from .tensor import sym_outer
    z1, z2, z4 = config.zeta(1), config.zeta(2), config.zeta(4)
    a14 = mat_of(sym_outer(z1, z4))
    a24 = mat_of(sym_outer(z2, z4))
    r30 = RhoRational.rho_power(30)
    c = RhoRational.const(3) / RhoRational.const(8)
    candidates = {
        "difference-form": mat_scale(mat_sub(a14, a24), c * r30),
        "sum-form": mat_scale(mat_add(a14, a24), c * r30),
    }
    matches = {}
    for name, cand in candidates.items():
        for sign, tag in ((1, "+"), (-1, "-")):
            diff = mat_sub(total, mat_scale(
                cand, RhoRational.const(sign)))
            matches[f"{tag}{name}"] = mat_max_degree(diff) < 40
    ev.total = {
        "matrix": total,
        "per_class": per_class,
        "entry_order": mat_max_degree(total),
        "leading_form_matches": matches,
    }
    return ev.total
