"""Multilinear expansion forms of the reduced curvature operator.

A FormalTensorPoly is a sum of index monomials in abstract wave slots.  Each
monomial has a rational coefficient, wave factors carrying two lower tensor
indices plus derivative indices, and explicit inverse-metric pairs h^{ab}.
Abstract index names appearing twice are summed; the designated free names
stay open.  This is just enough structure to expand the inverse metric, the
Christoffel contraction and the reduced curvature tensor around a constant
background, split the result into quasilinear (P) and two-derivative
semilinear (Hhat) families, and evaluate principal symbols.

Sign bookkeeping: every derivative contributes one factor of the imaginary
unit at symbol level.  Evaluation returns the real matrix together with the
accumulated power of i; retained interaction terms always carry even powers,
which evaluation folds as i^(2m) = (-1)^m.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import RhoRational, ZERO
from .tensor import CoVec4, MINKOWSKI, Metric4, Sym2T, pairing

FREE_PAIR = ("mu", "nu")


@dataclass(frozen=True)
class Factor:
    """One wave-slot occurrence: u^(slot)_{idx[0] idx[1]} with derivatives."""

    slot: int
    idx: tuple
    derivs: tuple = ()


@dataclass(frozen=True)
class Monomial:
    """coeff * product of factors * product of explicit h^{ab} pairs."""

    coeff: Fraction
    factors: tuple
    hinv: tuple = ()

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


def _check_monomial(m: Monomial, free, arity):
    counts = {}
    for n in m.names():
        counts[n] = counts.get(n, 0) + 1
    for n in free:
        if counts.pop(n, 0) > 1:
            raise FormError(f"free index {n} repeated in {m}")
    for n, c in counts.items():
        if c != 2:
            raise FormError(f"index {n} appears {c} times in {m}")
    slots = sorted(f.slot for f in m.factors)
    if slots != list(range(1, arity + 1)):
        raise FormError(f"slots {slots} do not cover 1..{arity}")


def _canonical_monomial(m: Monomial, free) -> tuple:
    """Lexicographically minimal renaming-invariant form of a monomial.

    Factors are ordered by slot.  Candidates range over the symmetric-index
    flip of each factor and the orderings of each factor's derivative
    indices; contracted names are renamed in first-walk order, h pairs are
    then sorted.  The minimum over candidates is the canonical tuple.
    """
    factors = sorted(m.factors, key=lambda f: f.slot)
    free_set = set(free)
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
            if n in free_set:
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
    """Canonicalized sum of monomials with fixed free indices and arity."""

    __slots__ = ("monomials", "free", "arity")

    def __init__(self, monomials, free=FREE_PAIR, arity=None):
        monomials = tuple(monomials)
        if arity is None:
            arity = max((f.slot for m in monomials for f in m.factors),
                        default=0)
        for m in monomials:
            _check_monomial(m, free, arity)
        merged = {}
        for m in monomials:
            key = _canonical_monomial(m, free)
            if key in merged:
                old, _ = merged[key]
                merged[key] = (old + m.coeff, merged[key][1])
            else:
                merged[key] = (m.coeff, m)
        canon = []
        for key in sorted(merged):
            coeff, _ = merged[key]
            if coeff == 0:
                continue
            fac_rep, h_rep = key
            canon.append(Monomial(
                coeff,
                tuple(Factor(s, idx, ds) for s, idx, ds in fac_rep),
                tuple(tuple(p) for p in h_rep)))
        object.__setattr__(self, "monomials", tuple(canon))
        object.__setattr__(self, "free", tuple(free))
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("FormalTensorPoly is immutable")

    def scale(self, c: Fraction) -> "FormalTensorPoly":
        c = Fraction(c)
        return FormalTensorPoly(
            (Monomial(m.coeff * c, m.factors, m.hinv) for m in self.monomials),
            free=self.free, arity=self.arity)

    def __add__(self, other: "FormalTensorPoly") -> "FormalTensorPoly":
        if self.free != other.free or self.arity != other.arity:
            raise FormError("cannot add forms with different shape")
        return FormalTensorPoly(self.monomials + other.monomials,
                                free=self.free, arity=self.arity)

    def __eq__(self, other):
        return (isinstance(other, FormalTensorPoly)
                and self.free == other.free
                and self.arity == other.arity
                and self.monomials == other.monomials)

    def __hash__(self):
        return hash((self.free, self.arity, self.monomials))

    def derivative_counts(self):
        return sorted({m.derivative_count() for m in self.monomials})

    def contraction_count(self):
        """Number of inverse-metric pairs, uniform across monomials."""
        counts = {len(m.hinv) for m in self.monomials}
        if len(counts) != 1:
            raise FormError(f"mixed contraction counts {counts}")
        return counts.pop()

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


def metric_inverse_series(order: int):
    """Terms of the inverse-metric expansion, as forms with free upper (a,b).

    Entry k of the returned list is the homogeneity-k term
    (-1)^k (h u)^k h of the expansion of (h + u)^{-1}.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    out = []
    for k in range(order + 1):
        names = _Names()
        factors, hinv, sign = _chain(list(range(1, k + 1)), "a", "b", names)
        out.append(FormalTensorPoly(
            [Monomial(Fraction(sign), factors, hinv)],
            free=("a", "b"), arity=k))
    return out


def _g_variants(slot: int, lam: str, alpha: str, beta: str, names: _Names):
    """The three one-derivative pieces of the Christoffel contraction.

    G_{lam alpha beta}(u) = 1/2 (d_beta u_{lam alpha} + d_alpha u_{lam beta}
    - d_lam u_{alpha beta}); yields (coeff, Factor).
    """
    half = Fraction(1, 2)
    yield half, Factor(slot, (lam, alpha), (beta,))
    yield half, Factor(slot, (lam, beta), (alpha,))
    yield -half, Factor(slot, (alpha, beta), (lam,))


def christoffel_form() -> FormalTensorPoly:
    """The one-derivative form G_{lam alpha beta}(u) with three free indices."""
    names = _Names()
    monos = [Monomial(c, (f,)) for c, f in
             _g_variants(1, "lam", "alpha", "beta", names)]
    return FormalTensorPoly(monos, free=("lam", "alpha", "beta"), arity=1)


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
    names_global = itertools.count(1)

    def result():
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
                for cg1, fg1 in _g_variants(g1_slot, "s", "mu", "b", names):
                    for cg2, fg2 in _g_variants(g2_slot, "g", "nu", "a", names):
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
                    for cg, fg in _g_variants(g_slot, nu, "a", "b", names):
                        add(Fraction(sm * sg1 * sg2, 2) * cg,
                            c1f + c2f + (fg, du), c1h + c2h)

        return monos

    return result()


def reduced_ricci_expansion(k: int):
    """Homogeneity-k part of the reduced curvature expansion.

    Returns a dict with the quasilinear part (two derivatives on one slot),
    the two-derivative semilinear part, and the count of discarded
    sub-two-derivative monomials (zero in this constant-background frame).
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
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
    return {
        "quasilinear": FormalTensorPoly(quasi, arity=k) if quasi else None,
        "semilinear": FormalTensorPoly(semi, arity=k) if semi else None,
        "discarded_count": discarded,
    }


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
    names = _Names()
    for c1, f1 in _g_variants(1, "l", "mu", "b", names):
        for c2, f2 in _g_variants(2, "g", "nu", "a", names):
            monos.append(Monomial(Fraction(2) * c1 * c2, (f1, f2),
                                  (("a", "b"), ("l", "g"))))
    for mu, nu in (FREE_PAIR, (FREE_PAIR[1], FREE_PAIR[0])):
        for c1, f1 in _g_variants(1, nu, "a", "b", names):
            du = Factor(2, ("q", "d"), (mu,))
            monos.append(Monomial(c1, (f1, du), (("a", "q"), ("b", "d"))))
    return FormalTensorPoly(monos, arity=2)


# ---------------------------------------------------------------------------
# Symbol evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotValue:
    """Symbol data bound to a slot.

    ``outer`` is an optional decomposition of the matrix as a sum of scaled
    outer products, tuple of (coeff, left CoVec4, right CoVec4); evaluation
    uses it to collapse index sums into metric pairings.
    """

    matrix: Sym2T
    covector: CoVec4
    outer: tuple = None

    @staticmethod
    def wave(zeta: CoVec4) -> "SlotValue":
        from .tensor import rank_one
        return SlotValue(rank_one(zeta), zeta,
                         outer=((RhoRational.const(1), zeta, zeta),))

    def ensure_outer(self) -> tuple:
        """Decomposition, falling back to the sparse entry basis."""
        if self.outer is not None:
            return self.outer
        one = RhoRational.const(1)
        basis = []
        for i in range(4):
            e = [ZERO] * 4
            e[i] = one
            basis.append(CoVec4(e))
        out = []
        m = self.matrix
        for i in range(4):
            for j in range(4):
                x = m[i][j]
                if not x.is_zero():
                    out.append((x, basis[i], basis[j]))
        return tuple(out)


def merge_outer(terms) -> tuple:
    """Combine outer-product terms sharing the same vector pair."""
    acc = {}
    for c, left, right in terms:
        if c.is_zero():
            continue
        key = (left, right)
        if key in acc:
            acc[key] = acc[key] + c
        else:
            acc[key] = c
    return tuple((c, l, r) for (l, r), c in acc.items() if not c.is_zero())


def matrix_of_outer(terms) -> tuple:
    rows = [[ZERO] * 4 for _ in range(4)]
    for c, left, right in terms:
        for i in range(4):
            a = left[i]
            if a.is_zero():
                continue
            ca = c * a
            for j in range(4):
                b = right[j]
                if b.is_zero():
                    continue
                rows[i][j] = rows[i][j] + ca * b
    return tuple(tuple(r) for r in rows)


class MissingSlotError(FormError):
    pass


def _prepare_slots(form: FormalTensorPoly, assignment):
    if form.free != FREE_PAIR:
        raise FormError("symbol evaluation needs free indices (mu, nu)")
    slots = dict(assignment)
    for s in range(1, form.arity + 1):
        if s not in slots:
            raise MissingSlotError(f"no symbol bound to slot {s}")
    dcounts = form.derivative_counts()
    i_power = dcounts[0] if dcounts else 0
    if len(dcounts) > 1:
        raise FormError(f"mixed derivative counts {dcounts}")
    return slots, i_power


def symbol_outer_of_form(form: FormalTensorPoly, assignment,
                         metric: Metric4 = MINKOWSKI):
    """Evaluate a form to an outer-product decomposition; (terms, i_power).

    Slot matrices are expanded into their outer decompositions; every
    metric pair then collapses to a pairing of two vectors, so a monomial
    contributes scalar * (mu-vector) (x) (nu-vector) per decomposition
    choice.  The i factors of the derivatives are excluded from the value
    and reported as the power.
    """
    slots, i_power = _prepare_slots(form, assignment)
    out = []
    cache = {}
    for mono in form.monomials:
        out.extend(_outer_of_monomial(mono, slots, metric, cache))
    return merge_outer(out), i_power


def symbol_of_form(form: FormalTensorPoly, assignment,
                   metric: Metric4 = MINKOWSKI, method: str = "outer"):
    """Evaluate a form on slot symbols; returns (rows, i_power).

    Each slot's tensor is replaced by its symbol matrix and each derivative
    by the slot's covector component (one factor of i per derivative; the
    returned matrix excludes the i's, whose total power is reported).
    ``rows`` is a plain 4x4 tuple matrix: a single slot-ordered monomial need
    not be symmetric, only permutation-summed combinations are.

    ``method`` chooses the decomposition route ("outer", default) or the
    brute-force index-assignment route ("assign", used for cross-checks).
    """
    if method == "outer":
        terms, i_power = symbol_outer_of_form(form, assignment, metric)
        return matrix_of_outer(terms), i_power
    slots, i_power = _prepare_slots(form, assignment)
    rows = [[ZERO] * 4 for _ in range(4)]
    for mono in form.monomials:
        _accumulate_assignments(rows, mono, slots, metric)
    return tuple(tuple(r) for r in rows), i_power


def _positions_of(mono: Monomial):
    positions = {}  # name -> list of ('t', factor_index, 0|1) or ('d', factor_index)
    for fi, f in enumerate(mono.factors):
        positions.setdefault(f.idx[0], []).append(("t", fi, 0))
        positions.setdefault(f.idx[1], []).append(("t", fi, 1))
        for d in f.derivs:
            positions.setdefault(d, []).append(("d", fi))
    return positions


def _outer_of_monomial(mono: Monomial, slots, metric: Metric4, cache):
    """Outer-product terms contributed by one monomial."""
    positions = _positions_of(mono)
    for name, refs in positions.items():
        if name in FREE_PAIR:
            if len(refs) != 1:
                raise FormError(f"free index {name} repeated")
        elif len(refs) != 1:
            raise FormError(
                f"contraction {name} not mediated by a metric pair")
    if "mu" not in positions or "nu" not in positions:
        raise FormError("every monomial must carry both free indices")

    factors = mono.factors
    decomps = [slots[f.slot].ensure_outer() for f in factors]
    covs = [slots[f.slot].covector for f in factors]
    base = RhoRational.const(mono.coeff)
    out = []

    def pair_cached(u: CoVec4, v: CoVec4):
        key = (id(u), id(v))
        hit = cache.get(key)
        if hit is None:
            hit = pairing(metric, u, v)
            cache[key] = hit
        return hit

    for choice in itertools.product(*decomps):
        scalar = base
        for c, _, _ in choice:
            scalar = scalar * c
        if scalar.is_zero():
            continue

        def vec_at(ref):
            kind, fi, *rest = ref
            if kind == "d":
                return covs[fi]
            _, left, right = choice[fi]
            return left if rest[0] == 0 else right

        zero = False
        for a, b in mono.hinv:
            va = vec_at(positions[a][0])
            vb = vec_at(positions[b][0])
            p = pair_cached(va, vb)
            if p.is_zero():
                zero = True
                break
            scalar = scalar * p
        if zero:
            continue
        vmu = vec_at(positions["mu"][0])
        vnu = vec_at(positions["nu"][0])
        out.append((scalar, vmu, vnu))
    return out


def _accumulate_assignments(rows, mono: Monomial, slots, metric: Metric4):
    """Brute-force evaluation summing over concrete index assignments."""
    positions = _positions_of(mono)
    inv = metric.inv
    diag = metric.is_diagonal()
    base = Fraction(mono.coeff)
    name_list = sorted(positions.keys() - set(FREE_PAIR))

    for mu_val in range(4):
        for nu_val in range(4):
            fixed = {"mu": mu_val, "nu": nu_val}
            total = _sum_assignments(mono, slots, inv, diag, fixed, name_list)
            if total is None or total.is_zero():
                continue
            rows[mu_val][nu_val] = (rows[mu_val][nu_val]
                                    + total * RhoRational.const(base))


def _sum_assignments(mono, slots, inv, diag, fixed, names):
    """Sum over concrete values of contraction names with early pruning."""
    total = ZERO

    def factor_value(assign):
        value = None
        for f in mono.factors:
            sv = slots[f.slot]
            i0 = assign[f.idx[0]] if f.idx[0] in assign else fixed[f.idx[0]]
            i1 = assign[f.idx[1]] if f.idx[1] in assign else fixed[f.idx[1]]
            x = sv.matrix[i0][i1]
            if x.is_zero():
                return None
            value = x if value is None else value * x
            for d in f.derivs:
                dv = assign[d] if d in assign else fixed[d]
                c = sv.covector[dv]
                if c.is_zero():
                    return None
                value = value * c
        for a, b in mono.hinv:
            av = assign[a] if a in assign else fixed[a]
            bv = assign[b] if b in assign else fixed[b]
            g = inv[av][bv]
            if g.is_zero():
                return None
            value = g if value is None else value * g
        return value

    # With a diagonal metric each h pair forces equal indices; exploit it by
    # assigning pair names jointly.
    pair_of = {}
    for a, b in mono.hinv:
        pair_of[a] = b
        pair_of[b] = a
    groups = []
    seen = set()
    for n in names:
        if n in seen:
            continue
        partner = pair_of.get(n)
        if diag and partner in names and partner not in seen and partner != n:
            groups.append((n, partner))
            seen.add(n)
            seen.add(partner)
        else:
            groups.append((n,))
            seen.add(n)

    def rec(idx, assign):
        nonlocal total
        if idx == len(groups):
            v = factor_value(assign)
            if v is not None and not v.is_zero():
                total = total + v
            return
        g = groups[idx]
        for val in range(4):
            for n in g:
                assign[n] = val
            rec(idx + 1, assign)
        for n in g:
            del assign[n]

    rec(0, {})
    return total


def entry_order_bound(form: FormalTensorPoly, slot_info) -> float:
    """Upper bound on the evaluated symbol's max entry degree.

    ``slot_info`` maps slot -> (matrix_degree_bound, covector_degree_bound).
    The bound is the max over monomials of the summed factor bounds; index
    sums and metric pairs never raise the degree beyond it.
    """
    best = None
    for mono in form.monomials:
        total = 0
        for f in mono.factors:
            mdeg, cdeg = slot_info[f.slot]
            total = total + mdeg + len(f.derivs) * cdeg
        best = total if best is None else max(best, total)
    return best
