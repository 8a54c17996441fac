"""Covectors, symmetric 2-tensors and metric contractions in dimension 4.

Everything is exact over the rational-function field in rho.  Index raising
and lowering is always explicit through a Metric4; signature is (-,+,+,+).
"""
from __future__ import annotations

from .exact import ONE, ZERO, RhoRational, coerce, format_rho_rational


class CoVec4:
    """Covector with four RhoRational components."""

    __slots__ = ("c", "_hash")

    def __init__(self, components):
        comps = tuple(coerce(x) for x in components)
        if len(comps) != 4:
            raise ValueError("CoVec4 needs exactly 4 components")
        object.__setattr__(self, "c", comps)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CoVec4 is immutable")

    def __getitem__(self, i: int) -> RhoRational:
        return self.c[i]

    def __iter__(self):
        return iter(self.c)

    def __add__(self, other: "CoVec4") -> "CoVec4":
        return CoVec4(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "CoVec4") -> "CoVec4":
        return CoVec4(tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "CoVec4":
        return CoVec4(tuple(-a for a in self.c))

    def scale(self, s) -> "CoVec4":
        s = coerce(s)
        return CoVec4(tuple(s * a for a in self.c))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.c)

    def __eq__(self, other):
        return isinstance(other, CoVec4) and self.c == other.c

    def __hash__(self):
        # covectors key the pairing caches and the outer-product merges
        h = self._hash
        if h is None:
            h = hash(self.c)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "CoVec4(" + ", ".join(repr(a) for a in self.c) + ")"


class Sym2T:
    """Symmetric 4x4 tensor over RhoRational."""

    __slots__ = ("m",)

    def __init__(self, rows):
        rows = tuple(tuple(coerce(x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Sym2T needs a 4x4 matrix")
        for i in range(4):
            for j in range(i + 1, 4):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        object.__setattr__(self, "m", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Sym2T is immutable")

    def __getitem__(self, i: int):
        return self.m[i]

    def __add__(self, other: "Sym2T") -> "Sym2T":
        return Sym2T(tuple(tuple(a + b for a, b in zip(ra, rb))
                           for ra, rb in zip(self.m, other.m)))

    def scale(self, s) -> "Sym2T":
        s = coerce(s)
        return Sym2T(tuple(tuple(s * a for a in row) for row in self.m))

    def __eq__(self, other):
        return isinstance(other, Sym2T) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return "Sym2T(" + repr([[format_rho_rational(x) for x in r]
                                for r in self.m]) + ")"


ZERO_SYM2 = Sym2T(tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))


def _reduce(rows):
    """Gauss-Jordan elimination over the field Q(rho).

    Returns the reduced row echelon form of ``rows`` (RhoRational entries)
    and its pivot columns.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows))
                      if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(matrix) -> int:
    """Rank of a matrix over the field Q(rho): its number of pivots."""
    return len(_reduce(matrix)[1])


class Metric4:
    """Constant symmetric invertible metric with cached exact inverse."""

    __slots__ = ("m", "inv")

    def __init__(self, rows):
        tensor = Sym2T(rows)
        object.__setattr__(self, "m", tensor.m)
        # the inverse is the right half of the reduced [m | I]
        reduced, pivots = _reduce(
            row + tuple(ONE if i == j else ZERO for j in range(4))
            for i, row in enumerate(tensor.m))
        if pivots[:4] != [0, 1, 2, 3]:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "inv",
                           tuple(tuple(row[4:]) for row in reduced))

    def __setattr__(self, name, value):
        raise AttributeError("Metric4 is immutable")

    def __getitem__(self, i: int):
        return self.m[i]

    def scale_conformal(self, factor) -> "Metric4":
        """Metric multiplied by a constant conformal factor."""
        s = coerce(factor)
        return Metric4(tuple(tuple(s * x for x in row) for row in self.m))

    def __eq__(self, other):
        return isinstance(other, Metric4) and self.m == other.m

    def __hash__(self):
        return hash(self.m)


MINKOWSKI = Metric4(((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def pairing(metric: Metric4, zeta: CoVec4, eta: CoVec4) -> RhoRational:
    """Inverse-metric pairing m^{ab} zeta_a eta_b."""
    total = ZERO
    inv = metric.inv
    for a in range(4):
        za = zeta[a]
        if za.is_zero():
            continue
        for b in range(4):
            g = inv[a][b]
            if g.is_zero() or eta[b].is_zero():
                continue
            total = total + g * za * eta[b]
    return total


def norm_sq(metric: Metric4, zeta: CoVec4) -> RhoRational:
    return pairing(metric, zeta, zeta)


def raise_index(metric: Metric4, zeta) -> tuple:
    """The vector m^{ab} zeta_b of a covector (or any 4-sequence)."""
    inv = metric.inv
    out = []
    for a in range(4):
        total = ZERO
        for b in range(4):
            if inv[a][b].is_zero() or zeta[b].is_zero():
                continue
            total = total + inv[a][b] * zeta[b]
        out.append(total)
    return tuple(out)


def contract_first(v, t) -> tuple:
    """The covector v^a t_{ab}: a vector contracted with t's first index."""
    out = []
    for b in range(4):
        total = ZERO
        for a in range(4):
            if v[a].is_zero() or t[a][b].is_zero():
                continue
            total = total + v[a] * t[a][b]
        out.append(total)
    return tuple(out)


def chain_sandwich(metric: Metric4, tensors, xi: CoVec4) -> RhoRational:
    """(m^{-1} S1 m^{-1} ... Sk m^{-1})^{pq} xi_p xi_q for any chain.

    The raised xi is contracted with each S on its first index and raised
    again; the last vector pairs with xi.
    """
    v = raise_index(metric, xi)
    for t in tensors:
        v = raise_index(metric, contract_first(v, t))
    total = ZERO
    for q in range(4):
        if v[q].is_zero() or xi[q].is_zero():
            continue
        total = total + v[q] * xi[q]
    return total


def sym_outer(a: CoVec4, b: CoVec4) -> Sym2T:
    """Symmetrized outer product: a_mu b_nu + a_nu b_mu."""
    return Sym2T(tuple(tuple(a[i] * b[j] + a[j] * b[i] for j in range(4))
                       for i in range(4)))


def rank_one(zeta: CoVec4) -> Sym2T:
    """The tensor zeta_mu zeta_nu (wave polarization of a null covector)."""
    return Sym2T(tuple(tuple(zeta[i] * zeta[j] for j in range(4))
                       for i in range(4)))
