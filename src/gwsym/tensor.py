"""Covectors, symmetric 2-tensors and metric contractions in dimension 4.

Everything is exact over the rational-function field in rho.  Index raising
and lowering is always explicit through a Metric4; signature is (-,+,+,+).
"""
from __future__ import annotations

from .exact import (ONE, ZERO, RhoPoly, RhoRational, coerce,
                    format_rho_rational)


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


def _mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(4)), ZERO)
                       for j in range(4)) for i in range(4))


def _mat_identity():
    return tuple(tuple(ONE if i == j else ZERO for j in range(4))
                 for i in range(4))


def _mat_inverse(m):
    # Gauss-Jordan over the exact field.
    a = [list(row) for row in m]
    inv = [list(row) for row in _mat_identity()]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if not a[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(4):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


def rank(matrix) -> int:
    """Fraction-free (Bareiss) rank of a matrix over the field Q(rho).

    Rows are first cleared to polynomials; rank is invariant under the
    nonzero row scalings.
    """
    cleared = []
    for row in matrix:
        den = RhoPoly.const(1)
        for x in row:
            den = den * x.den
        cleared.append([x.num * (den // x.den) for x in row])
    rows = [r for r in cleared if any(not x.is_zero() for x in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    prev = RhoPoly.const(1)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows))
                      if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            for j in range(c + 1, ncols):
                num = rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]
                rows[i][j] = num // prev
            rows[i][c] = RhoPoly()
        prev = rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


class Metric4:
    """Constant symmetric invertible metric with cached exact inverse."""

    __slots__ = ("m", "inv")

    def __init__(self, rows):
        tensor = Sym2T(rows)
        object.__setattr__(self, "m", tensor.m)
        object.__setattr__(self, "inv", _mat_inverse(tensor.m))

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


def _sandwich_matrix(metric: Metric4, tensors) -> tuple:
    """m^{-1} S1 m^{-1} S2 ... m^{-1} as a plain 4x4 tuple matrix."""
    out = metric.inv
    for t in tensors:
        out = _mat_mul(out, t.m if isinstance(t, Sym2T) else t)
        out = _mat_mul(out, metric.inv)
    return out


def sandwich(metric: Metric4, tensor: Sym2T, xi: CoVec4) -> RhoRational:
    """(m^{-1} S m^{-1})^{pq} xi_p xi_q."""
    return chain_sandwich(metric, [tensor], xi)


def double_sandwich(metric: Metric4, s1: Sym2T, s2: Sym2T,
                    xi: CoVec4) -> RhoRational:
    """(m^{-1} S1 m^{-1} S2 m^{-1})^{pq} xi_p xi_q."""
    return chain_sandwich(metric, [s1, s2], xi)


def chain_sandwich(metric: Metric4, tensors, xi: CoVec4) -> RhoRational:
    """(m^{-1} S1 m^{-1} ... Sk m^{-1})^{pq} xi_p xi_q for any chain."""
    mid = _sandwich_matrix(metric, tensors)
    total = ZERO
    for p in range(4):
        if xi[p].is_zero():
            continue
        for q in range(4):
            if mid[p][q].is_zero() or xi[q].is_zero():
                continue
            total = total + mid[p][q] * xi[p] * xi[q]
    return total


def sym_outer(a: CoVec4, b: CoVec4) -> Sym2T:
    """Symmetrized outer product: a_mu b_nu + a_nu b_mu."""
    return Sym2T(tuple(tuple(a[i] * b[j] + a[j] * b[i] for j in range(4))
                       for i in range(4)))


def rank_one(zeta: CoVec4) -> Sym2T:
    """The tensor zeta_mu zeta_nu (wave polarization of a null covector)."""
    return Sym2T(tuple(tuple(zeta[i] * zeta[j] for j in range(4))
                       for i in range(4)))
