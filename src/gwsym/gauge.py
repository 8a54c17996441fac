"""Symbol-level gauge and conservation constraints.

Linear constraint residuals on symmetric-tensor symbols (``tensor``'s 4x4
row tuples, read as ``a[i][j]``), and exact solution space dimensions
computed by Gauss-Jordan rank over the rational-function field (so the
answers are uniform in large rho).
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .exact import RhoRational, ZERO
from .tensor import (CoVec4, Metric4, Sym2T, contract_first, rank,
                     raise_index)


class ConstraintKind(Enum):
    HarmonicGauge = "harmonic-gauge"
    ConservationLaw = "conservation-law"
    MaxwellConservation = "maxwell-conservation"


def conservation_residual(metric: Metric4, eta: CoVec4, a: Sym2T) -> CoVec4:
    """residual_j = m^{pk} eta_p A_{kj}; zero iff A satisfies the law."""
    return CoVec4(contract_first(raise_index(metric, eta), a))


def harmonic_gauge_residual(metric: Metric4, xi: CoVec4, a: Sym2T) -> CoVec4:
    """residual_mu = -m^{ab} xi_a A_{b mu} + (1/2) m^{ab} xi_mu A_{ab}."""
    first = conservation_residual(metric, xi, a)
    inv = metric.inv
    trace = ZERO
    for p in range(4):
        for q in range(4):
            if inv[p][q].is_zero() or a[p][q].is_zero():
                continue
            trace = trace + inv[p][q] * a[p][q]
    half = RhoRational.const(Fraction(1, 2))
    return CoVec4(tuple(-first[mu] + half * xi[mu] * trace for mu in range(4)))


# ---------------------------------------------------------------------------
# Solution space dimensions
# ---------------------------------------------------------------------------

_SYM_BASIS = [(i, j) for i in range(4) for j in range(i, 4)]


def _sym_basis_tensor(i: int, j: int) -> Sym2T:
    one = RhoRational.const(1)
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[i][j] = one
    rows[j][i] = one
    return Sym2T(rows)


def _constraint_matrix(kind: ConstraintKind, metric: Metric4, cov: CoVec4):
    """Rows = constraint components, columns = fiber basis elements."""
    if kind is ConstraintKind.MaxwellConservation:
        return [[cov[a] for a in range(4)]], 4
    residual = (harmonic_gauge_residual if kind is ConstraintKind.HarmonicGauge
                else conservation_residual)
    cols = []
    for i, j in _SYM_BASIS:
        r = residual(metric, cov, _sym_basis_tensor(i, j))
        cols.append([r[mu] for mu in range(4)])
    return [[cols[c][r] for c in range(len(_SYM_BASIS))] for r in range(4)], \
        len(_SYM_BASIS)


DimensionResult = namedtuple("DimensionResult",
                             "dimension fiber_dimension rank degenerate")


def constraint_space_dim(kind: ConstraintKind, metric: Metric4,
                         cov: CoVec4) -> DimensionResult:
    """Dimension of the constraint's null space on its fiber.

    Fiber is the 10-dimensional space of symmetric 2-tensors, except for the
    Maxwell current law whose fiber is 4-dimensional.  A zero covector gives
    no constraint at all; that case is returned with the degeneracy flag set.
    """
    if cov.is_zero():
        fiber = 4 if kind is ConstraintKind.MaxwellConservation else 10
        return DimensionResult(dimension=fiber, fiber_dimension=fiber,
                               rank=0, degenerate=True)
    matrix, fiber = _constraint_matrix(kind, metric, cov)
    r = rank(matrix)
    return DimensionResult(dimension=fiber - r, fiber_dimension=fiber,
                           rank=r, degenerate=False)
