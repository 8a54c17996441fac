"""Null covector configurations and flat-model causal checks.

The four-wave configuration consists of four light-like covectors depending
on the large parameter rho whose sum is again light-like.  Causal relations
are checked in the flat Minkowski model (the tangent-space picture at the
interaction point), with the causal future treated as closed.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import RhoRational
from .tensor import (CoVec4, MINKOWSKI, Metric4, norm_sq, pairing, raise_index,
                     rank)


class ConfigError(ValueError):
    """A covector configuration violates a structural invariant."""


class NullConfig:
    """Four light-like covectors, linearly independent, with light-like sum.

    Under a nonzero multiple of Minkowski no pair or triple sum is then
    null: a null pair sum makes its two covectors proportional, a null
    triple sum is parallel to the fourth covector.  Null sums remain with
    ``validate=False``, other signatures, or a repeated wave: |2 zeta_1|^2 = 0.

    The sums of its covectors over multisets of waves and their squared
    norms on ``metric`` are memoized here, the one engine-side source of
    both; the memos take no part in equality or hashing.
    """

    __slots__ = ("zetas", "metric", "_sums", "_norms")

    def __init__(self, zetas, metric: Metric4 = MINKOWSKI, validate: bool = True):
        zetas = tuple(zetas)
        if len(zetas) != 4:
            raise ConfigError("need exactly four covectors")
        object.__setattr__(self, "zetas", zetas)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_norms", {})
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("NullConfig is immutable")

    def _validate(self):
        for i in range(1, 5):
            n = self.subset_norm((i,))
            if not n.is_zero():
                raise ConfigError(f"covector {i} is not light-like: |.|^2 = {n!r}")
        if rank([z.c for z in self.zetas]) < 4:
            raise ConfigError("covectors are linearly dependent")
        n = self.subset_norm(range(1, 5))
        if not n.is_zero():
            raise ConfigError(f"sum of covectors is not light-like: {n!r}")

    def zeta(self, i: int) -> CoVec4:
        """Covector number i, 1-based."""
        return self.zetas[i - 1]

    def subset_sum(self, waves) -> CoVec4:
        """Total covector of a multiset of waves, memoized by its sorted
        tuple; each new one is one addition to that of its prefix."""
        key = tuple(sorted(waves))
        hit = self._sums.get(key)
        if hit is None:
            if not key:
                raise ValueError("empty index set")
            hit = self.zeta(key[-1])
            if len(key) > 1:
                hit = self.subset_sum(key[:-1]) + hit
            self._sums[key] = hit
        return hit

    def subset_norm(self, waves) -> RhoRational:
        """``norm_sq`` on ``metric`` of ``subset_sum(waves)``, memoized
        like it."""
        key = tuple(sorted(waves))
        hit = self._norms.get(key)
        if hit is None:
            hit = self._norms[key] = norm_sq(self.metric,
                                             self.subset_sum(key))
        return hit

    def pairing_table(self) -> dict:
        """All six pairings h(zeta_i, zeta_j), i < j."""
        return {(i, j): pairing(self.metric, self.zeta(i), self.zeta(j))
                for i in range(1, 5) for j in range(i + 1, 5)}

    def triple_norm_table(self) -> dict:
        """|zeta_i + zeta_j + zeta_k|^2 for the four triples."""
        return {triple: self.subset_norm(triple)
                for triple in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))}

    def __eq__(self, other):
        return (isinstance(other, NullConfig) and self.zetas == other.zetas
                and self.metric == other.metric)

    def __hash__(self):
        return hash((self.zetas, self.metric))


def base_directions():
    """The four integer null covectors the standard configuration scales."""
    return (CoVec4((1, 0, 1, 0)),
            CoVec4((1, 0, 0, 1)),
            CoVec4((-1, -1, 0, 0)),
            CoVec4((1, -1, 0, 0)))


def solve_null_scale(alpha1, alpha2, alpha4, tilde_zetas) -> RhoRational:
    """Unique alpha3 making |a1 z1 + a2 z2 + a3 z3 + a4 z4|^2 vanish under
    Minkowski.

    All four covectors must be light-like, so the norm is linear in alpha3;
    a vanishing linear coefficient is reported with the offending pairings.
    """
    a1, a2, a4 = (x if isinstance(x, RhoRational) else RhoRational.const(x)
                  for x in (alpha1, alpha2, alpha4))
    z1, z2, z3, z4 = tilde_zetas
    p = lambda a, b: pairing(MINKOWSKI, a, b)
    linear = 2 * (a1 * p(z1, z3) + a2 * p(z2, z3) + a4 * p(z3, z4))
    constant = 2 * (a1 * a2 * p(z1, z2) + a1 * a4 * p(z1, z4)
                    + a2 * a4 * p(z2, z4))
    if linear.is_zero():
        raise ConfigError(
            "alpha3 coefficient vanishes: "
            f"a1*h(z1,z3) + a2*h(z2,z3) + a4*h(z3,z4) = 0 "
            f"(pairings {p(z1, z3)!r}, {p(z2, z3)!r}, {p(z3, z4)!r})")
    return -constant / linear


def standard_config() -> NullConfig:
    """The rho-dependent four-covector configuration used everywhere.

    zeta1 = (1,0,1,0), zeta2 = -(1,0,0,1), zeta3 = rho^-10/2 (1,1,0,0),
    zeta4 = rho^10 (1,-1,0,0); built by solving for the third scale so the
    sum is light-like, then validated.
    """
    t1, t2, t3, t4 = base_directions()
    a1 = RhoRational.const(1)
    a2 = RhoRational.const(-1)
    a4 = RhoRational.rho_power(10)
    a3 = solve_null_scale(a1, a2, a4, (t1, t2, t3, t4))
    zetas = (t1.scale(a1), t2.scale(a2), t3.scale(a3), t4.scale(a4))
    return NullConfig(zetas)


# ---------------------------------------------------------------------------
# Flat causal model
# ---------------------------------------------------------------------------

class FlatPoint(namedtuple("FlatPoint", "x0 x1 x2 x3")):
    """Point of Minkowski space with exact rational coordinates."""

    __slots__ = ()

    @staticmethod
    def of(*coords) -> "FlatPoint":
        return FlatPoint(*(Fraction(c) for c in coords))


def in_causal_future(p: FlatPoint, q: FlatPoint) -> bool:
    """True iff q lies in the closed causal future of p (Minkowski)."""
    dt = q.x0 - p.x0
    if dt < 0:
        return False
    dx = (q.x1 - p.x1, q.x2 - p.x2, q.x3 - p.x3)
    return dt * dt >= sum(d * d for d in dx)


def causally_unrelated(p: FlatPoint, q: FlatPoint) -> bool:
    """Neither point lies in the closed causal future of the other."""
    return not (in_causal_future(p, q) or in_causal_future(q, p))


BacktraceResult = namedtuple("BacktraceResult", "sources pair_table "
                             "all_unrelated directions independent_directions")


def future_null_direction(zeta: CoVec4, rho_value: Fraction,
                          metric: Metric4) -> tuple:
    """Future-pointing null vector dual to ``zeta`` at a concrete rho.

    The raised vector is rescaled so its time component equals one, which
    makes backtrace times read as coordinate-time offsets.
    """
    rho_value = Fraction(rho_value)
    raised = [c.eval_at(rho_value) for c in raise_index(metric, zeta)]
    t = raised[0]
    if t == 0:
        raise ConfigError("covector raises to a spatial vector")
    if t < 0:
        raised = [-x for x in raised]
        t = -t
    return tuple(x / t for x in raised)


def backtrace_sources(q0: FlatPoint, config: NullConfig, rho_value,
                      times) -> BacktraceResult:
    """Source points whose null rays meet at q0, plus the causal report.

    Each source is q0 - t_i * v_i with v_i the future-normalized direction
    of covector i at the given rho; a configuration failing pairwise
    unrelatedness is reported, not rejected.
    """
    rho_value = Fraction(rho_value)
    if rho_value <= 1:
        raise ValueError("rho_value must exceed 1")
    times = tuple(Fraction(t) for t in times)
    if len(times) != 4:
        raise ValueError("need four times")
    if any(t < 0 for t in times):
        raise ValueError("times must be non-negative")
    directions = tuple(future_null_direction(config.zeta(i), rho_value,
                                             config.metric)
                       for i in range(1, 5))
    sources = tuple(
        FlatPoint(*(qc - t * dc for qc, dc in zip(q0, d)))
        for t, d in zip(times, directions))
    pair_table = {}
    for i in range(4):
        for j in range(i + 1, 4):
            pair_table[(i + 1, j + 1)] = causally_unrelated(sources[i],
                                                            sources[j])
    rows = tuple(tuple(RhoRational.const(x) for x in (1,) + d[1:])
                 for d in directions)
    return BacktraceResult(sources=sources, pair_table=pair_table,
                           all_unrelated=all(pair_table.values()),
                           directions=directions,
                           independent_directions=rank(rows) == 4)
