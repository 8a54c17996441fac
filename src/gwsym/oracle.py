"""Independent verification paths for the interaction symbols.

Two routes that never touch the exact form engine.  Both read the
configuration through one ``JetContext``: its own inverse metric, and
covector sums, squared norms and wave amplitudes computed exactly over
Q(rho), each converted once.  The exact route lifts them onto a coprime
base of their own (``CoprimeBase.lift``) and stays over Q(rho); the float
route evaluates them at a concrete rho, each rounded once to a ``Decimal``
of ``FLOAT_CONTEXT``.  Every term carries two derivatives, so its symbol
over i xi is minus its value over the real covector xi, on which both
routes run: the jet adds the causal inverse of N(u), and the walk negates
each coefficient node.

* A truncated multilinear "jet" expansion over the sixteen wave subsets.
  Fields are plain dicts from subsets (frozensets) to 4x4 matrices.  Every
  product runs over the pairwise disjoint subsets of its factors
  (``_disjoint``), derivatives multiply a component by its aggregate
  covector, and the causal inverse divides by the aggregate covector's
  squared norm.  The full nonlinear reduced curvature operator is
  evaluated directly on this algebra and iterated, which reproduces the
  complete four-wave interaction sum without ever enumerating terms.  The
  iteration is graded by subset size: a component on k waves reads only
  components on fewer waves, so two passes fix the two- and three-wave
  components, and the last evaluation computes the four-wave component
  alone.  ``exact_total_jet`` runs it once per configuration over Q(rho);
  ``float_oracle`` runs it in floating point at one rho.

* A walk over one term tree (``_walk``) on the same scalars.  A P_k node
  is the jet's quasilinear part on single components, with the chain of its
  first k - 1 slots as the metric field; an Hhat2 node is the jet's
  semilinear part on its two slots, with the constant inverse metric.

Each route is compared only with the engine, and the two share every
contraction, so a fault in a shared contraction fails both comparisons.

``in_child`` computes the exact jet and the float oracles a command reads
in a forked child, beside the engine and apart from its memory.
"""
from __future__ import annotations

import contextlib
import decimal
import functools
import itertools
import os
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from math import nan

from .exact import ONE, ZERO, CoprimeBase, RhoRational
from .interaction import Leaf, QNode, nested_chain
from .nullcone import NullConfig

FULL = frozenset({1, 2, 3, 4})


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

#: The float route's arithmetic: 19 significant digits and exponents within
#: about +-4932, as in the x87 extended double it replaced.  Nothing traps:
#: as in IEEE arithmetic an overflow gives an infinity and an invalid
#: operation a NaN, which ``float_oracle`` and ``max_rel_diff`` test
#: for.  Every float entry point runs in a copy of it (``_float_route``), so
#: no result depends on the caller's decimal context.
FLOAT_CONTEXT = decimal.Context(prec=19, Emax=4932, Emin=-4932, traps=[])


def _float_route(f):
    """``f`` run in a copy of ``FLOAT_CONTEXT``."""
    @functools.wraps(f)
    def run(*args, **kwargs):
        with decimal.localcontext(FLOAT_CONTEXT):
            return f(*args, **kwargs)
    return run


def _real(x):
    """A rational or a float as a ``Decimal`` of ``FLOAT_CONTEXT``,
    rounded once; a ``Decimal`` is returned as it is."""
    if isinstance(x, Decimal):
        return x
    x = Fraction(x)
    return FLOAT_CONTEXT.divide(Decimal(x.numerator), Decimal(x.denominator))


def _float_at(rho):
    """The float route's conversion: an exact value evaluated at ``rho``,
    rounded once, once per distinct value."""
    rho = Fraction(rho)
    return functools.cache(lambda x: _real(x.eval_at(rho)))


# ---------------------------------------------------------------------------
# Configuration data
# ---------------------------------------------------------------------------

_HALF = RhoRational.const(Fraction(1, 2))
_TWO = RhoRational.const(2)


def _frozen(leaf_symbols) -> tuple:
    """Wave symbol overrides as a key: (wave, rows) pairs, rows as tuples."""
    return tuple((i, tuple(map(tuple, m)))
                 for i, m in sorted((leaf_symbols or {}).items()))


@functools.lru_cache(maxsize=1)
def _exact_inputs(config: NullConfig, overrides: tuple):
    """(hinv, xi, norm, amplitudes) of a ``JetContext``, over Q(rho), for
    the last configuration and ``_frozen`` overrides only."""
    zetas = {i: tuple(config.zeta(i)) for i in range(1, 5)}
    hinv = config.metric.inv
    entries = [(a, b, g) for a, row in enumerate(hinv)
               for b, g in enumerate(row) if not g.is_zero()]
    xi = {}
    norm = {}
    for bits in range(1, 16):
        s = frozenset(i for i in range(1, 5) if bits & (1 << (i - 1)))
        v = xi[s] = tuple(sum((zetas[i][a] for i in s), ZERO)
                          for a in range(4))
        norm[s] = sum((g * v[a] * v[b] for a, b, g in entries), ZERO)
    overrides = dict(overrides)
    amplitudes = {}
    for i in range(1, 5):
        if i in overrides:
            m = overrides[i]
            amplitudes[i] = [
                [m[a][b] if isinstance(m[a][b], RhoRational)
                 else RhoRational.const(Fraction(m[a][b])) for b in range(4)]
                for a in range(4)]
        else:
            z = zetas[i]
            amplitudes[i] = [[z[a] * z[b] for b in range(4)]
                             for a in range(4)]
    return hinv, xi, norm, amplitudes


def _jet_base(config: NullConfig, leaf_symbols) -> CoprimeBase:
    """The exact route's coprime base, refined from the denominators of
    the exact inputs of ``JetContext(config, ...)`` and the numerators of
    the subset norms: every input lifts onto it, and every causal inverse
    stays on it."""
    hinv, xi, norm, amplitudes = _exact_inputs(config, _frozen(leaf_symbols))
    values = [x for rows in (hinv, *amplitudes.values())
              for row in rows for x in row]
    values += [x for v in xi.values() for x in v] + list(norm.values())
    return CoprimeBase([x.den for x in values]
                       + [n.num for n in norm.values()])


class JetContext:
    """A configuration as both oracles read it.

    Every input is computed exactly over Q(rho) and turned into a jet
    scalar once by ``of``: ``hinv`` is the configuration's inverse metric,
    ``xi[s]`` the covector sum of subset s, ``norm[s]`` its squared norm
    (the sum over the nonzero g^{ab} of g xi_a xi_b) and ``amplitudes[i]``
    the amplitude of wave i.  The exact route passes ``CoprimeBase.lift``
    (``exact_total_jet``), the float route ``_float_at(rho)``.
    ``leaf_symbols`` may override the default rank-one wave amplitudes with
    exact 4x4 matrices of ``RhoRational``s (or anything Fraction-convertible).
    """

    def __init__(self, config: NullConfig, of, leaf_symbols=None):
        self.zero = of(ZERO)
        self.one = of(ONE)
        self.half = of(_HALF)
        self.two = of(_TWO)
        hinv, xi, norm, amplitudes = _exact_inputs(config,
                                                    _frozen(leaf_symbols))
        self.hinv = [[of(g) for g in row] for row in hinv]
        self.xi = {s: tuple(of(x) for x in v) for s, v in xi.items()}
        self.norm = {s: of(n) for s, n in norm.items()}
        self.amplitudes = {i: [[of(x) for x in row] for row in m]
                           for i, m in amplitudes.items()}

    def zero_mat(self):
        return [[self.zero] * 4 for _ in range(4)]


# A jet field is a dict from wave subsets (frozensets) to 4x4 matrices of jet
# scalars.  No matrix is written to once a field is built, so fields may
# share matrices (every iterate shares the wave amplitudes).

def _disjoint(*fields, sizes):
    """(union, matrices) for each choice of pairwise disjoint subsets, one
    component per field, in nested iteration order of the fields.

    Only unions with a size in ``sizes`` are kept; a partial choice larger
    than all of them is dropped as soon as it is made.  The kept choices
    keep their relative order.
    """
    combos = [(frozenset(), ())]
    top = max(sizes)
    for field in fields:
        combos = [(s | t, mats + (m,)) for s, mats in combos
                  for t, m in field.items()
                  if not s & t and len(s) + len(t) <= top]
    return [c for c in combos if len(c[0]) in sizes]


def _add_into(field, s, mat):
    """Add mat to component s of field; a new component stores mat itself."""
    tgt = field.get(s)
    field[s] = mat if tgt is None else [
        [x + y for x, y in zip(trow, row)] for trow, row in zip(tgt, mat)]


def _map(field, f):
    """The field with every entry x of component s replaced by f(s, x)."""
    return {s: [[f(s, x) for x in row] for row in m] for s, m in field.items()}


def _jet_matmul(ctx, a, b, sizes):
    out = {}
    for s, (m1, m2) in _disjoint(a, b, sizes=sizes):
        tgt = out.get(s)
        if tgt is None:
            tgt = out[s] = ctx.zero_mat()
        for i in range(4):
            row1 = m1[i]
            trow = tgt[i]
            for k in range(4):
                x = row1[k]
                if not x:
                    continue
                row2 = m2[k]
                for j in range(4):
                    trow[j] = trow[j] + x * row2[j]
    return out


def _ginv_series(ctx, u, top):
    """(h + u)^{-1} on the jet algebra, components on at most ``top``
    waves; the series terminates exactly.

    The empty-set component of the result is the constant inverse metric.
    """
    sizes = range(top + 1)
    hinv = {frozenset(): ctx.hinv}
    # x = -h^{-1} u, nilpotent: (h+u)^{-1} = (1 + x + x^2 + x^3 + x^4) h^{-1}
    x = _map(_jet_matmul(ctx, hinv, u, sizes), lambda s, y: -y)
    total = {frozenset(): [[ctx.one if i == j else ctx.zero for j in range(4)]
                           for i in range(4)]}
    power = total
    for _ in range(4):
        power = _jet_matmul(ctx, power, x, sizes)
        if not power:
            break
        for s, m in power.items():
            _add_into(total, s, m)
    return _jet_matmul(ctx, total, hinv, sizes)


def _quasilinear(ctx, result, g, u, sizes):
    """Add -g^{pq} d_p d_q u to ``result``, over the disjoint components of
    the fields g and u; the derivatives read u's subsets."""
    xi = ctx.xi
    du2 = {}
    for p in range(4):
        dp = _map(u, lambda s, x: xi[s][p] * x)
        for q in range(p, 4):
            du2[(p, q)] = _map(dp, lambda s, x: xi[s][q] * x)
    for s1, m1 in g.items():
        for p in range(4):
            for q in range(4):
                c = m1[p][q]
                if not c:
                    continue
                dd = du2[(p, q) if p <= q else (q, p)]
                for s, (_, m2) in _disjoint({s1: m1}, dd, sizes=sizes):
                    _add_into(result, s, [[-(c * x) for x in row]
                                          for row in m2])


def _christoffel(ctx, m, d):
    """G_{l a b} = (d_b m_{la} + d_a m_{lb} - d_l m_{ab}) / 2 of one
    component m, whose derivative multiplies by d."""
    half = ctx.half
    return [[[half * (d[b] * m[l][a] + d[a] * m[l][b] - d[l] * m[a][b])
              for b in range(4)] for a in range(4)] for l in range(4)]


def _semilinear(ctx, result, gamma1, gamma2, u2, g, sizes):
    """Add 2 g^{ab} g^{lk} G1_{l mu b} G2_{k nu a} and
    G1_{nu a b} g^{aq} g^{bd} d_mu u2_{qd} + (mu <-> nu) to ``result``, each
    over the disjoint components of its fields.

    The nonzero entries are listed once, per combination for the metric
    components and per component of G1, and the sums run over them in the
    order a, b, l, k (a, q, b, d in the second term) with the products
    associated as written, so the float sums are those of the dense loops.
    """
    two = ctx.two
    by_mu_b = {s: [[[(l, G[l][mu][b]) for l in range(4) if G[l][mu][b]]
                    for b in range(4)] for mu in range(4)]
               for s, G in gamma1.items()}
    for s, (n1, g2, ma, mb) in _disjoint(by_mu_b, gamma2, g, g, sizes=sizes):
        two_hab = [(a, b, two * h) for a, row in enumerate(ma)
                   for b, h in enumerate(row) if h]
        hlk_rows = [[(k, h) for k, h in enumerate(row) if h] for row in mb]
        mat = ctx.zero_mat()
        for mu in range(4):
            n1mu = n1[mu]
            for nu in range(4):
                acc = ctx.zero
                for a, b, two_h in two_hab:
                    for l, t1 in n1mu[b]:
                        for k, hlk in hlk_rows[l]:
                            t2 = g2[k][nu][a]
                            if not t2:
                                continue
                            acc = acc + two_h * hlk * t1 * t2
                mat[mu][nu] = acc
        if any(x for row in mat for x in row):
            _add_into(result, s, mat)

    by_x_a = {s: [[[(b, t) for b, t in enumerate(G[x][a]) if t]
                   for a in range(4)] for x in range(4)]
              for s, G in gamma1.items()}
    du = {s: (m, ctx.xi[s]) for s, m in u2.items()}
    for s, (n1, (m2, d2), ma, mb) in _disjoint(by_x_a, du, g, g,
                                               sizes=sizes):
        haq_list = [(a, q, h) for a, row in enumerate(ma)
                    for q, h in enumerate(row) if h]
        hbd_rows = [[(d, h) for d, h in enumerate(row) if h] for row in mb]
        sand = []
        for x in range(4):
            n1x = n1[x]
            acc = ctx.zero
            for a, q, haq in haq_list:
                m2q = m2[q]
                for b, t in n1x[a]:
                    for d, hbd in hbd_rows[b]:
                        acc = acc + haq * hbd * t * m2q[d]
            sand.append(acc)
        mat = [[d2[mu] * sand[nu] + d2[nu] * sand[mu] for nu in range(4)]
               for mu in range(4)]
        if any(x for row in mat for x in row):
            _add_into(result, s, mat)


def _nonlinearity(ctx, u, sizes):
    """The quadratic-and-higher part of the reduced wave operator.

    N(u) = -(g^{pq} - h^{pq}) d_p d_q u
           + 2 g^{ab} g^{sg} G(u)_{s mu b} G(u)_{g nu a}
           + G(u)_{nu a b} g^{aq} g^{bd} d_mu u_{qd} + (mu <-> nu),
    with G(u)_{l a b} = (d_b u_{la} + d_a u_{lb} - d_l u_{ab}) / 2 and g the
    full inverse series.  A derivative d_p multiplies component s by
    (aggregate covector of s)_p, so every component of the result is minus
    the exact symbol of the corresponding wave-subset interaction.

    Only the components on ``sizes`` waves are computed.  Every term has at
    least two factors on nonempty subsets, so it reads components of u and
    of g - h on fewer waves than the largest kept size.  Contributions to
    the kept components arrive in the same order whatever ``sizes`` is.
    """
    top = max(sizes)
    u = {s: m for s, m in u.items() if len(s) < top}
    ginv = _ginv_series(ctx, u, top - 1)  # includes the constant part
    result = {}
    _quasilinear(ctx, result, {s: m for s, m in ginv.items() if s}, u, sizes)
    gamma = {s: _christoffel(ctx, m, ctx.xi[s]) for s, m in u.items()}
    _semilinear(ctx, result, gamma, gamma, u, ginv, sizes)
    return result


def _over_norm(ctx, s, m):
    """The matrix ``m`` divided by the squared norm of the covector sum
    over the wave subset ``s``: a causal inverse on the context."""
    n = ctx.norm[s]
    if not n:
        raise ZeroDivisionError(
            f"characteristic covector sum over waves {sorted(s)}")
    return [[x / n for x in row] for row in m]


def _total_jet(ctx):
    """The four-wave component of the jet iteration on ``ctx``.

    u = v + (causal inverse of N(u)) on two and three waves, in two passes:
    the first fixes the two-wave components, which read only the waves
    themselves, and the second the three-wave ones, which read components on
    one and two waves; a third pass would repeat the second.  Each pass
    computes only the sizes it fixes, and the last call only the four-wave
    component.
    """
    v = {frozenset({i}): ctx.amplitudes[i] for i in range(1, 5)}
    u = v
    for sizes in ((2,), (2, 3)):
        nonlinear = _nonlinearity(ctx, u, sizes=sizes)
        u = dict(v)
        for s, m in nonlinear.items():
            _add_into(u, s, _over_norm(ctx, s, m))
    return (_nonlinearity(ctx, u, sizes=(len(FULL),)).get(FULL)
            or ctx.zero_mat())


def exact_total_jet(config: NullConfig, leaf_symbols=None) -> tuple:
    """Full four-wave interaction symbol over Q(rho) via the jet iteration.

    Returns the 4x4 matrix of canonical ``RhoRational``s, in the same
    normalization as the exact engine.  The jet runs on the oracle's own
    base (``_jet_base``), never on the engine's.  Only the last
    (configuration, overrides) result is held, as ``shared_evaluator``
    holds only the last evaluator; callers must not modify it.
    """
    return _exact_jet(config, _frozen(leaf_symbols))


@functools.lru_cache(maxsize=1)
def _exact_jet(config: NullConfig, overrides: tuple) -> tuple:
    if not overrides:
        delivered = _from_child(config, None)
        if delivered is not None:
            return delivered
    base = _jet_base(config, dict(overrides))
    jet = _total_jet(JetContext(config, base.lift, dict(overrides)))
    return tuple(tuple(base.rational(x) for x in row) for row in jet)


#: an entry of ``interaction_total_jet(..., exact=True)``
_ExactAt = namedtuple("_ExactAt", "re im")


@_float_route
def interaction_total_jet(config: NullConfig, rho, exact: bool,
                          leaf_symbols):
    """Full four-wave interaction symbol at ``rho`` via the jet iteration.

    Returns the 4x4 matrix of ``Decimal``s of ``FLOAT_CONTEXT``, in the
    same normalization as the exact engine.  With ``exact``, each entry is
    ``exact_total_jet`` at rho as an exact ``re`` with a zero ``im``, the
    form the benchmark harness reads.  ``leaf_symbols`` overrides the wave
    amplitudes as in ``JetContext``; None keeps the rank-one ones.
    """
    if exact:
        rho = Fraction(rho)
        return [[_ExactAt(x.eval_at(rho), 0) for x in row]
                for row in exact_total_jet(config, leaf_symbols)]
    return _total_jet(JetContext(config, _float_at(rho), leaf_symbols))


# ---------------------------------------------------------------------------
# Evaluation of individual term trees
# ---------------------------------------------------------------------------

class OracleUnsupported(ValueError):
    pass


def _walk(ctx, node):
    """(value, wave subset) of one term tree on the context's scalars.

    P_k is -g^{pq} d_p d_q m_k with g = (-h^{-1} m_1)...(-h^{-1} m_{k-1})
    h^{-1}; higher semilinear forms have no closed expression here.  Each
    coefficient node is negated (two derivatives over the real covector).
    """
    if isinstance(node, Leaf):
        return ctx.amplitudes[node.wave], frozenset({node.wave})
    if isinstance(node, QNode):
        m, s = _walk(ctx, node.child)
        return _over_norm(ctx, s, m), s
    parts = [_walk(ctx, c) for c in node.children]
    s = frozenset().union(*(t for _, t in parts))
    hinv = {frozenset(): ctx.hinv}
    result = {}
    if node.form[0] == "P":
        chain = hinv
        for m, t in reversed(parts[:-1]):
            x = _map(_jet_matmul(ctx, hinv, {t: m}, range(5)),
                     lambda _, y: -y)
            chain = _jet_matmul(ctx, x, chain, range(5))
        m, t = parts[-1]
        _quasilinear(ctx, result, chain, {t: m}, (len(s),))
    elif node.form == ("Hhat", 2):
        (m1, s1), (m2, s2) = parts
        _semilinear(ctx, result, {s1: _christoffel(ctx, m1, ctx.xi[s1])},
                    {s2: _christoffel(ctx, m2, ctx.xi[s2])}, {s2: m2}, hinv,
                    (len(s),))
    else:
        raise OracleUnsupported(
            f"no independent closed form for {node.form} nodes")
    return [[-x for x in row] for row in result.get(s) or ctx.zero_mat()], s


FloatOracle = namedtuple("FloatOracle", "chains scale total")


@_float_route
def float_oracle(config: NullConfig, rho) -> FloatOracle:
    """The float route at ``rho``, on one ``JetContext``: the walks of the
    six nested-chain terms keyed by permutation of (1, 2, 3), their
    cancellation scale, and the jet's total.

    The total is a sum with massive top-order cancellations, so its float
    roundoff is proportional to the largest summand; relative agreement is
    measured against the largest entry of the six nested-chain terms, which
    dominate every other term.  An entry that is not finite raises
    ``OverflowError`` instead of loosening every comparison against it.
    """
    delivered = _from_child(config, rho)
    if delivered is not None:
        return delivered
    ctx = JetContext(config, _float_at(rho))
    chains = {key: _walk(ctx, nested_chain(*key))[0]
              for key in itertools.permutations((1, 2, 3))}
    scale = Decimal(0)
    for matrix in chains.values():
        for row in matrix:
            for x in row:
                if not x.is_finite():
                    raise OverflowError(
                        f"cancellation scale overflows at rho = {rho}")
                scale = max(scale, abs(x))
    return FloatOracle(chains, scale, _total_jet(ctx))


# ---------------------------------------------------------------------------
# The oracles beside the engine
# ---------------------------------------------------------------------------

#: the child of the open ``in_child`` block, if any
_child = None


@contextlib.contextmanager
def in_child(config: NullConfig, rho_values):
    """Compute the oracle values a command reads in one forked child while
    the caller runs the engine.

    In the block, ``exact_total_jet(config)`` and ``float_oracle(config,
    rho)`` for each rho of ``rho_values`` take the child's value; the jet
    read this way fills the memo as a computed one does.  A value the child
    did not deliver (it raised, or died) is computed in place at the same
    call, so an error comes up where it would without the child.  The
    child forks only where ``os.fork`` exists and no exact jet is memoized,
    as in a fresh process; otherwise, or if the fork fails, every value is
    computed in place.  Leaving the block kills a child still running and
    reaps it.  Yields the child's pid, or None.
    """
    global _child
    if not hasattr(os, "fork") or _exact_jet.cache_info().currsize:
        yield None
        return
    try:
        child = _Child(config, tuple(rho_values))
    except OSError:  # no process to spare: compute in place
        yield None
        return
    _child = child
    try:
        yield child.pid
    finally:
        _child = None
        child.close()


def _from_child(config: NullConfig, key):
    """The open child's value of ``key`` (None for the exact jet, a rho
    for a float oracle) on ``config``, taken once; None if it has none."""
    if _child is None or config != _child.config:
        return None
    return _child.take(key)


class _Child:
    """One forked child computing the exact jet of ``config`` and the float
    oracle at each of ``rho_values``, in that order, into a pipe."""

    def __init__(self, config: NullConfig, rho_values: tuple):
        self.config = config
        self.values = {}
        parent = os.getpid()
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if not self.pid:
            _serve(config, rho_values, parent, read, write)  # never returns
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def take(self, key):
        import pickle  # only a process that starts a child loads it
        while key not in self.values and not self.pipe.closed:
            try:
                got, value = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):  # the child ended
                self._reap()
                break
            self.values[got] = value
        return self.values.pop(key, None)

    def close(self):
        """Kill the child unless it has been reaped, and reap it."""
        if not self.pipe.closed:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        self.pipe.close()
        os.waitpid(self.pid, 0)


def _serve(config: NullConfig, rho_values: tuple, parent: int, read: int,
           write: int):
    """The child's whole life, ended by ``os._exit`` on every path: it never
    returns into the caller, runs no ``atexit`` hook and flushes no
    inherited buffer.  Each value that computes is pickled into ``write``;
    one that raises is left out.  Standard streams go to the null device,
    and a 10 ms timer ends the child once ``parent`` is gone (it may be
    gone before the child starts)."""
    try:
        import pickle
        import signal
        os.close(read)
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)

        def orphaned(*_):
            if os.getppid() != parent:
                os._exit(0)
        signal.signal(signal.SIGALRM, orphaned)
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        with os.fdopen(write, "wb") as pipe:
            for key in (None, *rho_values):
                try:
                    value = (_exact_jet(config, ()) if key is None
                             else float_oracle(config, key))
                except Exception:  # the parent computes it and raises
                    continue
                pickle.dump((key, value), pipe)
                pipe.flush()
    finally:
        os._exit(0)


@_float_route
def max_rel_diff(exact_matrix_at_rho, oracle_matrix, floor=0) -> float:
    """Max per-entry relative difference.

    Each entry is compared relative to max(|exact|, |oracle|, floor); the
    floor is the caller's noise scale (zero for plain relative comparison).
    Entries are compared as ``Decimal``s of ``FLOAT_CONTEXT`` (``_real``).
    A difference that is not a number makes the result not a number, so no
    comparison with a bound passes.
    """
    # two zeros compare as equal
    floor = max(_real(floor), Decimal("1e-300"))
    worst = Decimal(0)
    for row_a, row_b in zip(exact_matrix_at_rho, oracle_matrix):
        for x, y in zip(row_a, row_b):
            x, y = _real(x), _real(y)
            diff = abs(x - y) / max(abs(x), abs(y), floor)
            if diff.is_nan():
                return nan
            worst = max(worst, diff)
    return float(worst)
