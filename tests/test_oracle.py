"""Independent verification paths: the jet iteration and float evaluation."""
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsym.forms import SlotValue
from gwsym.interaction import (Evaluator, FormNode, Leaf, QNode,
                               eval_I_cancellation, mat_eval_at, nested_chain,
                               total_symbol)
from gwsym.nullcone import NullConfig, base_directions
from gwsym.oracle import (FULL, GaussianRational, JetContext,
                          OracleUnsupported, _add_into, _disjoint, _float_of,
                          _nonlinearity, _walk, cancellation_scale,
                          interaction_total_jet, max_rel_diff)
from gwsym.tensor import MINKOWSKI, Sym2T, rank_one


class TestGaussianRational:
    def test_arithmetic(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        one = GaussianRational.of(1)
        assert i * i == -one
        assert (one / i) == -i
        x = GaussianRational(Fraction(3), Fraction(-2))
        assert x * (one / x) == one

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.of(1) / GaussianRational.of(0)


# Reference arithmetic on plain (re, im) pairs of Fractions.
def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


parts = st.fractions(min_value=-20, max_value=20, max_denominator=30)
pairs = st.tuples(parts, parts)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))


def gr(p):
    return GaussianRational(*p)


def pair(z):
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return (z.re, z.im)


def assert_canonical(z):
    a, b, d = z._a, z._b, z._d
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == b == 0:
        assert d == 1


class TestGaussianRationalProperties:
    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_ring_operations_match_reference(self, x, y):
        ops = [(gr(x) + gr(y), ref_add(x, y)),
               (gr(x) - gr(y), ref_add(x, (-y[0], -y[1]))),
               (gr(x) * gr(y), ref_mul(x, y)),
               (-gr(x), (-x[0], -x[1])),
               (gr(x), x), (GaussianRational.of(x[0]), (x[0], 0))]
        for got, want in ops:
            assert pair(got) == want
            assert_canonical(got)
            assert bool(got) == (want != (0, 0))

    @settings(max_examples=200, deadline=None)
    @given(pairs, nonzero_pairs)
    def test_division_matches_reference(self, x, y):
        got = gr(x) / gr(y)
        assert pair(got) == ref_div(x, y)
        assert_canonical(got)
        assert got * gr(y) == gr(x)

    @settings(max_examples=100, deadline=None)
    @given(pairs, pairs, pairs)
    def test_field_axioms(self, x, y, z):
        x, y, z = gr(x), gr(y), gr(z)
        zero, one = GaussianRational.of(0), GaussianRational.of(1)
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if x:
            assert x * (one / x) == one

    @settings(max_examples=100, deadline=None)
    @given(pairs, nonzero_pairs, st.integers(1, 50))
    def test_equal_values_hash_alike(self, x, y, k):
        direct = gr(x)
        via_ring = (gr(x) * gr(y)) / gr(y)
        via_sum = gr(x) + gr(y) - gr(y)
        scaled = GaussianRational(Fraction(k * x[0].numerator,
                                           k * x[0].denominator), x[1])
        for other in (via_ring, via_sum, scaled):
            assert other == direct
            assert hash(other) == hash(direct)
            assert_canonical(other)

    @settings(max_examples=50, deadline=None)
    @given(pairs)
    def test_zero_division(self, x):
        zero = gr(x) - gr(x)
        assert not zero and (zero._a, zero._b, zero._d) == (0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            gr(x) / zero


# Jet fields for the product property: any subsets of the four waves, the
# empty one included, with distinct opaque objects standing in for matrices.
jet_fields = st.dictionaries(st.frozensets(st.integers(1, 4)),
                             st.builds(object), max_size=6)


class TestJetAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(jet_fields, max_size=4),
           st.sets(st.integers(0, 4), min_size=1))
    def test_disjoint_is_filtered_product(self, fields, sizes):
        want = []
        for combo in itertools.product(*(f.items() for f in fields)):
            subsets = [s for s, _ in combo]
            if all(not a & b for a, b in itertools.combinations(subsets, 2)):
                want.append((frozenset().union(*subsets),
                             tuple(m for _, m in combo)))
        assert list(_disjoint(*fields)) == want
        assert (_disjoint(*fields, sizes=sizes)
                == [c for c in want if len(c[0]) in sizes])

    @pytest.mark.parametrize("exact", [True, False])
    def test_characteristic_subset_raises(self, exact):
        # |t1 + t2 + t3/2|^2 = 0: the causal inverse of that component fails
        t1, t2, t3, t4 = base_directions()
        cfg = NullConfig((t1, t2, t3.scale(Fraction(1, 2)), t4),
                         validate=False)
        with pytest.raises(ZeroDivisionError, match=r"waves \[1, 2, 3\]$"):
            interaction_total_jet(cfg, Fraction(2), exact=exact)
        ctx = JetContext(cfg, Fraction(2),
                         GaussianRational.of if exact else _float_of)
        ast = QNode(FormNode(("P", 3), (Leaf(1), Leaf(2), Leaf(3))))
        with pytest.raises(ZeroDivisionError, match=r"waves \[1, 2, 3\]$"):
            _walk(ctx, ast)

    def test_float_jet_independent_of_hash_seed(self):
        """The float jet's roundoff is printed in reports, so its summation
        order must not follow set or string hashing."""
        # clongdouble.tobytes() includes uninitialised padding bytes, so the
        # entries are compared by exact value and sign instead
        code = ("import numpy as np\n"
                "from gwsym.nullcone import standard_config\n"
                "from gwsym.oracle import interaction_total_jet\n"
                "m = np.array(interaction_total_jet(standard_config(), 2),\n"
                "             dtype=np.clongdouble)\n"
                "for x in np.concatenate([m.real.ravel(), m.imag.ravel()]):\n"
                "    print(x.as_integer_ratio(), np.signbit(x))\n")
        src = os.path.dirname(os.path.dirname(
            sys.modules["gwsym.oracle"].__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=path,
                                        PYTHONHASHSEED=seed)).stdout
                for seed in ("0", "12345")]
        assert outs[0].count("\n") == 32
        assert outs[0] == outs[1]


def three_full_passes(config, rho, exact, leaf_symbols=None):
    """Reference jet: three passes of the full nonlinearity over the real
    covector, each adding its causal inverse, then its four-wave
    component; returns (matrix, [u after each pass])."""
    of = GaussianRational.of if exact else _float_of
    ctx = JetContext(config, rho, of, leaf_symbols=leaf_symbols)
    v = {frozenset({i}): ctx.amplitudes[i] for i in range(1, 5)}
    u, iterates = v, []
    for _ in range(3):
        nonlinear = _nonlinearity(ctx, u)
        u = dict(v)
        for s, m in nonlinear.items():
            if len(s) < 4:
                n = ctx.norm[s]
                _add_into(u, s, [[x / n for x in row] for row in m])
        iterates.append(u)
    return _nonlinearity(ctx, u).get(FULL) or ctx.zero_mat(), iterates


def float_walk(ast, config, rho):
    """The float walk of ``ast`` on its own float ``JetContext``."""
    return np.array(_walk(JetContext(config, rho, _float_of), ast)[0])


def exact_walk_equals(ctx, ast, want):
    """The exact walk of ``ast`` is real and equals ``want`` entry for
    entry."""
    got, _ = _walk(ctx, ast)
    return [[(x.re, x.im) for x in row] for row in got] == [
        [(y, 0) for y in row] for row in want]


def exact_bits(x):
    """A Gaussian rational, or a complex float by exact value and sign."""
    if isinstance(x, GaussianRational):
        return x
    return tuple((y.as_integer_ratio(), bool(np.signbit(y)))
                 for y in (x.real, x.imag))


def field_bits(field):
    return {s: [[exact_bits(x) for x in row] for row in m]
            for s, m in field.items()}


class TestGradedJet:
    """Two passes graded by subset size give the three-pass jet exactly."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("tt", [False, True], ids=["standard", "tt"])
    def test_equals_three_full_passes(self, config, tt_symbols, exact, tt):
        leaf = tt_symbols if tt else None
        rho = Fraction(2)
        want, iterates = three_full_passes(config, rho, exact, leaf)
        # components on k waves read only those on fewer waves, so the
        # third pass repeats the second
        assert field_bits(iterates[2]) == field_bits(iterates[1])
        assert field_bits(iterates[1]) != field_bits(iterates[0])
        got = interaction_total_jet(config, rho, exact, leaf_symbols=leaf)
        assert ([[exact_bits(x) for x in row] for row in got]
                == [[exact_bits(x) for x in row] for row in want])


class TestExactJet:
    def test_total_matches_enumerated_engine(self, config):
        tot = total_symbol(config)
        for rho in (Fraction(2), Fraction(3), Fraction(5, 2)):
            exact_at = mat_eval_at(tot["matrix"], rho)
            jet = interaction_total_jet(config, rho, exact=True)
            for i in range(4):
                for j in range(4):
                    assert jet[i][j].im == 0
                    assert jet[i][j].re == exact_at[i][j]

    def test_total_vanishes_for_rank_one_polarizations(self, config):
        jet = interaction_total_jet(config, Fraction(2), exact=True)
        assert not any(x for row in jet for x in row)

    def test_transverse_traceless_total_is_nonzero(self, config,
                                                   tt_symbols):
        jet = interaction_total_jet(config, Fraction(2), exact=True,
                                    leaf_symbols=tt_symbols)
        assert any(x for row in jet for x in row)
        assert all(x.im == 0 for row in jet for x in row)

    def test_gauge_slot_annihilation_pattern(self, config, tt_symbols):
        """The total vanishes iff at least two slots are pure gauge.

        A pure-gauge polarization is sym(zeta (x) w); the published choice
        (w = zeta/2 in every slot) is the all-gauge corner.  With
        transverse-traceless data elsewhere, one gauge slot leaves the total
        nonzero, two gauge slots kill it exactly.
        """
        rho = Fraction(2)

        def gauge(i, w):
            z = [Fraction(c.eval_at(rho)) for c in config.zeta(i)]
            w = [Fraction(x) for x in w]
            return [[z[a] * w[b] + z[b] * w[a] for b in range(4)]
                    for a in range(4)]

        def nonzero(leaf):
            mat = interaction_total_jet(config, rho, exact=True,
                                        leaf_symbols=leaf)
            return any(x for row in mat for x in row)

        assert nonzero(tt_symbols)
        one = dict(tt_symbols)
        one[2] = gauge(2, (3, -1, 2, 5))
        assert nonzero(one)
        two = dict(one)
        two[3] = gauge(3, (1, 1, 1, 1))
        assert not nonzero(two)
        other_two = dict(tt_symbols)
        other_two[3] = gauge(3, (1, 2, 0, 1))
        other_two[4] = gauge(4, (0, 1, 1, 3))
        assert not nonzero(other_two)

    def test_override_agreement_between_paths(self, config, tt_symbols,
                                              tt_evaluator):
        """Engine with overridden leaf symbols equals the jet iteration."""
        total = tt_evaluator.total()["matrix"]
        rho = Fraction(2)
        exact_at = mat_eval_at(total, rho)
        jet = interaction_total_jet(config, rho, exact=True,
                                    leaf_symbols=tt_symbols)
        for i in range(4):
            for j in range(4):
                assert jet[i][j].im == 0
                assert jet[i][j].re == exact_at[i][j]


class TestFloatOracle:
    def test_leaf(self, config):
        got = float_walk(Leaf(1), config, Fraction(2))
        want = mat_eval_at(rank_one(config.zeta(1)).m, Fraction(2))
        assert np.allclose(np.asarray(got, dtype=np.complex128),
                           np.array(want, dtype=float))

    def test_chain_terms_dual_path(self, config):
        res = eval_I_cancellation(config)
        for rho in (Fraction(2), Fraction(5, 2)):
            for (a, b, c), value in res["terms"].items():
                ast = FormNode(("P", 2), (Leaf(a), QNode(
                    FormNode(("P", 2), (Leaf(b), QNode(
                        FormNode(("P", 2), (Leaf(c), Leaf(4)))))))))
                got = float_walk(ast, config, rho)
                err = max_rel_diff(mat_eval_at(value.matrix, rho), got)
                assert err <= 1e-9

    def test_hhat2_term_dual_path(self, config):
        ast = FormNode(("Hhat", 2), (Leaf(1), QNode(
            FormNode(("P", 2), (Leaf(2), QNode(
                FormNode(("P", 2), (Leaf(3), Leaf(4)))))))))
        rho = Fraction(2)
        exact = Evaluator(config).eval(ast)
        got = float_walk(ast, config, rho)
        err = max_rel_diff(mat_eval_at(exact.matrix, rho), got)
        assert err <= 1e-9

    def test_family_members_dual_path(self, config):
        """Every top-order family member float-checks at 1e-9, and the
        exact walk equals it at rho = 2 and 5/2.

        This independently validates the per-item values, including the two
        semilinear values and the subcase where the engine's exact result is
        half the published constant: the walk evaluates the explicit
        quadratic semilinear formula through the jet's own contractions,
        never through the derived forms.
        """
        from gwsym.interaction import classify_rho40_terms
        cls = classify_rho40_terms(config)
        members = [(n, term, value) for n, family in cls["families"].items()
                   for term, value, _ in family]
        assert len(members) == 34
        rho = Fraction(2)
        for n, term, value in members:
            got = float_walk(term.ast, config, rho)
            err = max_rel_diff(mat_eval_at(value.matrix, rho), got)
            assert err <= 1e-9, (n, term.perm, term.forms)
        for rho in (Fraction(2), Fraction(5, 2)):
            ctx = JetContext(config, rho, GaussianRational.of)
            for n, term, value in members:
                assert exact_walk_equals(ctx, term.ast,
                                         mat_eval_at(value.matrix, rho)), (
                    rho, n, term.perm, term.forms)

    def test_float_total_within_cancellation_noise(self, config):
        tot = total_symbol(config)
        for rho in (Fraction(2), Fraction(3)):
            exact_at = mat_eval_at(tot["matrix"], rho)
            got = interaction_total_jet(config, rho)
            scale = cancellation_scale(config, rho)
            assert max_rel_diff(exact_at, got, floor=scale) <= 1e-9

    def test_unsupported(self, config):
        for k in (3, 4):
            ast = FormNode(("Hhat", k),
                           tuple(Leaf(i) for i in range(1, k + 1)))
            with pytest.raises(OracleUnsupported):
                float_walk(ast, config, Fraction(2))
            ctx = JetContext(config, Fraction(2), GaussianRational.of)
            with pytest.raises(OracleUnsupported):
                _walk(ctx, ast)


class TestConfigurationAtRho:
    """Both oracles read the configuration through one ``JetContext``."""

    def test_scaled_metric_agrees_with_engine(self, config, tt_symbols):
        """On 4 * Minkowski the jet and both walks use that metric."""
        cfg = NullConfig(config.zetas, metric=MINKOWSKI.scale_conformal(4))
        rho = Fraction(2)
        leaf = {i: SlotValue(Sym2T(tt_symbols[i]), cfg.zeta(i))
                for i in tt_symbols}
        total = mat_eval_at(
            Evaluator(cfg, leaf_symbols=leaf).total()["matrix"], rho)
        jet = interaction_total_jet(cfg, rho, exact=True,
                                    leaf_symbols=tt_symbols)
        assert [[(x.re, x.im) for x in row] for row in jet] == [
            [(x, 0) for x in row] for row in total]
        ast = nested_chain(1, 2, 3)
        want = mat_eval_at(Evaluator(cfg).eval(ast).matrix, rho)
        assert max_rel_diff(want, float_walk(ast, cfg, rho)) <= 1e-9
        assert exact_walk_equals(JetContext(cfg, rho, GaussianRational.of),
                                 ast, want)


class TestBeyondFloatRange:
    """The nested-chain terms reach rho^50, past the float range from
    rho = 1e7 on; there the float route runs in ``np.longdouble``."""

    def test_conversion(self):
        # in range: the float's own bits
        assert _float_of(Fraction(1, 3)) == np.clongdouble(1 / 3)
        # above and below the float range, and a quotient in range whose
        # numerator and denominator overflow even an np.longdouble
        for x in (Fraction(10**400 + 1, 3), Fraction(-3, 10**400 + 1),
                  Fraction(10**5000 + 7, 3 * 10**4650 + 1)):
            got = Fraction(*_float_of(x).real.as_integer_ratio())
            assert abs(got / x - 1) < Fraction(1, 10**18)

    def test_not_a_number_passes_no_bound(self):
        exact = [[Fraction(1)] * 4 for _ in range(4)]
        oracle = np.ones((4, 4), dtype=np.clongdouble)
        oracle[1][2] = np.nan
        assert np.isnan(max_rel_diff(exact, oracle))

    def test_scale_stays_finite(self, config):
        rho = Fraction(10**7)
        scale = cancellation_scale(config, rho)
        assert np.isfinite(scale) and scale > np.finfo(np.float64).max
        res = eval_I_cancellation(config)
        for key, value in res["terms"].items():
            got = float_walk(nested_chain(*key), config, rho)
            assert max_rel_diff(mat_eval_at(value.matrix, rho), got) <= 1e-9
        # past the np.longdouble range too, the scale raises, not inf
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            cancellation_scale(config, Fraction(10**100))
