"""Independent verification paths: the jet iteration and float evaluation."""
import contextlib
import decimal
import functools
import io
import itertools
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gwsym import cli, oracle
from gwsym.exact import BaseValue, RhoPoly, RhoRational, format_poly
from gwsym.forms import SlotValue
from gwsym.interaction import (Evaluator, FormNode, Leaf, QNode,
                               eval_I_cancellation, mat_eval_at, mat_is_zero,
                               nested_chain, total_symbol)
from gwsym.nullcone import NullConfig, base_directions, standard_config
from gwsym.oracle import (FLOAT_CONTEXT, FULL, JetContext, OracleUnsupported,
                          _add_into, _disjoint, _float_at, _jet_base,
                          _nonlinearity, _walk, exact_total_jet,
                          float_oracle, interaction_total_jet, max_rel_diff)
from gwsym.scenario import Scenario, load_scenario
from gwsym.tensor import MINKOWSKI, Sym2T, rank_one

DENSE_SCENARIO = Path(__file__).resolve().parent.parent / "bench" / "dense.scn"


def exact_context(config, leaf_symbols=None):
    """The exact route's ``JetContext``, on the oracle's own base."""
    return JetContext(config, _jet_base(config, leaf_symbols).lift,
                      leaf_symbols)


def exact_walk(ctx, ast):
    """The walk of ``ast`` on an exact context, as canonical rationals."""
    got, _ = _walk(ctx, ast)
    return [[x.base.rational(x) for x in row] for row in got]


def same_rationals(a, b):
    """Equal matrices of canonical rationals: ``num``, ``den`` and hash."""
    return all(x.num == y.num and x.den == y.den and hash(x) == hash(y)
               for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


@functools.cache
def named_context(name):
    """The exact route's context on the standard or the dense
    configuration."""
    return exact_context(standard_config() if name == "standard"
                         else load_scenario(DENSE_SCENARIO).config)


@st.composite
def on_base(draw, base):
    """A ``RhoRational`` whose denominator is on ``base``: a small integer
    polynomial times signed powers of the base elements."""
    x = RhoRational(RhoPoly(draw(st.dictionaries(
        st.integers(0, 4), st.integers(-5, 5), max_size=3))))
    for b in base.elements:
        k = draw(st.integers(-1, 2))
        for _ in range(abs(k)):
            x = x * RhoRational(b) if k > 0 else x / RhoRational(b)
    return x


class TestExactRoute:
    """The jet's scalars over Q(rho): ``BaseValue``s on the oracle's own
    base agree with ``RhoRational`` arithmetic."""

    @pytest.mark.parametrize("name", ["standard", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_rho_rational(self, name, data):
        ctx = named_context(name)
        base = ctx.one.base
        x, y = data.draw(on_base(base)), data.draw(on_base(base))
        # the norms the causal inverses divide by, on two and three waves
        s = data.draw(st.sampled_from(sorted(
            (t for t in ctx.norm if 1 < len(t) < 4), key=sorted)))
        a, b, n = base.lift(x), base.lift(y), ctx.norm[s]
        rn = base.rational(n)
        # a product keeps base factors in its numerator, which a lifted
        # value has divided out
        for got, want in ((a, x), (a * b, x * y)):
            assert base.rational(got - b) == want - y
            assert base.rational(got / n) == want / rn
            assert bool(got) == (not want.is_zero())
        assert not a - a

    @pytest.mark.parametrize("name", ["standard", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_division_needs_constant_numerator(self, name, data):
        base = named_context(name).one.base
        x, y = data.draw(on_base(base)), data.draw(on_base(base))
        a, d = base.lift(x), base.lift(y)
        if not d:
            with pytest.raises(ZeroDivisionError):
                a / d
        elif d.num.degree > 0:
            want = re.escape(f"numerator {format_poly(d.num)} ")
            with pytest.raises(ArithmeticError, match=want):
                a / d
        else:
            assert base.rational(a / d) == x / y


class TestFlatValues:
    """Base values are ints over one shared exponent tuple: a value built
    by different operation orders has one representation."""

    @pytest.mark.parametrize("name", ["standard", "dense"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operation_order_gives_one_representation(self, name, data):
        ctx = named_context(name)
        base = ctx.one.base
        x, y, z = (base.lift(data.draw(on_base(base))) for _ in range(3))
        n = ctx.norm[data.draw(st.sampled_from(sorted(
            (t for t in ctx.norm if 1 < len(t) < 4), key=sorted)))]
        pairs = [((x * y) * z, x * (z * y)),
                 (x * (y + z), z * x + x * y),
                 ((x / n) * y, (y * x) / n),
                 ((x * Fraction(-3, 2)) * y, (y * -3) * x * Fraction(1, 2)),
                 (x - y, -(y - x))]
        # a sum that vanishes on the way drops to base.zero's exponents
        if x + y and z + y:
            pairs.append(((x + y) + z, x + (z + y)))
        for a, b in pairs:
            assert (a.c, a.d, a.exps) == (b.c, b.d, b.exps)
            assert a.exps is b.exps
            assert a == b and hash(a) == hash(b)
            assert base.rational(a) == base.rational(b)

    @pytest.mark.parametrize("name", ["standard", "dense"])
    def test_division_names_a_numerator_off_the_base(self, name):
        base = named_context(name).one.base
        x = base.lift(RhoRational.rho_power(3, 5) + 7)
        # a sum of two element powers keeps a numerator of positive degree
        d = base.one + base.lift(RhoRational(base.elements[-1]))
        assert d.num.degree > 0
        want = re.escape(f"numerator {format_poly(d.num)} is not on the base")
        with pytest.raises(ArithmeticError, match=want):
            x / d
        with pytest.raises(ZeroDivisionError):
            x / base.zero


class TestExactCertificate:
    """The jet over Q(rho) equals the engine's total as rational functions,
    which two sample points cannot show."""

    @pytest.mark.parametrize("name", ["standard", "dense", "tt"])
    def test_equals_engine_total(self, name, evaluator, tt_symbols,
                                 tt_evaluator):
        if name == "dense":
            cfg = load_scenario(DENSE_SCENARIO).config
            leaf, ev = None, Evaluator(cfg)
        else:
            ev = tt_evaluator if name == "tt" else evaluator
            cfg, leaf = ev.config, (tt_symbols if name == "tt" else None)
        jet = exact_total_jet(cfg, leaf)
        total = ev.total()["matrix"]
        assert same_rationals(jet, total)
        # mutation: a change that vanishes at both sample points
        bump = RhoRational(RhoPoly({2: 1, 1: -5, 0: 6}).scale(Fraction(7, 3)))
        mutated = [list(row) for row in jet]
        mutated[1][2] = mutated[1][2] + bump
        for rho in (2, 3):
            assert mat_eval_at(mutated, rho) == mat_eval_at(total, rho)
        assert not same_rationals(mutated, total)

    def test_built_once_per_configuration(self, monkeypatch, config,
                                          tt_symbols, capsys):
        builds = []
        real = oracle._jet_base

        def counted(*args):
            builds.append(args)
            return real(*args)
        monkeypatch.setattr(oracle, "_jet_base", counted)
        oracle._exact_jet.cache_clear()
        # the benchmark's two exact jets, with the same overrides
        for rho in (2, 3):
            interaction_total_jet(config, rho, exact=True,
                                  leaf_symbols=tt_symbols)
        equal_copy = {i: [list(row) for row in m]
                      for i, m in tt_symbols.items()}
        exact_total_jet(config, equal_copy)
        assert len(builds) == 1
        # the CLI's checks at rho = 2 and 3
        assert cli.run(["--format", "machine", "verify", "total"]) == 0
        assert len(builds) == 2
        capsys.readouterr()


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
            if exact:
                exact_total_jet(cfg)
            else:
                interaction_total_jet(cfg, Fraction(2))
        ctx = (exact_context(cfg) if exact
               else JetContext(cfg, _float_at(Fraction(2))))
        ast = QNode(FormNode(("P", 3), (Leaf(1), Leaf(2), Leaf(3))))
        with pytest.raises(ZeroDivisionError, match=r"waves \[1, 2, 3\]$"):
            _walk(ctx, ast)

    def test_float_jet_independent_of_hash_seed(self):
        """The float jet's roundoff is printed in reports, so its summation
        order must not follow set or string hashing."""
        code = ("from gwsym.nullcone import standard_config\n"
                "from gwsym.oracle import interaction_total_jet\n"
                "for row in interaction_total_jet(standard_config(), 2):\n"
                "    for x in row:\n"
                "        print(str(x))\n")
        src = os.path.dirname(os.path.dirname(
            sys.modules["gwsym.oracle"].__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=path,
                                        PYTHONHASHSEED=seed)).stdout
                for seed in ("0", "12345")]
        assert outs[0].count("\n") == 16
        assert outs[0] == outs[1]

    def test_float_route_independent_of_callers_context(self, config):
        """Every float entry point runs in the oracle's own context."""
        rho = Fraction(2)

        def results():
            jet = interaction_total_jet(config, rho)
            oracle = float_oracle(config, rho)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.run(["--format", "machine", "oracle", "--rho",
                                "2"]) == 0
            return ([[x.as_tuple() for x in row] for row in jet],
                    oracle.scale.as_tuple(),
                    [[x.as_tuple() for x in row] for row in oracle.total],
                    {key: [[x.as_tuple() for x in row] for row in m]
                     for key, m in oracle.chains.items()},
                    out.getvalue())

        want = results()
        with decimal.localcontext(decimal.Context(prec=5, Emax=10)):
            got = results()
        assert got == want


def three_full_passes(config, rho, exact, leaf_symbols=None):
    """Reference jet: three passes of the full nonlinearity over the real
    covector, each adding its causal inverse, then its four-wave
    component; returns (matrix, [u after each pass]).  The exact route runs
    over Q(rho); the float route at ``rho``, in the oracle's context."""
    ctx = (exact_context(config, leaf_symbols) if exact
           else JetContext(config, _float_at(rho), leaf_symbols))
    v = {frozenset({i}): ctx.amplitudes[i] for i in range(1, 5)}
    u, iterates = v, []
    with decimal.localcontext(FLOAT_CONTEXT):
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
    """The float walk of ``ast`` on its own float ``JetContext``, in the
    oracle's context."""
    with decimal.localcontext(FLOAT_CONTEXT):
        return _walk(JetContext(config, _float_at(rho)), ast)[0]


def exact_bits(x):
    """An exact value as a canonical rational, or a ``Decimal`` by sign,
    digits and exponent."""
    if isinstance(x, BaseValue):
        return x.base.rational(x)
    if isinstance(x, RhoRational):
        return x
    return x.as_tuple()


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
        got = (exact_total_jet(config, leaf) if exact
               else interaction_total_jet(config, rho, leaf_symbols=leaf))
        assert ([[exact_bits(x) for x in row] for row in got]
                == [[exact_bits(x) for x in row] for row in want])


class TestExactJet:
    def test_total_matches_enumerated_engine(self, config):
        tot = total_symbol(config)
        jet = exact_total_jet(config)
        for rho in (Fraction(2), Fraction(3), Fraction(5, 2)):
            assert mat_eval_at(jet, rho) == mat_eval_at(tot["matrix"], rho)

    def test_total_vanishes_for_rank_one_polarizations(self, config):
        assert mat_is_zero(exact_total_jet(config))

    def test_transverse_traceless_total_is_nonzero(self, config,
                                                   tt_symbols):
        jet = exact_total_jet(config, tt_symbols)
        assert any(x for row in mat_eval_at(jet, Fraction(2)) for x in row)

    def test_gauge_slot_annihilation_pattern(self, config, tt_symbols):
        """The total vanishes iff at least two slots are pure gauge.

        A pure-gauge polarization is sym(zeta (x) w); the published choice
        (w = zeta/2 in every slot) is the all-gauge corner.  With
        transverse-traceless data elsewhere, one gauge slot leaves the total
        nonzero, two gauge slots kill it exactly.  The gauge tensors are
        built from zeta at rho = 2, so the jet is compared there.
        """
        rho = Fraction(2)

        def gauge(i, w):
            z = [Fraction(c.eval_at(rho)) for c in config.zeta(i)]
            w = [Fraction(x) for x in w]
            return [[z[a] * w[b] + z[b] * w[a] for b in range(4)]
                    for a in range(4)]

        def nonzero(leaf):
            mat = mat_eval_at(exact_total_jet(config, leaf), rho)
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
        jet = exact_total_jet(config, tt_symbols)
        assert mat_eval_at(jet, rho) == mat_eval_at(total, rho)


class TestFloatOracle:
    def test_leaf(self, config):
        got = float_walk(Leaf(1), config, Fraction(2))
        want = mat_eval_at(rank_one(config.zeta(1)).m, Fraction(2))
        # each entry is its exact value rounded once
        with decimal.localcontext(FLOAT_CONTEXT):
            assert got == [[Decimal(x.numerator) / x.denominator for x in row]
                           for row in want]

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
        ctx = exact_context(config)
        for n, term, value in members:
            got = exact_walk(ctx, term.ast)
            for rho in (Fraction(2), Fraction(5, 2)):
                assert (mat_eval_at(got, rho)
                        == mat_eval_at(value.matrix, rho)), (
                    rho, n, term.perm, term.forms)

    def test_float_total_within_cancellation_noise(self, config):
        tot = total_symbol(config)
        for rho in (Fraction(2), Fraction(3)):
            exact_at = mat_eval_at(tot["matrix"], rho)
            oracle = float_oracle(config, rho)
            assert max_rel_diff(exact_at, oracle.total,
                                floor=oracle.scale) <= 1e-9

    @pytest.mark.parametrize("name", ["standard", "dense"])
    def test_float_oracle_is_the_float_jet_and_walks(self, name):
        """``float_oracle`` reads one context: its total equals
        ``interaction_total_jet`` digit for digit, each chain equals its
        walk on a context of its own, and the scale is their largest
        entry."""
        scenario = (Scenario.default() if name == "standard"
                    else load_scenario(DENSE_SCENARIO))
        config = scenario.config
        for rho in scenario.oracle_rho:
            oracle = float_oracle(config, rho)
            assert ([[exact_bits(x) for x in row] for row in oracle.total]
                    == [[exact_bits(x) for x in row]
                        for row in interaction_total_jet(config, rho)])
            assert sorted(oracle.chains) == sorted(
                itertools.permutations((1, 2, 3)))
            for key, got in oracle.chains.items():
                want = float_walk(nested_chain(*key), config, rho)
                assert ([[exact_bits(x) for x in row] for row in got]
                        == [[exact_bits(x) for x in row] for row in want])
            assert oracle.scale == max(abs(x) for m in oracle.chains.values()
                                       for row in m for x in row)

    def test_unsupported(self, config):
        for k in (3, 4):
            ast = FormNode(("Hhat", k),
                           tuple(Leaf(i) for i in range(1, k + 1)))
            with pytest.raises(OracleUnsupported):
                float_walk(ast, config, Fraction(2))
            ctx = exact_context(config)
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
        assert mat_eval_at(exact_total_jet(cfg, tt_symbols), rho) == total
        ast = nested_chain(1, 2, 3)
        want = mat_eval_at(Evaluator(cfg).eval(ast).matrix, rho)
        assert max_rel_diff(want, float_walk(ast, cfg, rho)) <= 1e-9
        assert mat_eval_at(exact_walk(exact_context(cfg), ast), rho) == want


class TestBeyondFloatRange:
    """The nested-chain terms reach rho^50, past the float range from
    rho = 1e7 on; the float route's ``Decimal``s reach just below 1e4933."""

    def test_conversion(self):
        float_of = _float_at(0)
        # in range: the value rounded once to 19 digits
        assert (float_of(RhoRational.const(Fraction(1, 3)))
                == Decimal("0.3333333333333333333"))
        # above and below the float range, and a quotient in range whose
        # numerator and denominator overflow even the oracle's context
        for x in (Fraction(10**400 + 1, 3), Fraction(-3, 10**400 + 1),
                  Fraction(10**5000 + 7, 3 * 10**4650 + 1)):
            got = Fraction(float_of(RhoRational.const(x)))
            assert abs(got / x - 1) < Fraction(1, 10**18)

    def test_not_a_number_passes_no_bound(self):
        exact = [[Fraction(1)] * 4 for _ in range(4)]
        oracle = [[Decimal(1)] * 4 for _ in range(4)]
        oracle[1][2] = Decimal("NaN")
        assert math.isnan(max_rel_diff(exact, oracle))

    def test_scale_stays_finite(self, config):
        rho = Fraction(10**7)
        scale = float_oracle(config, rho).scale
        assert scale.is_finite() and scale > sys.float_info.max
        res = eval_I_cancellation(config)
        for key, value in res["terms"].items():
            got = float_walk(nested_chain(*key), config, rho)
            assert max_rel_diff(mat_eval_at(value.matrix, rho), got) <= 1e-9
        # past the oracle's range too, the scale raises, not inf
        with pytest.raises(OverflowError):
            float_oracle(config, Fraction(10**100))
