"""Scenario files: flat key-value text configuring a verification run.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Keys:

  zeta1..zeta4   four comma-separated component expressions in rho
                 (integers, + - * / ^, parentheses; exponents at most
                 200 in absolute value, powers of degree at most 200),
                 e.g.
                 ``zeta4 = rho^10, -rho^10, 0, 0``
  oracle_rho     whitespace-separated rational sample values for the
                 floating-point oracle (``5/2``, ``2.5``, ``1e20``), each
                 listed once; ``parse_rho`` reads each, and the
                 ``--rho`` value too
  format         ``text`` or ``machine``
  out            optional output path

Every number is written in the ASCII digits 0-9, with no ``_``
separator, and a sample value's exponent is at most 100000 in absolute
value.  Any other key is an
error, so a misspelt key cannot fall back to a default unnoticed.  So is a
file that is not UTF-8, and a number with more digits than Python converts
to an int (``sys.get_int_max_str_digits``, 4300 by default).  One leading
byte-order mark (U+FEFF) is skipped; the byte offset an invalid-UTF-8
error names counts from the start of the file.

Custom covectors must pass the configuration validation (each light-like,
independent, light-like sum) before use.  Every oracle rho value must
exceed 1, keep the configuration regular (each covector component defined
there, and no pair or triple of covectors summing to a light-like covector
there) and keep the float oracle's values inside the range of its
``decimal`` context.
"""
from __future__ import annotations

import itertools
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import log

from .exact import parse_rho_rational
from .interaction import shared_evaluator, summed_terms
from .nullcone import ConfigError, NullConfig, standard_config
from .oracle import FLOAT_CONTEXT
from .tensor import CoVec4


_KEYS = ("zeta1", "zeta2", "zeta3", "zeta4", "oracle_rho", "format", "out")


class ScenarioError(ValueError):
    pass


class Scenario:
    __slots__ = ("config", "oracle_rho", "format", "out", "custom_config")

    def __init__(self, config: NullConfig,
                 oracle_rho: tuple = (Fraction(2), Fraction(3)),
                 format: str = "text", out: str = None,
                 custom_config: bool = False):
        self.config = config
        self.oracle_rho = oracle_rho
        self.format = format
        self.out = out
        self.custom_config = custom_config

    @staticmethod
    def default() -> "Scenario":
        return Scenario(config=standard_config())


def _check_digits(where: str, text: str) -> None:
    """Reject a number in ``text`` with more digits than Python converts
    to an int (``sys.get_int_max_str_digits``), naming ``where``."""
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, re.findall(r"[0-9]+", text)), default=0)
    if limit and longest > limit:
        raise ScenarioError(f"{where} has a number of {longest} digits, "
                            f"over the limit of {limit}")


#: the largest power of ten, up or down, a sample value may spell
RHO_EXPONENT_LIMIT = 10 ** 5


def parse_rho(text: str, where: str) -> Fraction:
    """One sample value of rho, as ``oracle_rho`` and ``--rho`` spell it: a
    rational number ``Fraction`` reads (``5/2``, ``2.5``, ``1e20``) in
    ASCII digits, with no ``_`` separator and an exponent of at most
    ``RHO_EXPONENT_LIMIT`` in absolute value, since ``Fraction`` computes
    the power of ten before any range check.  ``where`` names the value in
    the error."""
    _check_digits(where, text)
    other = [c for c in text if not c.isascii()]
    if other:
        raise ScenarioError(f"{where} has the non-ASCII character "
                            f"{other[0]!r}")
    if "_" in text:
        raise ScenarioError(f"{where} has the digit separator '_'")
    exponents = re.findall(r"[eE]([+-]?[0-9]+)", text)
    if any(abs(int(e)) > RHO_EXPONENT_LIMIT for e in exponents):
        raise ScenarioError(f"{where} has an exponent past "
                            f"+-{RHO_EXPONENT_LIMIT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"{where} is not a rational number") from None


def _parse_covector(name: str, text: str) -> CoVec4:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ScenarioError(f"{name} needs 4 components, got {len(parts)}")
    values = []
    for k, part in enumerate(parts, start=1):
        _check_digits(f"component {k} of {name}", part)
        try:
            values.append(parse_rho_rational(part))
        except ValueError as exc:
            raise ScenarioError(f"bad covector component {k} of {name}: "
                                f"{exc}") from exc
    return CoVec4(tuple(values))


#: the longest sample point that names and messages spell out in full
RHO_NAME_LIMIT = 40


def rho_name(rho: Fraction) -> str:
    """A sample point as verdict and value names, claims and messages show
    it.

    Its spelling ``a`` or ``a/b`` (``str(rho)``) when that has at most
    ``RHO_NAME_LIMIT`` characters.  A longer one is written with the
    trailing zeros of its numerator and denominator as a power of ten,
    ``a/b e k`` (``1e400`` for 10^400), when that fits the limit, and
    otherwise as the first 16 hex digits of the SHA-256 of its spelling.
    Each form is canonical, so a name stands for one value.  The spelling
    goes through ``Decimal``, whose ``str`` has no length limit, unlike
    that of an int.
    """
    num, den = (str(Decimal(n)) for n in (rho.numerator, rho.denominator))
    text = num if den == "1" else f"{num}/{den}"
    if len(text) <= RHO_NAME_LIMIT:
        return text
    a, b = num.rstrip("0"), den.rstrip("0")
    exponent = (len(num) - len(a)) - (len(den) - len(b))
    short = (a if b == "1" else f"{a}/{b}") + f"e{exponent}"
    if len(short) <= RHO_NAME_LIMIT:
        return short
    # imported here only: loading OpenSSL adds about 3.7 MB to the peak
    # resident memory of every report
    import hashlib
    return "sha256-" + hashlib.sha256(text.encode()).hexdigest()[:16]


def check_oracle_rho(config: NullConfig, rho_values) -> None:
    """Reject sample values outside the oracles' domain.

    Every value must exceed 1, and rho^D must not pass the largest value
    of ``FLOAT_CONTEXT``, where D is ``float_exponent``.  These two are
    checked first, so a value past the float range is rejected before it
    is evaluated exactly.  At each value every covector component must be
    defined, and every pair and triple subset sum must have nonzero squared
    norm (the causal-inverse nodes divide by it).
    """
    for rho in rho_values:
        if rho <= 1:
            raise ScenarioError(f"oracle rho {rho_name(rho)} must exceed 1")
    degree = float_exponent(config)
    largest = FLOAT_CONTEXT.next_minus(Decimal("Infinity"))
    log_largest = float(FLOAT_CONTEXT.ln(largest))
    for rho in rho_values:
        log_rho = log(rho.numerator) - log(rho.denominator)
        if degree * log_rho > log_largest:
            edge = FLOAT_CONTEXT.exp(Decimal(log_largest / degree))
            raise ScenarioError(
                f"oracle rho {rho_name(rho)} overflows the float oracle: its "
                f"values grow like rho^{degree}, past its largest value "
                f"(just below 1e+{FLOAT_CONTEXT.Emax + 1}) for rho above "
                f"{edge:.3e}")
    for rho in rho_values:
        for i, zeta in enumerate(config.zetas, start=1):
            for k, x in enumerate(zeta, start=1):
                if x.den.eval_at(rho) == 0:
                    raise ScenarioError(
                        f"oracle rho {rho_name(rho)}: component {k} of "
                        f"zeta{i} is undefined")
    for size in (2, 3):
        for subset in itertools.combinations(range(1, 5), size):
            norm = config.subset_norm(subset)
            for rho in rho_values:
                if norm.eval_at(rho) == 0:
                    name = "+".join(f"zeta{i}" for i in subset)
                    raise ScenarioError(
                        f"oracle rho {rho_name(rho)}: |{name}|^2 vanishes "
                        f"(waves {list(subset)})")


def float_exponent(config: NullConfig) -> int:
    """Degree in rho of the largest value the float oracle forms.

    The largest entry order of a term is the largest
    ``Evaluator.order_bound`` over the summed trees of the total; the jet's
    quasilinear part multiplies such a value by two covectors first, each
    of degree at most that of the largest covector component.  Only bounds
    are read, no term value.
    """
    ev = shared_evaluator(config)
    top = max(ev.order_bound(term.ast) for term in summed_terms())
    covector = max(x.infinity_degree for zeta in config.zetas for x in zeta)
    return top + 2 * max(covector, 0)


def parse_scenario(text: str) -> Scenario:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    zeta_keys = [k for k in pairs if k.startswith("zeta")]
    custom = False
    if zeta_keys:
        if sorted(zeta_keys) != ["zeta1", "zeta2", "zeta3", "zeta4"]:
            raise ScenarioError("custom configurations need zeta1..zeta4")
        zetas = tuple(_parse_covector(f"zeta{i}", pairs[f"zeta{i}"])
                      for i in range(1, 5))
        try:
            config = NullConfig(zetas)
        except ConfigError as exc:
            raise ScenarioError(f"invalid covector configuration: {exc}") from exc
        custom = True
    else:
        config = standard_config()

    rho_values = (Fraction(2), Fraction(3))
    if "oracle_rho" in pairs:
        rho_values = tuple(parse_rho(text, f"value {k} of oracle_rho")
                           for k, text in enumerate(
                               pairs["oracle_rho"].split(), start=1))
        if not rho_values:
            raise ScenarioError("oracle_rho must list at least one value")
        for k, rho in enumerate(rho_values):
            if rho in rho_values[:k]:
                raise ScenarioError(f"oracle_rho lists {rho_name(rho)} twice")
    check_oracle_rho(config, rho_values)

    fmt = pairs.get("format", "text")
    if fmt not in ("text", "machine"):
        raise ScenarioError(f"unknown format {fmt!r}")

    return Scenario(config=config, oracle_rho=rho_values, format=fmt,
                    out=pairs.get("out"), custom_config=custom)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"byte {exc.start}: not valid UTF-8 "
                            f"({exc.reason})") from exc
    return parse_scenario(text.removeprefix("\ufeff"))
