"""Scenario files: flat key-value text configuring a verification run.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  Keys:

  zeta1..zeta4   four comma-separated component expressions in rho
                 (integers, + - * / ^, parentheses), e.g.
                 ``zeta4 = rho^10, -rho^10, 0, 0``
  oracle_rho     whitespace-separated decimal sample values for the
                 floating-point oracle
  format         ``text`` or ``machine``
  out            optional output path

Custom covectors must pass the configuration validation (each light-like,
independent, light-like sum) before use.  Every oracle rho value must keep
the configuration regular: each covector component defined there, and no
pair or triple of covectors summing to a light-like covector there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import parse_rho_rational
from .nullcone import ConfigError, NullConfig, standard_config
from .tensor import CoVec4, norm_sq


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    config: NullConfig
    oracle_rho: tuple = (Fraction(2), Fraction(3))
    format: str = "text"
    out: str = None
    custom_config: bool = False

    @staticmethod
    def default() -> "Scenario":
        return Scenario(config=standard_config())


def _parse_covector(text: str) -> CoVec4:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ScenarioError(f"covector needs 4 components, got {len(parts)}")
    try:
        return CoVec4(tuple(parse_rho_rational(p) for p in parts))
    except ValueError as exc:
        raise ScenarioError(f"bad covector component: {exc}") from exc


def check_oracle_rho(config: NullConfig, rho_values) -> None:
    """Reject sample values where the oracles would divide by zero.

    At each value every covector component must be defined, and every pair
    and triple subset sum must have nonzero squared norm (the causal-inverse
    nodes divide by it).
    """
    for rho in rho_values:
        for i, zeta in enumerate(config.zetas, start=1):
            for k, x in enumerate(zeta, start=1):
                if x.den.eval_at(rho) == 0:
                    raise ScenarioError(
                        f"oracle rho {rho}: component {k} of zeta{i} is "
                        "undefined")
    for size in (2, 3):
        for subset in itertools.combinations(range(1, 5), size):
            norm = norm_sq(config.metric, config.subset_sum(subset))
            for rho in rho_values:
                if norm.eval_at(rho) == 0:
                    name = "+".join(f"zeta{i}" for i in subset)
                    raise ScenarioError(
                        f"oracle rho {rho}: |{name}|^2 vanishes (waves "
                        f"{list(subset)})")


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
        if key in pairs:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    zeta_keys = [k for k in pairs if k.startswith("zeta")]
    custom = False
    if zeta_keys:
        if sorted(zeta_keys) != ["zeta1", "zeta2", "zeta3", "zeta4"]:
            raise ScenarioError("custom configurations need zeta1..zeta4")
        zetas = tuple(_parse_covector(pairs[f"zeta{i}"]) for i in range(1, 5))
        try:
            config = NullConfig(zetas)
        except ConfigError as exc:
            raise ScenarioError(f"invalid covector configuration: {exc}") from exc
        custom = True
    else:
        config = standard_config()

    rho_values = (Fraction(2), Fraction(3))
    if "oracle_rho" in pairs:
        try:
            rho_values = tuple(Fraction(v) for v in pairs["oracle_rho"].split())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad oracle_rho: {exc}") from exc
        if not rho_values:
            raise ScenarioError("oracle_rho must list at least one value")
        for v in rho_values:
            if v <= 1:
                raise ScenarioError("oracle rho values must exceed 1")
    check_oracle_rho(config, rho_values)

    fmt = pairs.get("format", "text")
    if fmt not in ("text", "machine"):
        raise ScenarioError(f"unknown format {fmt!r}")

    return Scenario(config=config, oracle_rho=rho_values, format=fmt,
                    out=pairs.get("out"), custom_config=custom)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
