"""Run configuration: a sectioned key = value file plus CLI overrides.

Grammar (INI style, parsed by configparser):

    [params]
    D = 1.03
    epsilon = 0.3
    beta = 2.0
    c = 0.0

    [family]
    tag = NonClassicalExp
    c1 = 1.0
    c2 = 1.0
    x0 = 0.0

    [grid]
    x_min = -3.0 ... nt = 101

plus [tolerances], [output], [run], [sim], [stability], [ansatz].

CLI overrides use the dotted form ``--param section.key=value``.  File
entries, then overrides, become one list of (section, key, raw) entries;
one loop rejects unknown keys, coerces each, checks its rule and records
it as given, so an override beats the file and a configuration that loads
holds every rule, whatever the command.  File sections are case-sensitive
(an unknown one is an error even when empty); override names are stripped
and lowercased.  Missing keys take the defaults below, and the resolved
configuration is echoed in every report header.  A family takes only the
constants that were given; the others take the class defaults, equal to
those below.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .core import _MAX_SAMPLES, ConfigError, Grid, Params
from .simulate import SimConfig
from .solutions import SolutionFamily, make_family

__all__ = ["RunConfig", "load_config", "SCHEMA"]

# section -> key -> (type, default[, rule]).  A rule is an int's inclusive
# (min, max) range or a str's allowed values.  Keys that a run object checks
# (Grid, SimConfig, Params, dispersion_sweep) carry none.
SCHEMA: dict[str, dict[str, tuple]] = {
    "params": {
        "d": (float, 1.03),
        "epsilon": (float, 0.3),
        "beta": (float, 2.0),
        "c": (float, 0.0),
    },
    "family": {
        "tag": (str, "NonClassicalExp"),
        "c1": (float, 1.0),
        "c2": (float, 1.0),
        "x0": (float, 0.0),
    },
    "grid": {
        "x_min": (float, -3.0),
        "x_max": (float, 3.0),
        "nx": (int, 201),
        "t_min": (float, 0.0),
        "t_max": (float, 5.0),
        "nt": (int, 101),
    },
    "tolerances": {
        "analytic": (float, 1e-10),
        "finite_difference": (float, 1e-5),
        "third_order": (float, 1e-9),
        "invariant_surface": (float, 1e-13),
        "constraint": (float, 1e-10),
    },
    # format picks the stdout report style; dir enables file output when
    # nonempty (the --json / --out flags override)
    "output": {
        "format": (str, "csv", ("csv", "json")),
        "dir": (str, ""),
    },
    "run": {
        "seed": (int, 0, (0, math.inf)),
    },
    "sim": {
        "scheme": (str, "rk4"),
        "bc": (str, "dirichlet-from-family"),
        "cfl_safety": (float, 0.25),
        "refinements": (int, 0, (0, math.inf)),
    },
    "stability": {
        "u_star": (str, "auto"),
        "k_max": (float, 5.0),
        "n": (int, 101),
    },
    "ansatz": {
        "a": (str, "auto"),
        "b": (float, 0.0),
        "x_min": (float, -2.0),
        "x_max": (float, 2.0),
        "n": (int, 201, (1, _MAX_SAMPLES)),
        "k_sweep": (int, 1000, (0, _MAX_SAMPLES)),
    },
}


def _coerce(section: str, key: str, raw: str):
    kind, default, *rule = SCHEMA[section][key]
    name = f"{section}.{key}"
    # floats, and 'auto' keys set to anything else, must be finite numbers
    numeric = kind is float or (default == "auto" and raw != "auto")
    try:
        value = kind(raw)
        if numeric and not math.isfinite(float(raw)):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc
    if rule and kind is str and value not in rule[0]:
        raise ConfigError(f"{name} must be {' or '.join(rule[0])}, got {value!r}")
    if rule and kind is int:
        lo, hi = rule[0]
        if value < lo:
            raise ConfigError(f"{name} must be >= {lo}, got {value}")
        if value > hi:
            raise ConfigError(f"{name} must be <= {hi}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (every key present); ``given`` holds the
    (section, key) pairs that the file or an override set."""

    values: dict
    given: frozenset

    def section(self, name: str) -> dict:
        return self.values[name]

    def resolved(self) -> dict:
        """Echo of the resolved configuration for report headers."""
        return {sec: dict(kv) for sec, kv in self.values.items()}

    def params(self) -> Params:
        # [params] lists its keys in the order of Params' fields
        return Params(*self.section("params").values())

    def family(self, p: Params | None = None) -> SolutionFamily:
        """The configured family with the family constants that were given,
        so that ``make_family`` rejects one the tag does not take (and an
        unknown tag) and the others take the class defaults."""
        s = self.section("family")
        given = {key: s[key] for sec, key in self.given if sec == "family" and key != "tag"}
        return make_family(s["tag"], p if p is not None else self.params(), **given)

    def grid(self) -> Grid:
        return Grid(**self.section("grid"))

    def sim_config(self) -> SimConfig:
        s = self.section("sim")
        return SimConfig(self.grid(), **{key: s[key] for key in s if key != "refinements"})

    def tol(self, name: str) -> float:
        return self.section("tolerances")[name]


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Read the config file (optional) and apply --param overrides."""
    entries = []
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            entries += [(sec, key, raw) for key, raw in parser.items(sec)]
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key must be dotted section.key: {dotted!r}")
        sec, key = (part.strip().lower() for part in dotted.split(".", 1))
        entries.append((sec, key, raw.strip()))
    values = {sec: {key: entry[1] for key, entry in kv.items()} for sec, kv in SCHEMA.items()}
    for sec, key, raw in entries:
        if key not in SCHEMA.get(sec, {}):
            raise ConfigError(f"unknown config key {sec}.{key}")
        values[sec][key] = _coerce(sec, key, raw)
    return RunConfig(values=values, given=frozenset((sec, key) for sec, key, _ in entries))
