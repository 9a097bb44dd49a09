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
    sign = 1

    [grid]
    x_min = -3.0 ... nt = 101

plus [tolerances], [output], [run], [sim], [stability], [ansatz].

Unknown sections or keys are rejected.  Missing keys take the defaults
below and the fully resolved configuration is echoed back in every report
header.  CLI overrides use the dotted form ``--param section.key=value``
and win over file values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .core import ConfigError, Grid, Params
from .simulate import SimConfig
from .solutions import SolutionFamily, family_catalog, make_family

__all__ = ["RunConfig", "load_config", "SCHEMA"]

# section -> key -> (type, default)
SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
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
        "format": (str, "csv"),
        "dir": (str, ""),
    },
    "run": {
        "seed": (int, 0),
    },
    "sim": {
        "scheme": (str, "rk4"),
        "bc": (str, "dirichlet-from-family"),
        "cfl_safety": (float, 0.25),
        "refinements": (int, 0),
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
        "n": (int, 201),
        "k_sweep": (int, 1000),
    },
}

def _coerce(section: str, key: str, raw: str):
    kind, _ = SCHEMA[section][key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration (every key present)."""

    values: dict

    def section(self, name: str) -> dict:
        return self.values[name]

    def resolved(self) -> dict:
        """Echo of the resolved configuration for report headers."""
        return {sec: dict(kv) for sec, kv in self.values.items()}

    def params(self) -> Params:
        s = self.section("params")
        return Params(D=s["d"], epsilon=s["epsilon"], beta=s["beta"], c=s["c"])

    def family(self, p: Params | None = None) -> SolutionFamily:
        s = self.section("family")
        tag = s["tag"]
        catalog = family_catalog()
        if tag not in catalog:
            raise ConfigError(
                f"unknown family tag {tag!r}; known: {', '.join(catalog)}"
            )
        p = p if p is not None else self.params()
        constants = {key: s[key] for key in catalog[tag]["constant_names"]}
        return make_family(tag, p, **constants)

    def grid(self) -> Grid:
        s = self.section("grid")
        return Grid(
            x_min=s["x_min"],
            x_max=s["x_max"],
            nx=s["nx"],
            t_min=s["t_min"],
            t_max=s["t_max"],
            nt=s["nt"],
        )

    def sim_config(self) -> SimConfig:
        s = self.section("sim")
        return SimConfig(
            grid=self.grid(),
            scheme=s["scheme"],
            bc=s["bc"],
            cfl_safety=s["cfl_safety"],
        )

    def seed(self) -> int:
        return self.section("run")["seed"]

    def tol(self, name: str) -> float:
        return self.section("tolerances")[name]

    def output_format(self) -> str:
        fmt = self.section("output")["format"]
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
        return fmt

    def output_dir(self) -> str:
        return self.section("output")["dir"]


def _defaults() -> dict:
    return {sec: {k: v for k, (_, v) in kv.items()} for sec, kv in SCHEMA.items()}


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Read the config file (optional) and apply --param overrides."""
    values = _defaults()

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
            for key, raw in parser.items(sec):
                if key not in SCHEMA[sec]:
                    raise ConfigError(f"unknown config key {sec}.{key}")
                values[sec][key] = _coerce(sec, key, raw)

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key must be dotted section.key: {dotted!r}")
        sec, key = dotted.split(".", 1)
        sec = sec.strip().lower()
        key = key.strip().lower()
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError(f"unknown override {sec}.{key}")
        values[sec][key] = _coerce(sec, key, raw.strip())

    return RunConfig(values=values)
