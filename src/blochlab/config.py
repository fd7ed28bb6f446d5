"""Runtime configuration: grid shape and verdict thresholds.

Config files are INI-style (flat TOML with ``[section]`` / ``key = value``
pairs parses identically)::

    [grid]
    max_shell = 14
    base_angular = 64

    [thresholds]
    divergence = 1e3
    compact_tol = 1e-2

Resolution order: explicit path argument, then the ``BLOCHLAB_CONFIG``
environment variable, then built-in defaults.  Unknown sections or keys are
rejected rather than ignored.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .criteria import Thresholds
from .diskgeom import DEFAULT_BASE_ANGULAR, DEFAULT_MAX_SHELL

ENV_VAR = "BLOCHLAB_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GridConfig:
    max_shell: int = DEFAULT_MAX_SHELL
    base_angular: int = DEFAULT_BASE_ANGULAR


@dataclass(frozen=True)
class Config:
    grid: GridConfig = field(default_factory=GridConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)


DEFAULT_CONFIG = Config()

_SCHEMA = {
    "grid": {"max_shell": int, "base_angular": int},
    "thresholds": {"divergence": float, "compact_tol": float},
}


def load_config(path: str | None = None) -> Config:
    """Load configuration from ``path``, ``$BLOCHLAB_CONFIG``, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return DEFAULT_CONFIG
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return Config(
        grid=GridConfig(**values["grid"]),
        thresholds=Thresholds(**values["thresholds"]),
    )
