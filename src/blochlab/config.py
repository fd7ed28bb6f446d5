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
environment variable, then built-in defaults.  :func:`read_config` reads
these sections for INI files and JSON sweep specs alike, with the defaults as
the schema: unknown sections or keys are rejected rather than ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

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


def read_config(sections: dict[str, dict]) -> Config:
    """Settings ``{section: {key: value}}`` over the defaults.

    Each value is read from its text as its default's type, so ``5.7`` is no
    ``max_shell``, and must pass its section's own checks (a threshold is
    finite and positive).  Unknown sections or keys and unreadable or
    rejected values raise :class:`ConfigError` naming them.
    """
    defaults = vars(Config())
    read = {}
    for section, items in sections.items():
        if section not in defaults:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(items, dict):
            raise ConfigError(f"config section {section!r} must map keys to values, got {items!r}")
        schema, settings = vars(defaults[section]), defaults[section]
        for key, raw in items.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:  # read as the default's type, then through the section's own checks
                settings = replace(settings, **{key: type(schema[key])(str(raw))})
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None
        read[section] = settings
    return Config(**read)


def load_config(path: str | None = None) -> Config:
    """Load configuration from ``path``, ``$BLOCHLAB_CONFIG``, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return Config()
    # imported here, so that only a run with a config file pays for it (~2 ms)
    import configparser

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    return read_config({section: dict(parser.items(section)) for section in parser.sections()})
