"""Field type checks shared by every configuration dataclass.

A config field's type is the type of its default: ``SimConfig`` and
each nested config (predictor, hierarchy, trace cache, optimizations)
check their own fields against their defaults at construction, so a
mistyped field is a :class:`ConfigError` from the constructor itself.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache
from typing import Any, Dict

from repro.errors import ConfigError


def has_type(value: object, default: object) -> bool:
    """Whether *value* has the type of the field whose default is
    *default*: bool is not an int here, and a tuple's elements are
    typed like the default's."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(
            has_type(item, default[0]) for item in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    return isinstance(value, type(default))


@lru_cache(maxsize=None)
def field_defaults(cls: type) -> Dict[str, Any]:
    """Each field of the dataclass *cls* with its default value (built
    once per class: a nested config's default is an instance)."""
    return {f.name: f.default_factory() if callable(f.default_factory)
            else f.default for f in fields(cls)}


def check_field_types(config: object) -> None:
    """Raise :class:`ConfigError` for the first field of the dataclass
    instance *config* whose value's type is not its default's."""
    for name, default in field_defaults(type(config)).items():
        value = getattr(config, name)
        if not has_type(value, default):
            raise ConfigError(
                f"{name} must be {type(default).__name__}, got {value!r}")


__all__ = ["check_field_types"]
