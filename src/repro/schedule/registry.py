"""Registry of named schedules and schedule families.

Mirrors the accelerator and workload registries: builtin specs register
lazily on first use, user code adds more with :func:`register_schedule`, and
spec strings resolve through :func:`resolve_schedule`.  Two kinds of entry
exist:

* **named schedules** — a fixed :class:`~repro.schedule.spec.ScheduleSpec`
  under its canonical name (``default``, ``hoisted``, ...);
* **schedule families** — parameterised generators addressed as
  ``<family>@<args>`` with a compact ``key<int>`` grammar, e.g.
  ``colmajor@tile64`` (column-major traversal over 64-wide column tiles) or
  ``unroll@u2`` (two repeat-dispatch groups per column).  ``<family>`` alone
  resolves the family's default point.

Resolution is total over ``None`` (the default schedule), canonical spec
strings, and :class:`ScheduleSpec` instances, so every schedule-taking API
accepts any of the three.  Unknown strings raise
:class:`~repro.errors.UnknownScheduleError` listing everything registered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import ScheduleError, UnknownScheduleError
from .spec import DEFAULT_SCHEDULE, ScheduleSpec, schedule_fingerprint

#: Anything a schedule-taking API accepts.
ScheduleLike = Union[None, str, ScheduleSpec]

_COMPACT = re.compile(r"([a-z]+)(\d+)")


@dataclass(frozen=True)
class ScheduleFamily:
    """A parameterised schedule generator addressed as ``name@args``."""

    name: str
    grammar: str
    description: str
    resolver: Callable[[str], ScheduleSpec]

    def describe(self) -> Dict[str, str]:
        return {
            "family": self.name,
            "grammar": self.grammar,
            "description": self.description,
        }


_REGISTRY: Dict[str, ScheduleSpec] = {}
_FAMILIES: Dict[str, ScheduleFamily] = {}
_builtins_loaded = False


def _normalize_name(name: str) -> str:
    if not isinstance(name, str) or not name.strip():
        raise ScheduleError("schedule name must be a non-empty string")
    return name.strip().lower()


def _load_builtin_schedules() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from . import builtins as _  # noqa: F401  (registers on import)


def register_schedule(spec: ScheduleSpec) -> ScheduleSpec:
    """Register a named schedule; returns the spec for chaining.

    The spec's own ``name`` is the registry key.  Registering a duplicate
    name raises (use :func:`unregister_schedule` first to replace one).
    """
    _load_builtin_schedules()
    if not isinstance(spec, ScheduleSpec):
        raise ScheduleError(
            f"register_schedule expects a ScheduleSpec, got {type(spec).__name__}"
        )
    name = _normalize_name(spec.name)
    if name in _REGISTRY:
        raise ScheduleError(f"schedule '{name}' is already registered")
    if name.partition("@")[0] in _FAMILIES:
        raise ScheduleError(
            f"schedule '{name}' collides with the registered family "
            f"'{name.partition('@')[0]}'"
        )
    if name != spec.name:
        spec = replace(spec, name=name)
    _REGISTRY[name] = spec
    return spec


def register_schedule_family(
    name: str,
    resolver: Callable[[str], ScheduleSpec],
    *,
    grammar: str,
    description: str = "",
) -> ScheduleFamily:
    """Register a schedule family reachable as ``<name>@<args>``."""
    _load_builtin_schedules()
    name = _normalize_name(name)
    if "@" in name:
        raise ScheduleError(f"family name '{name}' must not contain '@'")
    if name in _FAMILIES:
        raise ScheduleError(f"schedule family '{name}' is already registered")
    if any(existing.partition("@")[0] == name for existing in _REGISTRY):
        raise ScheduleError(
            f"schedule family '{name}' collides with a registered schedule"
        )
    family = ScheduleFamily(
        name=name, grammar=grammar, description=description, resolver=resolver
    )
    _FAMILIES[name] = family
    return family


def unregister_schedule(name: str) -> None:
    """Remove a named schedule (primarily for tests)."""
    _load_builtin_schedules()
    _REGISTRY.pop(_normalize_name(name), None)


def schedule_names() -> Tuple[str, ...]:
    """Sorted names of every registered (named) schedule."""
    _load_builtin_schedules()
    return tuple(sorted(_REGISTRY))


def schedule_families() -> Tuple[str, ...]:
    """Sorted names of every registered schedule family."""
    _load_builtin_schedules()
    return tuple(sorted(_FAMILIES))


def resolve_schedule(spec: ScheduleLike) -> ScheduleSpec:
    """Resolve anything schedule-like to a concrete :class:`ScheduleSpec`.

    ``None`` resolves to the builtin default; a :class:`ScheduleSpec` passes
    through unchanged; a string resolves by registered name first, then as
    ``<family>@<args>``.
    """
    if spec is None:
        return DEFAULT_SCHEDULE
    if isinstance(spec, ScheduleSpec):
        return spec
    _load_builtin_schedules()
    name = _normalize_name(spec)
    entry = _REGISTRY.get(name)
    if entry is not None:
        return entry
    family_name, sep, args = name.partition("@")
    family = _FAMILIES.get(family_name)
    if family is None:
        raise UnknownScheduleError(name, schedule_names(), schedule_families())
    return family.resolver(args if sep else "")


def canonical_schedule_name(spec: ScheduleLike) -> str:
    """The canonical spec string of anything schedule-like."""
    return resolve_schedule(spec).name


def describe_schedule(spec: ScheduleLike) -> Dict[str, object]:
    """JSON-friendly description of one schedule (knobs + fingerprint)."""
    resolved = resolve_schedule(spec)
    return {
        "name": resolved.name,
        "description": resolved.description,
        "fingerprint": schedule_fingerprint(resolved),
        "knobs": resolved.knob_mapping(),
    }


def describe_schedules() -> Dict[str, object]:
    """JSON-friendly description of the whole registry (CLI ``list-schedules``)."""
    return {
        "schedules": [describe_schedule(name) for name in schedule_names()],
        "families": [
            _FAMILIES[name].describe() for name in schedule_families()
        ],
    }


# ----------------------------------------------------------------------
# Family-grammar helper (the compact ``key<int>`` run)
# ----------------------------------------------------------------------
def parse_compact_args(
    family: str, args: str, *, keys: Dict[str, str], defaults: Dict[str, int]
) -> Dict[str, int]:
    """Parse a compact ``key<int>`` run (``"tile64"``, ``"u2"``) to knobs.

    ``keys`` maps grammar keys to knob names; ``defaults`` (knob-name keyed)
    fills anything unspecified.  Empty ``args`` yields the defaults — the
    family's default point.
    """
    values = dict(defaults)
    position = 0
    text = args.strip()
    while position < len(text):
        match = _COMPACT.match(text, position)
        if not match:
            raise ScheduleError(
                f"schedule family '{family}': cannot parse args at "
                f"'{text[position:]}' (grammar: {family}@"
                + "".join(f"{k}<int>" for k in keys)
                + ")"
            )
        key, number = match.group(1), int(match.group(2))
        knob = keys.get(key)
        if knob is None:
            accepted = ", ".join(sorted(keys))
            raise ScheduleError(
                f"schedule family '{family}': unknown key '{key}' "
                f"(accepted keys: {accepted})"
            )
        values[knob] = number
        position = match.end()
    return values
