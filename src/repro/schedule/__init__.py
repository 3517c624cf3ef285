"""Searchable schedule layer: algorithm–schedule separation over the GANAX ISA.

See :mod:`repro.schedule.spec` for the knob semantics, ``README.md`` in this
directory for the spec grammar and authoring guide, and
:mod:`repro.schedule.verify` for the verify-then-simulate contract that gates
schedules entering a design-space search.
"""

from .registry import (
    ScheduleFamily,
    ScheduleLike,
    canonical_schedule_name,
    describe_schedule,
    describe_schedules,
    register_schedule,
    register_schedule_family,
    resolve_schedule,
    schedule_families,
    schedule_names,
    unregister_schedule,
)
from .spec import DEFAULT_SCHEDULE, ScheduleSpec, schedule_fingerprint
from .verify import (
    ScheduleFeasibility,
    clear_feasibility_cache,
    schedule_is_feasible,
    verify_schedule,
)

__all__ = [
    "DEFAULT_SCHEDULE",
    "ScheduleFamily",
    "ScheduleFeasibility",
    "ScheduleLike",
    "ScheduleSpec",
    "clear_feasibility_cache",
    "canonical_schedule_name",
    "describe_schedule",
    "describe_schedules",
    "register_schedule",
    "register_schedule_family",
    "resolve_schedule",
    "schedule_families",
    "schedule_fingerprint",
    "schedule_is_feasible",
    "schedule_names",
    "unregister_schedule",
    "verify_schedule",
]
