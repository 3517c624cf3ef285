"""Pinned design points as first-class accelerator registry entries.

A design-space exploration (:mod:`repro.dse`) produces winning
configurations; this module turns such a winner into a *named accelerator*:
``register_design_point`` derives a subclass of a registered simulator class
that forces the chosen configuration fields whatever configuration a job
carries, and registers it under a parametric name such as ``ganax@8x16``.
The pinned entry then works everywhere an accelerator name does — jobs,
:class:`repro.Session`, sweeps, and the CLI's ``--accelerators`` flag — so a
frontier point can be compared head-to-head against the stock models::

    from repro.accelerators import register_ganax_design_point
    from repro import Session

    name = register_ganax_design_point(num_pvs=8, pes_per_pv=16)
    multi = Session(accelerators=("eyeriss", "ganax", name)).compare("DCGAN")
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from ..config import ArchitectureConfig, SimulationOptions, _canonical_value
from ..errors import ConfigurationError
from .base import GanSimulatorBase
from .registry import register_accelerator


def register_design_point(
    base: Type[GanSimulatorBase],
    name: str,
    description: str = "",
    version: Optional[str] = None,
    **pinned_fields: Any,
) -> str:
    """Register a ``base`` simulator variant with configuration fields pinned.

    The derived entry overrides the listed :class:`ArchitectureConfig` fields
    of whatever configuration it is instantiated with, so the registered name
    *is* the design point: two jobs differing only in a pinned field produce
    identical results on it.  The registry version is derived from the base
    class's ``model_version`` plus the pinned assignment, so revising the
    base model invalidates the pinned entry's cached results too.  Returns
    the registered name.
    """
    if not issubclass(base, GanSimulatorBase):
        raise ConfigurationError(
            f"design points require a GanSimulatorBase subclass, got {base!r}"
        )
    if not pinned_fields:
        raise ConfigurationError("a design point must pin at least one field")
    name = str(name).strip().lower()  # match the registry's canonical spelling
    known = set(ArchitectureConfig.paper_default().to_mapping())
    unknown = set(pinned_fields) - known
    if unknown:
        raise ConfigurationError(
            f"unknown ArchitectureConfig fields: {sorted(unknown)}"
        )
    pinned: Dict[str, Any] = {
        field: _canonical_value(value)
        for field, value in sorted(pinned_fields.items())
    }
    pin_label = ",".join(f"{field}={value}" for field, value in pinned.items())

    class PinnedDesignPoint(base):  # type: ignore[valid-type, misc]
        accelerator_name = name
        model_version = f"{base.model_version}+{pin_label}"
        summary = description or (
            f"{base.accelerator_name or base.__name__} pinned to {pin_label}"
        )

        def __init__(
            self,
            config: Optional[ArchitectureConfig] = None,
            energy_table: Optional[Any] = None,
            options: Optional[SimulationOptions] = None,
        ) -> None:
            config = (config or ArchitectureConfig.paper_default()).with_updates(
                **pinned
            )
            super().__init__(config=config, energy_table=energy_table, options=options)

        def config_space(self) -> Tuple[str, ...]:
            """Pinned fields are no longer free axes of this entry."""
            return tuple(f for f in super().config_space() if f not in pinned)

    PinnedDesignPoint.__name__ = f"DesignPoint_{base.__name__}"
    PinnedDesignPoint.__qualname__ = PinnedDesignPoint.__name__
    register_accelerator(name, version=version, description=PinnedDesignPoint.summary)(
        PinnedDesignPoint
    )
    return name


def register_ganax_design_point(
    num_pvs: int,
    pes_per_pv: int,
    name: Optional[str] = None,
    description: str = "",
    **extra_fields: Any,
) -> str:
    """Register a swept-GANAX geometry point, named ``ganax@<pvs>x<pes>``.

    The convenience wrapper for the most common pin — the PE-array geometry a
    :mod:`repro.dse` search optimizes over.  Additional configuration fields
    (e.g. ``dram_bandwidth_bytes_per_cycle``) can be pinned alongside.
    """
    from ..core.simulator import GanaxSimulator

    return register_design_point(
        GanaxSimulator,
        name or f"ganax@{num_pvs}x{pes_per_pv}",
        description=description,
        num_pvs=num_pvs,
        pes_per_pv=pes_per_pv,
        **extra_fields,
    )
