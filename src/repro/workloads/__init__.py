"""GAN workloads: the six paper models (Table I) plus the open registry.

The registry (:mod:`repro.workloads.registry`) mirrors the accelerator
registry: fixed workloads register under a name via :func:`register_workload`
and parameterized **families** resolve spec strings like ``dcgan@32x32`` or
``synthetic@d8c256`` on demand (:mod:`repro.workloads.families`,
:mod:`repro.workloads.synthetic`).  See ``README.md`` in this directory.
"""

from .artgan import build_artgan
from .dcgan import build_dcgan
from .discogan import build_discogan
from .gpgan import build_gpgan
from .magan import build_magan
from .registry import (
    WorkloadFamily,
    WorkloadSpec,
    all_workloads,
    describe_workload_families,
    describe_workloads,
    expand_workload_family,
    get_workload,
    get_workload_family,
    register_workload,
    register_workload_family,
    resolve_workload,
    unregister_workload,
    workload_families,
    workload_names,
    workload_version_for,
)
from .synthetic import build_synthetic
from .threed_gan import build_threed_gan

__all__ = [
    "WorkloadFamily",
    "WorkloadSpec",
    "build_artgan",
    "build_dcgan",
    "build_discogan",
    "build_gpgan",
    "build_magan",
    "build_synthetic",
    "build_threed_gan",
    "all_workloads",
    "describe_workload_families",
    "describe_workloads",
    "expand_workload_family",
    "get_workload",
    "get_workload_family",
    "register_workload",
    "register_workload_family",
    "resolve_workload",
    "unregister_workload",
    "workload_families",
    "workload_names",
    "workload_version_for",
]
