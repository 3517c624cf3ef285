"""Registration of the built-in workloads: the six paper GANs + families.

Imported lazily by :mod:`repro.workloads.registry` on the first lookup
(mirroring how :mod:`repro.accelerators.registry` loads its builtins).
Registration is centralized here — rather than decorating each builder in
its home module — so the registry order is pinned to the paper's figure
order regardless of which workload module happens to be imported first.
Each paper GAN registers its family's one builder, which the registry calls
with no arguments: its defaults are the paper point.
"""

from __future__ import annotations

from . import families  # noqa: F401  (registers the workload families)
from .artgan import build_artgan
from .dcgan import build_dcgan
from .discogan import build_discogan
from .gpgan import build_gpgan
from .magan import build_magan
from .registry import register_workload
from .threed_gan import build_threed_gan

register_workload(
    "3D-GAN",
    family="3dgan",
    version="1",
    description="3-D voxel GAN (Wu et al., NIPS 2016): the paper's zero-density best case",
    aliases=("threedgan",),
)(build_threed_gan)

register_workload(
    "ArtGAN",
    family="artgan",
    version="1",
    description="128x128 conditional artwork GAN (Tan et al., 2017)",
)(build_artgan)

register_workload(
    "DCGAN",
    family="dcgan",
    version="1",
    description="the canonical 64x64 DCGAN generator/discriminator (Radford et al., 2015)",
)(build_dcgan)

register_workload(
    "DiscoGAN",
    family="discogan",
    version="1",
    description="encoder-decoder image-to-image translator (Kim et al., 2017)",
)(build_discogan)

register_workload(
    "GP-GAN",
    family="gpgan",
    version="1",
    description="high-resolution blending GAN decoder (Wu et al., 2017)",
)(build_gpgan)

register_workload(
    "MAGAN",
    family="magan",
    version="1",
    description="margin-adaptation GAN with autoencoder discriminator (Wang et al., 2017)",
)(build_magan)
