"""3D-GAN workload (Wu et al., NIPS 2016).

Table I lists 3D-GAN with 4 transposed-convolution layers in the generator and
5 convolution layers in the discriminator.  The generator maps a 200-d latent
vector to a 4x4x4x512 voxel seed and upsamples it through four stride-2 4x4x4
3-D transposed convolutions to a 64x64x64 occupancy grid; the discriminator
mirrors it with five stride-2 3-D convolutions.

Because the zero insertion happens along all three spatial dimensions, 3D-GAN
has the largest fraction of inconsequential operations of all evaluated GANs
(about 80% in Figure 1) and consequently the largest speedup (6.1x in
Figure 8a).
"""

from __future__ import annotations

from ..nn.network import GANModel
from ..nn.shapes import FeatureMapShape
from .builder import (
    build_discriminator,
    build_generator,
    conv_stack,
    doubling_channel_plan,
    halving_channel_plan,
    tconv_stack,
    upsampling_block_count,
)

#: The paper point: the ``3dgan`` family's defaults.
DEFAULTS = {"size": 64, "base_channels": 512, "latent_dim": 200}


def build_threed_gan(
    size: int = DEFAULTS["size"],
    base_channels: int = DEFAULTS["base_channels"],
    latent_dim: int = DEFAULTS["latent_dim"],
) -> GANModel:
    """3D-GAN: the paper model by default, or its recipe on another voxel grid.

    One stride-2 4x4x4 3-D transposed convolution per doubling of the 4x4x4
    seed (the 64^3 paper model has 4) and a mirroring discriminator with one
    extra stride-2 3-D convolution; the three-axis zero insertion makes this
    family the stress case for inconsequential-MAC fractions.  Backs the
    ``3dgan@...`` workload family (see :mod:`repro.workloads.families`).
    """
    blocks = upsampling_block_count(size)
    generator = build_generator(
        "3dgan_generator",
        latent_dim,
        FeatureMapShape.volume(channels=base_channels, depth=4, height=4, width=4),
        tconv_stack(
            channel_plan=halving_channel_plan(blocks, base_channels, 1, floor=8),
            kernel=4,
            stride=2,
            padding=1,
            rank=3,
            final_activation="sigmoid",
            prefix="tconv3d",
        ),
    )
    discriminator = build_discriminator(
        "3dgan_discriminator",
        FeatureMapShape.volume(channels=1, depth=size, height=size, width=size),
        conv_stack(
            channel_plan=doubling_channel_plan(blocks + 1, base_channels),
            kernel=4,
            stride=2,
            padding=1,
            rank=3,
            prefix="conv3d",
        ),
    )
    return GANModel(
        name="3D-GAN",
        generator=generator,
        discriminator=discriminator,
        year=2016,
        description="3D objects generation",
    )
