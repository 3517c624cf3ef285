"""DCGAN workload (Radford et al., 2015).

Table I of the GANAX paper lists DCGAN with 4 transposed-convolution layers in
the generator and 5 convolution layers in the discriminator.  The canonical
DCGAN generator projects a 100-dimensional latent vector to a 4x4x1024 seed
and upsamples it through four stride-2, 5x5 transposed convolutions up to a
64x64x3 image; the discriminator mirrors it with five stride-2 convolutions.
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

#: The paper point: the ``dcgan`` family's defaults.
DEFAULTS = {"size": 64, "base_channels": 1024, "latent_dim": 100}


def build_dcgan(
    size: int = DEFAULTS["size"],
    base_channels: int = DEFAULTS["base_channels"],
    latent_dim: int = DEFAULTS["latent_dim"],
) -> GANModel:
    """DCGAN: the paper model by default, or its recipe at another size / width.

    ``size`` must be a power-of-two multiple of the 4x4 seed; the generator
    gets one stride-2 5x5 transposed convolution per doubling and the
    discriminator mirrors it with one extra stride-2 convolution, so the
    64x64 paper model has 4 and 5.  Backs the ``dcgan@...`` workload family
    (see :mod:`repro.workloads.families`).
    """
    blocks = upsampling_block_count(size)
    generator = build_generator(
        "dcgan_generator",
        latent_dim,
        FeatureMapShape.image(channels=base_channels, height=4, width=4),
        tconv_stack(
            channel_plan=halving_channel_plan(blocks, base_channels, 3),
            kernel=5,
            stride=2,
            padding=2,
            output_padding=1,
            prefix="tconv",
        ),
    )
    discriminator = build_discriminator(
        "dcgan_discriminator",
        FeatureMapShape.image(channels=3, height=size, width=size),
        conv_stack(
            channel_plan=doubling_channel_plan(blocks + 1, base_channels),
            kernel=5,
            stride=2,
            padding=2,
            prefix="conv",
        ),
    )
    return GANModel(
        name="DCGAN",
        generator=generator,
        discriminator=discriminator,
        year=2015,
        description="Unsupervised representation learning",
    )
