"""ArtGAN workload (Tan et al., 2017).

Table I lists ArtGAN with 5 transposed-convolution layers in the generator and
6 convolution layers in the discriminator.  ArtGAN generates 128x128 artwork
images conditioned on a category label; the generator projects the latent
(plus label embedding) to a 4x4x1024 seed and upsamples through five stride-2
transposed convolutions, and the discriminator downsamples 128x128 inputs
through six stride-2 convolutions.
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

#: The paper point: the ``artgan`` family's defaults.
DEFAULTS = {"size": 128, "base_channels": 1024, "latent_dim": 128}


def build_artgan(
    size: int = DEFAULTS["size"],
    base_channels: int = DEFAULTS["base_channels"],
    latent_dim: int = DEFAULTS["latent_dim"],
) -> GANModel:
    """ArtGAN: the paper model by default, or its recipe at another size / width.

    One stride-2 4x4 transposed convolution per doubling of the 4x4 seed and
    a mirroring discriminator with one extra stride-2 convolution — the
    128x128 paper model has 5 and 6.  Backs the ``artgan@...`` workload
    family (see :mod:`repro.workloads.families`).
    """
    blocks = upsampling_block_count(size)
    generator = build_generator(
        "artgan_generator",
        latent_dim,
        FeatureMapShape.image(channels=base_channels, height=4, width=4),
        tconv_stack(
            channel_plan=halving_channel_plan(blocks, base_channels, 3),
            kernel=4,
            stride=2,
            padding=1,
            prefix="tconv",
        ),
    )
    discriminator = build_discriminator(
        "artgan_discriminator",
        FeatureMapShape.image(channels=3, height=size, width=size),
        conv_stack(
            channel_plan=doubling_channel_plan(blocks + 1, base_channels),
            kernel=4,
            stride=2,
            padding=1,
            prefix="conv",
        ),
    )
    return GANModel(
        name="ArtGAN",
        generator=generator,
        discriminator=discriminator,
        year=2017,
        description="Complex artworks generation",
    )
