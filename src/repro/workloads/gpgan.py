"""GP-GAN workload (Wu et al., 2017).

Table I lists GP-GAN with 4 transposed-convolution layers in the generator and
5 convolution layers in the discriminator.  GP-GAN targets high-resolution
image blending; its blending GAN is an encoder-decoder whose decoder
upsamples a 4x4x1024 bottleneck through four stride-2 transposed convolutions
to a 64x64 blended image.  As in the paper's accounting, the generator's
compute-dominant layers are the transposed convolutions, and the discriminator
is a DCGAN-style stack of five stride-2 convolutions.
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

#: The paper point: the ``gpgan`` family's defaults.
DEFAULTS = {"size": 64, "base_channels": 1024, "latent_dim": 256}


def build_gpgan(
    size: int = DEFAULTS["size"],
    base_channels: int = DEFAULTS["base_channels"],
    latent_dim: int = DEFAULTS["latent_dim"],
) -> GANModel:
    """GP-GAN: the paper model by default, or its blending decoder rescaled.

    One stride-2 4x4 transposed convolution per doubling of the 4x4
    bottleneck and a mirroring discriminator with one extra stride-2
    convolution — the 64x64 paper model has 4 and 5.  Backs the
    ``gpgan@...`` workload family (see :mod:`repro.workloads.families`).
    """
    blocks = upsampling_block_count(size)
    generator = build_generator(
        "gpgan_generator",
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
        "gpgan_discriminator",
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
        name="GP-GAN",
        generator=generator,
        discriminator=discriminator,
        year=2017,
        description="High-resolution image generation",
    )
