"""DiscoGAN workload (Kim et al., 2017).

Table I lists DiscoGAN with 5 convolution layers *and* 4 transposed-convolution
layers in the generator (it is an encoder-decoder image-to-image translator),
and 5 convolution layers in the discriminator.  The generator encodes a
64x64x3 image through four stride-2 convolutions and a stride-1 bottleneck
convolution down to 4x4 and decodes it back through four stride-2
transposed convolutions; the discriminator is a DCGAN-style stack of five
stride-2 convolutions.
"""

from __future__ import annotations

from ..errors import WorkloadError
from ..nn.layers import ActivationLayer, BatchNormLayer, ConvLayer
from ..nn.network import GANModel, Network
from ..nn.shapes import FeatureMapShape
from .builder import (
    build_discriminator,
    conv_stack,
    doubling_channel_plan,
    halving_channel_plan,
    tconv_stack,
)

#: The paper point: the ``discogan`` family's defaults.
DEFAULTS = {"size": 64, "base_channels": 1024}


def build_discogan(
    size: int = DEFAULTS["size"], base_channels: int = DEFAULTS["base_channels"]
) -> GANModel:
    """DiscoGAN: the paper translator by default, or rescaled.

    Four stride-2 encoder convolutions reduce ``size`` by 16; a fifth
    stride-1 bottleneck convolution (``base_channels`` wide) keeps that
    resolution so that four stride-2 decoder transposed convolutions restore
    the input size.  This 4-down / bottleneck / 4-up shape is DiscoGAN's
    identity; only the input size and the bottleneck width scale.  ``size``
    is a power of two of at least 32: the discriminator's five stride-2
    convolutions reduce it by 32.  Backs the ``discogan@...`` workload
    family.
    """
    if size < 32 or size & (size - 1):
        raise WorkloadError(
            f"DiscoGAN size must be a power of two >= 32 (the discriminator's "
            f"five stride-2 convolutions halve it five times), got {size}"
        )
    image_shape = FeatureMapShape.image(channels=3, height=size, width=size)
    encoder = conv_stack(
        channel_plan=doubling_channel_plan(4, base_channels // 2),
        kernel=4,
        stride=2,
        padding=1,
        activation="leaky_relu",
        final_activation="leaky_relu",
        prefix="enc",
    )
    bottleneck = (
        ConvLayer(name="enc5", out_channels=base_channels, kernel=3, stride=1, padding=1),
        BatchNormLayer(name="enc5_bn"),
        ActivationLayer(name="enc5_act", function="leaky_relu"),
    )
    decoder = tconv_stack(
        channel_plan=halving_channel_plan(4, base_channels, 3),
        kernel=4,
        stride=2,
        padding=1,
        prefix="dec",
    )
    generator = Network(
        name="discogan_generator",
        input_shape=image_shape,
        layers=(*encoder, *bottleneck, *decoder),
    )
    discriminator = build_discriminator(
        "discogan_discriminator",
        image_shape,
        conv_stack(
            channel_plan=doubling_channel_plan(5, base_channels),
            kernel=4,
            stride=2,
            padding=1,
            prefix="conv",
        ),
    )
    return GANModel(
        name="DiscoGAN",
        generator=generator,
        discriminator=discriminator,
        year=2017,
        description="Style transfer from one domain to another",
    )
