"""MAGAN workload (Wang et al., 2017).

Table I lists MAGAN with 6 transposed-convolution layers in the generator and
a discriminator containing both 6 convolution and 6 transposed-convolution
layers — MAGAN's discriminator is an autoencoder whose reconstruction error
drives the margin-adaptation training procedure.  The paper notes two MAGAN
specifics that this module reproduces:

* MAGAN has the *lowest* fraction of inserted zeros among the evaluated GANs
  (Figure 1) and therefore the smallest speedup (about 1.3x in Figure 8a).
  We model this with a generator whose six transposed-convolution blocks
  alternate stride-2 upsampling layers with stride-1 refinement layers (which
  insert no zeros), so only half of the generator's transposed-convolution
  work sees zero insertion.
* For the discriminator, only the convolution layers are counted in the
  runtime/energy accounting (``discriminator_conv_only=True``), exactly as
  the paper does for its Figure 9 breakdown.
"""

from __future__ import annotations

from ..errors import WorkloadError
from ..nn.layers import ActivationLayer, BatchNormLayer, ConvLayer, TransposedConvLayer
from ..nn.network import GANModel, Network
from ..nn.shapes import FeatureMapShape
from .builder import build_generator

#: The paper point: the ``magan`` family's defaults.
DEFAULTS = {"base_channels": 512, "latent_dim": 100}
IMAGE_SHAPE = FeatureMapShape.image(channels=3, height=64, width=64)


def _block(layer, *, batch_norm: bool = True, activation: str = "relu"):
    """A (t)conv layer followed by optional batch-norm and an activation."""
    layers = [layer]
    if batch_norm:
        layers.append(BatchNormLayer(name=f"{layer.name}_bn"))
    layers.append(ActivationLayer(name=f"{layer.name}_act", function=activation))
    return layers


def build_magan(
    base_channels: int = DEFAULTS["base_channels"],
    latent_dim: int = DEFAULTS["latent_dim"],
) -> GANModel:
    """MAGAN: the paper model by default, or its topology at another width.

    The generator's six transposed convolutions alternate stride-2 4x4
    blocks, which upsample 8x8 -> 16 -> 32 -> 64, with stride-1 3x3 blocks,
    which refine the feature maps without inserting zeros.  The
    discriminator is a 6-conv / 6-tconv autoencoder (conv-only accounting).
    That topology is MAGAN's identity, so only the channel widths scale:
    every plan entry is the paper's one multiplied by ``base_channels / 512``.
    Backs the ``magan@...`` workload family.
    """
    if base_channels < 16 or base_channels % 8:
        raise WorkloadError(
            f"MAGAN base_channels must be a multiple of 8 >= 16, "
            f"got {base_channels}"
        )
    c = base_channels

    layers = []
    layers += _block(TransposedConvLayer(name="tconv1", out_channels=c, kernel=4, stride=2, padding=1))
    layers += _block(TransposedConvLayer(name="tconv2", out_channels=c, kernel=3, stride=1, padding=1))
    layers += _block(TransposedConvLayer(name="tconv3", out_channels=c // 2, kernel=4, stride=2, padding=1))
    layers += _block(TransposedConvLayer(name="tconv4", out_channels=c // 2, kernel=3, stride=1, padding=1))
    layers += _block(TransposedConvLayer(name="tconv5", out_channels=c // 4, kernel=4, stride=2, padding=1))
    layers += _block(
        TransposedConvLayer(name="tconv6", out_channels=3, kernel=3, stride=1, padding=1),
        batch_norm=False,
        activation="tanh",
    )
    generator = build_generator(
        "magan_generator",
        latent_dim,
        FeatureMapShape.image(channels=2 * c, height=8, width=8),
        layers,
    )

    encoder = []
    encoder += _block(ConvLayer(name="enc1", out_channels=c // 8, kernel=4, stride=2, padding=1),
                      batch_norm=False, activation="leaky_relu")
    encoder += _block(ConvLayer(name="enc2", out_channels=c // 4, kernel=4, stride=2, padding=1),
                      activation="leaky_relu")
    encoder += _block(ConvLayer(name="enc3", out_channels=c // 2, kernel=4, stride=2, padding=1),
                      activation="leaky_relu")
    encoder += _block(ConvLayer(name="enc4", out_channels=c, kernel=4, stride=2, padding=1),
                      activation="leaky_relu")
    encoder += _block(ConvLayer(name="enc5", out_channels=c, kernel=3, stride=1, padding=1),
                      activation="leaky_relu")
    encoder += _block(ConvLayer(name="enc6", out_channels=2 * c, kernel=3, stride=1, padding=1),
                      activation="leaky_relu")
    decoder = []
    decoder += _block(TransposedConvLayer(name="dec1", out_channels=c, kernel=3, stride=1, padding=1))
    decoder += _block(TransposedConvLayer(name="dec2", out_channels=c, kernel=4, stride=2, padding=1))
    decoder += _block(TransposedConvLayer(name="dec3", out_channels=c // 2, kernel=4, stride=2, padding=1))
    decoder += _block(TransposedConvLayer(name="dec4", out_channels=c // 4, kernel=4, stride=2, padding=1))
    decoder += _block(TransposedConvLayer(name="dec5", out_channels=c // 8, kernel=4, stride=2, padding=1))
    decoder += _block(
        TransposedConvLayer(name="dec6", out_channels=3, kernel=3, stride=1, padding=1),
        batch_norm=False,
        activation="tanh",
    )
    discriminator = Network(
        name="magan_discriminator",
        input_shape=IMAGE_SHAPE,
        layers=(*encoder, *decoder),
    )
    return GANModel(
        name="MAGAN",
        generator=generator,
        discriminator=discriminator,
        year=2017,
        description="Stable training procedure for GANs",
        discriminator_conv_only=True,
    )
