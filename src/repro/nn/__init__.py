"""Neural-network substrate: shapes, layers, networks, functional reference."""

from .shapes import (
    FeatureMapShape,
    conv_output_extent,
    transposed_conv_output_extent,
    zero_inserted_extent,
)
from .layers import (
    ActivationLayer,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    LayerSpec,
    ReshapeLayer,
    TransposedConvLayer,
)
from .network import GANModel, LayerBinding, Network

__all__ = [
    "FeatureMapShape",
    "conv_output_extent",
    "transposed_conv_output_extent",
    "zero_inserted_extent",
    "ActivationLayer",
    "BatchNormLayer",
    "ConvLayer",
    "DenseLayer",
    "LayerSpec",
    "ReshapeLayer",
    "TransposedConvLayer",
    "GANModel",
    "LayerBinding",
    "Network",
]
