"""Neural-network substrate: shapes, layers, functional reference, analysis."""

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
from .zero_analysis import (
    RowPattern,
    TransposedConvAnalysis,
    analyze_transposed_conv,
)

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
    "RowPattern",
    "TransposedConvAnalysis",
    "analyze_transposed_conv",
]
