"""Network and GAN-model containers.

A :class:`Network` is an ordered stack of :class:`~repro.nn.layers.LayerSpec`
objects together with its input shape.  It resolves the shape chain once at
construction time and exposes per-layer views (:class:`LayerBinding`) that
pair each layer with its concrete input/output shapes — exactly what the
performance and energy models need.

A :class:`GANModel` is simply a named pair of networks: the generator and the
discriminator, mirroring Figure 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

from ..errors import NetworkError
from .layers import ConvLayer, LayerSpec, TransposedConvLayer
from .shapes import FeatureMapShape


@dataclass(frozen=True)
class LayerBinding:
    """A layer bound to its concrete input and output shapes."""

    index: int
    layer: LayerSpec
    input_shape: FeatureMapShape
    output_shape: FeatureMapShape

    @property
    def name(self) -> str:
        return self.layer.name

    def __hash__(self) -> int:
        # Cached: the layer-memo fingerprint cache hashes bindings on every
        # warm lookup, and the generated dataclass hash re-walks the nested
        # layer/shape tuples each time.  Bindings are immutable, so the value
        # is computed once (cached_property stores it on the instance
        # __dict__, bypassing the frozen __setattr__).
        return self._cached_hash

    @cached_property
    def _cached_hash(self) -> int:
        return hash((self.index, self.layer, self.input_shape, self.output_shape))

    # The work properties are cached per binding: the performance models read
    # them several times per estimate and bindings are immutable.
    @cached_property
    def total_macs(self) -> int:
        return self.layer.total_macs(self.input_shape)

    @cached_property
    def structure_fingerprint(self) -> str:
        """Digest of the layer and its input shape, name excluded: the layer
        half of every layer-memo key, so a warm lookup re-hashes nothing."""
        from ..analysis.serialization import _layer_structure_fingerprint

        return _layer_structure_fingerprint(self.layer, self.input_shape)

    @cached_property
    def consequential_macs(self) -> int:
        return self.layer.consequential_macs(self.input_shape)

    @cached_property
    def weight_count(self) -> int:
        return self.layer.weight_count(self.input_shape)

    @cached_property
    def input_elements(self) -> int:
        return self.input_shape.num_elements

    @cached_property
    def output_elements(self) -> int:
        return self.output_shape.num_elements

    @cached_property
    def is_transposed(self) -> bool:
        return self.layer.is_transposed

    @cached_property
    def is_convolutional(self) -> bool:
        return self.layer.is_convolutional


class Network:
    """An ordered stack of layers with a resolved shape chain."""

    def __init__(
        self,
        name: str,
        input_shape: FeatureMapShape,
        layers: Sequence[LayerSpec],
    ) -> None:
        if not name:
            raise NetworkError("network name must be non-empty")
        if not layers:
            raise NetworkError(f"network '{name}' has no layers")
        names = [layer.name for layer in layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise NetworkError(
                f"network '{name}' has duplicate layer names: {sorted(duplicates)}"
            )
        self._name = name
        self._input_shape = input_shape
        self._layers = tuple(layers)
        self._bindings = self._resolve_shapes()

    def _resolve_shapes(self) -> Tuple[LayerBinding, ...]:
        bindings: List[LayerBinding] = []
        shape = self._input_shape
        for index, layer in enumerate(self._layers):
            try:
                out = layer.output_shape(shape)
            except Exception as exc:  # re-raise with context
                raise NetworkError(
                    f"network '{self._name}': layer {index} ('{layer.name}') "
                    f"rejected input shape {shape}: {exc}"
                ) from exc
            bindings.append(
                LayerBinding(index=index, layer=layer, input_shape=shape, output_shape=out)
            )
            shape = out
        return tuple(bindings)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def input_shape(self) -> FeatureMapShape:
        return self._input_shape

    @property
    def output_shape(self) -> FeatureMapShape:
        return self._bindings[-1].output_shape

    @property
    def layers(self) -> Tuple[LayerSpec, ...]:
        return self._layers

    @property
    def bindings(self) -> Tuple[LayerBinding, ...]:
        return self._bindings

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerBinding]:
        return iter(self._bindings)

    def binding(self, layer_name: str) -> LayerBinding:
        """Look up a layer binding by layer name."""
        for binding in self._bindings:
            if binding.name == layer_name:
                return binding
        raise NetworkError(f"network '{self._name}' has no layer '{layer_name}'")

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def conv_layer_count(self) -> int:
        """Number of conventional convolution layers."""
        return sum(1 for b in self._bindings if isinstance(b.layer, ConvLayer))

    def transposed_conv_layer_count(self) -> int:
        """Number of transposed-convolution layers."""
        return sum(1 for b in self._bindings if isinstance(b.layer, TransposedConvLayer))

    def total_macs(self) -> int:
        """Dense MACs across the whole network."""
        return sum(b.total_macs for b in self._bindings)

    def consequential_macs(self) -> int:
        """Consequential MACs across the whole network."""
        return sum(b.consequential_macs for b in self._bindings)

    def transposed_bindings(self) -> Tuple[LayerBinding, ...]:
        """Bindings of transposed-convolution layers only."""
        return tuple(b for b in self._bindings if b.is_transposed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self._name!r}, layers={len(self._layers)}, "
            f"input={self._input_shape}, output={self.output_shape})"
        )


@dataclass(frozen=True)
class GANModel:
    """A GAN: a generative network and a discriminative network.

    Attributes
    ----------
    name:
        Model name as used in the paper (e.g. ``"DCGAN"``).
    generator / discriminator:
        The two constituent networks.
    year:
        Publication year of the GAN (Table I).
    description:
        One-line description of the application domain (Table I).
    discriminator_conv_only:
        If True, only the discriminator's conventional-convolution layers are
        counted in whole-model runtime/energy (the paper applies this rule to
        MAGAN, whose discriminator is an autoencoder containing TConv layers).
    """

    name: str
    generator: Network
    discriminator: Network
    year: int = 0
    description: str = ""
    discriminator_conv_only: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise NetworkError("GAN model name must be non-empty")

    # ------------------------------------------------------------------
    # Table I style summaries
    # ------------------------------------------------------------------
    def layer_counts(self) -> dict:
        """Conv/TConv counts per sub-model, as reported in Table I."""
        return {
            "generator_conv": self.generator.conv_layer_count(),
            "generator_tconv": self.generator.transposed_conv_layer_count(),
            "discriminator_conv": self.discriminator.conv_layer_count(),
            "discriminator_tconv": self.discriminator.transposed_conv_layer_count(),
        }

    def generator_tconv_inconsequential_fraction(self) -> float:
        """Figure 1 quantity: inconsequential fraction over generator TConvs."""
        total = 0
        consequential = 0
        for binding in self.generator.transposed_bindings():
            total += binding.total_macs
            consequential += binding.consequential_macs
        if total == 0:
            return 0.0
        return (total - consequential) / total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self.layer_counts()
        return (
            f"GANModel(name={self.name!r}, "
            f"gen={counts['generator_conv']}c/{counts['generator_tconv']}t, "
            f"disc={counts['discriminator_conv']}c/{counts['discriminator_tconv']}t)"
        )
