"""Unit tests for Network / GANModel containers."""

from __future__ import annotations

import pytest

from repro.accelerators import accelerator_names, create_accelerator
from repro.baseline.simulator import EyerissSimulator
from repro.config import SimulationOptions
from repro.errors import NetworkError
from repro.nn.layers import ActivationLayer, ConvLayer, DenseLayer, TransposedConvLayer
from repro.nn.network import GANModel, Network
from repro.nn.shapes import FeatureMapShape
from repro.workloads.discogan import build_discogan


def _tiny_generator() -> Network:
    return Network(
        name="gen",
        input_shape=FeatureMapShape.image(8, 4, 4),
        layers=(
            TransposedConvLayer(name="t1", out_channels=4, kernel=4, stride=2, padding=1),
            ActivationLayer(name="a1", function="relu"),
            TransposedConvLayer(name="t2", out_channels=1, kernel=4, stride=2, padding=1),
            ActivationLayer(name="a2", function="tanh"),
        ),
    )


def _tiny_discriminator() -> Network:
    return Network(
        name="disc",
        input_shape=FeatureMapShape.image(1, 16, 16),
        layers=(
            ConvLayer(name="c1", out_channels=4, kernel=4, stride=2, padding=1),
            ConvLayer(name="c2", out_channels=8, kernel=4, stride=2, padding=1),
            DenseLayer(name="fc", out_features=1),
        ),
    )


def _autoencoder_gan(conv_only: bool) -> GANModel:
    """A GAN whose discriminator is an autoencoder, as MAGAN's is."""
    autoencoder_disc = Network(
        name="disc_ae",
        input_shape=FeatureMapShape.image(1, 16, 16),
        layers=(
            ConvLayer(name="c1", out_channels=4, kernel=4, stride=2, padding=1),
            TransposedConvLayer(name="d1", out_channels=1, kernel=4, stride=2, padding=1),
        ),
    )
    return GANModel(
        name="ae",
        generator=_tiny_generator(),
        discriminator=autoencoder_disc,
        discriminator_conv_only=conv_only,
    )


def _discriminator_layers(result):
    return [r.layer_name for r in result.discriminator.layer_results]


class TestNetwork:
    def test_shape_chain_resolved(self):
        net = _tiny_generator()
        assert net.output_shape.as_tuple() == (1, 16, 16)
        assert len(net) == 4

    def test_bindings_chain_inputs_to_outputs(self):
        net = _tiny_generator()
        bindings = net.bindings
        for previous, current in zip(bindings, bindings[1:]):
            assert previous.output_shape == current.input_shape

    def test_layer_counts(self):
        assert _tiny_generator().transposed_conv_layer_count() == 2
        assert _tiny_generator().conv_layer_count() == 0
        assert _tiny_discriminator().conv_layer_count() == 2

    def test_total_macs_is_sum_of_bindings(self):
        net = _tiny_generator()
        assert net.total_macs() == sum(b.total_macs for b in net.bindings)

    def test_consequential_less_than_total_for_tconv(self):
        net = _tiny_generator()
        assert net.consequential_macs() < net.total_macs()

    def test_binding_lookup_by_name(self):
        net = _tiny_generator()
        binding = net.binding("t2")
        assert binding.layer.name == "t2"
        assert binding.is_transposed

    def test_binding_geometry_read_once(self):
        """The estimators' binding facts equal the shape and layer facts, and
        a binding derives each one once."""
        for binding in _tiny_generator().bindings + _tiny_discriminator().bindings:
            assert binding.input_elements == binding.input_shape.num_elements
            assert binding.output_elements == binding.output_shape.num_elements
            assert binding.is_transposed == binding.layer.is_transposed
            assert binding.is_convolutional == binding.layer.is_convolutional
            for name in (
                "input_elements", "output_elements", "is_transposed", "is_convolutional"
            ):
                assert name in vars(binding)

    def test_binding_lookup_missing_raises(self):
        with pytest.raises(NetworkError):
            _tiny_generator().binding("nope")

    def test_transposed_bindings_filter(self):
        assert len(_tiny_discriminator().transposed_bindings()) == 0

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                name="bad",
                input_shape=FeatureMapShape.image(1, 8, 8),
                layers=(
                    ConvLayer(name="c", out_channels=2, kernel=3, stride=1, padding=1),
                    ConvLayer(name="c", out_channels=2, kernel=3, stride=1, padding=1),
                ),
            )

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkError):
            Network(name="bad", input_shape=FeatureMapShape.image(1, 8, 8), layers=())

    def test_broken_shape_chain_reports_layer(self):
        with pytest.raises(NetworkError, match="kernel"):
            Network(
                name="bad",
                input_shape=FeatureMapShape.image(1, 2, 2),
                layers=(
                    ConvLayer(name="c1", out_channels=2, kernel=5, stride=1, padding=0),
                ),
            )

    def test_iteration_yields_bindings(self):
        names = [binding.name for binding in _tiny_generator()]
        assert names == ["t1", "a1", "t2", "a2"]


class TestGANModel:
    def test_layer_counts_dict(self):
        model = GANModel(
            name="tiny", generator=_tiny_generator(), discriminator=_tiny_discriminator()
        )
        counts = model.layer_counts()
        assert counts == {
            "generator_conv": 0,
            "generator_tconv": 2,
            "discriminator_conv": 2,
            "discriminator_tconv": 0,
        }

    def test_generator_inconsequential_fraction_bounds(self):
        model = GANModel(
            name="tiny", generator=_tiny_generator(), discriminator=_tiny_discriminator()
        )
        fraction = model.generator_tconv_inconsequential_fraction()
        assert 0.0 < fraction < 1.0

    def test_generator_fraction_skips_conv_layers(self):
        """Figure 1's fraction is over generator TConvs only: DiscoGAN's five
        encoder convs (no inserted zeros) must not dilute it."""
        model = build_discogan()
        assert model.layer_counts()["generator_conv"] == 5
        bindings = model.generator.bindings
        first_tconv = next(b.index for b in bindings if b.is_transposed)
        decoder = Network(
            name="discogan_decoder",
            input_shape=bindings[first_tconv].input_shape,
            layers=model.generator.layers[first_tconv:],
        )
        decoder_only = GANModel(
            name="decoder", generator=decoder, discriminator=model.discriminator
        )
        fraction = model.generator_tconv_inconsequential_fraction()
        assert fraction == decoder_only.generator_tconv_inconsequential_fraction()
        convolutional = [b for b in model.generator.bindings if b.is_convolutional]
        total = sum(b.total_macs for b in convolutional)
        inconsequential = sum(b.total_macs - b.consequential_macs for b in convolutional)
        assert 0.0 < inconsequential / total < fraction

    def test_generator_fraction_without_tconv_is_zero(self):
        model = GANModel(
            name="convs", generator=_tiny_discriminator(), discriminator=_tiny_discriminator()
        )
        assert model.generator_tconv_inconsequential_fraction() == 0.0

    def test_discriminator_accounting_excludes_tconv_when_flagged(self):
        result = EyerissSimulator().simulate_gan(_autoencoder_gan(conv_only=True))
        assert _discriminator_layers(result) == ["c1"]

    def test_empty_name_rejected(self):
        with pytest.raises(NetworkError):
            GANModel(name="", generator=_tiny_generator(), discriminator=_tiny_discriminator())


class TestDiscriminatorAccounting:
    """The MAGAN rule lives in ``GanSimulatorBase.simulate_gan``: a conv-only
    discriminator's tconv layers leave the accounting on every registered
    accelerator, and only while the model flag and the option are both set."""

    @pytest.mark.parametrize("accelerator", accelerator_names())
    def test_conv_only_discriminator_drops_tconv(self, accelerator):
        result = create_accelerator(accelerator).simulate_gan(_autoencoder_gan(True))
        assert _discriminator_layers(result) == ["c1"]

    @pytest.mark.parametrize("accelerator", accelerator_names())
    def test_option_off_keeps_tconv(self, accelerator):
        options = SimulationOptions(magan_discriminator_conv_only=False)
        simulator = create_accelerator(accelerator, options=options)
        result = simulator.simulate_gan(_autoencoder_gan(True))
        assert _discriminator_layers(result) == ["c1", "d1"]

    def test_unflagged_model_keeps_tconv(self):
        result = EyerissSimulator().simulate_gan(_autoencoder_gan(False))
        assert _discriminator_layers(result) == ["c1", "d1"]
