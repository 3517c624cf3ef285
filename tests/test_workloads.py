"""Unit tests for the GAN workload definitions (Table I) and the registry."""

from __future__ import annotations

import pytest

from repro.baseline.simulator import EyerissSimulator
from repro.errors import UnknownWorkloadError, WorkloadError
from repro.experiments.paper_data import TABLE1_LAYER_COUNTS
from repro.nn.network import GANModel
from repro.workloads.registry import (
    all_workloads,
    expand_workload_family,
    get_workload,
    get_workload_family,
    register_workload,
    register_workload_family,
    resolve_workload,
    unregister_workload,
    workload_families,
    workload_names,
    workload_version_for,
)


class TestRegistry:
    def test_six_workloads(self):
        assert len(workload_names()) == 6
        assert len(all_workloads()) == 6

    def test_paper_order(self):
        assert workload_names() == (
            "3D-GAN", "ArtGAN", "DCGAN", "DiscoGAN", "GP-GAN", "MAGAN"
        )

    def test_aliases_resolve(self):
        assert get_workload("dcgan").name == "DCGAN"
        assert get_workload("3dgan").name == "3D-GAN"
        assert get_workload("gp-gan").name == "GP-GAN"
        assert get_workload("GPGAN").name == "GP-GAN"

    def test_unknown_workload_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("StyleGAN")

    def test_models_are_cached(self):
        assert get_workload("DCGAN") is get_workload("DCGAN")


class TestTable1LayerCounts:
    @pytest.mark.parametrize("name", list(TABLE1_LAYER_COUNTS))
    def test_layer_counts_match_table1(self, name):
        model = get_workload(name)
        assert model.layer_counts() == TABLE1_LAYER_COUNTS[name]

    @pytest.mark.parametrize("name", list(TABLE1_LAYER_COUNTS))
    def test_models_have_description_and_year(self, name):
        model = get_workload(name)
        assert model.description
        assert 2014 <= model.year <= 2018


class TestGeneratorStructure:
    def test_dcgan_generator_output_is_64x64_rgb(self):
        model = get_workload("DCGAN")
        assert model.generator.output_shape.as_tuple() == (3, 64, 64)

    def test_threedgan_generator_output_is_64_cubed(self):
        model = get_workload("3D-GAN")
        assert model.generator.output_shape.as_tuple() == (1, 64, 64, 64)

    def test_artgan_generator_output_is_128x128(self):
        model = get_workload("ArtGAN")
        assert model.generator.output_shape.spatial == (128, 128)

    def test_discogan_generator_is_image_to_image(self):
        model = get_workload("DiscoGAN")
        assert model.generator.input_shape.as_tuple() == (3, 64, 64)
        assert model.generator.output_shape.as_tuple() == (3, 64, 64)

    def test_magan_generator_output_is_64x64_rgb(self):
        model = get_workload("MAGAN")
        assert model.generator.output_shape.as_tuple() == (3, 64, 64)

    def test_magan_discriminator_counts_conv_only(self):
        model = get_workload("MAGAN")
        assert model.discriminator_conv_only
        result = EyerissSimulator().simulate_gan(model)
        simulated = {r.layer_name for r in result.discriminator.layer_results}
        transposed = {b.name for b in model.discriminator.bindings if b.is_transposed}
        assert len(transposed) == 6 and not simulated & transposed
        convs = [
            b for b in model.discriminator.bindings if b.is_convolutional and b.name in simulated
        ]
        assert len(convs) == 6

    def test_generators_use_stride2_upsampling(self):
        for name in ("DCGAN", "ArtGAN", "GP-GAN"):
            model = get_workload(name)
            strides = [
                b.layer.stride[0]
                for b in model.generator.transposed_bindings()
            ]
            assert all(s == 2 for s in strides)


class TestZeroFractions:
    def test_threedgan_has_highest_fraction(self):
        fractions = {
            m.name: m.generator_tconv_inconsequential_fraction() for m in all_workloads()
        }
        assert max(fractions, key=fractions.get) == "3D-GAN"

    def test_magan_has_lowest_fraction(self):
        fractions = {
            m.name: m.generator_tconv_inconsequential_fraction() for m in all_workloads()
        }
        assert min(fractions, key=fractions.get) == "MAGAN"

    def test_average_fraction_exceeds_60_percent(self):
        """Figure 1: more than 60% of TConv multiply-adds are inconsequential."""
        fractions = [
            m.generator_tconv_inconsequential_fraction() for m in all_workloads()
        ]
        assert sum(fractions) / len(fractions) > 0.60

    def test_all_fractions_below_one(self):
        for model in all_workloads():
            assert model.generator_tconv_inconsequential_fraction() < 1.0

    def test_threedgan_fraction_around_80_percent(self):
        fraction = get_workload("3D-GAN").generator_tconv_inconsequential_fraction()
        assert 0.75 <= fraction <= 0.92


class TestWorkloadScale:
    @pytest.mark.parametrize("name", list(TABLE1_LAYER_COUNTS))
    def test_generators_have_giga_mac_scale_compute(self, name):
        """Every generator should be a realistic, compute-heavy network."""
        model = get_workload(name)
        assert model.generator.total_macs() > 1e8

    @pytest.mark.parametrize("name", list(TABLE1_LAYER_COUNTS))
    def test_discriminators_have_compute(self, name):
        model = get_workload(name)
        assert model.discriminator.total_macs() > 1e7

    def test_threedgan_is_the_largest_generator(self):
        macs = {m.name: m.generator.total_macs() for m in all_workloads()}
        assert max(macs, key=macs.get) == "3D-GAN"


# ----------------------------------------------------------------------
# The open registry: specs, custom registrations, families
# ----------------------------------------------------------------------
class TestWorkloadSpecs:
    def test_every_name_resolves_to_its_own_spec(self):
        for name in workload_names():
            spec = resolve_workload(name)
            assert spec.name == name
            assert spec.version
            assert spec.family
            assert spec.description

    def test_describe_is_json_friendly(self):
        import json

        record = resolve_workload("DCGAN").describe()
        assert json.loads(json.dumps(record)) == record
        assert record["name"] == "DCGAN"
        assert record["family"] == "dcgan"

    def test_build_returns_fresh_instances_but_get_workload_caches(self):
        spec = resolve_workload("DCGAN")
        assert spec.build() is not spec.build()
        assert get_workload(spec) is get_workload("DCGAN")

    def test_workload_version_for_registry_and_adhoc_models(self):
        model = get_workload("DCGAN")
        assert workload_version_for(model) == "1"
        import dataclasses

        renamed = dataclasses.replace(model, name="not-in-registry")
        assert workload_version_for(renamed) == ""
        # a registry *name* on a structurally different model inherits nothing
        impostor = dataclasses.replace(get_workload("MAGAN"), name="DCGAN")
        assert workload_version_for(impostor) == ""


class TestCustomRegistration:
    def test_register_resolve_unregister_roundtrip(self):
        @register_workload("test-tiny-gan", family="custom", version="7",
                           description="a tiny custom GAN")
        def build_tiny():
            import dataclasses

            return dataclasses.replace(get_workload("DCGAN"), name="test-tiny-gan")

        try:
            assert workload_names()[-1] == "test-tiny-gan"  # order preserved
            model = get_workload("TEST-TINY-GAN")  # case-insensitive alias
            assert model.name == "test-tiny-gan"
            assert workload_version_for(model) == "7"
        finally:
            unregister_workload("test-tiny-gan")
        assert "test-tiny-gan" not in workload_names()
        with pytest.raises(WorkloadError):
            resolve_workload("test-tiny-gan")

    def test_duplicate_name_registration_raises(self):
        with pytest.raises(WorkloadError):
            register_workload("DCGAN")(lambda: None)
        # aliases collide too, whatever the spelling
        with pytest.raises(WorkloadError):
            register_workload("gp_gan")(lambda: None)

    def test_duplicate_family_registration_raises(self):
        with pytest.raises(WorkloadError):
            register_workload_family("dcgan", lambda args: None)

    def test_reserved_characters_in_names_are_rejected(self):
        """'@' and ',' names would be unresolvable / break --workloads lists."""
        for bad in ("custom@v2", "a,b", "  "):
            with pytest.raises(WorkloadError):
                register_workload(bad)(lambda: None)

    def test_reregistration_refreshes_family_default_spellings(self):
        """Memoized family spellings must not pin a stale (version) spec."""
        from repro.workloads.dcgan import build_dcgan

        assert resolve_workload("dcgan@64x64").version == "1"
        spec = unregister_workload("DCGAN")
        try:
            register_workload("DCGAN", family=spec.family, version="2")(build_dcgan)
            assert resolve_workload("DCGAN").version == "2"
            assert resolve_workload("dcgan@64x64").version == "2"
        finally:
            unregister_workload("DCGAN")
            register_workload(
                "DCGAN",
                family=spec.family,
                version=spec.version,
                description=spec.description,
            )(spec.builder)
            # registration order changed (DCGAN is now last); restore the
            # paper figure order the listing tests pin
            import repro.workloads.registry as registry_module

            ordered = sorted(registry_module._REGISTRY)
            registry_module._REGISTRY.update(
                {name: registry_module._REGISTRY.pop(name) for name in ordered}
            )
        assert resolve_workload("dcgan@64x64").version == spec.version

    def test_unregistering_a_family_instance_is_rejected(self):
        with pytest.raises(WorkloadError):
            unregister_workload("dcgan@32x32")


class TestWorkloadFamilies:
    def test_families_are_listed(self):
        assert {"dcgan", "artgan", "gpgan", "3dgan", "discogan", "magan",
                "synthetic"} <= set(workload_families())

    def test_family_default_point_is_the_builtin_spec(self):
        assert resolve_workload("dcgan@64x64") is resolve_workload("DCGAN")
        assert resolve_workload("artgan@128x128") is resolve_workload("ArtGAN")
        assert resolve_workload("3dgan@64x64x64") is resolve_workload("3D-GAN")

    def test_equivalent_spellings_share_one_spec_and_model(self):
        a = resolve_workload("dcgan@32x32")
        assert resolve_workload("dcgan@size=32") is a
        assert resolve_workload("DCGAN@32X32") is a
        assert get_workload("dcgan@size=32") is get_workload("dcgan@32x32")

    def test_resolved_models_carry_the_canonical_name(self):
        model = get_workload("dcgan@32x32")
        assert model.name == "dcgan@32x32"
        assert model.generator.output_shape.as_tuple() == (3, 32, 32)

    def test_scaled_resolutions_and_channels(self):
        assert get_workload("dcgan@128x128").generator.output_shape.spatial == (128, 128)
        assert get_workload("artgan@ch128").generator.total_macs() < (
            get_workload("ArtGAN").generator.total_macs()
        )
        assert get_workload("3dgan@32x32x32").generator.output_shape.as_tuple() == (
            1, 32, 32, 32
        )
        assert get_workload("discogan@128x128").generator.output_shape.spatial == (
            128, 128
        )
        assert get_workload("magan@ch256").generator.total_macs() < (
            get_workload("MAGAN").generator.total_macs()
        )

    def test_canonical_names_round_trip_through_the_grammar(self):
        """Every canonical name must resolve back to its own spec — including
        multi-knob points (no commas: they must survive --workloads lists)
        and all-default points of builtin-less families."""
        from repro.cli import parse_workload_list

        for spec_string in (
            "dcgan@32x32,ch512",
            "dcgan@size32ch512",
            "3dgan@32x32x32,ch256",
            "synthetic@d6c128k4s2z50",  # every knob at its default
        ):
            spec = resolve_workload(spec_string)
            assert "," not in spec.name
            assert resolve_workload(spec.name) is spec
            assert parse_workload_list(spec.name) == (spec.name,)

    def test_resolution_primes_the_model_cache(self):
        """The resolver's validation build becomes the cached instance."""
        import repro.workloads.registry as registry_module
        from repro.workloads.registry import clear_cache

        clear_cache()
        spec = resolve_workload("synthetic@d3c32z100")
        assert registry_module._MODELS.get(spec.name) is not None
        assert get_workload(spec) is registry_module._MODELS[spec.name]

    def test_family_instances_do_not_pollute_workload_names(self):
        get_workload("dcgan@32x32")
        assert "dcgan@32x32" not in workload_names()

    def test_unknown_family_raises_with_listing(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            resolve_workload("stylegan@64x64")
        message = str(excinfo.value)
        assert "synthetic" in message and "dcgan" in message

    def test_discogan_size_guard_covers_the_discriminator(self):
        """Five stride-2 discriminator convolutions need size >= 32: 16 must
        fail at the family's guard, not as a NetworkError from conv5."""
        with pytest.raises(WorkloadError, match="power of two >= 32"):
            resolve_workload("discogan@16x16")
        model = get_workload("discogan@32x32")
        assert model.generator.output_shape.as_tuple() == (3, 32, 32)
        conv5 = next(b for b in model.discriminator.bindings if b.name == "conv5")
        assert conv5.output_shape.spatial == (1, 1)

    def test_bad_family_args_raise(self):
        for spec in ("dcgan@", "dcgan@banana", "dcgan@64x32", "dcgan@warp=9",
                     "magan@64x64", "synthetic@d99", "synthetic@z200"):
            with pytest.raises(WorkloadError):
                resolve_workload(spec)

    def test_expand_family_defaults_and_explicit_variants(self):
        assert expand_workload_family("synthetic") == [
            "synthetic@d4c64", "synthetic@z100", "synthetic@d8c256",
        ]
        assert expand_workload_family("dcgan", ("32x32", "dcgan@128x128")) == [
            "dcgan@32x32", "dcgan@128x128",
        ]
        family = get_workload_family("synthetic")
        assert family.grammar.startswith("synthetic@")


class TestSyntheticFamily:
    def test_depth_and_channel_knobs(self):
        model = get_workload("synthetic@d8c256")
        assert isinstance(model, GANModel)
        assert model.generator.transposed_conv_layer_count() == 8
        assert model.generator.layers[1].target.channels == 256  # reshaped seed

    def test_zero_density_knob_is_monotonic(self):
        fractions = [
            get_workload(f"synthetic@d6c64z{z}").generator_tconv_inconsequential_fraction()
            for z in (0, 50, 100)
        ]
        assert fractions[0] < fractions[1] < fractions[2]

    def test_stride_knob_raises_zero_density(self):
        s2 = get_workload("synthetic@d4c64z100")
        s4 = get_workload("synthetic@d4c64s4z100")
        assert (
            s4.generator_tconv_inconsequential_fraction()
            > s2.generator_tconv_inconsequential_fraction()
        )

    def test_synthetic_simulates_end_to_end(self):
        from repro.runner import SimulationRunner, SimulationJob
        from repro.config import ArchitectureConfig, SimulationOptions

        job = SimulationJob(
            "synthetic@d4c64",
            "ganax",
            ArchitectureConfig.paper_default(),
            SimulationOptions(),
        )
        result = SimulationRunner().run_job(job)
        assert result.model_name == "synthetic@d4c64"
        assert result.generator.cycles > 0
