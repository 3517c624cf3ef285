"""Golden regression: the headline numbers of the paper reproduction.

These values were captured from the seed implementation on
``ArchitectureConfig.paper_default()`` and pin the exact per-model generator
speedups and energy reductions for all six evaluated GAN workloads, plus
their geomeans (the paper's abstract-level claims).  Runner, cache or sweep
refactors must not move these numbers at all — the tolerance only absorbs
floating-point noise from a different summation order, not model drift.

If a deliberate model change moves them, recapture the values in the same
commit and say so in the commit message.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import geometric_mean
from repro.analysis.serialization import workload_fingerprint
from repro.analysis.sweep import compare_models
from repro.config import ArchitectureConfig
from repro.runner import SimulationRunner
from repro.workloads import artgan, dcgan, discogan, gpgan, magan, threed_gan
from repro.workloads.registry import all_workloads, get_workload, workload_names

#: model -> (generator speedup, generator energy reduction) on paper defaults,
#: captured from the seed (git 056798f).
GOLDEN = {
    "3D-GAN": (8.294872609932957, 4.6774771943603755),
    "ArtGAN": (3.939804766358853, 2.430527162956952),
    "DCGAN": (4.55573990462587, 2.4957907010860487),
    "DiscoGAN": (3.160956537367584, 1.975331062100266),
    "GP-GAN": (3.940532910783142, 2.3379412950065754),
    "MAGAN": (2.5665611960038337, 2.018641698631775),
}

GOLDEN_GEOMEAN_SPEEDUP = 4.101361734069381
GOLDEN_GEOMEAN_ENERGY_REDUCTION = 2.5336240675564055

#: model -> (generator speedup, energy reduction) over EYERISS for the two
#: registered accelerator variants, captured when they were introduced.
#: ``ganax-noskip`` must sit just below 1x (it pays the MIMD dispatch tax
#: without harvesting sparsity) and ``ideal`` must bound ``ganax`` from above.
VARIANT_GOLDEN = {
    "ganax-noskip": {
        "3D-GAN": (0.9999998773050476, 0.9999999588418732),
        "ArtGAN": (0.9999964479908519, 0.9999991459943699),
        "DCGAN": (0.9999986032220316, 0.9999996522111371),
        "DiscoGAN": (0.9999979044826888, 0.9999995557038758),
        "GP-GAN": (0.9999977126388142, 0.9999994850515117),
        "MAGAN": (0.9999993150978908, 0.9999998522531706),
    },
    "ideal": {
        "3D-GAN": (9.378192824042289, 16.517630730754362),
        "ArtGAN": (4.538265018265018, 11.15493289810595),
        "DCGAN": (5.120830587501514, 12.145940940233249),
        "DiscoGAN": (3.4395692683231545, 9.582759131761016),
        "GP-GAN": (4.695954800317945, 12.322124297153934),
        "MAGAN": (2.958709983593652, 8.1004193059745),
    },
}

#: model -> structural fingerprint (the runner-cache workload identity),
#: captured from the seed models before the workload registry redesign.  The
#: registry must keep building byte-identical structures for the six paper
#: specs whatever happens to the builder plumbing.
GOLDEN_FINGERPRINTS = {
    "3D-GAN": "021f6abdb495d889d284f5744a168231774dbe3f32f0afb829faacc6c2c78ff8",
    "ArtGAN": "797141e7e412b53e4322e18de849bc3a7de6f1b23344b6dacca758b851c89d13",
    "DCGAN": "c98e8fc5dbea2ae4696ba686404403ce230f837e95bce1f1baacbde1e2f03469",
    "DiscoGAN": "23fa143417378c14bc4b8773252475a61b7ecd4d139765f11dcb2a147d8f8065",
    "GP-GAN": "ac6956bbd8359faa7dcfab4c5c380d80094180507f013312888ba369ca1b62a6",
    "MAGAN": "6adace1f37f0392d75dca0b757232c265e107e8c61dd2de26795b59cab1d8d84",
}

RELATIVE_TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def comparisons():
    return compare_models(
        all_workloads(), ArchitectureConfig.paper_default(), runner=SimulationRunner()
    )


@pytest.fixture(scope="module")
def variant_comparisons():
    runner = SimulationRunner()
    return runner.compare_accelerators(
        all_workloads(),
        ("eyeriss", "ganax", "ganax-noskip", "ideal"),
        baseline="eyeriss",
        config=ArchitectureConfig.paper_default(),
    )


def test_golden_covers_all_registered_workloads():
    assert set(GOLDEN) == set(workload_names())


@pytest.mark.parametrize("model_name", sorted(GOLDEN_FINGERPRINTS))
def test_workload_fingerprints_pinned(model_name):
    """Registry-built paper specs stay byte-identical to the seed models."""
    assert (
        workload_fingerprint(get_workload(model_name))
        == GOLDEN_FINGERPRINTS[model_name]
    )


@pytest.mark.parametrize("model_name", sorted(GOLDEN_FINGERPRINTS))
def test_family_default_specs_are_the_paper_workloads(model_name):
    """The families' default points resolve to the pinned paper fingerprints."""
    from repro.workloads.registry import resolve_workload

    family = resolve_workload(model_name).family
    spec = resolve_workload(model_name)
    assert resolve_workload(f"{model_name}") is spec
    default_spellings = {
        "3dgan": "3dgan@64x64x64",
        "artgan": "artgan@128x128",
        "dcgan": "dcgan@64x64",
        "discogan": "discogan@64x64",
        "gpgan": "gpgan@64x64",
        "magan": "magan@ch512",
    }
    assert resolve_workload(default_spellings[family]) is spec
    assert (
        workload_fingerprint(get_workload(default_spellings[family]))
        == GOLDEN_FINGERPRINTS[model_name]
    )


#: paper model -> (its module, the family's one builder).
PAPER_BUILDERS = {
    "3D-GAN": (threed_gan, threed_gan.build_threed_gan),
    "ArtGAN": (artgan, artgan.build_artgan),
    "DCGAN": (dcgan, dcgan.build_dcgan),
    "DiscoGAN": (discogan, discogan.build_discogan),
    "GP-GAN": (gpgan, gpgan.build_gpgan),
    "MAGAN": (magan, magan.build_magan),
}


@pytest.mark.parametrize("model_name", sorted(GOLDEN_FINGERPRINTS))
def test_family_builder_at_declared_defaults_is_the_paper_model(model_name):
    """Each family's builder, called with the family's declared defaults and
    not through the registry's built-in shortcut, builds the pinned model."""
    module, build = PAPER_BUILDERS[model_name]
    model = build(**module.DEFAULTS)
    assert workload_fingerprint(model) == GOLDEN_FINGERPRINTS[model_name]
    registered = get_workload(model_name)
    assert (model.name, model.year, model.description) == (
        registered.name,
        registered.year,
        registered.description,
    )


@pytest.mark.parametrize("model_name", sorted(GOLDEN))
def test_generator_speedup_pinned(comparisons, model_name):
    expected_speedup, _ = GOLDEN[model_name]
    assert comparisons[model_name].generator_speedup == pytest.approx(
        expected_speedup, rel=RELATIVE_TOLERANCE
    )


@pytest.mark.parametrize("model_name", sorted(GOLDEN))
def test_generator_energy_reduction_pinned(comparisons, model_name):
    _, expected_reduction = GOLDEN[model_name]
    assert comparisons[model_name].generator_energy_reduction == pytest.approx(
        expected_reduction, rel=RELATIVE_TOLERANCE
    )


def test_geomean_headline_numbers_pinned(comparisons):
    speedups = [c.generator_speedup for c in comparisons.values()]
    reductions = [c.generator_energy_reduction for c in comparisons.values()]
    assert geometric_mean(speedups) == pytest.approx(
        GOLDEN_GEOMEAN_SPEEDUP, rel=RELATIVE_TOLERANCE
    )
    assert geometric_mean(reductions) == pytest.approx(
        GOLDEN_GEOMEAN_ENERGY_REDUCTION, rel=RELATIVE_TOLERANCE
    )


@pytest.mark.parametrize("variant", sorted(VARIANT_GOLDEN))
@pytest.mark.parametrize("model_name", sorted(GOLDEN))
def test_variant_numbers_pinned(variant_comparisons, variant, model_name):
    expected_speedup, expected_reduction = VARIANT_GOLDEN[variant][model_name]
    multi = variant_comparisons[model_name]
    assert multi.generator_speedup(variant) == pytest.approx(
        expected_speedup, rel=RELATIVE_TOLERANCE
    )
    assert multi.generator_energy_reduction(variant) == pytest.approx(
        expected_reduction, rel=RELATIVE_TOLERANCE
    )


def test_variant_ordering_invariants(variant_comparisons):
    """Physics of the design points: noskip < 1x <= ganax <= ideal."""
    for multi in variant_comparisons.values():
        assert multi.generator_speedup("eyeriss") == 1.0
        assert multi.generator_speedup("ganax-noskip") < 1.0
        assert multi.generator_speedup("ganax") > 1.0
        assert multi.generator_speedup("ideal") > multi.generator_speedup("ganax")


def test_multi_comparison_two_way_view_matches_legacy(comparisons, variant_comparisons):
    """The N-way grid's eyeriss/ganax slice is the legacy comparison exactly."""
    for name, comparison in comparisons.items():
        two_way = variant_comparisons[name].as_comparison()
        assert two_way.generator_speedup == comparison.generator_speedup
        assert (
            two_way.generator_energy_reduction
            == comparison.generator_energy_reduction
        )
