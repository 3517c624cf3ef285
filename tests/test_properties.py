"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import count_consequential_macs_bruteforce, count_consequential_macs_gemm
from repro.analysis.serialization import (
    config_fingerprint,
    fingerprint_data,
    options_fingerprint,
    workload_fingerprint,
)
from repro.config import ArchitectureConfig, SimulationOptions
from repro.core.dataflow import build_schedule
from repro.core.index_generator import GeneratorConfig, StridedIndexGenerator
from repro.hw.counters import EventCounters
from repro.hw.energy import EnergyModel
from repro.hw.fifo import Fifo
from repro.isa.assembler import assemble_line, disassemble_uop
from repro.isa.encoding import (
    decode_global_uop,
    decode_local_uop,
    encode_global_uop,
    encode_local_uop,
)
from repro.errors import IsaError
from repro.isa.uops import (
    AccessCfg,
    AccessStart,
    AccessStop,
    AddressGenerator,
    ConfigRegister,
    ExecuteOp,
    ExecuteUop,
    MimdExecute,
    MimdLoad,
    RepeatUop,
)
from repro.nn.functional import (
    insert_zeros_2d,
    transposed_conv2d,
    transposed_conv2d_via_zero_insertion,
)
from repro.nn.layers import TransposedConvLayer
from repro.nn.network import LayerBinding
from repro.nn.shapes import FeatureMapShape, transposed_conv_output_extent

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
tconv_geometry = st.tuples(
    st.integers(min_value=2, max_value=6),   # kernel
    st.integers(min_value=1, max_value=3),   # stride
    st.integers(min_value=2, max_value=5),   # input extent
).map(lambda t: (t[0], t[1], min(t[0] - 1, t[1]), t[2]))  # padding <= kernel-1, <= stride

local_uops = st.one_of(
    st.sampled_from([ExecuteOp.ADD, ExecuteOp.MUL, ExecuteOp.MAC, ExecuteOp.POOL, ExecuteOp.NOP]).map(
        lambda op: ExecuteUop(op=op)
    ),
    st.sampled_from(["relu", "leaky_relu", "tanh", "sigmoid", "identity"]).map(
        lambda act: ExecuteUop(op=ExecuteOp.ACT, activation=act)
    ),
    st.integers(min_value=0, max_value=4095).map(lambda n: RepeatUop(count=n)),
)

_pv_indices = st.integers(min_value=0, max_value=15)
_generators = st.sampled_from(list(AddressGenerator))

global_uops = st.one_of(
    local_uops,
    st.builds(
        AccessCfg,
        pv_index=_pv_indices,
        generator=_generators,
        register=st.sampled_from(list(ConfigRegister)),
        immediate=st.integers(min_value=0, max_value=(1 << 16) - 1),
    ),
    st.builds(AccessStart, pv_index=_pv_indices, generator=_generators),
    st.builds(AccessStop, pv_index=_pv_indices, generator=_generators),
    st.builds(
        MimdLoad,
        pv_index=_pv_indices,
        destination=st.sampled_from(MimdLoad._REGISTERS),
        immediate=st.integers(min_value=0, max_value=(1 << 16) - 1),
    ),
    st.lists(st.integers(min_value=0, max_value=15), min_size=16, max_size=16).map(
        lambda idx: MimdExecute(local_indices=tuple(idx))
    ),
)

#: (num_pvs, mimd.exe) pairs for every PV count the 64-bit index block admits.
_sized_mimd_executes = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=15), min_size=n, max_size=n
    ).map(lambda idx: (n, MimdExecute(local_indices=tuple(idx))))
)


# ----------------------------------------------------------------------
# Transposed convolution / zero insertion invariants
# ----------------------------------------------------------------------
class TestTransposedConvProperties:
    @given(tconv_geometry, st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scatter_equals_zero_insertion_formulation(self, geometry, seed):
        kernel, stride, padding, size = geometry
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, size, size))
        w = rng.standard_normal((1, 1, kernel, kernel))
        direct = transposed_conv2d(x, w, stride=stride, padding=padding)
        via_zeros = transposed_conv2d_via_zero_insertion(x, w, stride=stride, padding=padding)
        np.testing.assert_allclose(direct, via_zeros, atol=1e-9)

    @given(tconv_geometry)
    @settings(max_examples=50, deadline=None)
    def test_output_extent_formula_matches_reference_shape(self, geometry):
        kernel, stride, padding, size = geometry
        x = np.zeros((1, size, size))
        w = np.zeros((1, 1, kernel, kernel))
        out = transposed_conv2d(x, w, stride=stride, padding=padding)
        expected = transposed_conv_output_extent(size, kernel, stride, padding)
        assert out.shape == (1, expected, expected)

    @given(tconv_geometry)
    @settings(max_examples=50, deadline=None)
    def test_consequential_count_matches_bruteforce(self, geometry):
        kernel, stride, padding, size = geometry
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(1, size, size)
        exact = layer.consequential_macs(shape)
        assert exact == count_consequential_macs_bruteforce(layer, shape)
        assert exact == count_consequential_macs_gemm(layer, shape)

    @given(tconv_geometry)
    @settings(max_examples=50, deadline=None)
    def test_consequential_never_exceeds_total(self, geometry):
        kernel, stride, padding, size = geometry
        layer = TransposedConvLayer(
            name="t", out_channels=2, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(3, size, size)
        assert 0 < layer.consequential_macs(shape) <= layer.total_macs(shape)

    @given(tconv_geometry)
    @settings(max_examples=50, deadline=None)
    def test_number_of_row_patterns_equals_stride(self, geometry):
        kernel, stride, padding, size = geometry
        layer = TransposedConvLayer(
            name="t", out_channels=1, kernel=kernel, stride=stride, padding=padding
        )
        shape = FeatureMapShape.image(1, size, size)
        out = layer.output_shape(shape)
        schedule = build_schedule(
            LayerBinding(index=0, layer=layer, input_shape=shape, output_shape=out)
        )
        assert schedule.num_patterns == min(stride, out.spatial[0])

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_insertion_preserves_values_and_count(self, channels, h, w, stride):
        rng = np.random.default_rng(h * 31 + w * 7 + stride)
        x = rng.standard_normal((channels, h, w)) + 1.0  # strictly non-zero
        expanded = insert_zeros_2d(x, stride)
        assert np.count_nonzero(expanded) == x.size
        np.testing.assert_array_equal(expanded[:, ::stride, ::stride], x)


# ----------------------------------------------------------------------
# ISA round-trip invariants
# ----------------------------------------------------------------------
class TestIsaProperties:
    @given(local_uops)
    @settings(max_examples=100, deadline=None)
    def test_local_encoding_roundtrip(self, uop):
        assert decode_local_uop(encode_local_uop(uop)) == uop

    @given(global_uops)
    @settings(max_examples=100, deadline=None)
    def test_global_encoding_roundtrip(self, uop):
        assert decode_global_uop(encode_global_uop(uop, num_pvs=16), num_pvs=16) == uop

    @given(global_uops)
    @settings(max_examples=100, deadline=None)
    def test_assembler_roundtrip(self, uop):
        assert assemble_line(disassemble_uop(uop)) == uop

    @given(_sized_mimd_executes)
    @settings(max_examples=100, deadline=None)
    def test_mimd_execute_roundtrips_for_every_pv_count(self, sized):
        num_pvs, uop = sized
        word = encode_global_uop(uop, num_pvs=num_pvs)
        assert decode_global_uop(word, num_pvs=num_pvs) == uop

    @given(st.integers(min_value=16, max_value=64), st.integers(min_value=0, max_value=15))
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_local_index_is_rejected(self, bad_index, position):
        """A mimd.exe index past the 4-bit per-PV field must not encode."""
        indices = [0] * 16
        indices[position] = bad_index + 16  # >= 1 << PV_INDEX_FIELD_BITS
        with pytest.raises(IsaError):
            encode_global_uop(MimdExecute(local_indices=tuple(indices)), num_pvs=16)

    @given(st.integers(min_value=1, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_mimd_execute_wider_than_pv_count_is_rejected(self, num_pvs):
        """More per-PV indices than the encoding's PV count must not encode."""
        uop = MimdExecute(local_indices=tuple([0] * (num_pvs + 1)))
        with pytest.raises(IsaError):
            encode_global_uop(uop, num_pvs=num_pvs)

    @given(st.integers(min_value=1 << 12, max_value=1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_oversized_repeat_count_is_rejected(self, count):
        with pytest.raises(IsaError):
            encode_local_uop(RepeatUop(count=count))

    @given(
        st.one_of(
            st.integers(min_value=-64, max_value=0),
            st.integers(min_value=17, max_value=64),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_unencodable_pv_counts_are_rejected(self, num_pvs):
        """PV counts whose index block exceeds 64 bits (or is empty) fail."""
        with pytest.raises(IsaError):
            encode_global_uop(
                MimdExecute(local_indices=tuple([0] * max(num_pvs, 0))),
                num_pvs=num_pvs,
            )


# ----------------------------------------------------------------------
# Strided index generator invariants
# ----------------------------------------------------------------------
class TestIndexGeneratorProperties:
    @given(
        st.integers(min_value=0, max_value=200),   # offset
        st.integers(min_value=1, max_value=8),     # step
        st.integers(min_value=1, max_value=40),    # end
        st.integers(min_value=0, max_value=6),     # repeat
    )
    @settings(max_examples=100, deadline=None)
    def test_drain_length_matches_prediction(self, offset, step, end, repeat):
        end = max(end, step)  # the hardware constrains Step <= End
        config = GeneratorConfig(addr=0, offset=offset, step=step, end=end, repeat=repeat)
        generator = StridedIndexGenerator()
        generator.configure(config)
        generator.start()
        addresses = generator.drain()
        assert len(addresses) == config.total_addresses()

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_addresses_stay_in_configured_range(self, offset, step, end, repeat):
        end = max(end, step)  # the hardware constrains Step <= End
        generator = StridedIndexGenerator()
        generator.configure(GeneratorConfig(addr=0, offset=offset, step=step, end=end, repeat=repeat))
        generator.start()
        for address in generator.drain():
            assert offset <= address < offset + end


# ----------------------------------------------------------------------
# Configuration fingerprint invariants (simulation cache keys)
# ----------------------------------------------------------------------
#: Fields a sweep plausibly varies, with value strategies that keep the
#: configuration valid under ArchitectureConfig's __post_init__ checks.
_SWEEPABLE_FIELDS = {
    "num_pvs": st.integers(min_value=1, max_value=64),
    "pes_per_pv": st.integers(min_value=1, max_value=64),
    "frequency_hz": st.sampled_from([100e6, 250e6, 500e6, 1e9]),
    "data_bits": st.sampled_from([8, 16, 32]),
    "dram_bandwidth_bytes_per_cycle": st.sampled_from([8.0, 16.0, 32.0, 64.0, 128.0]),
    "mimd_dispatch_overhead_cycles": st.integers(min_value=0, max_value=64),
    "zero_gating_energy_fraction": st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    "ganax_target_utilization": st.sampled_from([0.25, 0.5, 0.75, 0.92, 1.0]),
}

arch_configs = st.fixed_dictionaries(
    {},
    optional=_SWEEPABLE_FIELDS,
).map(lambda updates: ArchitectureConfig.paper_default().with_updates(**updates))

sim_options = st.builds(
    SimulationOptions,
    batch_size=st.integers(min_value=1, max_value=16),
    include_discriminator=st.booleans(),
    magan_discriminator_conv_only=st.booleans(),
)


class TestFingerprintProperties:
    @given(arch_configs, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_stable_across_field_ordering(self, config, rnd):
        """Reordering the serialized fields must not change the fingerprint."""
        items = list(config.to_mapping().items())
        rnd.shuffle(items)
        shuffled = ArchitectureConfig.from_mapping(dict(items))
        assert config_fingerprint(shuffled) == config_fingerprint(config)

    @given(arch_configs, st.sampled_from(sorted(_SWEEPABLE_FIELDS)))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_changes_when_any_swept_field_changes(self, config, field_name):
        """with_updates on any sweepable field must produce a new fingerprint."""
        current = getattr(config, field_name)
        # pick a valid value different from the current one
        candidates = [
            value
            for value in (1, 2, 8, 16, 0.5, 0.75, 500e6, 64.0)
            if value != current
        ]
        for candidate in candidates:
            try:
                changed = config.with_updates(**{field_name: candidate})
            except Exception:
                continue
            assert config_fingerprint(changed) != config_fingerprint(config)
            return
        pytest.skip("no alternative valid value found for this field")

    @given(arch_configs)
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_roundtrips_through_serialization(self, config):
        """to_mapping -> from_mapping reproduces the config and its fingerprint."""
        rebuilt = ArchitectureConfig.from_mapping(config.to_mapping())
        assert rebuilt == config
        assert config_fingerprint(rebuilt) == config_fingerprint(config)

    @given(sim_options)
    @settings(max_examples=60, deadline=None)
    def test_options_fingerprint_roundtrips_and_discriminates(self, options):
        rebuilt = SimulationOptions.from_mapping(options.to_mapping())
        assert rebuilt == options
        assert options_fingerprint(rebuilt) == options_fingerprint(options)
        bumped = options.with_updates(batch_size=options.batch_size + 1)
        assert options_fingerprint(bumped) != options_fingerprint(options)

    @given(arch_configs, arch_configs)
    @settings(max_examples=60, deadline=None)
    def test_equal_configs_iff_equal_fingerprints(self, left, right):
        """The fingerprint is a faithful content hash over the config space."""
        assert (left == right) == (
            config_fingerprint(left) == config_fingerprint(right)
        )

    def test_int_and_float_spellings_of_equal_configs_hash_equal(self):
        """64 == 64.0, so both spellings must produce one cache key."""
        base = ArchitectureConfig.paper_default()
        as_int = base.with_updates(dram_bandwidth_bytes_per_cycle=64)
        as_float = base.with_updates(dram_bandwidth_bytes_per_cycle=64.0)
        assert as_int == as_float == base
        assert (
            config_fingerprint(as_int)
            == config_fingerprint(as_float)
            == config_fingerprint(base)
        )
        assert config_fingerprint(
            base.with_updates(frequency_hz=int(base.frequency_hz))
        ) == config_fingerprint(base)

    def test_workload_fingerprint_ignores_object_identity(self):
        from repro.workloads.dcgan import build_dcgan

        assert workload_fingerprint(build_dcgan()) == workload_fingerprint(
            build_dcgan()
        )

    def test_workload_fingerprints_distinguish_models(self):
        from repro.workloads.registry import all_workloads

        fingerprints = {workload_fingerprint(m) for m in all_workloads()}
        assert len(fingerprints) == 6

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_data_insensitive_to_insertion_order(self, mapping):
        reversed_mapping = dict(reversed(list(mapping.items())))
        assert fingerprint_data(reversed_mapping) == fingerprint_data(mapping)


# ----------------------------------------------------------------------
# FIFO, counters and energy invariants
# ----------------------------------------------------------------------
class TestHardwareProperties:
    @given(st.lists(st.integers(), max_size=64), st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_fifo_preserves_order(self, items, depth):
        fifo = Fifo(depth=depth)
        accepted = []
        for item in items:
            if fifo.try_push(item):
                accepted.append(item)
        popped = []
        while not fifo.is_empty:
            popped.append(fifo.pop())
        assert popped == accepted[: len(popped)]
        assert len(popped) == min(len(accepted), depth)

    @given(
        st.dictionaries(
            st.sampled_from(list(EventCounters().as_dict().keys())),
            st.integers(min_value=0, max_value=10_000),
            max_size=6,
        ),
        st.dictionaries(
            st.sampled_from(list(EventCounters().as_dict().keys())),
            st.integers(min_value=0, max_value=10_000),
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_counter_addition_is_commutative_and_exact(self, left, right):
        a = EventCounters(**left)
        b = EventCounters(**right)
        assert (a + b).as_dict() == (b + a).as_dict()
        for key, value in (a + b).as_dict().items():
            assert value == a.as_dict()[key] + b.as_dict()[key]

    @given(
        st.dictionaries(
            st.sampled_from(list(EventCounters().as_dict().keys())),
            st.integers(min_value=0, max_value=10_000),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_energy_is_nonnegative_and_additive(self, counts):
        model = EnergyModel()
        counters = EventCounters(**counts)
        breakdown = model.energy_of(counters)
        assert breakdown.total_pj >= 0.0
        doubled = model.energy_of(counters + counters)
        assert doubled.total_pj == pytest.approx(2 * breakdown.total_pj)


# ----------------------------------------------------------------------
# Pareto frontier properties (repro.dse)
# ----------------------------------------------------------------------
from repro.dse import DesignPoint, EvaluatedPoint, Objective, ParetoFrontier, dominates  # noqa: E402

PARETO_OBJECTIVES = (
    Objective("speedup", "max"),
    Objective("energy", "min"),
    Objective("area", "min"),
)

#: A small value grid on purpose: ties and duplicate objective vectors are the
#: interesting edge cases of a dominance ordering.
objective_vectors = st.lists(
    st.tuples(*(st.sampled_from([0.5, 1.0, 2.0, 4.0]) for _ in PARETO_OBJECTIVES)),
    min_size=1,
    max_size=10,
)


def _evaluated_points(vectors):
    return [
        EvaluatedPoint(
            point=DesignPoint.from_mapping({"num_pvs": index + 1}),
            objectives={
                objective.name: value
                for objective, value in zip(PARETO_OBJECTIVES, vector)
            },
        )
        for index, vector in enumerate(vectors)
    ]


class TestParetoFrontierProperties:
    @given(objective_vectors)
    @settings(max_examples=200, deadline=None)
    def test_no_frontier_point_dominates_another(self, vectors):
        frontier = ParetoFrontier(PARETO_OBJECTIVES, _evaluated_points(vectors))
        for a in frontier.frontier:
            for b in frontier.frontier:
                assert not dominates(a, b, PARETO_OBJECTIVES)

    @given(objective_vectors)
    @settings(max_examples=200, deadline=None)
    def test_every_dominated_point_is_excluded_for_a_reason(self, vectors):
        points = _evaluated_points(vectors)
        frontier = ParetoFrontier(PARETO_OBJECTIVES, points)
        # exact partition of the (deduplicated) input...
        assert set(frontier.frontier) | set(frontier.dominated) == set(points)
        assert not set(frontier.frontier) & set(frontier.dominated)
        # ...and each excluded point is witnessed by a frontier point
        for excluded in frontier.dominated:
            assert any(
                dominates(winner, excluded, PARETO_OBJECTIVES)
                for winner in frontier.frontier
            )

    @given(objective_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_frontier_invariant_to_order_and_duplication(self, vectors, rng):
        points = _evaluated_points(vectors)
        reference = ParetoFrontier(PARETO_OBJECTIVES, points)
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert ParetoFrontier(PARETO_OBJECTIVES, shuffled) == reference
        duplicated = points + shuffled + points
        assert ParetoFrontier(PARETO_OBJECTIVES, duplicated) == reference


# ----------------------------------------------------------------------
# Workload registry invariants (repro.workloads.registry)
# ----------------------------------------------------------------------
from repro.errors import WorkloadError  # noqa: E402
from repro.workloads.registry import (  # noqa: E402
    clear_cache,
    get_workload,
    register_workload,
    resolve_workload,
    unregister_workload,
    workload_names,
)

#: Strategy over valid synthetic-family spec strings.  Stride 1 with an even
#: kernel is the one knob combination without an exact extent-preserving
#: geometry (output_padding must be < stride), so it is filtered out.
synthetic_specs = (
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([8, 16, 64, 128]),
        st.sampled_from([2, 3, 4, 5]),
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=100),
    )
    .filter(lambda knobs: not (knobs[3] == 1 and knobs[2] % 2 == 0))
    .map(lambda knobs: "synthetic@d{}c{}k{}s{}z{}".format(*knobs))
)

#: Paper workload spellings: canonical names plus relaxed aliases and the
#: families' default-point spec strings, which must all converge.
paper_spellings = st.sampled_from(
    [
        ("DCGAN", "dcgan", "DcGaN", "dcgan@64x64", "dcgan@size=64"),
        ("GP-GAN", "gpgan", "gp_gan", "gpgan@64x64"),
        ("3D-GAN", "3dgan", "threedgan", "3dgan@64x64x64"),
        ("ArtGAN", "artgan", "artgan@128x128", "artgan@ch1024"),
        ("MAGAN", "magan", "magan@ch512"),
        ("DiscoGAN", "discogan", "discogan@64x64"),
    ]
)


class TestWorkloadRegistryProperties:
    @given(synthetic_specs)
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_stable_across_registry_roundtrips(self, spec):
        """Resolve -> build -> clear -> rebuild must fingerprint identically."""
        first = workload_fingerprint(get_workload(spec))
        clear_cache()
        rebuilt = get_workload(spec)
        assert workload_fingerprint(rebuilt) == first
        # and the memoized spec still names the same canonical point
        assert resolve_workload(spec).name == rebuilt.name

    @given(synthetic_specs)
    @settings(max_examples=40, deadline=None)
    def test_resolution_is_canonical_and_idempotent(self, spec):
        resolved = resolve_workload(spec)
        assert resolve_workload(resolved.name) is resolved
        assert resolve_workload(spec.upper()) is resolved

    @given(paper_spellings)
    @settings(max_examples=24, deadline=None)
    def test_equivalent_spellings_converge_on_one_spec(self, spellings):
        canonical = resolve_workload(spellings[0])
        for spelling in spellings[1:]:
            assert resolve_workload(spelling) is canonical

    def test_workload_names_equals_spec_resolution(self):
        """Every listed name resolves to a spec carrying exactly that name."""
        for name in workload_names():
            assert resolve_workload(name).name == name

    @given(st.text(alphabet="abcdefgh-", min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_registration_always_raises(self, raw_name):
        name = f"prop-{raw_name.strip('-') or 'x'}"
        builder = lambda: None  # noqa: E731 - never built
        register_workload(name)(builder)
        try:
            with pytest.raises(WorkloadError):
                register_workload(name)(builder)
            with pytest.raises(WorkloadError):
                register_workload(name.upper())(builder)
        finally:
            unregister_workload(name)

    def test_registration_order_is_preserved(self):
        names = [f"prop-order-{i}" for i in range(5)]
        for name in names:
            register_workload(name)(lambda: None)
        try:
            assert list(workload_names())[-len(names):] == names
        finally:
            for name in names:
                unregister_workload(name)
