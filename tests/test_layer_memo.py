"""Layer-grain memoization: fingerprints, the memo store, and result parity.

The runner caches below the job level: each (layer structure x input shape x
accelerator identity x config x canonical options x schedule knobs)
combination maps to one memo key
(:func:`repro.analysis.serialization.layer_memo_key`, whose content digest is
:func:`~repro.analysis.serialization.layer_fingerprint`), and
:func:`repro.runner.execute_job` assembles network totals from per-layer memo
hits, looked up and stored once per network.  These tests pin the contract:
fingerprints are stable across registry round-trips and exclude the layer
name, memo keys distinguish exactly what fingerprints do, batch lookups and
stores behave like loops of single-key calls, memo hits never change results
(cold == warm, enabled == disabled, across a schedule re-registration), and
per-layer sums equal the job-level golden totals with the memo on or off.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.accelerators.registry import get_accelerator
from repro.analysis.serialization import (
    layer_fingerprint,
    layer_memo_context,
    layer_memo_key,
)
from repro.config import ArchitectureConfig, SimulationOptions
from repro.errors import AnalysisError
from repro.nn.layers import ConvLayer, TransposedConvLayer
from repro.nn.network import GANModel, LayerBinding, Network
from repro.nn.shapes import FeatureMapShape
from repro.runner import (
    LayerMemoStore,
    SimulationJob,
    SimulationRunner,
    configure_layer_memo,
    execute_job,
    get_layer_memo,
)
from repro.runner import cache as cache_module
from repro.schedule import ScheduleSpec, register_schedule, unregister_schedule
from repro.telemetry import configure_metrics
from repro.workloads.registry import get_workload, resolve_workload, workload_names
from repro.workloads.synthetic import build_synthetic

from test_golden_regression import GOLDEN, RELATIVE_TOLERANCE


@pytest.fixture
def memo_state():
    """Snapshot and restore the process-global layer memo around a test."""
    saved_store = cache_module._layer_memo
    saved_flag = cache_module._layer_memo_configured
    yield
    with cache_module._layer_memo_lock:
        cache_module._layer_memo = saved_store
        cache_module._layer_memo_configured = saved_flag


@pytest.fixture
def fresh_memo(memo_state):
    """A fresh in-memory store installed as the process-global layer memo."""
    return configure_layer_memo()


def _tconv_binding(
    name: str, out_channels: int = 8, input_size: int = 8
) -> LayerBinding:
    layer = TransposedConvLayer(
        name=name, out_channels=out_channels, kernel=4, stride=2, padding=1
    )
    input_shape = FeatureMapShape.image(16, input_size, input_size)
    return LayerBinding(
        index=0,
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
    )


def _tiny_gan(model_name: str, layer_prefix: str) -> GANModel:
    """A minimal ad-hoc GAN whose layer names are controllable."""
    gen_layer = TransposedConvLayer(
        name=f"{layer_prefix}_tconv", out_channels=3, kernel=4, stride=2, padding=1
    )
    disc_layer = ConvLayer(
        name=f"{layer_prefix}_conv", out_channels=8, kernel=4, stride=2, padding=1
    )
    return GANModel(
        name=model_name,
        generator=Network(
            f"{model_name}_gen", FeatureMapShape.image(16, 8, 8), [gen_layer]
        ),
        discriminator=Network(
            f"{model_name}_disc", FeatureMapShape.image(3, 16, 16), [disc_layer]
        ),
    )


def _repeated_shape_gan() -> GANModel:
    """A GAN whose generator repeats one layer shape under two names."""
    same = dict(out_channels=16, kernel=3, stride=1, padding=1)
    generator = Network(
        "repeated_gen",
        FeatureMapShape.image(16, 8, 8),
        [
            ConvLayer(name="rep_a", **same),
            ConvLayer(name="rep_b", **same),
            TransposedConvLayer(
                name="rep_up", out_channels=3, kernel=4, stride=2, padding=1
            ),
        ],
    )
    discriminator = Network(
        "repeated_disc",
        FeatureMapShape.image(3, 16, 16),
        [ConvLayer(name="rep_conv", out_channels=8, kernel=4, stride=2, padding=1)],
    )
    return GANModel(name="repeated", generator=generator, discriminator=discriminator)


#: Small input pools, so random pairs often agree on some fields and differ
#: on others; the first two bindings share a structure under distinct names.
_KEY_BINDINGS = (
    _tconv_binding("probe"),
    _tconv_binding("renamed"),
    _tconv_binding("probe", out_channels=16),
    _tconv_binding("probe", input_size=16),
)
_KEY_CONFIGS = (
    ArchitectureConfig.paper_default(),
    ArchitectureConfig.paper_default().with_updates(num_pvs=4),
)
_KEY_OPTIONS = (
    SimulationOptions(),
    SimulationOptions(batch_size=2),
    SimulationOptions(schedule="hoisted"),
)
_memo_inputs = st.tuples(
    st.sampled_from(_KEY_BINDINGS),
    st.sampled_from(("ganax", "eyeriss")),
    st.sampled_from(("1", "2")),
    st.sampled_from(_KEY_CONFIGS),
    st.sampled_from(_KEY_OPTIONS),
)


class TestLayerFingerprint:
    def test_excludes_layer_name(self, paper_config, options):
        a = _tconv_binding("layer_a")
        b = _tconv_binding("completely_different_name")
        assert layer_fingerprint(
            a, "ganax", "1", paper_config, options
        ) == layer_fingerprint(b, "ganax", "1", paper_config, options)

    def test_distinguishes_every_context_input(self, paper_config, options):
        binding = _tconv_binding("probe")
        base = layer_fingerprint(binding, "ganax", "1", paper_config, options)
        assert base != layer_fingerprint(binding, "eyeriss", "1", paper_config, options)
        assert base != layer_fingerprint(binding, "ganax", "2", paper_config, options)
        assert base != layer_fingerprint(
            binding, "ganax", "1", paper_config.with_updates(num_pvs=4), options
        )
        assert base != layer_fingerprint(
            binding, "ganax", "1", paper_config, options.with_updates(batch_size=2)
        )

    def test_distinguishes_layer_structure_and_input_shape(
        self, paper_config, options
    ):
        base = layer_fingerprint(
            _tconv_binding("probe"), "ganax", "1", paper_config, options
        )
        wider = TransposedConvLayer(
            name="probe", out_channels=16, kernel=4, stride=2, padding=1
        )
        wider_binding = LayerBinding(
            index=0,
            layer=wider,
            input_shape=FeatureMapShape.image(16, 8, 8),
            output_shape=wider.output_shape(FeatureMapShape.image(16, 8, 8)),
        )
        assert base != layer_fingerprint(
            wider_binding, "ganax", "1", paper_config, options
        )
        layer = TransposedConvLayer(
            name="probe", out_channels=8, kernel=4, stride=2, padding=1
        )
        bigger_input = FeatureMapShape.image(16, 16, 16)
        bigger_binding = LayerBinding(
            index=0,
            layer=layer,
            input_shape=bigger_input,
            output_shape=layer.output_shape(bigger_input),
        )
        assert base != layer_fingerprint(
            bigger_binding, "ganax", "1", paper_config, options
        )

    @pytest.mark.parametrize("model_name", sorted(GOLDEN))
    def test_stable_across_registry_round_trips(
        self, model_name, paper_config, options
    ):
        """Rebuilding a spec yields byte-identical per-layer fingerprints."""
        spec = resolve_workload(model_name)
        first = get_workload(model_name)
        rebuilt = spec.build()  # a fresh, uncached model instance
        for network in ("generator", "discriminator"):
            for a, b in zip(
                getattr(first, network).bindings, getattr(rebuilt, network).bindings
            ):
                assert layer_fingerprint(
                    a, "ganax", "1", paper_config, options
                ) == layer_fingerprint(b, "ganax", "1", paper_config, options)

    @settings(max_examples=10, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=6),
        base_channels=st.sampled_from([8, 32, 64]),
        kernel=st.integers(min_value=2, max_value=5),
        stride=st.sampled_from([1, 2]),
        upsample_percent=st.sampled_from([0, 50, 100]),
    )
    def test_synthetic_rebuilds_fingerprint_identically(
        self, depth, base_channels, kernel, stride, upsample_percent
    ):
        config = ArchitectureConfig.paper_default()
        options = SimulationOptions()
        knobs = dict(
            depth=depth,
            base_channels=base_channels,
            kernel=kernel,
            stride=stride,
            upsample_percent=upsample_percent,
        )
        try:
            first = build_synthetic(**knobs)
        except Exception:
            assume(False)  # no exact-upsampling geometry for these knobs
        second = build_synthetic(**knobs)
        for a, b in zip(first.generator.bindings, second.generator.bindings):
            assert layer_fingerprint(
                a, "ganax", "1", config, options
            ) == layer_fingerprint(b, "ganax", "1", config, options)


class TestLayerMemoKey:
    @settings(max_examples=80, deadline=None)
    @given(
        first=_memo_inputs,
        other=_memo_inputs,
        keep=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_keys_equal_exactly_when_fingerprints_do(self, first, other, keep):
        """The tuple key distinguishes exactly what its content digest does."""
        second = tuple(a if same else b for a, b, same in zip(first, other, keep))

        def key(binding, name, version, config, options):
            return layer_memo_key(
                binding, layer_memo_context(name, version, config, options)
            )

        assert (key(*first) == key(*second)) == (
            layer_fingerprint(*first) == layer_fingerprint(*second)
        )


class TestLayerMemoStore:
    def _result(self, key_name: str = "probe"):
        simulator = get_accelerator("ganax").create()
        return simulator.simulate_layer(_tconv_binding(key_name))

    def test_hit_miss_store_accounting(self):
        store = LayerMemoStore()
        assert store.get("aa" * 32) is None
        assert store.stats.misses == 1
        result = self._result()
        store.put("aa" * 32, result)
        assert store.stats.stores == 1
        assert store.get("aa" * 32) == result
        assert store.stats.hits == 1
        assert store.stats.hit_rate == 0.5

    def test_lru_eviction_bounds_residency(self):
        store = LayerMemoStore(max_entries=2)
        result = self._result()
        for key in ("aa" * 32, "bb" * 32, "cc" * 32):
            store.put(key, result)
        assert len(store) == 2
        assert store.get("aa" * 32) is None  # oldest evicted
        assert store.get("cc" * 32) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(AnalysisError):
            LayerMemoStore(max_entries=0)

    def test_get_refreshes_lru_recency(self):
        store = LayerMemoStore(max_entries=2)
        result = self._result()
        store.put("aa" * 32, result)
        store.put("bb" * 32, result)
        assert store.get("aa" * 32) is not None  # now the most recent
        store.put("cc" * 32, result)
        assert store.get("bb" * 32) is None  # least recently used evicted
        assert store.get("aa" * 32) is not None

    def test_clear_drops_entries_and_keeps_accounting(self):
        store = LayerMemoStore()
        store.put("aa" * 32, self._result())
        assert store.get("aa" * 32) is not None
        store.clear()
        assert len(store) == 0
        assert store.get("aa" * 32) is None
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_configure_then_get_returns_the_installed_store(self, memo_state):
        store = configure_layer_memo(max_entries=4)
        assert get_layer_memo() is store
        assert configure_layer_memo(enabled=False) is None
        assert get_layer_memo() is None
        # A process that never configured the memo gets a default store.
        with cache_module._layer_memo_lock:
            cache_module._layer_memo = None
            cache_module._layer_memo_configured = False
        assert isinstance(get_layer_memo(), LayerMemoStore)

    def test_configure_leaves_the_environment_alone(self, memo_state):
        """The memo is per-process state; configuring it sets no variable."""
        before = dict(os.environ)
        configure_layer_memo(max_entries=8)
        configure_layer_memo(enabled=False)
        assert dict(os.environ) == before

    def test_configured_capacity_bounds_the_global_store(
        self, memo_state, dcgan_model, paper_config, options
    ):
        job = SimulationJob(dcgan_model, "ganax", paper_config, options)
        configure_layer_memo(enabled=False)
        reference = execute_job(job)
        store = configure_layer_memo(max_entries=1)
        assert execute_job(job) == reference
        assert store.stats.stores > 1
        assert len(store) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(("get", "put")),
                st.lists(st.sampled_from("abcdef"), max_size=6),
            ),
            max_size=12,
        ),
    )
    def test_batch_calls_match_a_loop_of_single_key_calls(self, capacity, ops):
        """Recency, eviction order, answers and counters all agree."""
        batched = LayerMemoStore(max_entries=capacity)
        looped = LayerMemoStore(max_entries=capacity)
        for step, (kind, keys) in enumerate(ops):
            if kind == "get":
                assert batched.get_many(keys) == [looped.get(key) for key in keys]
            else:
                items = [(key, f"{step}.{i}") for i, key in enumerate(keys)]
                batched.put_many(items)
                for key, value in items:
                    looped.put(key, value)
            assert list(batched._entries.items()) == list(looped._entries.items())
        assert batched.stats == looped.stats


class TestMemoizedExecution:
    def test_cold_equals_warm(self, fresh_memo, dcgan_model, paper_config, options):
        job = SimulationJob(dcgan_model, "ganax", paper_config, options)
        cold = execute_job(job)
        assert fresh_memo.stats.stores > 0
        hits_before = fresh_memo.stats.hits
        warm = execute_job(job)
        assert fresh_memo.stats.hits > hits_before
        assert warm == cold

    def test_disabled_memo_matches_enabled(
        self, memo_state, dcgan_model, paper_config, options
    ):
        job = SimulationJob(dcgan_model, "ganax", paper_config, options)
        configure_layer_memo(enabled=False)
        plain = execute_job(job)
        configure_layer_memo()
        memoized = execute_job(job)
        assert memoized == plain

    def test_workloads_sharing_shapes_share_entries(
        self, fresh_memo, paper_config, options
    ):
        """Two distinct workloads with common layer shapes reuse memo entries."""
        first = SimulationJob(
            build_synthetic(latent_dim=100), "ganax", paper_config, options
        )
        second = SimulationJob(
            build_synthetic(latent_dim=128), "ganax", paper_config, options
        )
        assert first.cache_key != second.cache_key  # distinct at the job tier
        execute_job(first)
        hits_before = fresh_memo.stats.hits
        stores_before = fresh_memo.stats.stores
        execute_job(second)
        assert fresh_memo.stats.hits > hits_before  # shared tconv stack
        assert fresh_memo.stats.stores > stores_before  # differing latent head

    def test_hits_are_relabelled_with_the_requesting_name(
        self, fresh_memo, paper_config, options
    ):
        model_a = _tiny_gan("tiny_a", "alpha")
        model_b = _tiny_gan("tiny_b", "beta")
        execute_job(SimulationJob(model_a, "ganax", paper_config, options))
        result_b = execute_job(SimulationJob(model_b, "ganax", paper_config, options))
        assert fresh_memo.stats.hits > 0  # b's layers were served from a's runs
        names = [layer.layer_name for layer in result_b.generator.layer_results]
        assert names == ["beta_tconv"]

    def test_repeated_shape_is_estimated_once_per_batch(
        self, memo_state, monkeypatch, paper_config, options
    ):
        model = _repeated_shape_gan()
        job = SimulationJob(model, "ganax", paper_config, options)
        configure_layer_memo(enabled=False)
        reference = execute_job(job)
        memo = configure_layer_memo()
        simulator_cls = type(get_accelerator("ganax").create())
        original = simulator_cls.simulate_layers
        estimated = []

        def spy(self, bindings):
            estimated.append([binding.name for binding in bindings])
            return original(self, bindings)

        monkeypatch.setattr(simulator_cls, "simulate_layers", spy)
        assert execute_job(job) == reference  # rep_b relabelled from rep_a
        assert estimated == [["rep_a", "rep_up"], ["rep_conv"]]
        # four lookups, each a miss; three distinct keys written
        assert (memo.stats.hits, memo.stats.misses, memo.stats.stores) == (0, 4, 3)
        assert len(memo) == 3

    def test_metrics_counters_equal_stats_after_batched_runs(
        self, fresh_memo, paper_config, options
    ):
        registry = configure_metrics()
        try:
            for name in ("dcgan", "magan"):
                for job in SimulationJob.comparison_pair(name, paper_config, options):
                    execute_job(job)
                    execute_job(job)  # warm: every layer hits
            stats = fresh_memo.stats
            assert stats.hits > 0 and stats.misses > 0
            for counter in ("hits", "misses", "stores"):
                assert registry.counter_value(
                    f"runner.layer_memo.{counter}"
                ) == getattr(stats, counter)
            assert registry.gauge("runner.layer_memo.resident").value == len(
                fresh_memo
            )
        finally:
            configure_metrics()


class TestScheduleReregistration:
    def test_memo_on_equals_memo_off_across_reregistration(
        self, memo_state, paper_config
    ):
        """A name re-registered with new knobs is never served the old knobs'
        layers: one memo serves both registrations, and no cache is cleared."""
        registrations = ({"repeat_unroll": 1}, {"repeat_unroll": 4, "column_tile": 2})

        def run(knobs):
            register_schedule(ScheduleSpec(name="tuned-x", **knobs))
            try:
                return execute_job(
                    SimulationJob(
                        "dcgan",
                        "ganax",
                        paper_config,
                        SimulationOptions(schedule="tuned-x"),
                    )
                )
            finally:
                unregister_schedule("tuned-x")

        configure_layer_memo(enabled=False)
        memo_off = [run(knobs) for knobs in registrations]
        assert memo_off[0].total_cycles != memo_off[1].total_cycles
        configure_layer_memo()
        assert [run(knobs) for knobs in registrations] == memo_off


class TestLayerTotals:
    """Sum-of-layer results equals the job-level golden totals."""

    @pytest.mark.parametrize("memo", ["memo-on", "memo-off"])
    def test_layer_sums_match_golden_job_totals(
        self, memo, memo_state, paper_config, options
    ):
        configure_layer_memo(enabled=memo == "memo-on")
        jobs = []
        for name in workload_names():
            jobs.extend(
                SimulationJob.comparison_pair(get_workload(name), paper_config, options)
            )
        results = SimulationRunner(use_cache=False).run_jobs(jobs)
        by_key = {}
        for job, result in zip(jobs, results):
            generator = result.generator
            assert generator.cycles == sum(
                layer.cycles for layer in generator.layer_results
            )
            assert generator.energy_pj == pytest.approx(
                sum(layer.energy.total_pj for layer in generator.layer_results),
                rel=1e-12,
            )
            by_key[(job.model_name, job.accelerator)] = result
        for name, (golden_speedup, _) in GOLDEN.items():
            eyeriss = by_key[(name, "eyeriss")].generator.cycles
            ganax = by_key[(name, "ganax")].generator.cycles
            assert eyeriss / ganax == pytest.approx(
                golden_speedup, rel=RELATIVE_TOLERANCE
            )
