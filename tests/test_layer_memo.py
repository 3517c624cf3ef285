"""Layer-grain memoization: fingerprints, the memo store, and result parity.

The runner caches below the job level: each (layer structure x input shape x
accelerator identity x config x canonical options) combination fingerprints
to one memo key (:func:`repro.analysis.serialization.layer_fingerprint`), and
:func:`repro.runner.execute_job` assembles network totals from per-layer memo
hits.  These tests pin the contract: fingerprints are stable across registry
round-trips and exclude the layer name, memo hits never change results
(cold == warm, enabled == disabled), and per-layer sums equal the job-level
golden totals with the memo on or off.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.accelerators.registry import get_accelerator
from repro.analysis.serialization import layer_fingerprint
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


def _tconv_binding(name: str) -> LayerBinding:
    layer = TransposedConvLayer(
        name=name, out_channels=8, kernel=4, stride=2, padding=1
    )
    input_shape = FeatureMapShape.image(16, 8, 8)
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
