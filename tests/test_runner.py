"""Tests for the simulation runner: jobs, caching, scheduling, parity.

The central guarantee of :mod:`repro.runner` is that how a result was
obtained is invisible in the results: fresh and cache-served runs of the
same jobs produce identical values.  The parity tests assert this at three
levels — dataclass equality, the exact floats the paper figures consume, and
byte-identical canonical JSON of the flattened per-layer rows.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.accelerators import (
    GanSimulatorBase,
    accelerator_names,
    create_accelerator,
    get_accelerator,
    register_accelerator,
    unregister_accelerator,
)
from repro.analysis.sweep import ParameterSweep, compare_model, compare_models
from repro.config import ArchitectureConfig, SimulationOptions
from repro.dse import DesignSpaceExplorer
from repro.errors import AnalysisError, ConfigurationError, UnknownAcceleratorError
from repro.session import Session
from repro.runner import (
    CacheStats,
    DiskResultCache,
    InMemoryResultCache,
    SimulationJob,
    SimulationRunner,
    execute_job,
    get_default_runner,
    set_default_runner,
)
from repro.workloads.registry import all_workloads, get_workload


#: ``SimulationJob("DCGAN", "ganax", paper config, default options).cache_key``.
PAPER_DCGAN_GANAX_KEY = (
    "b5b178d71ad7d4412365d98fbb0b2a87f71a52a43b0c2bb573f03ea5c83af66f"
)


@pytest.fixture(scope="module")
def models():
    return all_workloads()


def result_bytes(comparison) -> bytes:
    """Byte serialization of a comparison's full layer-level data (the repr
    of both results spells every field of every layer result)."""
    return repr((comparison.eyeriss, comparison.ganax)).encode("utf-8")


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
class TestSimulationJob:
    def test_rejects_unknown_accelerator(self, dcgan_model, paper_config, options):
        with pytest.raises(AnalysisError):
            SimulationJob(
                model=dcgan_model,
                accelerator="tpu",
                config=paper_config,
                options=options,
            )

    def test_cache_key_is_deterministic(self, dcgan_model, paper_config, options):
        job_a = SimulationJob(dcgan_model, "ganax", paper_config, options)
        job_b = SimulationJob(dcgan_model, "ganax", paper_config, options)
        assert job_a.cache_key == job_b.cache_key

    def test_cache_key_distinguishes_every_input(self, dcgan_model, magan_model):
        config = ArchitectureConfig.paper_default()
        options = SimulationOptions()
        base = SimulationJob(dcgan_model, "ganax", config, options)
        assert (
            SimulationJob(dcgan_model, "eyeriss", config, options).cache_key
            != base.cache_key
        )
        assert (
            SimulationJob(magan_model, "ganax", config, options).cache_key
            != base.cache_key
        )
        assert (
            SimulationJob(
                dcgan_model, "ganax", config.with_updates(num_pvs=8), options
            ).cache_key
            != base.cache_key
        )
        assert (
            SimulationJob(
                dcgan_model, "ganax", config, options.with_updates(batch_size=2)
            ).cache_key
            != base.cache_key
        )

    def test_paper_job_key_is_pinned(self):
        """The memoized key composition yields the same bytes as composing it
        from scratch; a persisted cache depends on them."""
        from repro.runner.job import _composed_cache_key

        def key():
            return SimulationJob(
                "DCGAN",
                "ganax",
                ArchitectureConfig.paper_default(),
                SimulationOptions(),
            ).cache_key

        _composed_cache_key.cache_clear()
        assert key() == PAPER_DCGAN_GANAX_KEY  # composed
        assert key() == PAPER_DCGAN_GANAX_KEY  # memoized
        assert _composed_cache_key.cache_info().hits >= 1

    def test_comparison_pair_covers_both_accelerators(self, dcgan_model):
        eyeriss, ganax = SimulationJob.comparison_pair(dcgan_model)
        assert (eyeriss.accelerator, ganax.accelerator) == ("eyeriss", "ganax")
        assert eyeriss.config == ganax.config

    def test_execute_job_matches_direct_simulation(self, dcgan_model):
        eyeriss_job, ganax_job = SimulationJob.comparison_pair(dcgan_model)
        comparison = compare_model(dcgan_model, runner=SimulationRunner())
        assert execute_job(eyeriss_job) == comparison.eyeriss
        assert execute_job(ganax_job) == comparison.ganax


# ----------------------------------------------------------------------
# Cache parity
# ----------------------------------------------------------------------
class TestCacheParity:
    def test_cached_results_identical_to_fresh_ones(self, models):
        runner = SimulationRunner()
        cold = compare_models(models[:2], runner=runner)
        warm = compare_models(models[:2], runner=runner)
        for name in cold:
            assert cold[name] == warm[name]
            assert result_bytes(cold[name]) == result_bytes(warm[name])

    @pytest.mark.parametrize("tier", ["none", "memory", "disk"])
    def test_compare_models_identical_on_every_cache_tier(
        self, tier, models, tmp_path
    ):
        reference = {
            model.name: compare_model(model, runner=SimulationRunner(use_cache=False))
            for model in models
        }

        def runner():
            if tier == "none":
                return SimulationRunner(use_cache=False)
            if tier == "memory":
                return SimulationRunner(cache=InMemoryResultCache())
            return SimulationRunner(cache=DiskResultCache(tmp_path / "cache"))

        cold_runner = runner()
        cold = compare_models(models, runner=cold_runner)
        # a second runner on the same disk directory is answered from disk
        warm_runner = runner() if tier == "disk" else cold_runner
        warm = compare_models(models, runner=warm_runner)
        if tier != "none":
            assert warm_runner.stats.hits == 2 * len(models)
        for name, expected in reference.items():
            for served in (cold[name], warm[name]):
                assert served == expected
                assert served.generator_speedup == expected.generator_speedup
                assert (
                    served.generator_energy_reduction
                    == expected.generator_energy_reduction
                )
                assert result_bytes(served) == result_bytes(expected)

    def test_parameter_sweep_fresh_and_cached_identical(self, models):
        values = (16.0, 64.0)
        runner = SimulationRunner()

        def sweep_with(sweep_runner):
            sweep = ParameterSweep(models[:3], runner=sweep_runner)
            return sweep.run("dram_bandwidth_bytes_per_cycle", values)

        fresh_points = sweep_with(SimulationRunner(use_cache=False))
        sweep_with(runner)
        cached_points = sweep_with(runner)  # answered entirely from cache
        assert runner.stats.hits == runner.stats.misses
        assert len(fresh_points) == len(cached_points) == len(values)
        for f, c in zip(fresh_points, cached_points):
            assert f.label == c.label
            assert f.config == c.config
            assert f.speedups == c.speedups
            assert f.energy_reductions == c.energy_reductions
            assert f.geomean_speedup == c.geomean_speedup
            assert f.geomean_energy_reduction == c.geomean_energy_reduction


# ----------------------------------------------------------------------
# Cache accounting
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def test_cold_batch_counts_all_misses(self, models):
        runner = SimulationRunner()
        compare_models(models, runner=runner)
        assert runner.stats.misses == 2 * len(models)
        assert runner.stats.stores == 2 * len(models)
        assert runner.stats.hits == 0
        assert runner.stats.hit_rate == 0.0
        assert len(runner.cache) == 2 * len(models)

    def test_repeat_batch_is_all_hits(self, models):
        runner = SimulationRunner()
        compare_models(models, runner=runner)
        compare_models(models, runner=runner)
        assert runner.stats.hits == 2 * len(models)
        assert runner.stats.misses == 2 * len(models)
        assert runner.stats.hit_rate == 0.5

    def test_duplicate_jobs_in_one_batch_deduplicate(self, dcgan_model):
        runner = SimulationRunner()
        jobs = list(SimulationJob.comparison_pair(dcgan_model)) * 3
        results = runner.run_jobs(jobs)
        assert len(results) == 6
        assert runner.stats.misses == 2
        assert runner.stats.deduplicated == 4
        # duplicates share the single executed result object
        assert results[0] is results[2] is results[4]
        assert results[1] is results[3] is results[5]

    def test_equivalent_configs_share_cache_entries(self, dcgan_model):
        # ganax_target_utilization defaults to 0.92, so this "update" is a
        # content no-op and must hit the cache, not re-simulate.
        runner = SimulationRunner()
        compare_model(dcgan_model, runner=runner)
        compare_model(
            dcgan_model,
            ArchitectureConfig.paper_default().with_updates(
                ganax_target_utilization=0.92
            ),
            runner=runner,
        )
        assert runner.stats.misses == 2
        assert runner.stats.hits == 2

    def test_uncached_runner_recomputes(self, dcgan_model):
        runner = SimulationRunner(use_cache=False)
        assert runner.cache is None
        first = compare_model(dcgan_model, runner=runner)
        second = compare_model(dcgan_model, runner=runner)
        assert runner.stats.misses == 4
        assert runner.stats.hits == 0
        assert first == second

    def test_stats_reset(self):
        stats = CacheStats(hits=3, misses=1, stores=1, deduplicated=2)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        stats.reset()
        assert stats.as_dict() == {
            "hits": 0, "misses": 0, "stores": 0, "deduplicated": 0, "hit_rate": 0.0,
        }


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
class TestCaches:
    def test_in_memory_roundtrip(self, dcgan_model):
        cache = InMemoryResultCache()
        job = SimulationJob.comparison_pair(dcgan_model)[1]
        result = execute_job(job)
        assert cache.get(job.cache_key) is None
        cache.put(job.cache_key, result)
        assert cache.get(job.cache_key) == result
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_in_memory_cache_evicts_least_recently_used(self, monkeypatch):
        assert InMemoryResultCache.MAX_ENTRIES == 4096
        monkeypatch.setattr(InMemoryResultCache, "MAX_ENTRIES", 3)
        cache = InMemoryResultCache()
        results = {key: object() for key in "abcde"}
        for key in "abc":
            cache.put(key, results[key])
        assert cache.get("a") is results["a"]  # a hit refreshes "a"
        cache.put("d", results["d"])  # evicts "b", the least recent
        assert len(cache) == 3
        assert cache.get("b") is None
        cache.put("c", results["c"])  # a re-store refreshes "c"
        cache.put("e", results["e"])  # evicts "a"
        assert [key for key in "abcde" if cache.get(key) is not None] == ["c", "d", "e"]

    def test_disk_cache_survives_new_instances(self, tmp_path, dcgan_model):
        job = SimulationJob.comparison_pair(dcgan_model)[1]
        result = execute_job(job)
        DiskResultCache(tmp_path / "cache").put(job.cache_key, result)
        reopened = DiskResultCache(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(job.cache_key) == result

    def test_disk_cache_warm_runner_hits(self, tmp_path, dcgan_model):
        cold = SimulationRunner(cache=DiskResultCache(tmp_path / "cache"))
        first = compare_model(dcgan_model, runner=cold)
        assert cold.stats.misses == 2
        warm = SimulationRunner(cache=DiskResultCache(tmp_path / "cache"))
        second = compare_model(dcgan_model, runner=warm)
        assert warm.stats.hits == 2
        assert warm.stats.misses == 0
        assert first == second

    def test_disk_cache_treats_corrupt_entry_as_miss(self, tmp_path, dcgan_model):
        cache = DiskResultCache(tmp_path / "cache")
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        cache.put(job.cache_key, execute_job(job))
        entry = cache._path_for(job.cache_key)
        entry.write_bytes(b"torn write from a crashed run")
        fresh = DiskResultCache(tmp_path / "cache")
        assert fresh.get(job.cache_key) is None  # miss, not a crash
        assert not entry.exists()  # corrupt entry dropped for rewrite

    def test_disk_cache_rejects_non_directory_root(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("file, not a directory")
        with pytest.raises(AnalysisError):
            DiskResultCache(not_a_dir)

    def test_disk_cache_clear(self, tmp_path, dcgan_model):
        cache = DiskResultCache(tmp_path / "cache")
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        cache.put(job.cache_key, execute_job(job))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(job.cache_key) is None

    def test_disk_cache_holds_no_result_in_memory(self, tmp_path, dcgan_model):
        """A served result lives only as long as its caller keeps it."""
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        DiskResultCache(tmp_path / "cache").put(job.cache_key, execute_job(job))
        cache = DiskResultCache(tmp_path / "cache")
        result = cache.get(job.cache_key)
        assert result is not None
        ref = weakref.ref(result)
        del result
        gc.collect()
        assert ref() is None
        assert cache.get(job.cache_key) is not None  # still served from disk

    def test_disk_cache_reads_a_fresh_object_per_get(self, tmp_path, dcgan_model):
        job = SimulationJob.comparison_pair(dcgan_model)[0]
        cache = DiskResultCache(tmp_path / "cache")
        cache.put(job.cache_key, execute_job(job))
        first = cache.get(job.cache_key)
        second = cache.get(job.cache_key)
        assert first == second
        assert first is not second  # nothing retained between reads

    def test_disk_cache_sees_only_sharded_entries(self, tmp_path, dcgan_model):
        """A pickle outside the ``<key[:2]>/`` shard is not a cache entry."""
        import pickle

        job = SimulationJob.comparison_pair(dcgan_model)[0]
        root = tmp_path / "cache"
        cache = DiskResultCache(root)
        (root / f"{job.cache_key}.pkl").write_bytes(pickle.dumps(execute_job(job)))
        assert cache.get(job.cache_key) is None
        assert len(cache) == 0
        assert cache.size_bytes() == 0
        cache.put(job.cache_key, execute_job(job))
        assert len(cache) == 1
        assert cache._path_for(job.cache_key).parent.name == job.cache_key[:2]


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------
class TestRunnerPlumbing:
    def test_empty_inputs_rejected(self, dcgan_model):
        runner = SimulationRunner()
        with pytest.raises(AnalysisError):
            compare_models([], runner=runner)
        with pytest.raises(AnalysisError):
            runner.compare_accelerators_over_configs([dcgan_model], {})

    def test_run_jobs_empty_batch_is_noop(self):
        runner = SimulationRunner()
        assert runner.run_jobs([]) == []
        assert runner.stats.lookups == 0

    def test_grid_preserves_label_and_model_order(self, models):
        runner = SimulationRunner()
        configs = {
            "narrow": ArchitectureConfig.paper_default().with_updates(num_pvs=8),
            "paper": ArchitectureConfig.paper_default(),
        }
        # a warm last cell streams first; the grid must still be in order
        runner.compare_accelerators([models[2]])
        stream = runner.stream_accelerators_over_configs(models[:3], configs)
        assert next(stream)[:2] == ("paper", models[2].name)
        stream.close()
        grid = runner.compare_accelerators_over_configs(models[:3], configs)
        assert list(grid) == ["narrow", "paper"]
        for comparisons in grid.values():
            assert list(comparisons) == [m.name for m in models[:3]]

    def test_context_manager_and_close_leave_the_runner_usable(self, dcgan_model):
        with SimulationRunner() as runner:
            comparison = compare_model(dcgan_model, runner=runner)
        assert comparison.generator_speedup > 1.0
        runner.close()  # idempotent
        assert compare_model(dcgan_model, runner=runner) == comparison  # from cache
        assert runner.stats.hits == 2

    def test_default_runner_is_process_wide_and_replaceable(self):
        previous = set_default_runner(None)
        try:
            first = get_default_runner()
            assert get_default_runner() is first
            replacement = SimulationRunner()
            assert set_default_runner(replacement) is first
            assert get_default_runner() is replacement
        finally:
            set_default_runner(previous)

    def test_module_level_helpers_use_explicit_runner(self, dcgan_model):
        runner = SimulationRunner()
        compare_model(dcgan_model, runner=runner)
        comparisons = compare_models([dcgan_model], runner=runner)
        assert runner.stats.lookups == 4
        assert runner.stats.hits == 2  # second call served from the first
        assert set(comparisons) == {"DCGAN"}

    def test_duplicate_sweep_labels_rejected(self, models):
        sweep = ParameterSweep(models[:1], runner=SimulationRunner())
        with pytest.raises(AnalysisError):
            sweep.run("num_pvs", [8, 8], label_format="{parameter}")


def _partly_warm_surface(surface, runner, dcgan_model):
    """(warm, stream, collect, key, expected) for one collected entry point.

    ``warm`` caches the *last* item, so the stream yields it first;
    ``collect`` is the batch entry point that must still return
    ``expected``, the submission order.
    """
    if surface == "session":
        session = Session(runner=runner)
        models = [get_workload("MAGAN"), dcgan_model]
        return (
            lambda: session.compare([dcgan_model]),
            lambda: session.stream_compare(models),
            lambda: list(session.compare(models).items()),
            lambda item: item[0],
            ["MAGAN", "DCGAN"],
        )
    if surface == "sweep":
        sweep = ParameterSweep([dcgan_model], runner=runner)
        return (
            lambda: sweep.run("num_pvs", [16]),
            lambda: sweep.iter_points("num_pvs", [8, 16]),
            lambda: sweep.run("num_pvs", [8, 16]),
            lambda point: point.label,
            ["num_pvs=8", "num_pvs=16"],
        )
    explorer = DesignSpaceExplorer(models=[dcgan_model], runner=runner)
    points = list(
        explorer.space(fields=("num_pvs",), overrides={"num_pvs": (8, 16)}).points()
    )
    return (
        lambda: explorer.evaluate(points[1:]),
        lambda: explorer.evaluate_stream(points),
        lambda: explorer.evaluate(points),
        lambda evaluated: evaluated.label,
        [point.label for point in points],
    )


@pytest.mark.parametrize("surface", ["session", "sweep", "dse"])
def test_collected_streams_keep_submission_order_when_partly_warm(
    surface, dcgan_model
):
    """A warm last item streams first; the collected result stays in order."""
    warm, stream, collect, key, expected = _partly_warm_surface(
        surface, SimulationRunner(), dcgan_model
    )
    warm()
    streamed = stream()
    assert key(next(streamed)) == expected[-1]
    streamed.close()
    assert [key(item) for item in collect()] == expected


# ----------------------------------------------------------------------
# Accelerator registry
# ----------------------------------------------------------------------
class TestAcceleratorRegistry:
    def test_builtin_accelerators_registered(self):
        names = accelerator_names()
        assert len(names) >= 4
        assert {"eyeriss", "ganax", "ganax-noskip", "ideal"} <= set(names)

    def test_specs_carry_version_and_description(self):
        for name in accelerator_names():
            spec = get_accelerator(name)
            assert spec.name == name
            assert spec.version
            assert spec.description
            assert spec.describe()["name"] == name

    def test_created_models_satisfy_the_protocol(self, conv_binding):
        for name in accelerator_names():
            model = create_accelerator(name)
            assert model.name == name
            assert model.describe()["version"] == get_accelerator(name).version
            assert model.config_space()
            result = model.simulate_layer(conv_binding)
            assert result.accelerator == name
            assert result.cycles > 0

    def test_lookup_normalizes_name(self):
        assert get_accelerator(" EYERISS ").name == "eyeriss"

    def test_unknown_name_lists_registered_ones(self):
        with pytest.raises(UnknownAcceleratorError) as excinfo:
            get_accelerator("tpu")
        message = str(excinfo.value)
        assert "tpu" in message
        for name in accelerator_names():
            assert name in message
        assert isinstance(excinfo.value, AnalysisError)  # legacy catch still works

    def test_register_and_unregister_roundtrip(self, dcgan_model):
        @register_accelerator("test-roundtrip", version="7", description="temp")
        class RoundtripSimulator(GanSimulatorBase):
            accelerator_name = "test-roundtrip"

            def simulate_layer(self, binding):
                return create_accelerator("ideal").simulate_layer(binding)

        try:
            assert "test-roundtrip" in accelerator_names()
            spec = get_accelerator("test-roundtrip")
            assert (spec.version, spec.description) == ("7", "temp")
        finally:
            unregister_accelerator("test-roundtrip")
        assert "test-roundtrip" not in accelerator_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_accelerator("ganax")(GanSimulatorBase)

    def test_mismatched_class_name_rejected(self):
        class Mismatched(GanSimulatorBase):
            accelerator_name = "something-else"

        with pytest.raises(ConfigurationError):
            register_accelerator("test-mismatch")(Mismatched)

    def test_factory_function_registration(self, dcgan_model):
        from repro.accelerators.variants import IdealRooflineSimulator

        class NamedRoofline(IdealRooflineSimulator):
            accelerator_name = "test-factory"

        @register_accelerator("test-factory", version="2")
        def build(config=None, options=None):
            return NamedRoofline(config=config, options=options)

        try:
            job = SimulationJob(
                dcgan_model,
                "test-factory",
                ArchitectureConfig.paper_default(),
                SimulationOptions(),
            )
            result = execute_job(job)
            assert result.accelerator == "test-factory"
            ideal = execute_job(
                SimulationJob(dcgan_model, "ideal", job.config, job.options)
            )
            assert result.total_cycles == ideal.total_cycles
        finally:
            unregister_accelerator("test-factory")

    def test_factory_misreporting_its_name_is_rejected(self, dcgan_model):
        # A delegating factory that forwards another entry's results would
        # poison the cache under the wrong identity; execute_job rejects it.
        register_accelerator("test-mislabelled")(
            lambda config=None, options=None: create_accelerator(
                "ideal", config=config, options=options
            )
        )
        try:
            job = SimulationJob(
                dcgan_model,
                "test-mislabelled",
                ArchitectureConfig.paper_default(),
                SimulationOptions(),
            )
            with pytest.raises(AnalysisError, match="registry name"):
                execute_job(job)
        finally:
            unregister_accelerator("test-mislabelled")

    def test_class_version_defaults_to_model_version(self):
        @register_accelerator("test-versioned-class")
        class Versioned(GanSimulatorBase):
            accelerator_name = "test-versioned-class"
            model_version = "3"

            def simulate_layer(self, binding):
                raise NotImplementedError

        try:
            spec = get_accelerator("test-versioned-class")
            assert spec.version == "3"
            assert Versioned().describe()["version"] == "3"
        finally:
            unregister_accelerator("test-versioned-class")

    def test_explicit_version_written_back_to_class(self):
        @register_accelerator("test-explicit-version", version="9")
        class Explicit(GanSimulatorBase):
            accelerator_name = "test-explicit-version"

            def simulate_layer(self, binding):
                raise NotImplementedError

        try:
            assert get_accelerator("test-explicit-version").version == "9"
            assert Explicit().describe()["version"] == "9"
        finally:
            unregister_accelerator("test-explicit-version")

    def test_canonical_options_collapse_ignored_flags(self, dcgan_model):
        config = ArchitectureConfig.paper_default()
        skipping = SimulationOptions(ganax_zero_skipping=True)
        dense = SimulationOptions(ganax_zero_skipping=False)

        def key(accelerator, options):
            return SimulationJob(dcgan_model, accelerator, config, options).cache_key

        # the noskip variant forces the flag off; the baseline and roofline
        # never read it — identical results must share one cache entry
        for name in ("ganax-noskip", "eyeriss", "ideal"):
            assert key(name, skipping) == key(name, dense)
        # ganax genuinely honours the flag, so its keys must stay distinct
        assert key("ganax", skipping) != key("ganax", dense)

    def test_cache_keys_distinct_across_accelerators(self, dcgan_model):
        config = ArchitectureConfig.paper_default()
        options = SimulationOptions()
        keys = {
            SimulationJob(dcgan_model, name, config, options).cache_key
            for name in accelerator_names()
        }
        assert len(keys) == len(accelerator_names())

    def test_cache_key_tracks_model_version(self, dcgan_model):
        config = ArchitectureConfig.paper_default()
        options = SimulationOptions()
        register_accelerator("test-versioned", version="1")(
            lambda config=None, options=None: create_accelerator("ideal")
        )
        try:
            before = SimulationJob(
                dcgan_model, "test-versioned", config, options
            ).cache_key
            unregister_accelerator("test-versioned")
            register_accelerator("test-versioned", version="2")(
                lambda config=None, options=None: create_accelerator("ideal")
            )
            after = SimulationJob(
                dcgan_model, "test-versioned", config, options
            ).cache_key
            assert before != after
        finally:
            unregister_accelerator("test-versioned")


# ----------------------------------------------------------------------
# Session facade
# ----------------------------------------------------------------------
class TestSession:
    def test_defaults_to_the_paper_pair(self):
        session = Session()
        assert session.accelerators == ("eyeriss", "ganax")
        assert session.baseline == "eyeriss"

    def test_unknown_accelerator_rejected(self):
        with pytest.raises(UnknownAcceleratorError):
            Session(accelerators=["eyeriss", "tpu"])

    def test_baseline_must_be_compared(self):
        with pytest.raises(AnalysisError):
            Session(accelerators=["ganax", "ideal"], baseline="eyeriss")

    def test_two_way_session_matches_legacy_compare_model(self, dcgan_model):
        runner = SimulationRunner()
        session = Session(accelerators=["eyeriss", "ganax"], runner=runner)
        multi = session.compare_model(dcgan_model)
        legacy = compare_model(dcgan_model, runner=runner)
        assert multi.as_comparison() == legacy
        assert multi.generator_speedup("ganax") == legacy.generator_speedup
        assert (
            multi.generator_energy_reduction("ganax")
            == legacy.generator_energy_reduction
        )
        assert result_bytes(multi.as_comparison()) == result_bytes(legacy)

    def test_all_registered_accelerators_complete(self, dcgan_model):
        runner = SimulationRunner()
        session = Session(accelerators=accelerator_names(), runner=runner)
        multi = session.compare_model(dcgan_model)
        assert multi.accelerators == accelerator_names()
        assert multi.generator_speedup(session.baseline) == 1.0
        for name in accelerator_names():
            assert multi.result(name).total_cycles > 0
        # the whole (model x accelerator) grid went through the cached runner
        assert runner.stats.misses == len(accelerator_names())

    def test_accepts_model_names_and_defaults_to_all_workloads(self, models):
        session = Session(runner=SimulationRunner())
        by_name = session.compare("DCGAN")
        assert set(by_name) == {"DCGAN"}
        everything = session.compare()
        assert set(everything) == {m.name for m in models}

    def test_run_single_job_through_cache(self, dcgan_model):
        runner = SimulationRunner()
        session = Session(runner=runner)
        result = session.run(dcgan_model, "ideal")
        assert result.accelerator == "ideal"
        again = session.run(dcgan_model, "ideal")
        assert again == result
        assert runner.stats.hits == 1

    def test_sweep_returns_multi_comparisons_per_label(self, dcgan_model):
        session = Session(
            accelerators=["eyeriss", "ganax", "ideal"], runner=SimulationRunner()
        )
        grid = session.sweep("num_pvs", [8, 16], models=[dcgan_model])
        assert list(grid) == ["num_pvs=8", "num_pvs=16"]
        for comparisons in grid.values():
            multi = comparisons["DCGAN"]
            assert multi.accelerators == ("eyeriss", "ganax", "ideal")
            assert multi.generator_speedup("ideal") >= multi.generator_speedup(
                "ganax"
            )

    def test_describe_lists_compared_specs(self):
        session = Session(accelerators=["ganax", "ideal"])
        described = session.describe()
        assert [entry["name"] for entry in described] == ["ganax", "ideal"]


# ----------------------------------------------------------------------
# Workload registry integration: spec strings + versioned cache keys
# ----------------------------------------------------------------------
class TestJobWorkloadResolution:
    def test_spec_string_resolves_through_the_registry(self, paper_config, options):
        job = SimulationJob("DCGAN", "ganax", paper_config, options)
        assert job.model_name == "DCGAN"
        assert job.workload_version == "1"

    def test_spec_string_and_model_instance_share_one_cache_key(
        self, dcgan_model, paper_config, options
    ):
        by_name = SimulationJob("DCGAN", "ganax", paper_config, options)
        by_model = SimulationJob(dcgan_model, "ganax", paper_config, options)
        by_family = SimulationJob("dcgan@64x64", "ganax", paper_config, options)
        assert by_name.cache_key == by_model.cache_key == by_family.cache_key

    def test_unknown_spec_string_raises(self, paper_config, options):
        from repro.errors import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError):
            SimulationJob("StyleGAN", "ganax", paper_config, options)

    def test_family_spec_jobs_execute(self, paper_config, options):
        job = SimulationJob("synthetic@d4c64", "ganax", paper_config, options)
        result = execute_job(job)
        assert result.model_name == "synthetic@d4c64"
        assert result.generator.cycles > 0

    def test_workload_version_is_folded_into_the_cache_key(
        self, dcgan_model, paper_config, options
    ):
        """Two jobs differing only in workload_version never share a cache entry."""
        base = SimulationJob(dcgan_model, "ganax", paper_config, options)
        bumped = SimulationJob(
            dcgan_model, "ganax", paper_config, options, workload_version="2"
        )
        assert base.workload_version == "1"
        assert bumped.cache_key != base.cache_key

    def test_version_bump_through_the_registry_invalidates_cached_results(
        self, paper_config, options
    ):
        from repro.workloads.registry import (
            register_workload,
            unregister_workload,
        )
        from repro.workloads.dcgan import build_dcgan

        register_workload("vbump-gan", version="1")(build_dcgan)
        try:
            before = SimulationJob("vbump-gan", "ganax", paper_config, options)
            assert before.workload_version == "1"
        finally:
            unregister_workload("vbump-gan")
        register_workload("vbump-gan", version="2")(build_dcgan)
        try:
            after = SimulationJob("vbump-gan", "ganax", paper_config, options)
            assert after.workload_version == "2"
            # same structure, same fingerprint — but the bumped version
            # separates the cache generations
            assert after.cache_key != before.cache_key
        finally:
            unregister_workload("vbump-gan")

    def test_adhoc_models_carry_an_empty_version(self, paper_config, options):
        import dataclasses

        from repro.workloads.registry import get_workload

        adhoc = dataclasses.replace(get_workload("DCGAN"), name="my-own-gan")
        job = SimulationJob(adhoc, "ganax", paper_config, options)
        assert job.workload_version == ""


class TestSessionWorkloadSpecs:
    def test_session_accepts_family_spec_strings(self):
        runner = SimulationRunner()
        session = Session(runner=runner)
        multi = session.compare_model("synthetic@d4c64")
        assert multi.model_name == "synthetic@d4c64"
        assert multi.generator_speedup("ganax") > 1.0

    def test_compare_model_resolves_exactly_once(self, monkeypatch):
        session = Session(runner=SimulationRunner())
        calls = []
        original = Session._resolve_models

        def counting(models):
            calls.append(models)
            return original(models)

        monkeypatch.setattr(Session, "_resolve_models", staticmethod(counting))
        session.compare_model("DCGAN")
        assert len(calls) == 1

    def test_explore_targets_a_workload_family(self):
        runner = SimulationRunner()
        session = Session(runner=runner)
        result = session.explore(
            accelerator="ganax",
            workload_family="synthetic",
            workload_variants=("d2c32", "d2c32z100"),
            overrides={"num_pvs": (8, 16)},
            fields=("num_pvs",),
        )
        assert len(result.evaluated) == 2
        speedups = result.evaluated[0].metrics["speedups"]
        assert set(speedups) == {"synthetic@d2c32", "synthetic@d2c32z100"}

    def test_explore_rejects_models_plus_family(self):
        session = Session(runner=SimulationRunner())
        with pytest.raises(AnalysisError):
            session.explore(models=["DCGAN"], workload_family="synthetic")
        with pytest.raises(AnalysisError):
            session.explore(workload_variants=("d2c32",))
