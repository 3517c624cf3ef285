"""Tests for the design-space exploration subsystem (repro.dse).

The load-bearing guarantees: a `DesignSpace` is faithful to the accelerator's
declared ``config_space()``; `ExhaustiveSearch` is value-identical to the
equivalent `ParameterSweep`; the `ParetoFrontier` partition is verifiably
non-dominated; and a repeated search against a warm disk cache re-simulates
nothing (100% cache hits).  Satellite coverage: `DiskResultCache.prune` and
the pinned design-point registry entries.
"""

from __future__ import annotations

import os

import pytest

from repro.accelerators import (
    create_accelerator,
    get_accelerator,
    register_ganax_design_point,
    unregister_accelerator,
)
from repro.analysis.report import format_frontier
from repro.analysis.serialization import canonical_json
from repro.analysis.sweep import ParameterSweep
from repro.config import ArchitectureConfig, SimulationOptions
from repro.dse import (
    DesignPoint,
    DesignSpace,
    DesignSpaceExplorer,
    Dimension,
    EvaluatedPoint,
    ExhaustiveSearch,
    HillClimbSearch,
    Objective,
    ParetoFrontier,
    RandomSearch,
    dominates,
    get_strategy,
    scalar_score,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments import experiment_ids, run_experiment
from repro.experiments.base import ExperimentContext
from repro.runner import (
    DiskResultCache,
    SimulationJob,
    SimulationRunner,
)
from repro.session import Session
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def small_models():
    """Two workloads keep engine tests fast while exercising the geomean."""
    return [get_workload("DCGAN"), get_workload("MAGAN")]


@pytest.fixture(scope="module")
def geometry_space():
    return DesignSpace(
        dimensions=[
            Dimension("num_pvs", (8, 16)),
            Dimension("pes_per_pv", (8, 16)),
        ]
    )


def make_explorer(models, runner=None):
    return DesignSpaceExplorer(
        models=models,
        runner=runner or SimulationRunner(),
    )


# ----------------------------------------------------------------------
# DesignSpace / DesignPoint
# ----------------------------------------------------------------------
class TestDesignSpace:
    def test_dimension_rejects_unknown_field_and_empty_values(self):
        with pytest.raises(ConfigurationError):
            Dimension("not_a_field", (1, 2))
        with pytest.raises(ConfigurationError):
            Dimension("num_pvs", ())

    def test_dimension_collapses_duplicate_values(self):
        assert Dimension("num_pvs", (8, 8.0, 16)).values == (8, 16)

    def test_point_is_canonical_and_hashable(self):
        a = DesignPoint.from_mapping({"pes_per_pv": 8, "num_pvs": 16.0})
        b = DesignPoint.from_mapping({"num_pvs": 16, "pes_per_pv": 8})
        assert a == b
        assert hash(a) == hash(b)
        assert a.label == "num_pvs=16,pes_per_pv=8"
        assert a.apply(ArchitectureConfig.paper_default()).num_pvs == 16

    def test_enumeration_order_and_size(self, geometry_space):
        points = list(geometry_space.points())
        assert geometry_space.size == 4
        assert [p.values["num_pvs"] for p in points] == [8, 8, 16, 16]
        assert [p.values["pes_per_pv"] for p in points] == [8, 16, 8, 16]
        assert points == [geometry_space.point_at(i) for i in range(4)]

    def test_constraints_filter_enumeration_and_sampling(self):
        space = DesignSpace(
            dimensions=[
                Dimension("num_pvs", (8, 16)),
                Dimension("pes_per_pv", (8, 16)),
            ],
            constraints=[lambda v: v["num_pvs"] * v["pes_per_pv"] <= 128],
        )
        points = list(space.points())
        assert [p.label for p in points] == [
            "num_pvs=8,pes_per_pv=8",
            "num_pvs=8,pes_per_pv=16",
            "num_pvs=16,pes_per_pv=8",
        ]
        from random import Random

        assert sorted(space.sample(10, Random(0)), key=lambda p: p.label) == sorted(
            points, key=lambda p: p.label
        )

    def test_sampling_huge_spaces_stays_bounded(self):
        """Regression: sampling must not materialize the whole index grid."""
        from random import Random

        space = DesignSpace(
            dimensions=[
                Dimension("num_pvs", tuple(range(1, 201))),
                Dimension("pes_per_pv", tuple(range(1, 201))),
                Dimension("local_uop_entries", tuple(range(1, 17))),
                Dimension("address_fifo_depth", tuple(range(1, 101))),
                Dimension("uop_fifo_depth", tuple(range(1, 101))),
            ]
        )
        assert space.size == 200 * 200 * 16 * 100 * 100  # 6.4e9 grid points
        points = space.sample(5, Random(11))
        assert len(points) == 5
        assert len(set(points)) == 5
        assert points == space.sample(5, Random(11))  # deterministic

    def test_invalid_config_is_infeasible(self):
        # pv_index_bits=1 cannot address the default 16 local uop entries.
        space = DesignSpace(dimensions=[Dimension("pv_index_bits", (1, 4))])
        assert [p.values["pv_index_bits"] for p in space.points()] == [4]

    def test_neighbors_step_one_value_per_dimension(self, geometry_space):
        corner = DesignPoint.from_mapping({"num_pvs": 8, "pes_per_pv": 8})
        labels = {p.label for p in geometry_space.neighbors(corner)}
        assert labels == {
            "num_pvs=16,pes_per_pv=8",
            "num_pvs=8,pes_per_pv=16",
        }

    def test_for_accelerator_uses_config_space(self):
        space = DesignSpace.for_accelerator("ideal")
        # the roofline only reacts to geometry + clock (+ data bits)
        assert "dram_bandwidth_bytes_per_cycle" not in space.dimension_names
        assert set(space.dimension_names) <= set(
            create_accelerator("ideal").config_space()
        )

    def test_for_accelerator_rejects_unreactive_field(self):
        with pytest.raises(ConfigurationError) as excinfo:
            DesignSpace.for_accelerator(
                "ideal", fields=("dram_bandwidth_bytes_per_cycle",)
            )
        assert "does not react" in str(excinfo.value)

    def test_for_accelerator_requires_values_for_unknown_ranges(self):
        with pytest.raises(ConfigurationError) as excinfo:
            DesignSpace.for_accelerator("ganax", fields=("data_bits",))
        assert "overrides" in str(excinfo.value)
        space = DesignSpace.for_accelerator(
            "ganax", fields=("data_bits",), overrides={"data_bits": (8, 16)}
        )
        assert space.dimensions[0].values == (8, 16)


# ----------------------------------------------------------------------
# Pareto frontier
# ----------------------------------------------------------------------
def evaluated(label_values, **objectives):
    return EvaluatedPoint(
        point=DesignPoint.from_mapping(label_values), objectives=objectives
    )


OBJECTIVES = (Objective("speedup", "max"), Objective("energy", "min"))


class TestParetoFrontier:
    def test_partition_excludes_exactly_the_dominated(self):
        good = evaluated({"num_pvs": 8}, speedup=4.0, energy=1.0)
        tradeoff = evaluated({"num_pvs": 16}, speedup=5.0, energy=2.0)
        bad = evaluated({"num_pvs": 32}, speedup=3.0, energy=3.0)
        frontier = ParetoFrontier(OBJECTIVES, [bad, tradeoff, good])
        assert set(frontier.frontier) == {good, tradeoff}
        assert frontier.dominated == (bad,)
        assert frontier.best("speedup") == tradeoff
        assert frontier.best("energy") == good

    def test_equal_points_neither_dominates(self):
        a = evaluated({"num_pvs": 8}, speedup=4.0, energy=1.0)
        b = evaluated({"num_pvs": 16}, speedup=4.0, energy=1.0)
        assert not dominates(a, b, OBJECTIVES)
        frontier = ParetoFrontier(OBJECTIVES, [a, b])
        assert set(frontier.frontier) == {a, b}

    def test_duplication_and_order_invariance(self):
        points = [
            evaluated({"num_pvs": 8}, speedup=4.0, energy=1.0),
            evaluated({"num_pvs": 16}, speedup=5.0, energy=2.0),
            evaluated({"num_pvs": 32}, speedup=3.0, energy=3.0),
        ]
        reference = ParetoFrontier(OBJECTIVES, points)
        assert ParetoFrontier(OBJECTIVES, points[::-1]) == reference
        assert ParetoFrontier(OBJECTIVES, points * 3) == reference

    def test_rejects_bad_senses_and_missing_objectives(self):
        with pytest.raises(AnalysisError):
            Objective("speedup", "maximize")
        point = evaluated({"num_pvs": 8}, speedup=4.0)
        with pytest.raises(AnalysisError):
            ParetoFrontier(OBJECTIVES, [point])

    def test_scalar_score_orders_by_product_of_ratios(self):
        better = evaluated({"num_pvs": 8}, speedup=4.0, energy=1.0)
        worse = evaluated({"num_pvs": 16}, speedup=2.0, energy=1.0)
        assert scalar_score(better, OBJECTIVES) > scalar_score(worse, OBJECTIVES)
        degenerate = evaluated({"num_pvs": 32}, speedup=0.0, energy=1.0)
        assert scalar_score(degenerate, OBJECTIVES) == float("-inf")

    def test_format_frontier_renders_partition(self):
        frontier = ParetoFrontier(
            OBJECTIVES,
            [
                evaluated({"num_pvs": 8}, speedup=4.0, energy=1.0),
                evaluated({"num_pvs": 32}, speedup=3.0, energy=3.0),
            ],
        )
        rows = [
            {
                "label": p.label,
                "objectives": dict(p.objectives),
                "on_frontier": frontier.is_on_frontier(p),
            }
            for p in (*frontier.frontier, *frontier.dominated)
        ]
        text = format_frontier("T", rows, [("speedup", "max"), ("energy", "min")])
        assert "speedup (^)" in text and "energy (v)" in text
        assert "frontier" in text and "dominated" in text


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_get_strategy_resolves_names(self):
        assert get_strategy("exhaustive").name == "exhaustive"
        assert get_strategy("RANDOM", seed=3).name == "random"
        assert get_strategy("hillclimb").name == "hillclimb"
        with pytest.raises(ConfigurationError):
            get_strategy("bayesian")

    def test_exhaustive_rejects_insufficient_budget(self, small_models, geometry_space):
        explorer = make_explorer(small_models)
        with pytest.raises(AnalysisError) as excinfo:
            explorer.explore(
                space=geometry_space, strategy=ExhaustiveSearch(), budget=2
            )
        assert "budget" in str(excinfo.value)

    def test_random_search_is_deterministic_and_budgeted(
        self, small_models, geometry_space
    ):
        explorer = make_explorer(small_models)
        first = explorer.explore(
            space=geometry_space, strategy=RandomSearch(seed=7), budget=3
        )
        second = explorer.explore(
            space=geometry_space, strategy=RandomSearch(seed=7), budget=3
        )
        labels = [p.label for p in first.evaluated]
        assert len(labels) == 3
        assert len(set(labels)) == 3  # without replacement
        assert labels == [p.label for p in second.evaluated]

    def test_hillclimb_respects_budget_and_visits_distinct_points(
        self, small_models, geometry_space
    ):
        explorer = make_explorer(small_models)
        result = explorer.explore(
            space=geometry_space, strategy=HillClimbSearch(seed=1), budget=3
        )
        labels = [p.label for p in result.evaluated]
        assert 1 <= len(labels) <= 3
        assert len(set(labels)) == len(labels)

    def test_hillclimb_never_overshoots_budget_on_restart(self, small_models):
        """Regression: a restart after a stuck climb must not exceed budget."""
        explorer = make_explorer(small_models)
        space = explorer.space(
            fields=("num_pvs", "pes_per_pv"),
            overrides={"num_pvs": (4, 8, 16, 32), "pes_per_pv": (4, 8, 16, 32)},
        )
        for seed, budget in ((3, 2), (3, 3), (7, 2)):
            result = explorer.explore(
                space=space, strategy=HillClimbSearch(seed=seed), budget=budget
            )
            assert len(result.evaluated) <= budget, (seed, budget)

    def test_hillclimb_exhausts_small_spaces(self, small_models, geometry_space):
        explorer = make_explorer(small_models)
        result = explorer.explore(
            space=geometry_space, strategy=HillClimbSearch(seed=0), budget=10
        )
        assert len(result.evaluated) == geometry_space.size


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestExplorer:
    def test_exhaustive_matches_parameter_sweep_byte_identical(self, small_models):
        """Acceptance: ExhaustiveSearch == the equivalent ParameterSweep."""
        values = (16.0, 64.0)
        runner = SimulationRunner()
        sweep_points = ParameterSweep(small_models, runner=runner).run(
            "dram_bandwidth_bytes_per_cycle", list(values)
        )
        explorer = make_explorer(small_models)
        space = explorer.space(
            fields=("dram_bandwidth_bytes_per_cycle",),
            overrides={"dram_bandwidth_bytes_per_cycle": values},
        )
        result = explorer.explore(space=space, strategy=ExhaustiveSearch())
        assert len(result.evaluated) == len(sweep_points)
        dse_series = [p.metrics["speedups"] for p in result.evaluated]
        sweep_series = [p.speedups for p in sweep_points]
        assert canonical_json(dse_series) == canonical_json(sweep_series)

    def test_frontier_is_verifiably_non_dominated(self, small_models, geometry_space):
        """Acceptance: no frontier point dominated, dominated points excluded."""
        result = make_explorer(small_models).explore(space=geometry_space)
        frontier = result.frontier
        for a in frontier.frontier:
            for b in frontier.frontier:
                assert not dominates(a, b, frontier.objectives)
        for p in frontier.dominated:
            assert any(
                dominates(f, p, frontier.objectives) for f in frontier.frontier
            )
        assert set(frontier.frontier) | set(frontier.dominated) == set(
            result.evaluated
        )

    def test_warm_disk_cache_answers_everything(self, small_models, tmp_path):
        """Acceptance: re-search against a warm disk cache -> 100% hits."""
        space_args = dict(
            fields=("num_pvs",), overrides={"num_pvs": (8, 16, 32)}
        )
        cold_runner = SimulationRunner(cache=DiskResultCache(tmp_path / "c"))
        cold_explorer = make_explorer(small_models, runner=cold_runner)
        cold = cold_explorer.explore(space=cold_explorer.space(**space_args))
        assert cold.cache_stats.misses == cold.cache_stats.lookups > 0

        warm_runner = SimulationRunner(cache=DiskResultCache(tmp_path / "c"))
        warm_explorer = make_explorer(small_models, runner=warm_runner)
        warm = warm_explorer.explore(space=warm_explorer.space(**space_args))
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate == 1.0
        assert warm.frontier.summary() == cold.frontier.summary()

    def test_summary_and_report_round_trip(self, small_models, geometry_space):
        result = make_explorer(small_models).explore(space=geometry_space)
        summary = result.summary()
        assert summary["accelerator"] == "ganax"
        assert summary["baseline"] == "eyeriss"
        assert summary["evaluations"] == 4
        assert len(summary["frontier"]) + len(summary["dominated"]) == 4
        assert canonical_json(summary)  # JSON-serializable
        report = result.report()
        for point in result.evaluated:
            assert point.label in report

    def test_objectives_carry_area_from_pe_count(self, small_models):
        explorer = make_explorer(small_models)
        space = explorer.space(fields=("num_pvs",), overrides={"num_pvs": (8, 16)})
        small, large = explorer.evaluate(list(space.points()))
        assert small.objectives["area_mm2"] < large.objectives["area_mm2"]
        assert small.metrics["num_pes"] == 8 * 16

    def test_area_model_follows_the_explored_family(self, small_models):
        """The area objective prices the candidate's family, not the baseline's."""
        from repro.hw.area import AreaModel

        point = DesignPoint.from_mapping({"num_pvs": 16})
        expected = {
            True: AreaModel(num_pes=256).total_area_mm2(ganax=True),
            False: AreaModel(num_pes=256).total_area_mm2(ganax=False),
        }
        for accelerator, baseline, is_ganax in (
            ("ganax", "eyeriss", True),
            ("eyeriss", "ganax", False),  # exploring the baseline family
            ("ganax", "ganax", True),
        ):
            explorer = DesignSpaceExplorer(
                accelerator=accelerator,
                baseline=baseline,
                models=small_models,
                runner=SimulationRunner(),
            )
            (evaluated,) = explorer.evaluate([point])
            assert evaluated.objectives["area_mm2"] == pytest.approx(
                expected[is_ganax]
            ), (accelerator, baseline)

    def test_memoized_evaluations_do_not_duplicate_trace(self, small_models):
        explorer = make_explorer(small_models)
        space = explorer.space(fields=("num_pvs",), overrides={"num_pvs": (8,)})

        class RepeatingStrategy:
            name = "repeating"

            def search(self, space, evaluate, objectives, budget=None):
                point = next(space.points())
                batch = evaluate([point, point])  # duplicate within one batch
                assert batch[0] == batch[1]
                return evaluate([point])  # and again across batches

        result = explorer.explore(space=space, strategy=RepeatingStrategy())
        assert len(result.evaluated) == 1
        summary = result.summary()
        assert summary["evaluations"] == len(summary["frontier"]) + len(
            summary["dominated"]
        )

    def test_session_explore_uses_session_runner(self, small_models):
        runner = SimulationRunner()
        session = Session(accelerators=("eyeriss", "ganax"), runner=runner)
        result = session.explore(
            models=["DCGAN"],
            fields=("num_pvs",),
            overrides={"num_pvs": (8, 16)},
        )
        assert result.accelerator == "ganax"
        assert result.baseline == "eyeriss"
        assert len(result.evaluated) == 2
        assert runner.stats.lookups > 0

    def test_dse_experiment_registered_and_runs(self):
        assert "dse" in experiment_ids()
        # default context: all six workloads, as `repro-experiments dse` runs
        context = ExperimentContext(runner=SimulationRunner())
        result = run_experiment("dse", context)
        assert result.experiment_id == "dse"
        assert result.data["evaluations"] == 6
        # the flag must agree with the reported frontier partition
        on_frontier = any(
            entry["point"] == {"num_pvs": 16, "pes_per_pv": 16}
            for entry in result.data["frontier"]
        )
        assert result.data["paper_point_on_frontier"] == on_frontier
        assert result.report


# ----------------------------------------------------------------------
# Disk cache pruning (satellite)
# ----------------------------------------------------------------------
class TestCachePrune:
    def fill(self, cache, entries):
        """Store payloads under fake keys with controlled mtimes."""
        for offset, (key, payload) in enumerate(entries.items()):
            cache.put(key, payload)
            path = cache._path_for(key)
            stamp = 1_000_000 + offset
            os.utime(path, (stamp, stamp))

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        self.fill(cache, {"aa" + "0" * 62: b"x" * 100, "bb" + "0" * 62: b"y" * 100})
        keep_bytes = cache.size_bytes() - 1  # force exactly one eviction
        stats = cache.prune(max_bytes=keep_bytes)
        assert stats.removed_entries == 1
        assert stats.remaining_entries == 1
        assert cache.get("aa" + "0" * 62) is None  # the older entry went
        assert cache.get("bb" + "0" * 62) == b"y" * 100

    def test_prune_zero_empties_cache(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        self.fill(cache, {"cc" + "0" * 62: b"z"})
        assert cache.get("cc" + "0" * 62) == b"z"
        stats = cache.prune(max_bytes=0)
        assert stats.removed_entries == 1
        assert stats.remaining_bytes == 0
        assert len(cache) == 0
        assert list(tmp_path.rglob("*.pkl")) == []
        # the instance that served the entry no longer does
        assert cache.get("cc" + "0" * 62) is None

    def test_prune_noop_within_budget(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        self.fill(cache, {"dd" + "0" * 62: b"w" * 10})
        stats = cache.prune(max_bytes=10_000)
        assert stats.removed_entries == 0
        assert stats.remaining_entries == 1
        assert stats.remaining_bytes == cache.size_bytes()

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(AnalysisError):
            DiskResultCache(tmp_path).prune(max_bytes=-1)

    def test_get_refreshes_recency(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        self.fill(cache, {"ee" + "0" * 62: b"old", "ff" + "0" * 62: b"new"})
        # A fresh cache instance re-reads 'ee' from disk, touching its mtime,
        # so 'ff' (untouched since fill) becomes the eviction victim.
        reader = DiskResultCache(tmp_path)
        assert reader.get("ee" + "0" * 62) == b"old"
        stats = reader.prune(max_bytes=reader.size_bytes() - 1)
        assert stats.removed_entries == 1
        assert reader.get("ee" + "0" * 62) == b"old"
        assert reader.get("ff" + "0" * 62) is None


# ----------------------------------------------------------------------
# Pinned design points (satellite)
# ----------------------------------------------------------------------
class TestDesignPoints:
    def test_ganax_design_point_matches_explicit_config(self):
        name = register_ganax_design_point(8, 32)
        try:
            assert name == "ganax@8x32"
            spec = get_accelerator(name)
            assert "num_pvs=8" in spec.version
            runner = SimulationRunner()
            model = get_workload("DCGAN")
            pinned = runner.run_job(
                SimulationJob(
                    model=model,
                    accelerator=name,
                    config=ArchitectureConfig.paper_default(),
                    options=SimulationOptions(),
                )
            )
            explicit = create_accelerator(
                "ganax",
                config=ArchitectureConfig.paper_default().with_updates(
                    num_pvs=8, pes_per_pv=32
                ),
            ).simulate_gan(model)
            assert pinned.generator.cycles == explicit.generator.cycles
            assert pinned.generator.energy_pj == explicit.generator.energy_pj
            assert pinned.accelerator == name
        finally:
            unregister_accelerator(name)

    def test_pinned_fields_leave_config_space(self):
        name = register_ganax_design_point(16, 8, name="ganax@pin-test")
        try:
            model = create_accelerator(name)
            assert "num_pvs" not in model.config_space()
            assert "pes_per_pv" not in model.config_space()
            assert model.config.num_pvs == 16
            assert model.config.pes_per_pv == 8
        finally:
            unregister_accelerator(name)

    def test_design_point_validates_fields(self):
        from repro.accelerators import register_design_point
        from repro.core.simulator import GanaxSimulator

        with pytest.raises(ConfigurationError):
            register_design_point(GanaxSimulator, "ganax@bad", not_a_field=3)
        with pytest.raises(ConfigurationError):
            register_design_point(GanaxSimulator, "ganax@empty")
